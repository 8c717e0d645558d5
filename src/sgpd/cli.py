"""Command-line front end: end-to-end runs, trade-off sweeps, secrecy audits.

Configuration comes from a flat key=value file (--config) overridden by
explicit command-line flags; every output embeds the resolved configuration
in '#'-prefixed header lines so results are reproducible from the artifact
alone.

Exit codes: 0 success (audit: SECURE), 1 run/audit failure (decode failed or
INSECURE), 2 configuration error, 3 audit budget exceeded.
"""

from __future__ import annotations

import argparse
import functools
import sys
from math import gcd
from pathlib import Path

import numpy as np

from .blocks import augment, partition, read_matrix, write_matrix
from .cluster_sim import FixedSet, LatencyModel, RandomSubset, run
from .codec import build_plan, code_geometry, naive_secure_threshold
from .errors import BudgetExceeded, ConfigurationError, SgpdError
from .field import PrimeField
from .secrecy_audit import DEFAULT_BUDGET, AuditInstance, audit_all_subsets, report_lines

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_CONFIG = 2
EXIT_BUDGET = 3

CSV_COLUMNS = "pc,t,s,d,case,P_R,C_L_over_TD,naive_P_R,feasible,frontier"

_INT_KEYS = {
    "t", "s", "d", "pc", "workers", "T", "S", "D", "modulus", "seed",
    "budget", "responder_count", "trial", "m", "n",
}
_FLOAT_KEYS = {"shift", "rate", "failure_prob"}
_BOOL_KEYS = {"negative_control"}
_INT_LIST_KEYS = {"pc_list", "responders"}


def _int_list(raw: str) -> list:
    return [int(x) for x in raw.split(",") if x.strip() != ""]


def _convert(key: str, raw: str):
    try:
        if key in _INT_KEYS:
            return int(raw)
        if key in _FLOAT_KEYS:
            return float(raw)
        if key in _BOOL_KEYS:
            if raw.lower() in ("1", "true", "yes", "on"):
                return True
            if raw.lower() in ("0", "false", "no", "off"):
                return False
            raise ValueError(f"not a boolean: {raw!r}")
        if key in _INT_LIST_KEYS:
            return _int_list(raw)
        return raw
    except ValueError as exc:
        raise ConfigurationError(f"config key {key!r}: {exc}") from None


def _read_config(path) -> dict:
    values = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        values[key.strip().replace("-", "_")] = value.strip()
    return values


def _resolve(args: argparse.Namespace, defaults: dict):
    """defaults < config file < explicit flags.  Returns (values, explicit keys)."""
    merged = dict(defaults)
    explicit = set()
    if getattr(args, "config", None):
        for key, raw in _read_config(args.config).items():
            if key not in defaults:
                raise ConfigurationError(f"unknown config key {key!r}")
            merged[key] = _convert(key, raw)
            explicit.add(key)
    for key in defaults:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
            explicit.add(key)
    return merged, explicit


def _require(merged: dict, keys) -> None:
    missing = [k for k in keys if merged.get(k) is None]
    if missing:
        raise ConfigurationError(
            "missing required parameter(s): " + ", ".join(sorted(missing))
        )


def _header(command: str, merged: dict) -> list:
    lines = [f"# command={command}"]
    for key in sorted(merged):
        value = merged[key]
        if value is None:
            continue
        if isinstance(value, list):
            value = ",".join(map(str, value))
        lines.append(f"# {key}={value}")
    return lines


def _emit(text: str, out_path) -> None:
    if out_path:
        Path(out_path).write_text(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------

_RUN_DEFAULTS = {
    "t": None, "s": None, "d": None, "pc": 0, "workers": None,
    "modulus": 257, "seed": 0, "T": None, "S": None, "D": None,
    "a": None, "b": None, "out": None, "model": "latency",
    "responders": None, "responder_count": None,
    "shift": 1.0, "rate": 1.0, "failure_prob": 0.0,
    "trial": 0, "trace_dir": None,
}


def _build_model(merged: dict):
    kind = merged["model"]
    if kind == "fixed":
        _require(merged, ["responders"])
        return FixedSet(merged["responders"])
    if kind == "subset":
        _require(merged, ["responder_count"])
        return RandomSubset(merged["responder_count"], merged["seed"])
    if kind == "latency":
        return LatencyModel(
            merged["shift"], merged["rate"], merged["failure_prob"], merged["seed"]
        )
    raise ConfigurationError(f"unknown model {kind!r} (expected fixed|subset|latency)")


def cmd_run(args: argparse.Namespace) -> int:
    merged, explicit = _resolve(args, _RUN_DEFAULTS)
    _require(merged, ["t", "s", "d", "workers"])
    for key in ("seed", "trial"):
        if merged[key] < 0:
            raise ConfigurationError(f"{key} must be >= 0, got {merged[key]}")
    rng = np.random.default_rng(merged["seed"])
    if merged["a"] or merged["b"]:
        _require(merged, ["a", "b"])
        a_arr, mod_a = read_matrix(merged["a"])
        b_arr, mod_b = read_matrix(merged["b"])
        if mod_a != mod_b:
            raise ConfigurationError(f"input moduli differ: {mod_a} vs {mod_b}")
        if "modulus" in explicit and merged["modulus"] != mod_a:
            raise ConfigurationError(
                f"--modulus {merged['modulus']} contradicts input files ({mod_a})"
            )
        merged["modulus"] = mod_a
        if a_arr.shape[1] != b_arr.shape[0]:
            raise ConfigurationError(
                f"inner dimensions disagree: A is {a_arr.shape}, B is {b_arr.shape}"
            )
        merged["T"], merged["S"] = a_arr.shape
        merged["D"] = b_arr.shape[1]
    _require(merged, ["T", "S", "D"])
    for name in "TSD":
        if merged[name] < 1:
            raise ConfigurationError(f"{name}={merged[name]}: matrix dimensions must be >= 1")
    field = PrimeField(merged["modulus"])
    if not merged["a"]:
        a_arr = field.random_array((merged["T"], merged["S"]), rng)
        b_arr = field.random_array((merged["S"], merged["D"]), rng)
    plan = build_plan(
        merged["t"], merged["s"], merged["d"], merged["pc"], merged["workers"], field
    )
    pair = augment(
        partition(a_arr, (merged["t"], merged["s"]), field),
        partition(b_arr, (merged["s"], merged["d"]), field),
        merged["pc"],
        rng,
    )
    model = _build_model(merged)
    report = run(plan, pair, model, merged["trial"], merged["trace_dir"])
    lines = _header("run", merged)
    lines += [
        f"case={plan.case}",
        f"recovery_threshold={plan.recovery_threshold}",
        f"normalized_load={plan.normalized_load}",
    ]
    lines += report.lines()
    print("\n".join(lines))
    if report.success and merged["out"]:
        write_matrix(merged["out"], report.decoded.data, field.p)
    return EXIT_OK if report.success else EXIT_FAILURE


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

_SWEEP_DEFAULTS = {"m": None, "n": None, "workers": None, "pc_list": [0], "out": None}


def sweep_rows(m: int, n: int, n_workers: int, pc_list) -> list:
    """One row per (P_C, t, s, d) with t*s = m and s*d = n, sorted, with the
    per-P_C Pareto frontier marked on (P_R, C_L)."""
    splits = [s for s in range(1, gcd(m, n) + 1) if m % s == 0 and n % s == 0]
    rows = []
    for pc in pc_list:
        group = []
        for s in splits:
            t, d = m // s, n // s
            geo = code_geometry(t, s, d, pc)
            p_r = geo.recovery_threshold
            load = geo.normalized_load
            naive = naive_secure_threshold(t, s, d, pc) if s < t else None
            group.append(
                {
                    "pc": pc, "t": t, "s": s, "d": d, "case": geo.case,
                    "P_R": p_r, "C_L_over_TD": load,
                    "naive_P_R": naive, "feasible": p_r <= n_workers,
                }
            )
        for row in group:
            row["frontier"] = not any(
                other["P_R"] <= row["P_R"]
                and other["C_L_over_TD"] <= row["C_L_over_TD"]
                and (
                    other["P_R"] < row["P_R"]
                    or other["C_L_over_TD"] < row["C_L_over_TD"]
                )
                for other in group
            )
        rows.extend(group)
    rows.sort(key=lambda r: (r["pc"], r["t"], r["s"], r["d"]))
    return rows


def cmd_sweep(args: argparse.Namespace) -> int:
    merged, _ = _resolve(args, _SWEEP_DEFAULTS)
    _require(merged, ["m", "n", "workers"])
    if merged["m"] < 1 or merged["n"] < 1:
        raise ConfigurationError("m and n must be >= 1")
    if merged["workers"] < 1:
        raise ConfigurationError(f"need at least one worker, got {merged['workers']}")
    rows = sweep_rows(merged["m"], merged["n"], merged["workers"], merged["pc_list"])
    lines = _header("sweep", merged)
    lines.append(CSV_COLUMNS)
    for r in rows:
        lines.append(
            ",".join(
                [
                    str(r["pc"]), str(r["t"]), str(r["s"]), str(r["d"]), r["case"],
                    str(r["P_R"]), str(r["C_L_over_TD"]),
                    "" if r["naive_P_R"] is None else str(r["naive_P_R"]),
                    "true" if r["feasible"] else "false",
                    "true" if r["frontier"] else "false",
                ]
            )
        )
    _emit("\n".join(lines) + "\n", merged["out"])
    return EXIT_OK


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------

_AUDIT_DEFAULTS = {
    "t": None, "s": None, "d": None, "pc": 0, "workers": None,
    "T": None, "S": None, "D": None, "modulus": 257,
    "budget": DEFAULT_BUDGET, "negative_control": False, "out": None,
}


def cmd_audit(args: argparse.Namespace) -> int:
    merged, _ = _resolve(args, _AUDIT_DEFAULTS)
    _require(merged, ["t", "s", "d", "workers", "T", "S", "D"])
    if merged["budget"] < 0:
        raise ConfigurationError(f"budget must be >= 0, got {merged['budget']}")
    instance = AuditInstance(
        merged["t"], merged["s"], merged["d"], merged["pc"], merged["workers"],
        PrimeField(merged["modulus"]),
        merged["T"], merged["S"], merged["D"],
        negative_control=merged["negative_control"],
    )
    verdict = audit_all_subsets(instance, merged["budget"])
    text = "\n".join(_header("audit", merged) + report_lines(instance, verdict)) + "\n"
    sys.stdout.write(text)
    if merged["out"]:
        Path(merged["out"]).write_text(text)
    return EXIT_OK if verdict.secure else EXIT_FAILURE


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", help="flat key=value configuration file")
    sub.add_argument("--out", help="output file (default: stdout)")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """Built on the first call and shared by every later one: parsing reads
    the parser and returns a fresh namespace, so no call sees another's."""
    parser = argparse.ArgumentParser(
        prog="sgpd",
        description="Secure coded distributed matrix multiplication simulator",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_run = subs.add_parser("run", help="encode, simulate a worker pool, decode")
    _add_common(p_run)
    p_run.add_argument("--modulus", type=int, help="prime field modulus")
    p_run.add_argument("--seed", type=int, help="seed for every random draw")
    p_run.add_argument("--t", type=int, help="block rows of A")
    p_run.add_argument("--s", type=int, help="inner split of A and B")
    p_run.add_argument("--d", type=int, help="block columns of B")
    p_run.add_argument("--pc", type=int, help="colluding workers tolerated")
    p_run.add_argument("--P", dest="workers", type=int, help="worker pool size")
    p_run.add_argument("--T", dest="T", type=int, help="rows of A")
    p_run.add_argument("--S", dest="S", type=int, help="cols of A / rows of B")
    p_run.add_argument("--D", dest="D", type=int, help="cols of B")
    p_run.add_argument("--a", help="input matrix file for A")
    p_run.add_argument("--b", help="input matrix file for B")
    p_run.add_argument("--model", choices=["fixed", "subset", "latency"])
    p_run.add_argument("--responders", type=_int_list, help="fixed model: worker ids")
    p_run.add_argument(
        "--responder-count", dest="responder_count", type=int,
        help="subset model: how many workers respond",
    )
    p_run.add_argument("--shift", type=float, help="latency model: minimum delay")
    p_run.add_argument("--rate", type=float, help="latency model: exponential rate")
    p_run.add_argument(
        "--fail-prob", dest="failure_prob", type=float,
        help="latency model: permanent failure probability",
    )
    p_run.add_argument("--trial", type=int, help="trial index for the delay draw")
    p_run.add_argument("--trace-dir", dest="trace_dir", help="dump shares + manifest here")
    p_run.set_defaults(func=cmd_run)

    p_sweep = subs.add_parser("sweep", help="enumerate the threshold/load trade-off")
    _add_common(p_sweep)
    p_sweep.add_argument("--m", type=int, help="storage divisor of A (m = t*s)")
    p_sweep.add_argument("--n", type=int, help="storage divisor of B (n = s*d)")
    p_sweep.add_argument("--P", dest="workers", type=int, help="worker pool size")
    p_sweep.add_argument(
        "--pc-list", dest="pc_list", type=_int_list,
        help="comma-separated collusion levels",
    )
    p_sweep.set_defaults(func=cmd_sweep)

    p_audit = subs.add_parser("audit", help="exact secrecy check by rank over GF(p), per coalition")
    _add_common(p_audit)
    p_audit.add_argument("--modulus", type=int, help="prime field modulus")
    p_audit.add_argument("--t", type=int)
    p_audit.add_argument("--s", type=int)
    p_audit.add_argument("--d", type=int)
    p_audit.add_argument("--pc", type=int)
    p_audit.add_argument("--P", dest="workers", type=int, help="worker pool size")
    p_audit.add_argument("--T", dest="T", type=int)
    p_audit.add_argument("--S", dest="S", type=int)
    p_audit.add_argument("--D", dest="D", type=int)
    p_audit.add_argument("--budget", type=int, help="max assignments covered over all subsets")
    p_audit.add_argument(
        "--negative-control", dest="negative_control",
        action="store_const", const=True,
        help="zero the live randomness; the verdict must flip to INSECURE",
    )
    p_audit.set_defaults(func=cmd_audit)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except (SgpdError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
