"""Command-line front end: end-to-end runs, trade-off sweeps, secrecy audits.

Each command declares its options once, in ``OPTIONS``: dest -> (flag, type,
default, help).  That table builds the parser, converts config-file values,
gives the defaults and names the header keys.  Configuration comes from a
flat key=value file (--config), whose keys are the dests, overridden by
explicit command-line flags; every output embeds the resolved configuration
in '#'-prefixed header lines, which read back as a config file.

Exit codes: 0 success (audit: SECURE), 1 run/audit failure (decode failed or
INSECURE), 2 configuration error, 3 audit past its coalition cap.
"""

from __future__ import annotations

import argparse
import functools
import re
import sys
from math import gcd
from pathlib import Path

import numpy as np

from .blocks import BlockMatrix, read_matrix, write_matrix
from .cluster_sim import FixedSet, LatencyModel, RandomSubset, run
from .codec import augment, build_plan, code_geometry, naive_secure_threshold
from .errors import BudgetExceeded, ConfigurationError, SgpdError
from .field import PrimeField
from .secrecy_audit import AuditInstance, audit_all_subsets, report_lines

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_CONFIG = 2
EXIT_BUDGET = 3

CSV_COLUMNS = "pc,t,s,d,case,P_R,C_L_over_TD,naive_P_R,feasible,frontier"


def _int_list(raw: str) -> list:
    return [int(x) for x in raw.split(",") if x.strip() != ""]


def _switch(raw: str) -> bool:
    """A config value for an on/off option; on the command line it is a bare flag."""
    if raw.lower() in ("1", "true", "yes", "on"):
        return True
    if raw.lower() in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


_OUT = {"out": ("--out", str, None, "output file (default: stdout)")}
_WORKERS = {"workers": ("--P", int, None, "worker pool size")}
_CODE = {
    "t": ("--t", int, None, "block rows of A"),
    "s": ("--s", int, None, "inner split of A and B"),
    "d": ("--d", int, None, "block columns of B"),
    "pc": ("--pc", int, 0, "colluding workers tolerated"),
    **_WORKERS,
    "T": ("--T", int, None, "rows of A"),
    "S": ("--S", int, None, "cols of A / rows of B"),
    "D": ("--D", int, None, "cols of B"),
    "modulus": ("--modulus", int, 257, "prime field modulus"),
    **_OUT,
}
OPTIONS = {
    "run": {
        **_CODE,
        "seed": ("--seed", int, 0, "seed for every random draw"),
        "a": ("--a", str, None, "input matrix file for A"),
        "b": ("--b", str, None, "input matrix file for B"),
        "model": ("--model", str, "latency", "worker model: fixed, subset or latency"),
        "responders": ("--responders", _int_list, None, "fixed model: worker ids"),
        "responder_count": (
            "--responder-count", int, None, "subset model: how many workers respond"
        ),
        "shift": ("--shift", float, 1.0, "latency model: minimum delay"),
        "rate": ("--rate", float, 1.0, "latency model: exponential rate"),
        "failure_prob": (
            "--fail-prob", float, 0.0, "latency model: permanent failure probability"
        ),
        "trial": ("--trial", int, 0, "trial index for the delay draw"),
        "trace_dir": ("--trace-dir", str, None, "dump shares + manifest here"),
    },
    "sweep": {
        "m": ("--m", int, None, "storage divisor of A (m = t*s)"),
        "n": ("--n", int, None, "storage divisor of B (n = s*d)"),
        **_WORKERS,
        "pc_list": ("--pc-list", _int_list, [0], "comma-separated collusion levels"),
        **_OUT,
    },
    "audit": {
        **_CODE,
        "negative_control": (
            "--negative-control", _switch, False,
            "zero the live randomness; the verdict must flip to INSECURE",
        ),
    },
}


def _read_config(path) -> dict:
    values = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), 1):
        line = re.sub(r"(^|\s)#.*", "", raw).strip()  # a '#' inside a value stays
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"{path}:{lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        values[key.strip().replace("-", "_")] = value.strip()
    return values


def _resolve(args: argparse.Namespace, command: str):
    """defaults < config file < explicit flags.  Returns (values, explicit keys)."""
    options = OPTIONS[command]
    merged = {key: default for key, (_, _, default, _) in options.items()}
    explicit = set()
    if args.config:
        for key, raw in _read_config(args.config).items():
            if key not in options:
                raise ConfigurationError(f"unknown config key {key!r}")
            try:
                merged[key] = options[key][1](raw)
            except ValueError as exc:
                raise ConfigurationError(f"config key {key!r}: {exc}") from None
            explicit.add(key)
    for key in options:
        value = getattr(args, key)
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
    merged, explicit = _resolve(args, "run")
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
        if a_arr.shape[1] != b_arr.shape[0]:
            raise ConfigurationError(
                f"inner dimensions disagree: A is {a_arr.shape}, B is {b_arr.shape}"
            )
        found = {"modulus": mod_a, "T": a_arr.shape[0], "S": a_arr.shape[1], "D": b_arr.shape[1]}
        for key, value in found.items():
            if key in explicit and merged[key] != value:
                raise ConfigurationError(
                    f"{key}={merged[key]} contradicts the input files ({value})"
                )
            merged[key] = value
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
    # A and B are this command's own arrays, read or drawn in [0, p): their
    # block matrices take them over without a copy, and once A* and B* hold
    # them they are dropped
    pair = augment(
        BlockMatrix.adopt(a_arr, (merged["t"], merged["s"]), field),
        BlockMatrix.adopt(b_arr, (merged["s"], merged["d"]), field),
        merged["pc"],
        rng,
    )
    del a_arr, b_arr
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
    merged, _ = _resolve(args, "sweep")
    _require(merged, ["m", "n", "workers"])
    if merged["m"] < 1 or merged["n"] < 1:
        raise ConfigurationError("m and n must be >= 1")
    if merged["workers"] < 1:
        raise ConfigurationError(f"need at least one worker, got {merged['workers']}")
    rows = sweep_rows(merged["m"], merged["n"], merged["workers"], merged["pc_list"])
    lines = _header("sweep", merged)
    lines.append(CSV_COLUMNS)
    for r in rows:  # None is an empty cell, and a bool reads true or false
        cells = ["" if r[c] is None else r[c] for c in CSV_COLUMNS.split(",")]
        lines.append(",".join(str(v).lower() if isinstance(v, bool) else str(v) for v in cells))
    _emit("\n".join(lines) + "\n", merged["out"])
    return EXIT_OK


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------

def cmd_audit(args: argparse.Namespace) -> int:
    merged, _ = _resolve(args, "audit")
    _require(merged, ["t", "s", "d", "workers", "T", "S", "D"])
    instance = AuditInstance(
        merged["t"], merged["s"], merged["d"], merged["pc"], merged["workers"],
        PrimeField(merged["modulus"]),
        merged["T"], merged["S"], merged["D"],
        negative_control=merged["negative_control"],
    )
    verdict = audit_all_subsets(instance)
    text = "\n".join(_header("audit", merged) + report_lines(instance, verdict)) + "\n"
    sys.stdout.write(text)
    if merged["out"]:
        Path(merged["out"]).write_text(text)
    return EXIT_OK if verdict.secure else EXIT_FAILURE


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """Built on the first call and shared by every later one: parsing reads
    the parser and returns a fresh namespace, so no call sees another's."""
    parser = argparse.ArgumentParser(
        prog="sgpd",
        description="Secure coded distributed matrix multiplication simulator",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    for command, func, help_text in (
        ("run", cmd_run, "encode, simulate a worker pool, decode"),
        ("sweep", cmd_sweep, "enumerate the threshold/load trade-off"),
        ("audit", cmd_audit, "exact secrecy check by rank over GF(p), per coalition"),
    ):
        sub = subs.add_parser(command, help=help_text)
        sub.add_argument("--config", help="flat key=value configuration file")
        for dest, (flag, kind, _, about) in OPTIONS[command].items():
            if kind is _switch:
                sub.add_argument(flag, dest=dest, action="store_const", const=True, help=about)
            else:
                sub.add_argument(flag, dest=dest, type=kind, help=about)
        sub.set_defaults(func=func)
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
