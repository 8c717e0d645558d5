"""The benchmark's two workloads.

Each workload is a closed loop with one client.  For request ``i`` the
harness asks for inputs made from the workload seed (``inputs``), times
``request``, and checks what it returned outside the timed span
(``outcome``).  ``replay`` makes the same request again through the public
library calls that the entry point makes, with one span per call, for the
traced run.  ``setup`` is what the program does before the first request.

See README.md in this directory for why each workload was chosen.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from sgpd import (
    AuditInstance,
    FixedSet,
    LatencyModel,
    PrimeField,
    audit_all_subsets,
    augment,
    build_plan,
    code_geometry,
    communication_load,
    decode,
    encode,
    exponent_audit,
    latency_sweep,
    partition,
    read_matrix,
    worker_compute,
    write_matrix,
)
from sgpd import cli

# Input streams derived from the workload seed; the stream tag keeps timed
# requests, warm-ups and the checker's random vectors independent.
TIMED, WARMUP, CHECK, CLI_SEED = range(4)

SHIFT, RATE, FAILURE_PROB = 1.0, 1.0, 0.02


@dataclass
class Outcome:
    """What the harness keeps of one request, made outside the timed span."""

    reasons: list  # failed checks; empty when the output is correct
    digest: str  # digest of the request's output
    counts: dict = field(default_factory=dict)  # program counts, must repeat
    download: float = 0.0
    sim_time: float = 0.0
    failed_workers: int = 0


def checksum(matrix: np.ndarray) -> str:
    arr = np.ascontiguousarray(matrix, dtype=np.int64)
    h = hashlib.sha256(f"{arr.shape[0]}x{arr.shape[1]};".encode())
    h.update(arr.tobytes())
    return h.hexdigest()


def _dot(u: list, v: list) -> int:
    return sum(x * y for x, y in zip(u, v))


def freivalds(a: np.ndarray, b: np.ndarray, c: np.ndarray, p: int, rng, rounds: int = 2) -> bool:
    """Check c == a @ b (mod p) with exact Python ints.

    Independent of ``PrimeField.matmul``, so a broken kernel cannot pass by
    corrupting both the decoded product and the library's own verify.  A
    wrong c survives one round with probability at most 1/(p-1).
    """
    if c.shape != (a.shape[0], b.shape[1]) or c.min() < 0 or c.max() >= p:
        return False
    rows_a, rows_b, rows_c = a.tolist(), b.tolist(), c.tolist()
    for _ in range(rounds):
        r = [int(x) for x in rng.integers(1, p, size=c.shape[1])]
        br = [_dot(row, r) % p for row in rows_b]
        if [_dot(row, br) % p for row in rows_a] != [_dot(row, r) % p for row in rows_c]:
            return False
    return True


def cli_main(argv: list, tracer=None, name: str = "") -> tuple:
    """``sgpd.cli.main`` in process, with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if tracer is None:
            rc = cli.main(argv)
        else:
            with tracer.span(name):
                rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def _report_value(stdout: str, key: str) -> str:
    for line in stdout.splitlines():
        if line.startswith(key + "="):
            return line[len(key) + 1 :]
    return ""


def pipeline_counts(plan, a_shape: tuple, b_shape: tuple) -> dict:
    """Work per request computed from array shapes (madds, int64 bytes, elements)."""
    emap = plan.exponent_map
    workers, p_r = plan.n_workers, plan.recovery_threshold
    (big_t, big_s), big_d = a_shape, b_shape[1]
    br, bs, bc = big_t // plan.t, big_s // plan.s, big_d // plan.d
    ea, eb, ec = br * bs, bs * bc, br * bc
    n_a, n_b = emap.a_exponents.size, emap.b_exponents.size
    layout = plan.layout
    if layout.case == "tall":
        random = layout.delta * br * big_s + big_s * layout.delta * bc
    elif layout.case == "wide":
        random = big_t * layout.width * bs + layout.width * bs * big_d
    else:
        random = 0
    return {
        "codec.recovery_threshold": p_r,
        "codec.share_elems": workers * (ea + eb),
        "codec.encode.madds": workers * (n_a * ea + n_b * eb),
        "codec.encode.bytes": 8 * (workers * (n_a + n_b) + n_a * ea + n_b * eb + workers * (ea + eb)),
        "codec.compute.madds": p_r * br * bs * bc,
        "codec.compute.bytes": 8 * p_r * (ea + eb + ec),
        "codec.decode.elems_in": p_r * ec,
        "codec.decode.madds": p_r * p_r * ec,
        "codec.decode.bytes": 8 * (p_r * p_r + p_r * ec + big_t * big_d),
        "codec.share_use_ratio": p_r / workers,
        "field.verify.madds": big_t * big_s * big_d,
        "field.verify.bytes": 8 * (big_t * big_s + big_s * big_d + big_t * big_d),
        "blocks.random_elems": random,
        "download_elems": p_r * ec,
    }


def replay_run(plan, pair, model, trial: int, tr):
    """``cluster_sim.run`` made call by call: encode, schedule, compute, decode, verify."""
    with tr.span("codec.encode"):
        shares = encode(plan, pair)
    with tr.span("cluster_sim.schedule"):
        times = model.completion_times(plan.n_workers, trial)
        order = sorted(
            (w for w in range(len(times)) if math.isfinite(times[w])),
            key=lambda w: (times[w], w),
        )
    used = order[: plan.recovery_threshold]
    with tr.span("codec.compute"):
        results = []
        for w in used:
            with tr.span("codec.worker_compute"):
                results.append(worker_compute(shares[w], float(times[w])))
    with tr.span("codec.decode"):
        decoded = decode(plan, results)
    with tr.span("field.matmul"):
        expected = plan.field.matmul(pair.original_a, pair.original_b)
    failed_workers = int(np.isinf(times).sum())
    return decoded.data, bool(np.array_equal(decoded.data, expected)), failed_workers


class _Pipeline:
    """A code with the shapes of the A and B it multiplies: the ``wide-cli``
    pipeline, and the secure-tall plan that ``design-audit`` sweeps."""

    def __init__(self, seed: int, t, s, d, p_c, workers, block, modulus):
        self.seed = seed
        self.t, self.s, self.d, self.p_c = t, s, d, p_c
        self.workers, self.block = workers, block
        self.field = PrimeField(modulus)
        self.a_shape = (t * block, s * block)
        self.b_shape = (s * block, d * block)
        self.plan = None
        self.counts: dict = {}

    def describe(self) -> dict:
        return {
            "modulus": self.field.p,
            "t": self.t, "s": self.s, "d": self.d, "p_c": self.p_c,
            "P": self.workers,
            "P_R": code_geometry(self.t, self.s, self.d, self.p_c).recovery_threshold,
            "A": list(self.a_shape), "B": list(self.b_shape),
            "a_block": [self.block, self.block], "b_block": [self.block, self.block],
            "seed": self.seed,
        }

    def setup(self, tr) -> list:
        with tr.span("codec.build_plan"):
            self.plan = build_plan(self.t, self.s, self.d, self.p_c, self.workers, self.field)
        with tr.span("codec.exponent_audit"):
            report = exponent_audit(self.plan)
        self.counts = pipeline_counts(self.plan, self.a_shape, self.b_shape)
        return [] if report.clean else [f"exponent audit: {report.collisions[0]}"]

    def _rng(self, *key) -> np.random.Generator:
        return np.random.default_rng((self.seed, *key))

    def _check_product(self, key, a, b, product, download) -> list:
        reasons = []
        if product is None:
            return ["no product"]
        if not freivalds(a, b, product, self.field.p, self._rng(CHECK, *key)):
            reasons.append("freivalds")
        if download != self.counts["download_elems"]:
            reasons.append(f"download {download} != computed {self.counts['download_elems']}")
        return reasons


@dataclass
class CliInputs:
    key: tuple
    entry: int  # index into the pool of matrix files


class WideCli(_Pipeline):
    """secure-wide two-band code at p = 2**31 - 1, driven through ``sgpd run``."""

    name = "wide-cli"
    POOL = 4

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        if tiny:
            super().__init__(seed, 2, 2, 2, 2, 30, 8, 2**31 - 1)
        else:
            super().__init__(seed, 2, 4, 2, 2, 60, 64, 2**31 - 1)
        p_r = code_geometry(self.t, self.s, self.d, self.p_c).recovery_threshold
        rng = self._rng(CLI_SEED)
        # The same responders on every request, in completion order.
        self.responders = [int(w) + 1 for w in rng.permutation(self.workers)[:p_r]]
        self.cli_seeds = [int(x) for x in rng.integers(0, 2**31, size=self.POOL)]
        self.pool = []
        for k in range(self.POOL):
            pair_rng = self._rng(TIMED, k)
            a = self.field.random_array(self.a_shape, pair_rng)
            b = self.field.random_array(self.b_shape, pair_rng)
            a_path, b_path = workdir / f"a{k}.mat", workdir / f"b{k}.mat"
            write_matrix(a_path, a, self.field.p)
            write_matrix(b_path, b, self.field.p)
            self.pool.append((a, b, a_path, b_path))
        self.out_path = workdir / "product.mat"
        self.replay_path = workdir / "replay.mat"

    def describe(self) -> dict:
        return {**super().describe(), "responders": self.responders, "pool": self.POOL}

    def inputs(self, stream: int, index: int) -> CliInputs:
        return CliInputs((stream, index), index % self.POOL)

    def argv(self, entry: int) -> list:
        _, _, a_path, b_path = self.pool[entry]
        return [
            "run",
            "--t", str(self.t), "--s", str(self.s), "--d", str(self.d),
            "--pc", str(self.p_c), "--P", str(self.workers),
            "--a", str(a_path), "--b", str(b_path),
            "--model", "fixed", "--responders", ",".join(map(str, self.responders)),
            "--seed", str(self.cli_seeds[entry]),
            "--out", str(self.out_path),
        ]

    def request(self, inp: CliInputs, tr=None):
        return cli_main(self.argv(inp.entry), tr, "cli.run")

    def outcome(self, inp: CliInputs, raw) -> Outcome:
        rc, stdout, stderr = raw
        a, b, _, _ = self.pool[inp.entry]
        reasons = [] if rc == 0 else [f"exit {rc}: {stderr.strip()[:200]}"]
        if _report_value(stdout, "success") != "True":
            reasons.append("report success")
        product = None
        if self.out_path.exists():  # removed here, so the next request must write it again
            product = _parse_matrix(self.out_path, self.field.p)
            self.out_path.unlink()
        load = int(_report_value(stdout, "measured_load") or -1)
        reasons += self._check_product(inp.key, a, b, product, load)
        return Outcome(
            reasons,
            checksum(product) if product is not None else "",
            {"measured_load": load},
            load,
            float(_report_value(stdout, "wall_clock") or "nan"),
        )

    def replay(self, inp: CliInputs, tr) -> Outcome:
        _, _, a_path, b_path = self.pool[inp.entry]
        with tr.span("blocks.read_matrix"):
            a, modulus = read_matrix(a_path)
            b, _ = read_matrix(b_path)
        with tr.span("codec.build_plan"):
            f = PrimeField(modulus)
            plan = build_plan(self.t, self.s, self.d, self.p_c, self.workers, f)
        rng = np.random.default_rng(self.cli_seeds[inp.entry])
        with tr.span("blocks.augment"):
            pair = augment(
                partition(a, (self.t, self.s), f), partition(b, (self.s, self.d), f), self.p_c, rng
            )
        product, verified, failed = replay_run(plan, pair, FixedSet(self.responders), 0, tr)
        with tr.span("blocks.write_matrix"):
            write_matrix(self.replay_path, product, f.p)
        reasons = [] if verified else ["replay verify"]
        return Outcome(reasons, checksum(product), dict(self.counts), failed_workers=failed)


def _parse_matrix(path: Path, p: int):
    """The CLI's text output, parsed by the checker without the library."""
    tokens = path.read_text().split()
    rows, cols, modulus = (int(x) for x in tokens[:3])
    values = [int(x) for x in tokens[3:]]
    if modulus != p or len(values) != rows * cols:
        return None
    return np.array(values, dtype=np.int64).reshape(rows, cols)


@dataclass(frozen=True)
class MicroAudit:
    t: int
    s: int
    d: int
    p_c: int
    workers: int
    big_t: int
    big_s: int
    big_d: int
    modulus: int

    def argv(self, negative: bool) -> list:
        argv = [
            "audit",
            "--t", str(self.t), "--s", str(self.s), "--d", str(self.d), "--pc", str(self.p_c),
            "--P", str(self.workers),
            "--T", str(self.big_t), "--S", str(self.big_s), "--D", str(self.big_d),
            "--modulus", str(self.modulus),
        ]
        return argv + ["--negative-control"] if negative else argv

    def instance(self, negative: bool) -> AuditInstance:
        return AuditInstance(
            self.t, self.s, self.d, self.p_c, self.workers, PrimeField(self.modulus),
            self.big_t, self.big_s, self.big_d, negative_control=negative,
        )


@dataclass
class DesignInputs:
    key: tuple
    model_seed: int  # seed of the latency model the sweep samples


class DesignAudit:
    """One code-design job on small moduli: sweep, exponent audits, secrecy
    audits with their negative controls, and a latency sweep."""

    name = "design-audit"

    def __init__(self, seed: int, tiny: bool, workdir: Path):
        self.seed = seed
        # The secure-tall code at p = 65537 whose plan is swept.
        if tiny:
            self.tall = _Pipeline(seed, 3, 1, 3, 1, 20, 4, 65537)
        else:
            self.tall = _Pipeline(seed, 8, 3, 8, 4, 300, 24, 65537)
        if tiny:
            self.sweep = (4, 4, 3000, (0, 1))
            self.micro = (MicroAudit(2, 1, 2, 1, 2, 2, 1, 2, 7),)
            self.trials = 50
        else:
            self.sweep = (16, 16, 3000, (0, 11, 29))
            self.micro = (
                MicroAudit(2, 1, 2, 1, 3, 2, 1, 2, 7),
                MicroAudit(1, 1, 2, 1, 3, 1, 1, 2, 11),
            )
            self.trials = 1000

    def describe(self) -> dict:
        m, n, workers, pcs = self.sweep
        return {
            "sweep": {"m": m, "n": n, "P": workers, "pc_list": list(pcs)},
            "audits": [vars(a) for a in self.micro],
            "latency_trials": self.trials,
            "latency_plan": self.tall.describe(),
            "seed": self.seed,
        }

    def setup(self, tr) -> list:
        return self.tall.setup(tr)

    def inputs(self, stream: int, index: int) -> DesignInputs:
        rng = np.random.default_rng((self.seed, stream, index))
        return DesignInputs((stream, index), int(rng.integers(0, 2**31)))

    def _model(self, inp: DesignInputs) -> LatencyModel:
        return LatencyModel(SHIFT, RATE, FAILURE_PROB, inp.model_seed)

    def _load(self):
        return communication_load(self.tall.plan, self.tall.a_shape[0], self.tall.b_shape[1])

    def request(self, inp: DesignInputs, tr=None):
        m, n, workers, pcs = self.sweep
        sweep = cli_main(
            ["sweep", "--m", str(m), "--n", str(n), "--P", str(workers),
             "--pc-list", ",".join(map(str, pcs))],
            tr, "cli.sweep",
        )
        rows = [line.split(",") for line in sweep[1].splitlines() if not line.startswith("#")]
        reports = [
            exponent_audit(code_geometry(int(t), int(s), int(d), int(pc)))
            for pc, t, s, d, *_ in rows[1:]
        ]
        audits = [
            cli_main(micro.argv(negative), tr, "cli.audit")
            for micro in self.micro
            for negative in (False, True)
        ]
        summary = latency_sweep(self.tall.plan, self._model(inp), self.trials)
        return sweep, rows[1:], reports, audits, summary, self._load()

    def outcome(self, inp: DesignInputs, raw) -> Outcome:
        sweep, rows, reports, audits, summary, load = raw
        m, n, _, pcs = self.sweep
        splits = [s for s in range(1, math.gcd(m, n) + 1) if m % s == 0 and n % s == 0]
        reasons = [] if sweep[0] == 0 else [f"sweep exit {sweep[0]}"]
        if len(rows) != len(splits) * len(pcs):
            reasons.append(f"sweep listed {len(rows)} geometries")
        reasons += [f"exponent audit {r.parameters}" for r in reports if not r.clean]
        cases = 0
        for (rc, stdout, _), negative in zip(audits, (False, True) * len(self.micro)):
            verdict = stdout.rstrip().rsplit("\n", 1)[-1]
            expected = (1, "verdict=INSECURE") if negative else (0, "verdict=SECURE")
            if (rc, verdict) != expected:
                reasons.append(f"audit {'control ' if negative else ''}gave {rc} {verdict}")
            enumeration = next(
                (line for line in stdout.splitlines() if line.startswith("enumeration ")), ""
            )
            fields = dict(kv.split("=") for kv in enumeration.split()[1:])
            cases += int(fields.get("cases_per_subset", 0)) * int(fields.get("subsets", 0))
        if len(summary.times) + summary.failed_trials != self.trials:
            reasons.append("latency sweep lost trials")
        key = self._key(
            [tuple(int(x) for x in (r[0], r[1], r[2], r[3], r[5])) for r in rows],
            [r.checked_pairs for r in reports],
            [rc == 0 for rc, _, _ in audits],
            summary,
            load,
        )
        counts = {
            "codec.exponent_audit.pairs": sum(r.checked_pairs for r in reports),
            "secrecy_audit.cases": cases,
            "cluster_sim.latency_sweep.trials": self.trials,
            "download_elems": load.elements,
        }
        return Outcome(reasons, key, counts, load.elements, summary.mean)

    def replay(self, inp: DesignInputs, tr) -> Outcome:
        m, n, workers, pcs = self.sweep
        with tr.span("cli.sweep_rows"):
            rows = cli.sweep_rows(m, n, workers, pcs)
        reports = []
        for r in rows:
            with tr.span("codec.code_geometry"):
                geometry = code_geometry(r["t"], r["s"], r["d"], r["pc"])
            with tr.span("codec.exponent_audit"):
                reports.append(exponent_audit(geometry))
        verdicts = []
        for micro in self.micro:
            for negative in (False, True):
                name = "secrecy_audit.control" if negative else "secrecy_audit.audit"
                with tr.span(name):
                    verdicts.append(audit_all_subsets(micro.instance(negative)))
        with tr.span("cluster_sim.latency_sweep"):
            summary = latency_sweep(self.tall.plan, self._model(inp), self.trials)
        with tr.span("codec.communication_load"):
            load = self._load()
        key = self._key(
            [(r["pc"], r["t"], r["s"], r["d"], r["P_R"]) for r in rows],
            [r.checked_pairs for r in reports],
            [v.secure for v in verdicts],
            summary,
            load,
        )
        counts = {
            "codec.exponent_audit.pairs": sum(r.checked_pairs for r in reports),
            "secrecy_audit.cases": sum(v.cases_per_subset * len(v.subsets) for v in verdicts),
            "cluster_sim.latency_sweep.trials": self.trials,
        }
        return Outcome([], key, counts)

    @staticmethod
    def _key(rows, pairs, secure, summary, load) -> str:
        text = repr((rows, pairs, secure, summary.mean, summary.failed_trials, load.elements))
        return hashlib.sha256(text.encode()).hexdigest()


WORKLOADS = {w.name: w for w in (WideCli, DesignAudit)}


def break_kernel() -> None:
    """Fault injection for the smoke check: every GF(p) product comes back
    wrong in one entry, so decode and the library's verify are both corrupted."""
    correct = PrimeField.matmul

    def broken(self, a, b):
        out = correct(self, a, b)
        out.flat[0] = (out.flat[0] + 1) % self.p
        return out

    PrimeField.matmul = broken
