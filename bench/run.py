#!/usr/bin/env python3
"""Closed-loop benchmark of the sgpd library and its command line.

Usage, from the root of a checkout:

    python3 bench/run.py --workload wide-cli --seed 1 --seconds 60 --trace 0

One client sends each request after the previous one completes, for
``--seconds`` seconds, after a set-up that is repeated and timed.  Every
output is checked outside the timed span.  With ``--trace 0`` the last line
of standard output is a JSON object with the end-to-end metrics; with
``--trace 1`` every request is also replayed through the public library
calls with one span per call, and the object holds the per-layer metrics.
The spans are written to ``.bench_out/`` when the run ends.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SETUPS = 7  # set-ups per run; setup_s is their median
DIGEST_REQUESTS = 8  # the output digest covers this many first requests

END_TO_END = {
    "request_s.p50": "s",
    "request_s.p90": "s",
    "requests_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "download_elems": "elements/request",
    "sim_recovery_time": "sim_units",
}

# Per-layer times: metric -> span name.  Each is the per-request sum of the
# span's durations, as a median over requests; a stage that only set-up
# calls is the median over set-ups; a stage the workload never calls is 0.
STAGES = {
    "field.matmul_s": "field.matmul",
    "blocks.augment_s": "blocks.augment",
    "blocks.read_matrix_s": "blocks.read_matrix",
    "blocks.write_matrix_s": "blocks.write_matrix",
    "codec.build_plan_s": "codec.build_plan",
    "codec.encode_s": "codec.encode",
    "codec.compute_s": "codec.compute",
    "codec.decode_s": "codec.decode",
    "codec.exponent_audit_s": "codec.exponent_audit",
    "cluster_sim.schedule_s": "cluster_sim.schedule",
    "cluster_sim.latency_sweep_s": "cluster_sim.latency_sweep",
    "secrecy_audit.audit_s": "secrecy_audit.audit",
    "secrecy_audit.control_s": "secrecy_audit.control",
    "cli.run_s": "cli.run",
    "cli.sweep_s": "cli.sweep",
    "cli.audit_s": "cli.audit",
}
# Counts are computed from array shapes or returned by the program; a unit
# ending in _computed marks the former.
COUNTS = {
    "field.verify.madds": "madds_computed",
    "field.verify.bytes": "bytes_computed",
    "blocks.random_elems": "elems_computed",
    "codec.encode.madds": "madds_computed",
    "codec.encode.bytes": "bytes_computed",
    "codec.share_elems": "elems_computed",
    "codec.compute.madds": "madds_computed",
    "codec.compute.bytes": "bytes_computed",
    "codec.decode.elems_in": "elems_computed",
    "codec.decode.madds": "madds_computed",
    "codec.decode.bytes": "bytes_computed",
    "codec.share_use_ratio": "ratio",
    "codec.recovery_threshold": "count",
    "codec.exponent_audit.pairs": "count",
    "secrecy_audit.cases": "count",
}
PER_LAYER = {
    **{name: "s" for name in STAGES},
    **COUNTS,
    "field.madds_per_s": "madds/s",
    "codec.decode.elems_per_s": "elems/s",
    "cluster_sim.failed_workers": "count",
    "cluster_sim.latency_sweep.trials_per_s": "1/s",
    "secrecy_audit.cases_per_s": "1/s",
    "cli.self_s": "s",
    "trace.overhead_s": "s",
    "trace.unaccounted_s": "s",
}
# Spans of a traced replay that stand for the CLI calls of the same request;
# cli.self_s is the CLI calls' time minus these.
CLI_REPLAY = {
    "wide-cli": ("request",),
    "design-audit": ("cli.sweep_rows", "secrecy_audit.audit", "secrecy_audit.control"),
}


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(CLI_REPLAY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-check sizes")
    parser.add_argument(
        "--inject-fault", action="store_true",
        help="smoke check: make every GF(p) product wrong in one entry",
    )
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


class Run:
    """One closed-loop run: set-ups, timed requests, checks and, if traced, replays."""

    def __init__(self, workload, tracer, traced: bool):
        self.wl = workload
        self.tr = tracer
        self.traced = traced
        self.attempted = 0
        self.failures: Counter = Counter()  # reason -> requests that failed with it
        self.failed = 0
        self.setup_times: list = []
        self.times: list = []
        self.outcomes: list = []
        self.replays: list = []
        self.problems: list = []  # run-level failures, not tied to a request

    def _record(self, reasons: list) -> None:
        self.attempted += 1
        if reasons:
            self.failed += 1
            self.failures.update(set(reasons))

    def _guarded(self, fn, *args):
        """Run fn; an exception is a failed check, reported once per kind."""
        try:
            return fn(*args), []
        except Exception as exc:  # the loop must go on and count the failure
            reason = f"{type(exc).__name__}: {exc}"
            if reason not in self.failures:
                traceback.print_exc(file=sys.stderr)
            return None, [reason]

    def setup(self) -> None:
        from workloads import WARMUP

        for k in range(SETUPS):
            inp = self.wl.inputs(WARMUP, k)
            self.tr.request = f"setup-{k}"
            start = perf_counter()
            reasons, err = self._guarded(self.wl.setup, self.tr)
            raw, err2 = self._guarded(self.wl.request, inp) if not err else (None, [])
            self.setup_times.append(perf_counter() - start)
            reasons = (reasons or []) + err + err2
            if raw is not None:
                outcome, err3 = self._guarded(self.wl.outcome, inp, raw)
                reasons += outcome.reasons if outcome else err3
            self._record(reasons)

    def loop(self, seconds: float) -> None:
        from workloads import TIMED

        first_counts = None
        deadline = perf_counter() + seconds
        i = 0
        while perf_counter() < deadline:
            inp = self.wl.inputs(TIMED, i)
            self.tr.request = i
            start = perf_counter()
            if self.traced:
                with self.tr.span("request.untraced"):
                    raw, reasons = self._guarded(self.wl.request, inp, self.tr)
            else:
                raw, reasons = self._guarded(self.wl.request, inp)
            self.times.append(perf_counter() - start)
            outcome = None
            if raw is not None:
                outcome, reasons = self._guarded(self.wl.outcome, inp, raw)
            if outcome is not None:
                reasons = list(outcome.reasons)
                self.outcomes.append(outcome)
                if first_counts is None:
                    first_counts = outcome.counts
                elif outcome.counts != first_counts:
                    reasons.append("program counts changed between requests")
            if self.traced:
                reasons += self._replay(i, outcome)
            self._record(reasons)
            i += 1
        if len(self.outcomes) < DIGEST_REQUESTS:
            self.problems.append(f"fewer than {DIGEST_REQUESTS} requests for the digest")

    def _replay(self, i: int, outcome) -> list:
        from workloads import TIMED

        inp = self.wl.inputs(TIMED, i)  # the same inputs, made again
        with self.tr.span("request"):
            replay, reasons = self._guarded(self.wl.replay, inp, self.tr)
        if replay is None:
            return reasons
        self.replays.append(replay)
        reasons = list(replay.reasons)
        if outcome is None or replay.digest != outcome.digest:
            reasons.append("replay checksum differs from the request's")
        if replay.counts != self.replays[0].counts:
            reasons.append("computed counts changed between requests")
        return reasons

    def digest(self) -> str:
        head = [o.digest for o in self.outcomes[:DIGEST_REQUESTS]]
        return hashlib.sha256("\n".join(head).encode()).hexdigest()

    def end_to_end(self) -> dict:
        times = self.times
        sim = [o.sim_time for o in self.outcomes if math.isfinite(o.sim_time)]
        downloads = [o.download for o in self.outcomes]
        return {
            "request_s.p50": statistics.median(times),
            "request_s.p90": statistics.quantiles(times, n=10)[8] if len(times) > 1 else times[0],
            "requests_per_s": len(times) / sum(times),
            "setup_s": statistics.median(self.setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "download_elems": statistics.median(downloads) if downloads else 0.0,
            "sim_recovery_time": statistics.fmean(sim) if sim else 0.0,
        }

    def per_layer(self) -> dict:
        totals = self.tr.totals()
        timed = range(len(self.times))
        setups = [f"setup-{k}" for k in range(SETUPS)]

        def per_request(*names):
            return [sum(totals[r].get(n, 0.0) for n in names) for r in timed]

        def stage(name):
            for keys in (timed, setups):
                values = [totals[r].get(name, 0.0) for r in keys]
                if any(values):
                    return statistics.median(values)
            return 0.0

        out = {metric: stage(span) for metric, span in STAGES.items()}
        counts = {**(self.outcomes[0].counts if self.outcomes else {}),
                  **(self.replays[0].counts if self.replays else {})}
        out.update({name: counts.get(name, 0) for name in COUNTS})

        def rate(work, seconds):
            return work / seconds if seconds > 0 else 0.0

        out["field.madds_per_s"] = rate(out["field.verify.madds"], out["field.matmul_s"])
        out["codec.decode.elems_per_s"] = rate(out["codec.decode.elems_in"], out["codec.decode_s"])
        out["cluster_sim.failed_workers"] = (
            statistics.fmean(r.failed_workers for r in self.replays) if self.replays else 0.0
        )
        out["cluster_sim.latency_sweep.trials_per_s"] = rate(
            counts.get("cluster_sim.latency_sweep.trials", 0), out["cluster_sim.latency_sweep_s"]
        )
        out["secrecy_audit.cases_per_s"] = rate(
            out["secrecy_audit.cases"],
            out["secrecy_audit.audit_s"] + out["secrecy_audit.control_s"],
        )
        cli_calls = per_request("cli.run", "cli.sweep", "cli.audit")
        library = per_request(*CLI_REPLAY[self.wl.name])
        out["cli.self_s"] = statistics.median(c - l for c, l in zip(cli_calls, library))
        untraced = per_request("request.untraced")
        out["trace.overhead_s"] = statistics.median(per_request("request")) - statistics.median(
            untraced
        )
        covered = self.tr.child_coverage("request")
        out["trace.unaccounted_s"] = statistics.median(
            u - covered.get(r, 0.0) for r, u in zip(timed, untraced)
        )
        return out


def main(argv=None) -> int:
    args = _parse_args(argv)
    src = ROOT / "src"
    if not (src / "sgpd" / "__init__.py").is_file():
        print(f"error: no sgpd sources under {src}; run from a full checkout", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    # One BLAS thread, set before numpy loads its BLAS: the one client thread
    # is the whole load, and idle pool threads would only compete with it.
    for var in BLAS_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(src))

    import numpy as np

    import sgpd
    from tracing import NullTracer, Tracer
    from workloads import WORKLOADS, break_kernel

    if Path(sgpd.__file__).resolve().parent != (src / "sgpd").resolve():
        print(f"error: imported sgpd from {sgpd.__file__}, not {src}", file=sys.stderr)
        return 2
    if args.inject_fault:
        break_kernel()

    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        workload = WORKLOADS[args.workload](args.seed, args.tiny, workdir)
        tracer = Tracer() if args.trace else NullTracer()
        bench = Run(workload, tracer, bool(args.trace))
        bench.setup()
        bench.loop(args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": nproc,
        "blas_threads": int(os.environ[BLAS_VARS[0]]),
        "workload": args.workload,
        "config": workload.describe(),
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "inject_fault": args.inject_fault,
    }
    if args.trace:
        values, units = bench.per_layer(), PER_LAYER
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans_path, record)
        print(f"# spans {spans_path.relative_to(ROOT)} ({len(tracer.spans)} spans)")
    else:
        values, units = bench.end_to_end(), END_TO_END
    counts = bench.outcomes[0].counts if bench.outcomes else {}
    failed_ratio = bench.failed / bench.attempted
    print(f"# record {json.dumps(record, sort_keys=True)}")
    print(f"# counts {json.dumps(counts, sort_keys=True)}")
    print(
        f"# requests={len(bench.times)} attempted={bench.attempted} failed={bench.failed}"
        f" failed_ratio={failed_ratio} digest={bench.digest()}"
    )
    for reason, n in sorted(bench.failures.items()):
        print(f"# failure x{n}: {reason}")
    for problem in bench.problems:
        print(f"# problem: {problem}")
    for name, value in values.items():
        print(f"# {name} = {value!r} {units[name]}")
    result = {
        "correct": bench.failed == 0 and not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
