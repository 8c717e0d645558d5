#!/usr/bin/env python3
"""Smoke check of the benchmark at tiny sizes.

Run from the root of a checkout:

    python3 bench/smoke.py

It checks that
  * every workload, untraced and traced, exits 0, passes its correctness
    gate and prints exactly the metrics BENCHMARK.json names, with their units;
  * a GF(p) kernel that returns a wrong entry gives failed_ratio > 0 on the
    pipeline workload;
  * the Freivalds check passes a right product and fails one wrong entry;
  * in a directory holding only BENCHMARK.json and the benchmark's files the
    benchmark exits non-zero without printing a result.
Exits 1 and lists the problems if any check fails.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, trace: int, *extra: str, cwd: Path = ROOT):
    argv = [
        sys.executable, "bench/run.py", "--workload", workload, "--seed", "5",
        "--seconds", "1", "--trace", str(trace), "--tiny", *extra,
    ]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


def last_json(stdout: str):
    lines = stdout.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def check_metrics(label: str, proc, expected: list, problems: list) -> None:
    result = last_json(proc.stdout)
    if proc.returncode != 0 or result is None:
        problems.append(f"{label}: exit {proc.returncode}, no result\n{proc.stderr[-2000:]}")
        return
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
    if not result.get("correct") or result.get("failed") != 0:
        problems.append(f"{label}: correct={result.get('correct')} failed={result.get('failed')}")
    metrics = result.get("metrics", {})
    if list(metrics) != [m["name"] for m in expected]:
        problems.append(f"{label}: metric names {list(metrics)}")
    for m in expected:
        got = metrics.get(m["name"], {})
        value = got.get("value")
        if got.get("unit") != m["unit"]:
            problems.append(f"{label}: {m['name']} unit {got.get('unit')!r}, expected {m['unit']!r}")
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            problems.append(f"{label}: {m['name']} value {value!r} is not a number")


def check_freivalds(problems: list) -> None:
    """The CLI's own verify stops a wrong product before the benchmark sees
    it, so the benchmark's independent check is tried here directly."""
    sys.path[:0] = [str(BENCH), str(ROOT / "src")]
    import numpy as np
    from workloads import freivalds

    p = 65537
    rng = np.random.default_rng(5)
    a, b = rng.integers(0, p, (6, 5)), rng.integers(0, p, (5, 4))
    right = (a @ b) % p
    wrong = right.copy()
    wrong[2, 3] = (wrong[2, 3] + 1) % p
    if not freivalds(a, b, right, p, rng) or freivalds(a, b, wrong, p, rng):
        problems.append("the Freivalds check does not tell a right product from a wrong one")


def main() -> int:
    problems: list = []
    for w in SPEC["workloads"]:
        name = w["name"]
        check_metrics(f"{name} trace 0", bench(name, 0), SPEC["end_to_end"], problems)
        check_metrics(f"{name} trace 1", bench(name, 1), SPEC["per_layer"], problems)
    proc = bench("wide-cli", 0, "--inject-fault")
    result = last_json(proc.stdout) or {}
    ratio = result.get("failed", 0) / max(result.get("attempted", 0), 1)
    if proc.returncode != 0 or result.get("correct") is not False or not ratio > 0:
        problems.append(f"wide-cli with a broken kernel: exit {proc.returncode}, {result}")
    check_freivalds(problems)

    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench(SPEC["workloads"][0]["name"], 0, cwd=bare)
        if proc.returncode == 0 or last_json(proc.stdout) is not None:
            problems.append(f"without the sources: exit {proc.returncode}, stdout {proc.stdout!r}")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    for problem in problems:
        print(f"FAIL {problem}")
    print("smoke check " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
