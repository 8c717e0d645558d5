"""Master/worker pool simulation with stragglers and failures.

Time is simulated, never slept: a straggler model assigns each worker a
completion time (infinity marks a permanent failure), the run encodes the
shares of the earliest recovery_threshold finishers only, computes, decodes
and checks the output against the directly computed product.  The responders
travel as stacks, from ``codec.share_stacks`` through one batched
``PrimeField.matmul`` to ``codec.interpolate``, and each stack is released
once its last reader is done.  Identical seeds give byte-identical reports.

LatencyModel trial ``trial`` of seed ``seed`` draws from
``np.random.default_rng((0x1A7E, seed, trial))``: P exponential delays, then
P uniforms that mark the failures.

``latency_sweep`` simulates no workers.  It draws each trial's P_R-th
completion time from that time's exact law: N ~ Binomial(P, 1 - q) workers
survive, the trial fails when N < P_R, and otherwise the P_R-th smallest of N
iid Exp(1) delays is -log(1 - U) with U ~ Beta(P_R, N - P_R + 1).  With
U = X / (X + Y), X ~ Gamma(P_R) and Y ~ Gamma(N - P_R + 1), the time is
``shift + log1p(X / Y) / rate``, which never rounds U to 1.  All trials come
from one generator per sweep, ``np.random.default_rng((0xD157, seed))``, so
the sweep's trials have the law of ``completion_times`` trials but are not
those trials.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .blocks import BlockMatrix
from .codec import (
    AugmentedPair,
    CodedShare,
    EncodingPlan,
    interpolate,
    share_stacks,
    worker_points,
    write_share,
)
from .errors import ConfigurationError, SingularSystemError


def _check_trial(trial: int) -> None:
    if not 0 <= trial < 2**64:
        raise ConfigurationError(f"trial must be in [0, 2**64), got {trial}")


class FixedSet:
    """Only the listed workers respond, in list order (times 1, 2, 3, ...)."""

    def __init__(self, responders):
        self.responders = tuple(int(w) for w in responders)
        if len(set(self.responders)) != len(self.responders):
            raise ConfigurationError("responder list contains duplicates")

    def completion_times(self, n_workers: int, trial: int = 0) -> np.ndarray:
        _check_trial(trial)  # the same trial indices as the seeded models
        times = np.full(n_workers, math.inf)
        rows = worker_points(range(n_workers), self.responders)  # 0-based, checked
        times[rows] = np.arange(1, len(rows) + 1)
        return times

    def describe(self) -> dict:
        return {"model": "fixed-set", "responders": ",".join(map(str, self.responders))}


class RandomSubset:
    """A seeded random choice of `count` responders; the rest never finish."""

    def __init__(self, count: int, seed: int = 0):
        if count < 0:
            raise ConfigurationError(f"responder count must be >= 0, got {count}")
        if seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {seed}")
        self.count = int(count)
        self.seed = int(seed)

    def completion_times(self, n_workers: int, trial: int = 0) -> np.ndarray:
        _check_trial(trial)
        if self.count > n_workers:
            raise ConfigurationError(f"cannot pick {self.count} responders from {n_workers} workers")
        rng = np.random.default_rng((0x5EED, self.seed, trial))
        chosen = rng.permutation(n_workers)[: self.count]
        times = np.full(n_workers, math.inf)
        times[chosen] = np.arange(1, self.count + 1, dtype=float)
        return times

    def describe(self) -> dict:
        return {"model": "random-subset", "count": self.count, "seed": self.seed}


_LATENCY_TAG = 0x1A7E  # first entropy word of every LatencyModel trial stream
# latency_sweep's stream per sweep.  SeedSequence pads entropy with zeros, so
# (_LATENCY_TAG, seed) would be trial 0's stream: the sweep needs its own tag.
_SWEEP_TAG = 0xD157


class LatencyModel:
    """Per-worker delay = shift + Exponential(1/rate); failures take forever."""

    def __init__(self, shift: float = 1.0, rate: float = 1.0, failure_prob: float = 0.0, seed: int = 0):
        if not (math.isfinite(shift) and shift >= 0):
            raise ConfigurationError(f"shift must be a finite number >= 0, got {shift}")
        if not rate > 0:
            raise ConfigurationError(f"rate must be > 0, got {rate}")
        if not 0.0 <= failure_prob <= 1.0:
            raise ConfigurationError(f"failure_prob must be in [0, 1], got {failure_prob}")
        if seed < 0:
            raise ConfigurationError(f"seed must be >= 0, got {seed}")
        self.shift = float(shift)
        self.rate = float(rate)
        self.failure_prob = float(failure_prob)
        self.seed = int(seed)

    def completion_times(self, n_workers: int, trial: int = 0) -> np.ndarray:
        _check_trial(trial)
        rng = np.random.default_rng((_LATENCY_TAG, self.seed, trial))
        scale = 0.0 if math.isinf(self.rate) else 1.0 / self.rate
        times = self.shift + rng.exponential(scale, n_workers)
        if self.failure_prob:
            times[rng.random(n_workers) < self.failure_prob] = math.inf
        return times

    def describe(self) -> dict:
        return {
            "model": "latency",
            "shift": self.shift,
            "rate": self.rate,
            "failure_prob": self.failure_prob,
            "seed": self.seed,
        }


@dataclass(frozen=True)
class RunReport:
    success: bool
    responders: tuple
    points: tuple
    wall_clock: float
    measured_load: int
    checksum: str
    cause: str = ""
    decoded: BlockMatrix | None = None

    def lines(self) -> list:
        out = [
            f"success={self.success}",
            f"responders={','.join(map(str, self.responders))}",
            f"points={','.join(map(str, self.points))}",
            f"wall_clock={self.wall_clock!r}",
            f"measured_load={self.measured_load}",
            f"checksum={self.checksum}",
        ]
        if self.cause:
            out.append(f"cause={self.cause}")
        return out


def _checksum(matrix: BlockMatrix) -> str:
    h = hashlib.sha256()
    h.update(f"{matrix.shape[0]}x{matrix.shape[1]};".encode())
    h.update(np.ascontiguousarray(matrix.data).tobytes())
    return h.hexdigest()


def _completion_order(times: np.ndarray):
    """Finished worker ids w (1-based, at times[w - 1]), earliest first; ties broken by id."""
    finite = [w for w in range(1, len(times) + 1) if math.isfinite(times[w - 1])]
    return sorted(finite, key=lambda w: (times[w - 1], w))


def run(
    plan: EncodingPlan,
    pair: AugmentedPair,
    model,
    trial: int = 0,
    trace_dir=None,
) -> RunReport:
    """Collect the earliest finishers, encode and compute their shares,
    decode, verify.  Only the shares the decoder reads are encoded, or every
    worker's share when ``trace_dir`` is given, since the trace writes them all.

    The responders travel as stacks: one ``share_stacks`` call, one batched
    product of the a-share and b-share stacks, which are released once the
    products exist, and ``interpolate`` on the product stack in place, its
    entries in completion order.  ``decode(plan, [worker_compute(s) for s in
    encode(plan, pair, ids)])`` gives the same product one worker at a time."""
    plan.check_pair(pair)  # a mismatched pair is refused before the model is consulted
    times = model.completion_times(plan.n_workers, trial)
    order = _completion_order(times)
    p_r = plan.recovery_threshold
    ids = order[:p_r] if len(order) >= p_r else []
    rows = [w - 1 for w in ids]  # the responders' places in times and in the share stacks
    if trace_dir is not None:
        trace_dir = Path(trace_dir)
        trace_dir.mkdir(parents=True, exist_ok=True)
        workers = range(1, plan.n_workers + 1)
        shares = share_stacks(plan, pair, workers)
        for w, x, *share in zip(workers, worker_points(plan.evaluation_points, workers), *shares):
            write_share(trace_dir / f"worker_{w:04d}.share", CodedShare(w, x, *share, plan.field))
        shares = [stack[rows] for stack in shares]
    elif ids:
        shares = share_stacks(plan, pair, ids)
    decoded, cause, load = None, f"NotEnoughResults: have {len(order)}, need {p_r}", 0
    if ids:
        products = plan.field.matmul(*shares)
        shares = None  # the products were the shares' last reader
        load = products.size
        try:
            decoded = interpolate(plan, ids, products)
        except SingularSystemError as exc:
            cause = f"SingularSystemError: {exc}"
        else:
            products = None  # interpolate was its last reader
            ok = np.array_equal(decoded.data, plan.field.matmul(pair.original_a, pair.original_b))
            cause = "" if ok else "decoded output failed verification"
    shown = ids or order  # the responders read, or every finisher of a short run
    report = RunReport(
        success=not cause,
        responders=tuple(shown),
        points=tuple(worker_points(plan.evaluation_points, shown)),
        wall_clock=float(times[rows[-1]]) if ids else math.inf,
        measured_load=load,
        checksum="" if decoded is None else _checksum(decoded),
        cause=cause,
        decoded=decoded,
    )
    _maybe_manifest(trace_dir, plan, model, trial, report)
    return report


def _maybe_manifest(trace_dir, plan, model, trial, report: RunReport) -> None:
    if trace_dir is None:
        return
    lines = [
        f"t={plan.t}",
        f"s={plan.s}",
        f"d={plan.d}",
        f"pc={plan.p_c}",
        f"modulus={plan.field.p}",
        f"workers={plan.n_workers}",
        f"recovery_threshold={plan.recovery_threshold}",
        f"trial={trial}",
    ]
    lines += [f"{k}={v}" for k, v in model.describe().items()]
    lines += report.lines()
    Path(trace_dir, "manifest.txt").write_text("\n".join(lines) + "\n")


@dataclass(frozen=True)
class LatencySummary:
    times: np.ndarray  # one P_R-th completion time per successful trial
    trials: int
    failed_trials: int

    @property
    def mean(self) -> float:
        return float(np.mean(self.times)) if len(self.times) else math.inf


def latency_sweep(plan: EncodingPlan, model: LatencyModel, trials: int) -> LatencySummary:
    """Empirical distribution of the recovery_threshold-th completion time.

    Each trial's time is drawn from its exact law (see the module docstring),
    a few vectorised calls for all trials, and no matrix work is done.
    Trials without enough survivors are counted, not included.  Only a
    LatencyModel is accepted: the other models give the same rank times on
    every trial, so sweeping them measures nothing."""
    if not isinstance(model, LatencyModel):
        raise ConfigurationError(f"latency_sweep needs a LatencyModel, got {type(model).__name__}")
    if isinstance(trials, bool) or not isinstance(trials, (int, np.integer)) or trials < 1:
        raise ConfigurationError(f"trials must be an int >= 1, got {trials!r}")
    p_r = plan.recovery_threshold
    rng = np.random.default_rng((_SWEEP_TAG, model.seed))
    survivors = rng.binomial(plan.n_workers, 1.0 - model.failure_prob, trials)
    survivors = survivors[survivors >= p_r]
    x = rng.standard_gamma(p_r, survivors.size)
    y = rng.standard_gamma(survivors - p_r + 1)
    times = model.shift + np.log1p(x / y) / model.rate
    return LatencySummary(times, int(trials), int(trials - survivors.size))
