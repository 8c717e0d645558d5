"""Master/worker pool simulation with stragglers and failures.

Time is simulated, never slept: a straggler model assigns each worker a
completion time (infinity marks a permanent failure), the run collects the
earliest recovery_threshold finishers, decodes, and checks the output against
the directly computed product.  Identical seeds give byte-identical reports.

LatencyModel trial ``trial`` of seed ``seed`` draws from
``PCG64(SeedSequence((0x1A7E, seed, trial)))``, the generator
``np.random.default_rng((0x1A7E, seed, trial))`` returns.  The seeding is
vectorised: SeedSequence's uint32 hash mixing runs in numpy for every trial
at once, and numpy's own PCG64 takes each trial's four uint64 words, so the
streams stay numpy's bit for bit.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .blocks import AugmentedPair, BlockMatrix
from .codec import EncodingPlan, decode, encode, worker_compute, write_share
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
        for rank, w in enumerate(self.responders):
            if not 1 <= w <= n_workers:
                raise ConfigurationError(f"responder id {w} outside pool 1..{n_workers}")
            times[w - 1] = float(rank + 1)
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
            raise ConfigurationError(
                f"cannot pick {self.count} responders from {n_workers} workers"
            )
        rng = np.random.default_rng((0x5EED, self.seed, trial))
        chosen = rng.permutation(n_workers)[: self.count]
        times = np.full(n_workers, math.inf)
        times[chosen] = np.arange(1, self.count + 1, dtype=float)
        return times

    def describe(self) -> dict:
        return {"model": "random-subset", "count": self.count, "seed": self.seed}


# SeedSequence's documented constants (numpy/random/bit_generator.pyx)
_MASK32 = 0xFFFF_FFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_LATENCY_TAG = 0x1A7E  # first entropy word of every LatencyModel stream
_SWEEP_CHUNK = 32  # trials per delay table in latency_sweep: 32 x P floats


def _uint32_words(n: int) -> list:
    """A non-negative int as SeedSequence reads it: uint32 words, low first."""
    words = [n & _MASK32]
    n >>= 32
    while n:
        words.append(n & _MASK32)
        n >>= 32
    return words


def _seed_sequence_state(entropy: list) -> np.ndarray:
    """``SeedSequence(entropy).generate_state(4, np.uint64)`` for many entropy
    lists at once: entropy[j] holds word j of every list, one uint32 array each.

    Only arrays take part in the arithmetic, where uint32 wraps silently as
    the hash needs; numpy warns about the same wraparound on scalars."""
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> np.uint32(16))

    def mix(x, y):
        result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return result ^ (result >> np.uint32(16))

    zero = np.zeros_like(entropy[0])
    pool = [hashmix(entropy[i] if i < len(entropy) else zero) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    hash_const = _INIT_B
    state = np.empty((zero.size, 2 * _POOL_SIZE), dtype=np.uint32)
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE] ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * np.uint32(hash_const)
        state[:, i] = value ^ (value >> np.uint32(16))
    return state.astype("<u4").view("<u8").astype(np.uint64)


def _latency_seed_words(seed: int, trials) -> np.ndarray:
    """Row r: the four uint64 words ``SeedSequence((0x1A7E, seed, trials[r]))``
    hands to PCG64.  A trial of 2**32 or more is two entropy words."""
    trials = np.asarray(trials, dtype=np.uint64)
    low = (trials & np.uint64(_MASK32)).astype(np.uint32)
    high = (trials >> np.uint64(32)).astype(np.uint32)
    prefix = _uint32_words(_LATENCY_TAG) + _uint32_words(seed)
    words = np.empty((trials.size, 4), dtype=np.uint64)
    for two_words in (False, True):
        rows = (high != 0) == two_words
        if rows.any():
            tail = [low[rows], high[rows]] if two_words else [low[rows]]
            fixed = [np.full(tail[0].size, w, dtype=np.uint32) for w in prefix]
            words[rows] = _seed_sequence_state(fixed + tail)
    return words


class _SeedWords(ISeedSequence):
    """Hands precomputed SeedSequence words to numpy's PCG64, which asks for
    exactly ``generate_state(4, np.uint64)``."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32):
        return self.words


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

    def _delays(self, seed_words: np.ndarray, n_workers: int) -> np.ndarray:
        """One row of worker completion times per row of seed words.

        Each row draws what ``exponential(scale, n_workers)`` and then
        ``random(n_workers)`` would from its trial's generator; the scale
        and shift are applied to the whole table in the same IEEE order."""
        times = np.empty((len(seed_words), n_workers))
        failures = np.empty_like(times) if self.failure_prob else None
        for r, words in enumerate(seed_words):
            rng = np.random.Generator(np.random.PCG64(_SeedWords(words)))
            rng.standard_exponential(out=times[r])
            if failures is not None:
                rng.random(out=failures[r])
        times *= 0.0 if math.isinf(self.rate) else 1.0 / self.rate
        times += self.shift
        if failures is not None:
            times[failures < self.failure_prob] = math.inf
        return times

    def completion_times(self, n_workers: int, trial: int = 0) -> np.ndarray:
        _check_trial(trial)
        return self._delays(_latency_seed_words(self.seed, [trial]), n_workers)[0]

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
    """Finished worker ids, earliest first; ties broken by worker id."""
    finite = [w for w in range(len(times)) if math.isfinite(times[w])]
    return sorted(finite, key=lambda w: (times[w], w))


def run(
    plan: EncodingPlan,
    pair: AugmentedPair,
    model,
    trial: int = 0,
    trace_dir=None,
) -> RunReport:
    """Dispatch all shares, collect the earliest finishers, decode, verify."""
    shares = encode(plan, pair)
    times = model.completion_times(plan.n_workers, trial)
    order = _completion_order(times)
    p_r = plan.recovery_threshold
    if trace_dir is not None:
        trace_dir = Path(trace_dir)
        trace_dir.mkdir(parents=True, exist_ok=True)
        for share in shares:
            write_share(trace_dir / f"worker_{share.worker_id:04d}.share", share)
    if len(order) < p_r:
        report = RunReport(
            success=False,
            responders=tuple(w + 1 for w in order),
            points=tuple(shares[w].point for w in order),
            wall_clock=math.inf,
            measured_load=0,
            checksum="",
            cause=f"NotEnoughResults: have {len(order)}, need {p_r}",
        )
        _maybe_manifest(trace_dir, plan, model, trial, report)
        return report
    used = order[:p_r]
    results = [worker_compute(shares[w], float(times[w])) for w in used]
    try:
        decoded = decode(plan, results)
    except SingularSystemError as exc:
        decoded, cause = None, f"SingularSystemError: {exc}"
    else:
        expected = plan.field.matmul(pair.original_a, pair.original_b)
        ok = bool(np.array_equal(decoded.data, expected))
        cause = "" if ok else "decoded output failed verification"
    report = RunReport(
        success=not cause,
        responders=tuple(w + 1 for w in used),
        points=tuple(shares[w].point for w in used),
        wall_clock=float(times[used[-1]]),
        measured_load=sum(r.product.size for r in results),
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

    Samples delays only; no matrix work is done, so large trial counts are
    cheap.  Trials without enough survivors are counted, not included.  Only
    a LatencyModel is accepted: the other models give the same rank times on
    every trial, so sweeping them measures nothing."""
    if not isinstance(model, LatencyModel):
        raise ConfigurationError(
            f"latency_sweep needs a LatencyModel, got {type(model).__name__}"
        )
    if trials < 1:
        raise ConfigurationError(f"trials must be >= 1, got {trials}")
    p_r = plan.recovery_threshold
    seed_words = _latency_seed_words(model.seed, np.arange(trials))
    kth = np.empty(trials)  # the P_R-th completion time of every trial
    for start in range(0, trials, _SWEEP_CHUNK):
        delays = model._delays(seed_words[start:start + _SWEEP_CHUNK], plan.n_workers)
        kth[start:start + _SWEEP_CHUNK] = np.partition(delays, p_r - 1, axis=1)[:, p_r - 1]
    finished = np.isfinite(kth)
    return LatencySummary(kth[finished], trials, trials - int(finished.sum()))
