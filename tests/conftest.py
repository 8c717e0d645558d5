"""Shared fixtures and independent oracles.

The oracles recompute what the library claims by a different route: matrix
products by explicit integer triple loops, shares by symbolic polynomial
evaluation built straight from the exponent maps, and the product polynomial
by term-by-term convolution.  None of them call the code paths under test.
The closed-form thresholds are an independent oracle for the construction's
recovery threshold.  The brute-force enumeration is the oracle for the
secrecy audit's rank test; it shares only the observation matrix, which
``test_observation_matrix_is_the_encoders_map`` checks against ``encode``.
The token-by-token parser is the oracle for the byte-level file reader.
The per-target loop is the oracle for the array-pass exponent audit, and a
per-trial ``default_rng`` for the latency sweep's batched seeding.
"""

from __future__ import annotations

import hashlib
import importlib.util
import math
import warnings
from math import ceil
from pathlib import Path

import numpy as np
import pytest

from sgpd import (
    ConfigurationError,
    ExponentAuditReport,
    LatencySummary,
    PrimeField,
    SubsetVerdict,
    augment,
    partition,
)
from sgpd.secrecy_audit import _observation_matrix

if importlib.util.find_spec("libcst") is not None:
    # On a failing property test, hypothesis's pytest plugin imports its patch
    # writer, which imports libcst, which subclasses the deprecated
    # mypy_extensions.TypedDict.  Under -W error::DeprecationWarning that
    # import ends the run in INTERNALERROR and hides the falsifying example,
    # so it is done once here with only that warning ignored.
    with warnings.catch_warnings():
        warnings.filterwarnings(
            "ignore", "mypy_extensions.TypedDict is deprecated", DeprecationWarning
        )
        import hypothesis.extra._patching  # noqa: F401

_SLAB = 1 << 17


@pytest.fixture(scope="session")
def field257() -> PrimeField:
    return PrimeField(257)


@pytest.fixture(scope="session")
def field65537() -> PrimeField:
    return PrimeField(65537)


@pytest.fixture(scope="session")
def field5() -> PrimeField:
    return PrimeField(5)


def triple_loop_product(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Reference matmul mod p in plain Python integers (arbitrary precision)."""
    rows, inner = a.shape
    inner2, cols = b.shape
    assert inner == inner2
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        for k in range(inner):
            aik = int(a[i, k])
            if aik == 0:
                continue
            for j in range(cols):
                out[i][j] = (out[i][j] + aik * int(b[k, j])) % p
    return np.array(out, dtype=np.int64).reshape(rows, cols)


def small_matmul(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    # exact for the tiny blocks used in tests: products stay far below 2**63
    return (a.astype(np.int64) @ b.astype(np.int64)) % p


def product_coefficients(pair, geometry) -> dict:
    """Symbolic convolution of the two encoding polynomials.

    Returns {exponent: coefficient block} for f_A(x) * f_B(x), summing
    A-block x B-block products over every pair of live monomials.
    """
    exps = geometry.exponent_map
    a_live, b_live = geometry.layout.a_live, geometry.layout.b_live
    p = pair.a_star.field.p
    out_shape = (pair.a_star.block_shape[0], pair.b_star.block_shape[1])
    coeffs: dict = {}
    rows_a, cols_a = pair.a_star.grid
    rows_b, cols_b = pair.b_star.grid
    for i in range(rows_a):
        for j in range(cols_a):
            if not a_live[i, j]:
                continue
            e_a = int(exps.a_exponents[i, j])
            blk_a = pair.a_star.block(i, j)
            for k in range(rows_b):
                for l in range(cols_b):
                    if not b_live[k, l]:
                        continue
                    g = e_a + int(exps.b_exponents[k, l])
                    term = small_matmul(blk_a, pair.b_star.block(k, l), p)
                    if g in coeffs:
                        coeffs[g] = (coeffs[g] + term) % p
                    else:
                        coeffs[g] = term
    return coeffs, out_shape


def evaluate_terms(coeffs: dict, x: int, p: int, shape) -> np.ndarray:
    acc = np.zeros(shape, dtype=np.int64)
    for g, mat in coeffs.items():
        acc = (acc + mat * pow(x, g, p)) % p
    return acc


def encoding_terms(block_matrix, exponents: np.ndarray, live: np.ndarray) -> dict:
    """{exponent: block} for one encoding polynomial, read off the map."""
    terms = {}
    rows, cols = block_matrix.grid
    for i in range(rows):
        for j in range(cols):
            if live[i, j]:
                terms[int(exponents[i, j])] = block_matrix.block(i, j)
    return terms


def closed_form_thresholds(t: int, s: int, d: int, p_c: int) -> dict:
    """Closed-form threshold expressions for cross-checking a construction.

    Keys ending in ``_variant`` are alternative printed forms of the same
    quantity that disagree with the construction for some parameters; they
    feed the report that acceptance criterion 2 writes and are never asserted.
    """
    out: dict = {}
    if p_c == 0:
        out["unsecured"] = t * s * d + s - 1
        return out
    if s < t:
        delta = ceil(p_c / s)
        t_star, d_star = t + delta, d + delta
        z = s * delta - p_c
        if z == 0:
            out["tall"] = t_star * s * (d + 1) + s * delta - 1
            out["tall_degree_variant"] = t_star * s * (d + 1) + s * delta - 1
        else:
            out["tall"] = t_star * s * (d + 1) - s * delta + 2 * p_c - 1
            out["tall_degree_variant"] = d * s * t_star - s * delta + 2 * p_c + t - 2
        out["naive_tall"] = t_star * s * d_star + s - 1 - 2 * z
        if z > 0:
            out["naive_tall_variant"] = d * s * t_star + s - 1 - 2 * z
    else:
        delta_w = ceil(p_c / min(t, d))
        s_star = s + delta_w
        out["wide_general"] = t * d * s_star + s_star - 1
        if t == d:
            out["wide_special"] = s_star * (t * t + 1) - 3
            out["wide_special_applies_div_s"] = delta_w * s > p_c
            out["wide_special_applies_div_min"] = delta_w * min(t, d) > p_c
    return out


def make_pair(t, s, d, p_c, field, rng, bt=1, bs=1, bd=1):
    """Random input matrices plus their augmented pair for an encoding run."""
    a = field.random_array((t * bt, s * bs), rng)
    b = field.random_array((s * bs, d * bd), rng)
    pair = augment(partition(a, (t, s), field), partition(b, (s, d), field), p_c, rng)
    return a, b, pair


def _count_table(instance, subset) -> np.ndarray:
    """counts[data_index, observation_index] over every assignment of the
    data and live random entries, walked in slabs.  Data entries are the low
    mixed-radix digits, so an assignment's (A, B) index is its residue."""
    p = instance.field.p
    n_data = instance.entry_sizes()[2]
    matrix = _observation_matrix(instance, subset)
    obs_dim, n_vars = matrix.shape
    total = p**n_vars
    radix_vars = p ** np.arange(n_vars, dtype=np.int64)
    radix_obs = p ** np.arange(obs_dim, dtype=np.int64)
    n_obs_keys = p**obs_dim
    counts = np.zeros(p**n_data * n_obs_keys, dtype=np.int64)
    mt = matrix.T % p
    for start in range(0, total, _SLAB):
        idx = np.arange(start, min(start + _SLAB, total), dtype=np.int64)
        digits = (idx[:, None] // radix_vars[None, :]) % p
        obs = (digits @ mt) % p
        keys = (idx % p**n_data) * n_obs_keys + obs @ radix_obs
        counts += np.bincount(keys, minlength=len(counts))
    return counts.reshape(p**n_data, n_obs_keys)


def enumerated_subset_verdict(instance, subset) -> SubsetVerdict:
    """The secrecy verdict by counting: SECURE iff every (A, B) gives the
    same table of observation counts.  Support, uniformity and fingerprint
    describe the table of the all-zero data."""
    subset = tuple(sorted(int(w) for w in subset))
    table = _count_table(instance, subset)
    reference = table[0]
    positive = reference[reference > 0]
    digest = hashlib.sha256()
    digest.update(repr((instance.t, instance.s, instance.d, instance.p_c, subset)).encode())
    digest.update(np.sort(reference).tobytes())
    return SubsetVerdict(
        subset=subset,
        secure=bool((table == reference).all()),
        cases=instance.cases_per_subset(),
        support=int(positive.size),
        uniform=bool(positive.size == 0 or (positive == positive[0]).all()),
        fingerprint=digest.hexdigest()[:16],
    )


def reference_read_text_file(path, header_len: int, dims: slice, modulus: int | None = None):
    """The token-by-token reader of matrix and share files: ``int()`` on every
    whitespace-separated token, then the same structural checks as
    ``read_text_file``.  It accepts more than the byte-level reader (``+5``,
    ``1_000``, non-ASCII digits and separators, any number of digits), so it
    is an oracle only for files inside the token grammar."""
    tokens = Path(path).read_text().split()
    if len(tokens) < header_len:
        raise ConfigurationError(f"{path}: truncated file")
    try:
        vals = np.array(tokens, dtype=np.int64)
    except (ValueError, OverflowError) as exc:
        raise ConfigurationError(f"{path}: bad entry ({exc})") from None
    header, vals = vals[:header_len].tolist(), vals[header_len:]
    shapes = list(zip(header[dims][::2], header[dims][1::2]))
    if min(map(min, shapes)) < 0:
        raise ConfigurationError(f"{path}: negative dimension in header {header}")
    sizes = [rows * cols for rows, cols in shapes]
    if vals.size != sum(sizes):
        raise ConfigurationError(f"{path}: expected {sum(sizes)} entries, found {vals.size}")
    modulus = header[-1] if modulus is None else modulus
    if ((vals < 0) | (vals >= modulus)).any():
        raise ConfigurationError(f"{path}: an entry lies outside [0, {modulus})")
    parts = np.split(vals, np.cumsum(sizes)[:-1])
    return header, [part.reshape(shape) for part, shape in zip(parts, shapes)]


def looped_exponent_audit(geometry) -> ExponentAuditReport:
    """The exponent audit as one ``argwhere`` per extraction target, each hit
    classified in Python: the oracle for the array-pass ``exponent_audit``."""
    emap, lay = geometry.exponent_map, geometry.layout
    t, s, d = geometry.t, geometry.s, geometry.d
    findings = []
    for name, arr in (("a", emap.a_exponents), ("b", emap.b_exponents)):
        flat = arr.ravel()
        if len(np.unique(flat)) != flat.size:
            findings.append(f"{name}-side exponents are not distinct")
    a_blocks = np.argwhere(lay.a_live)  # row-major, so findings keep loop order
    b_blocks = np.argwhere(lay.b_live)
    sums = np.add.outer(emap.a_exponents[lay.a_live], emap.b_exponents[lay.b_live])
    p_r = geometry.recovery_threshold
    ext = emap.extraction
    if len(np.unique(ext.ravel())) != ext.size:
        findings.append("extraction exponents are not distinct")
    if int(ext.max()) >= p_r:
        findings.append(
            f"extraction exponent {int(ext.max())} outside degree range {p_r - 1}"
        )
    for (i, l), target in np.ndenumerate(ext):
        inner_seen = []
        for x, y in np.argwhere(sums == target):
            ai, aj = (int(v) for v in a_blocks[x])
            bk, bl = (int(v) for v in b_blocks[y])
            a_data = ai < t and aj < s  # data fill the top-left corners
            b_data = bk < s and bl < d
            if not (a_data and b_data):
                findings.append(
                    f"C[{i},{l}] at exponent {target} receives "
                    f"a[{ai},{aj}] x b[{bk},{bl}] "
                    f"({'data' if a_data else 'random'} x "
                    f"{'data' if b_data else 'random'})"
                )
            elif ai != i or bl != l or aj != bk:
                findings.append(
                    f"C[{i},{l}] at exponent {target} receives misaligned "
                    f"data pair a[{ai},{aj}] x b[{bk},{bl}]"
                )
            else:
                inner_seen.append(aj)
        if sorted(inner_seen) != list(range(s)):
            findings.append(
                f"C[{i},{l}] inner-sum terms {sorted(inner_seen)} != 0..{s - 1}"
            )
    return ExponentAuditReport((t, s, d, geometry.p_c), sums.size, tuple(findings))


def default_rng_completion_times(model, n_workers: int, trial: int) -> np.ndarray:
    """LatencyModel delays drawn from ``np.random.default_rng((0x1A7E, seed,
    trial))``, one generator per trial: the oracle for the batched seeding."""
    rng = np.random.default_rng((0x1A7E, model.seed, trial))
    scale = 0.0 if math.isinf(model.rate) else 1.0 / model.rate
    times = model.shift + rng.exponential(scale, size=n_workers)
    if model.failure_prob:
        times[rng.random(n_workers) < model.failure_prob] = math.inf
    return times


def looped_latency_sweep(plan, model, trials: int) -> LatencySummary:
    """The latency sweep one sorted trial at a time."""
    p_r = plan.recovery_threshold
    collected = []
    failed = 0
    for trial in range(trials):
        times = np.sort(default_rng_completion_times(model, plan.n_workers, trial))
        if len(times) < p_r or not math.isfinite(times[p_r - 1]):
            failed += 1
            continue
        collected.append(float(times[p_r - 1]))
    return LatencySummary(np.asarray(collected), trials, failed)
