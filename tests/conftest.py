"""Shared fixtures and independent oracles.

The oracles recompute what the library claims by a different route: matrix
products by explicit integer triple loops, shares by symbolic polynomial
evaluation built straight from the exponent maps, and the product polynomial
by term-by-term convolution.  None of them call the code paths under test.
The closed-form thresholds are an independent oracle for the construction's
recovery threshold: the paper's forms, and the run map's, counted as the
union of its d + 3 intervals in a Python set; ``paper_support`` and
``run_map`` rebuild each map's support and live exponents from scratch.
The secrecy audit takes its ranks on block-level power tables; the oracle
builds the entry-level observation matrix instead (the Kronecker product
and the column per data or random entry), which
``test_observation_matrix_is_the_encoders_map`` checks against ``encode``.
The brute-force enumeration counts every assignment through that matrix,
and its ranks must equal the audit's block-level ones.
The token-by-token parser is the oracle for the byte-level file reader.
A Python-int Gauss-Jordan is the oracle for ``PrimeField.pivot_columns`` and
``solve``, and the Lagrange basis for the decoder's solve on a support
0..n-1; a Python set of live sums for the recovery threshold.
The per-target loop is the oracle for the counting exponent audit.  The
latency sweep draws each P_R-th completion time from its exact law; the
oracles are that law's CDF, written as binomial tail sums, and a sweep that
sorts every trial's simulated worker delays.
"""

from __future__ import annotations

import importlib.util
import math
import warnings
from math import ceil
from pathlib import Path

import numpy as np
import pytest

from sgpd import (
    AuditInstance,
    ConfigurationError,
    ExponentAuditReport,
    LatencySummary,
    PrimeField,
    SubsetVerdict,
    augment,
    code_geometry,
    codec,
    partition,
)

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


def block(block_matrix, i: int, j: int) -> np.ndarray:
    """Block (i, j) of a BlockMatrix, 0-indexed, sliced from its data."""
    br, bc = block_matrix.block_shape
    return block_matrix.data[i * br : (i + 1) * br, j * bc : (j + 1) * bc]


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
            blk_a = block(pair.a_star, i, j)
            for k in range(rows_b):
                for l in range(cols_b):
                    if not b_live[k, l]:
                        continue
                    g = e_a + int(exps.b_exponents[k, l])
                    term = small_matmul(blk_a, block(pair.b_star, k, l), p)
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
                terms[int(exponents[i, j])] = block(block_matrix, i, j)
    return terms


def distinct_live_sums(geometry) -> int:
    """Brute-force size of the live sumset: a + b over every pair of a live
    A* block and a live B* block, collected in a Python set."""
    emap, lay = geometry.exponent_map, geometry.layout
    a = [int(e) for e, live in zip(emap.a_exponents.flat, lay.a_live.flat) if live]
    b = [int(e) for e, live in zip(emap.b_exponents.flat, lay.b_live.flat) if live]
    return len({x + y for x in a for y in b})


def gpd_b_map(geometry) -> np.ndarray:
    """The plain GPD b map over a two-band code's widened grid, which the
    sparse placement replaces for B's live random blocks."""
    rows, width = geometry.layout.a_live.shape
    k, l = np.indices(geometry.layout.b_live.shape)
    return (width - 1 - k) + rows * width * l


def run_threshold(t: int, s: int, d: int, p_c: int) -> int:
    """The live support size of the run map (data on plain GPD over (t, s, d),
    each side's P_C random blocks on R .. R + P_C - 1, R = t s d): data times
    data fill [0, R + s - 2], A's data times B's run R + [0, t s + P_C - 2],
    A's run times B's column band l R + t s l + [0, s + P_C - 2], and run
    times run 2R + [0, 2 P_C - 2]."""
    r = t * s * d
    intervals = [
        (0, r + s - 2),
        (r, r + t * s + p_c - 2),
        *((r + t * s * l, r + t * s * l + s + p_c - 2) for l in range(d)),
        (2 * r, 2 * r + 2 * p_c - 2),
    ]
    return len(set().union(*(range(lo, hi + 1) for lo, hi in intervals)))


def run_map(geometry) -> tuple:
    """The run map's live exponents for a geometry's masks, block by block in
    row-major order, and its extraction spots: data blocks on plain GPD over
    (t, s, d), a(i, j) = s i + j and b(k, l) = s - 1 - k + t s l, each side's
    random blocks on R, R + 1, ... in row-major order, R = t s d, and C_{i,l}
    read at s (i + 1) - 1 + t s l."""
    lay = geometry.layout
    t, s, d = lay.t, lay.s, lay.d
    r = t * s * d
    a, b = [], []
    for exps, live, data in (
        (a, lay.a_live, lambda i, j: s * i + j if i < t and j < s else None),
        (b, lay.b_live, lambda k, l: s - 1 - k + t * s * l if k < s and l < d else None),
    ):
        run = r
        for i, j in zip(*np.nonzero(live)):
            e = data(int(i), int(j))
            if e is None:
                e, run = run, run + 1
            exps.append(e)
    ext = [[s * (i + 1) - 1 + t * s * l for l in range(d)] for i in range(t)]
    return a, b, ext


def paper_support(t: int, s: int, d: int, p_c: int) -> list:
    """The live support of the paper's map, which every code used before the
    run map: 0 .. P_R - 1 by the paper's closed forms, except for two-band
    codes, whose support is counted here from plain GPD over s_w
    (``gpd_b_map``), with B's random blocks on s_w, 2 s_w, ..., P_C s_w when
    P_C <= d."""
    forms = closed_form_thresholds(t, s, d, p_c)
    for key in ("unsecured", "tall"):
        if key in forms:
            return list(range(forms[key]))
    if min(t, d) == 1:
        return list(range(forms["wide_general"]))
    geometry = code_geometry(t, s, d, p_c)  # its masks are the paper's
    lay = geometry.layout
    rows, width = lay.a_live.shape
    a = width * np.arange(rows)[:, None] + np.arange(width)
    b = gpd_b_map(geometry)
    if p_c <= d:
        b[lay.b_random] = width * np.arange(1, p_c + 1)
    return sorted({x + y for x in a[lay.a_live].tolist() for y in b[lay.b_live].tolist()})


def closed_form_thresholds(t: int, s: int, d: int, p_c: int) -> dict:
    """Closed-form threshold expressions for cross-checking a construction.

    ``runs`` is the run map's, beside the paper's forms; ``two_band_dense``
    is the degree plus one of the paper's two-band map, A's top exponent
    s_w (t - 1) + s - 1 + c (c its last row's live random blocks) plus B's
    t s_w (d - 1) + s_w - 1.  Keys ending in ``_variant`` are alternative
    printed forms of the same quantity that disagree with the construction
    for some parameters; they feed the report that acceptance criterion 2
    writes and are never asserted.
    """
    out: dict = {}
    if p_c == 0:
        out["unsecured"] = t * s * d + s - 1
        return out
    out["runs"] = run_threshold(t, s, d, p_c)
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
        if min(t, d) >= 2:
            delta_a, delta_b = ceil(p_c / t), ceil(p_c / d)
            s_w, c = s + delta_a + delta_b, max(0, p_c - (t - 1) * delta_a)
            out["two_band_dense"] = t * d * s_w + s + c - 1
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


def _side_map(instance: AuditInstance, points, exps, live, rows: int, cols: int, entries: int):
    """The encoder's map on one side: its power table over the data corner's
    blocks, then the live random blocks (row-major), times the identity over
    one block's entries.  Rows: worker-major share entries; columns: that
    side's variables, block-major."""
    corner = np.zeros(live.shape, bool)
    corner[:rows, :cols] = True
    random = live & ~corner & (not instance.negative_control)
    table = instance.field.power_table(points, np.concatenate([exps[corner], exps[random]]))
    return np.kron(table, np.eye(entries, dtype=np.int64))


def observation_matrix(instance: AuditInstance, subset) -> np.ndarray:
    """Rows: one per observed share entry; columns: one per variable.

    Variable order: A data entries, B data entries, then live random entries
    (A side, B side).  Each worker's rows are its a-share entries, then its
    b-share entries, as ``encode`` forms them, at the point the pool's rule
    gives its worker id."""
    geo = instance.geometry
    emap, lay = geo.exponent_map, geo.layout
    pool = codec.pool_points(instance.n_workers, instance.field)
    points = np.array([pool[w - 1] for w in sorted(subset)], dtype=np.int64)
    ea, eb, _ = instance.entry_sizes()
    m_a = _side_map(instance, points, emap.a_exponents, lay.a_live, geo.t, geo.s, ea)
    m_b = _side_map(instance, points, emap.b_exponents, lay.b_live, geo.s, geo.d, eb)
    n_w = points.size
    n_a, n_b = geo.t * geo.s * ea, geo.s * geo.d * eb  # data entries per side
    r_a, r_b = m_a.shape[1] - n_a, m_b.shape[1] - n_b  # live random entries per side
    n_vars = n_a + n_b + r_a + r_b
    a_cols = np.r_[:n_a, n_a + n_b : n_a + n_b + r_a]
    b_cols = np.r_[n_a : n_a + n_b, n_vars - r_b : n_vars]
    out = np.zeros((n_w, ea + eb, n_vars), dtype=np.int64)
    out[:, :ea, a_cols] = m_a.reshape(n_w, ea, a_cols.size)
    out[:, ea:, b_cols] = m_b.reshape(n_w, eb, b_cols.size)
    return out.reshape(n_w * (ea + eb), n_vars)


def _count_table(instance, subset) -> np.ndarray:
    """counts[data_index, observation_index] over every assignment of the
    data and live random entries, walked in slabs.  Data entries are the low
    mixed-radix digits, so an assignment's (A, B) index is its residue."""
    p = instance.field.p
    n_data = instance.entry_sizes()[2]
    matrix = observation_matrix(instance, subset)
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


def _power_of(p: int, n: int) -> int:
    """k with p**k == n."""
    k = 0
    while p**k < n:
        k += 1
    assert p**k == n, (p, n)
    return k


def verdict_fields(verdict: SubsetVerdict) -> tuple:
    """A library verdict as the oracle below reports one."""
    return verdict.subset, verdict.rank_random, verdict.rank_view, verdict.secure


def enumerated_subset_verdict(instance, subset) -> tuple:
    """(subset, rank_random, rank_view, secure) by counting.  SECURE iff every
    (A, B) gives the same table of observation counts.  The all-zero data's
    row must be uniform on its support, which holds p**rank_random
    observations; over every assignment the observations fill the column span
    of [M_r | M_d], p**rank_view of them."""
    subset = tuple(sorted(int(w) for w in subset))
    p, table = instance.field.p, _count_table(instance, subset)
    reference = table[0]
    positive = reference[reference > 0]
    assert (positive == positive[0]).all(), (instance, subset)  # uniform on its support
    seen = np.count_nonzero(table.sum(axis=0))
    secure = bool((table == reference).all())
    return subset, _power_of(p, positive.size), _power_of(p, seen), secure


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


def python_gauss_jordan(matrix, p: int, pivot_cols: int | None = None):
    """Reduced row echelon form over GF(p) in Python integers, with pivots
    sought in the first pivot_cols columns (all by default), and the rank:
    the oracle for ``PrimeField.pivot_columns`` and ``PrimeField.solve``."""
    rows = [[int(x) % p for x in row] for row in np.asarray(matrix).tolist()]
    n_cols = len(rows[0]) if rows else 0
    rank = 0
    for col in range(n_cols if pivot_cols is None else pivot_cols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        inverse = pow(rows[rank][col], -1, p)
        rows[rank] = [x * inverse % p for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                rows[r] = [(x - f * y) % p for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rows, rank


def lagrange_coefficient_matrix(field: PrimeField, xs) -> np.ndarray:
    """L[e, i] = coefficient of z**e in the i-th Lagrange basis polynomial:
    the inverse of the dense Vandermonde matrix, the oracle for ``decode``'s
    solve on a support 0..n-1.

    Synthetic division by (z - x_i) and the Horner evaluation of each
    quotient at x_i run as one numpy step per degree over all points."""
    p = field.p
    xs = field.residues(xs).reshape(-1)
    n = xs.size
    master = np.zeros(n + 1, dtype=np.int64)  # prod (z - x_i), low-to-high coeffs
    master[0] = 1
    for x in xs:  # master[n] stays 0 until the last factor, so the roll is a shift
        master = (np.roll(master, 1) - x * master) % p
    q = np.empty((n, n), dtype=np.int64)  # q[i] = master / (z - x_i)
    q[:, n - 1] = master[n]
    for j in range(n - 2, -1, -1):
        q[:, j] = (master[j + 1] + xs * q[:, j + 1]) % p
    denom = np.zeros(n, dtype=np.int64)  # q[i](x_i) = prod_{j != i} (x_i - x_j)
    for j in range(n - 1, -1, -1):
        denom = (denom * xs + q[:, j]) % p
    if (denom == 0).any():
        raise ConfigurationError("evaluation points are not distinct")
    inverse, base, e = np.ones(n, dtype=np.int64), denom, p - 2  # Fermat: denom**(p-2)
    while e:
        if e & 1:
            inverse = inverse * base % p
        base, e = base * base % p, e >> 1
    return (q * inverse[:, None] % p).T


def looped_exponent_audit(geometry) -> ExponentAuditReport:
    """The exponent audit as one ``argwhere`` per extraction target, each hit
    classified in Python: the oracle for the counting ``exponent_audit``."""
    emap, lay = geometry.exponent_map, geometry.layout
    t, s, d = geometry.t, geometry.s, geometry.d
    findings = []
    for name, arr, live in (
        ("a", emap.a_exponents, lay.a_live),
        ("b", emap.b_exponents, lay.b_live),
    ):
        exps = [int(e) for e, alive in zip(arr.ravel(), live.ravel()) if alive]
        if len(set(exps)) != len(exps):
            findings.append(f"{name}-side live exponents are not distinct")
    a_blocks = np.argwhere(lay.a_live)  # row-major, so findings keep loop order
    b_blocks = np.argwhere(lay.b_live)
    sums = np.add.outer(emap.a_exponents[lay.a_live], emap.b_exponents[lay.b_live])
    live_sums = set(sums.ravel().tolist())
    ext = emap.extraction
    if len(np.unique(ext.ravel())) != ext.size:
        findings.append("extraction exponents are not distinct")
    for e in sorted(set(ext.ravel().tolist())):
        if e not in live_sums:
            findings.append(f"extraction exponent {e} not in the live support")
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
    trial))``, one generator per trial: exponentials first, then failures."""
    rng = np.random.default_rng((0x1A7E, model.seed, trial))
    scale = 0.0 if math.isinf(model.rate) else 1.0 / model.rate
    times = model.shift + rng.exponential(scale, size=n_workers)
    if model.failure_prob:
        times[rng.random(n_workers) < model.failure_prob] = math.inf
    return times


def looped_latency_sweep(plan, model, trials: int) -> LatencySummary:
    """The latency sweep one simulated, sorted trial at a time: P worker
    delays per trial, of which the P_R-th smallest is kept."""
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


def binomial_at_least(n: int, p, k: int):
    """P[Binomial(n, p) >= k], elementwise over an array of p."""
    p = np.asarray(p, dtype=float)[..., None]
    j = np.arange(k, n + 1)
    coef = np.array([math.comb(n, int(i)) for i in j], dtype=float)
    return (coef * p**j * (1.0 - p) ** (n - j)).sum(axis=-1)


def kth_completion_cdf(times, n_workers: int, k: int, model):
    """P(T <= t | the trial recovers) for T the k-th of n_workers LatencyModel
    completion times: P[Bin(P, F(t)) >= k] / P[Bin(P, 1 - q) >= k], where
    F(t) = (1 - q)(1 - exp(-rate (t - shift))) is the chance that one worker
    has finished by t."""
    q = model.failure_prob
    elapsed = np.maximum(np.asarray(times, dtype=float) - model.shift, 0.0)
    done = (1.0 - q) * -np.expm1(-model.rate * elapsed)
    return binomial_at_least(n_workers, done, k) / binomial_at_least(n_workers, 1.0 - q, k)
