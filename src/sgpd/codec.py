"""Share encoding and decoding for coded distributed matrix multiplication.

Each worker receives one evaluation of two block-coefficient polynomials,
F(z) built from A* and G(z) built from B*, and returns the product
F(z_p)G(z_p).  The exponent maps are chosen so that every output block
C_{i,l} of C = AB appears as one clean coefficient of F(z)G(z): interpolate
the product polynomial from any recovery_threshold evaluations, read the
extraction exponents, done.

Exponent layout per case (0-based indices throughout):

* non-secure: a(i,j) = s*i + j, b(k,l) = (s-1-k) + t*s*l.  Within an output
  column band the b offsets run in reverse so that block pairs with matching
  inner index j = k stack on one exponent.
* secure-tall (s < t): same a map over t* = t + ceil(P_C/s) block rows; the b
  map keeps the data bands with stride t*s and parks the appended random
  columns above every extraction exponent, at t*sd + s(l-d+1) - k - 1.
* secure-wide (s >= t): with w appended columns/rows the maps are the
  non-secure ones with s_w = s + w substituted.  When min(t, d) == 1 the b
  random rows ascend within each band, b(k>=s, l) = t*s_w*l + k, and the
  extraction stays at the data alignment s_w*i + s - 1 + t*s_w*l; together
  with the live strips chosen in the augmentation layout this keeps every
  random product off the extraction exponents.  When min(t, d) >= 2 the maps
  and extractions are plain GPD over the widened grid; correctness is
  structural there because each side's random band faces a zero band on the
  other side, so A*B* = AB exactly.

recovery_threshold is always derived from the construction: the degree of
F*G over live (non-masked) blocks, plus one.  Closed-form expressions exist
for most regimes; the tests cross-check them against the construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import ceil

import numpy as np

from .blocks import (
    AugmentationLayout,
    AugmentedPair,
    BlockMatrix,
    augmentation_layout,
    read_text_file,
    write_text_file,
)
from .errors import (
    ConfigurationError,
    FieldMismatchError,
    NotEnoughResults,
    WrongCaseError,
)
from .field import PrimeField

_CASE_LABELS = {"gpd": "non-secure", "tall": "secure-tall", "wide": "secure-wide"}


# ---------------------------------------------------------------------------
# exponent maps
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExponentMap:
    """One monomial exponent per block of A* and of B*, plus the read-out spots.

    Which blocks are live is the layout's business: structurally zero blocks
    carry an exponent here but contribute nothing to the product.
    """

    a_exponents: np.ndarray
    b_exponents: np.ndarray
    extraction: np.ndarray  # (t, d): coefficient of z**extraction[i,l] is C_{i,l}

    def __post_init__(self):
        for arr in (self.a_exponents, self.b_exponents, self.extraction):
            arr.setflags(write=False)


def _exponent_maps(layout: AugmentationLayout) -> ExponentMap:
    """Plain GPD exponents over the augmented grid, then the per-case changes."""
    t, s, d = layout.t, layout.s, layout.d
    rows, width = layout.a_live.shape  # t* and s_w
    band = rows * width * np.arange(layout.b_live.shape[1])[None, :]
    k = np.arange(width)[:, None]
    a = width * np.arange(rows)[:, None] + np.arange(width)[None, :]
    b = (width - 1 - k) + band
    ext = width * (np.arange(t) + 1)[:, None] - 1 + band[:, :d]
    if layout.case == "tall":
        # appended columns are parked above every extraction exponent
        b[:, d:] = (width - 1 - k) + rows * width * d + width * np.arange(layout.delta)
    elif layout.case == "wide" and min(t, d) == 1:
        # random rows ascend within each band; read-out at the data alignment
        b[:s, :] = (s - 1 - k[:s]) + band
        b[s:, :] = k[s:] + band
        ext = width * np.arange(t)[:, None] + (s - 1) + band
    return ExponentMap(a, b, ext)


@dataclass(frozen=True)
class CodeGeometry:
    """Everything about a code that does not depend on the field or the pool.

    Built by :func:`code_geometry`, which imposes no worker-count constraint,
    so geometries remain available for audits and sweeps even when the pool
    is smaller than the recovery threshold.
    """

    t: int
    s: int
    d: int
    p_c: int
    layout: AugmentationLayout
    exponent_map: ExponentMap

    @property
    def case(self) -> str:
        return _CASE_LABELS[self.layout.case]

    @property
    def recovery_threshold(self) -> int:
        """Degree of F*G over live blocks, plus one."""
        emap, lay = self.exponent_map, self.layout
        return int(emap.a_exponents[lay.a_live].max() + emap.b_exponents[lay.b_live].max()) + 1

    @property
    def normalized_load(self) -> Fraction:
        """Downloaded elements per output element: P_R / (t*d)."""
        return Fraction(self.recovery_threshold, self.t * self.d)


def code_geometry(t: int, s: int, d: int, p_c: int) -> CodeGeometry:
    layout = augmentation_layout(t, s, d, p_c)
    return CodeGeometry(t, s, d, p_c, layout, _exponent_maps(layout))


def naive_secure_threshold(t: int, s: int, d: int, p_c: int) -> int:
    """Threshold of the baseline that augments first and encodes with the
    plain construction, without rearranging the appended exponents.  Always
    >= the rearranged threshold; strictly larger once P_C > s."""
    if s >= t:
        raise WrongCaseError(f"baseline comparison is defined for s < t, got s={s}, t={t}")
    if p_c == 0:
        return t * s * d + s - 1
    delta = ceil(p_c / s)
    z = s * delta - p_c
    return (t + delta) * s * (d + delta) + s - 1 - 2 * z


# ---------------------------------------------------------------------------
# plans
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EncodingPlan(CodeGeometry):
    """A code geometry bound to a field and a pool of evaluation points."""

    field: PrimeField
    n_workers: int
    evaluation_points: np.ndarray  # worker w (1-based) evaluates at [w - 1]

    def __post_init__(self):
        self.evaluation_points.setflags(write=False)


def build_plan(
    t: int,
    s: int,
    d: int,
    p_c: int,
    n_workers: int,
    field: PrimeField,
    evaluation_points=None,
) -> EncodingPlan:
    """Validate parameters and assemble the full code description.

    The recovery threshold comes from the exponent maps over live blocks.
    """
    geometry = code_geometry(t, s, d, p_c)
    p_r = geometry.recovery_threshold
    if n_workers < 1:
        raise ConfigurationError(f"need at least one worker, got {n_workers}")
    if p_c >= n_workers and p_c > 0:
        raise ConfigurationError(
            f"collusion level {p_c} must be below the pool size {n_workers}: "
            "privacy against every worker at once is unachievable"
        )
    if n_workers < p_r:
        raise ConfigurationError(
            f"recovery threshold is {p_r} but only {n_workers} workers are available"
        )
    if p_c >= 1 and p_r < 2 * p_c:
        raise ConfigurationError(
            f"recovery threshold {p_r} is below 2*P_C={2 * p_c}; the secrecy "
            "argument needs at least that many product coefficients"
        )
    if evaluation_points is None:
        if field.p <= n_workers:
            raise ConfigurationError(
                f"modulus {field.p} cannot supply {n_workers} distinct nonzero points"
            )
        points = np.arange(1, n_workers + 1, dtype=np.int64)
    else:
        points = np.asarray(list(evaluation_points), dtype=np.int64)
        if points.shape != (n_workers,):
            raise ConfigurationError(
                f"expected {n_workers} evaluation points, got {points.shape}"
            )
        points = points % field.p
        if np.any(points == 0) or len(np.unique(points)) != n_workers:
            raise ConfigurationError("evaluation points must be distinct and nonzero")
    return EncodingPlan(
        t, s, d, p_c, geometry.layout, geometry.exponent_map, field, n_workers, points
    )


# ---------------------------------------------------------------------------
# encode / compute / decode
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CodedShare:
    worker_id: int  # 1-based
    point: int
    a_share: np.ndarray
    b_share: np.ndarray
    field: PrimeField

    def __post_init__(self):
        self.a_share.setflags(write=False)
        self.b_share.setflags(write=False)


@dataclass(frozen=True)
class WorkerResult:
    worker_id: int
    point: int
    product: np.ndarray
    completion_time: float = 0.0


def _block_stack(m: BlockMatrix) -> np.ndarray:
    """Blocks flattened to rows, in row-major grid order."""
    gr, gc = m.grid
    br, bc = m.block_shape
    return (
        m.data.reshape(gr, br, gc, bc).transpose(0, 2, 1, 3).reshape(gr * gc, br * bc)
    )


def encode(plan: EncodingPlan, pair: AugmentedPair) -> list:
    """One CodedShare per worker: both polynomials evaluated at its point."""
    emap = plan.exponent_map
    if pair.a_star.field != plan.field or pair.b_star.field != plan.field:
        raise FieldMismatchError("augmented pair does not live in the plan's field")
    if (
        pair.a_star.grid != emap.a_exponents.shape
        or pair.b_star.grid != emap.b_exponents.shape
        or (pair.layout.t, pair.layout.s, pair.layout.d, pair.layout.p_c)
        != (plan.t, plan.s, plan.d, plan.p_c)
    ):
        raise ConfigurationError(
            f"augmented grids {pair.a_star.grid}/{pair.b_star.grid} do not match "
            f"the plan's maps {emap.a_exponents.shape}/{emap.b_exponents.shape}"
        )
    a_rows = _block_stack(pair.a_star)
    b_rows = _block_stack(pair.b_star)
    v_a = plan.field.power_table(plan.evaluation_points, emap.a_exponents.ravel())
    v_b = plan.field.power_table(plan.evaluation_points, emap.b_exponents.ravel())
    shares_a = plan.field.matmul(v_a, a_rows)
    shares_b = plan.field.matmul(v_b, b_rows)
    ab = pair.a_star.block_shape
    bb = pair.b_star.block_shape
    return [
        CodedShare(
            w + 1,
            int(z),
            shares_a[w].reshape(ab),
            shares_b[w].reshape(bb),
            plan.field,
        )
        for w, z in enumerate(plan.evaluation_points)
    ]


def worker_compute(share: CodedShare, completion_time: float = 0.0) -> WorkerResult:
    if share.a_share.shape[1] != share.b_share.shape[0]:
        raise ConfigurationError(
            f"share inner dimensions disagree: {share.a_share.shape} x {share.b_share.shape}"
        )
    product = share.field.matmul(share.a_share, share.b_share)
    return WorkerResult(share.worker_id, share.point, product, completion_time)


def _lagrange_coefficient_matrix(field: PrimeField, xs) -> np.ndarray:
    """L[e, i] = coefficient of z**e in the i-th Lagrange basis polynomial.

    Synthetic division by (z - x_i) and the Horner evaluation of each
    quotient at x_i run as one numpy step per degree over all points."""
    p = field.p
    xs = field.reduce(xs).reshape(-1)
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


def decode(plan: EncodingPlan, results) -> BlockMatrix:
    """Interpolate the product polynomial and read the extraction coefficients.

    Each result is evaluated at the plan's point for its worker id, which
    must lie in 1..P and agree with the point the result carries.  Exactly
    recovery_threshold results are consumed; any surplus is dropped
    deterministically, keeping the lowest worker ids.
    """
    by_id: dict = {}
    for r in results:
        if not 1 <= r.worker_id <= plan.n_workers:
            raise ConfigurationError(
                f"worker {r.worker_id} is outside the pool 1..{plan.n_workers}"
            )
        expected = int(plan.evaluation_points[r.worker_id - 1])
        if r.point != expected:
            raise ConfigurationError(
                f"worker {r.worker_id} carries point {r.point}, but the plan assigns {expected}"
            )
        if r.worker_id in by_id:
            raise ConfigurationError(f"duplicate result for worker {r.worker_id}")
        by_id[r.worker_id] = r
    p_r = plan.recovery_threshold
    if len(by_id) < p_r:
        raise NotEnoughResults(len(by_id), p_r)
    chosen = [by_id[w] for w in sorted(by_id)][:p_r]
    points = [int(plan.evaluation_points[r.worker_id - 1]) for r in chosen]
    shapes = {r.product.shape for r in chosen}
    if len(shapes) != 1:
        raise ConfigurationError(f"results disagree on product shape: {sorted(shapes)}")
    basis = _lagrange_coefficient_matrix(plan.field, points)
    values = np.stack([np.asarray(r.product, dtype=np.int64).reshape(-1) for r in chosen])
    ext = plan.exponent_map.extraction
    t, d = ext.shape
    br, bc = chosen[0].product.shape
    # only the t*d extraction coefficients are read, so only their rows are computed
    coeffs = plan.field.matmul(basis[ext.ravel()], values)
    out = coeffs.reshape(t, d, br, bc).transpose(0, 2, 1, 3).reshape(t * br, d * bc)
    return BlockMatrix(out, (t, d), plan.field)


# ---------------------------------------------------------------------------
# exponent audit
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExponentAuditReport:
    parameters: tuple
    checked_pairs: int
    collisions: tuple

    @property
    def clean(self) -> bool:
        return not self.collisions


def exponent_audit(geometry: CodeGeometry) -> ExponentAuditReport:
    """Exhaustively check that extraction coefficients receive exactly the
    intended data products: one (A_{i,k}, B_{k,l}) pair per inner index k and
    nothing from any random block.  A plan is a geometry and is accepted too."""
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
    # every (target, block pair) hit at once: target-major, pair row-major
    targets = ext.ravel()
    cand = np.flatnonzero(np.isin(sums, targets))
    tgt, hit = np.nonzero(targets[:, None] == sums.ravel()[cand])
    x, y = np.divmod(cand[hit], sums.shape[1])
    ai, aj = a_blocks[x].T
    bk, bl = b_blocks[y].T
    i, l = np.divmod(tgt, ext.shape[1])
    a_data = (ai < t) & (aj < s)  # data fill the top-left corners
    b_data = (bk < s) & (bl < d)
    random = ~(a_data & b_data)
    good = ~random & (ai == i) & (bl == l) & (aj == bk)
    # each target must see every inner index k in 0..s-1 exactly once
    inner = np.bincount(tgt[good] * s + aj[good], minlength=targets.size * s)
    inner = inner.reshape(targets.size, s)
    short = (inner != 1).any(axis=1)
    bad = np.flatnonzero(~good)
    for g in np.union1d(tgt[bad], np.flatnonzero(short)).tolist():
        gi, gl = divmod(g, ext.shape[1])
        at = f"C[{gi},{gl}] at exponent {targets[g]} receives"
        for h in bad[tgt[bad] == g].tolist():
            pair = f"a[{ai[h]},{aj[h]}] x b[{bk[h]},{bl[h]}]"
            if random[h]:
                sides = " x ".join("data" if side else "random" for side in (a_data[h], b_data[h]))
                findings.append(f"{at} {pair} ({sides})")
            else:
                findings.append(f"{at} misaligned data pair {pair}")
        if short[g]:
            seen = np.repeat(np.arange(s), inner[g]).tolist()
            findings.append(f"C[{gi},{gl}] inner-sum terms {seen} != 0..{s - 1}")
    return ExponentAuditReport((t, s, d, geometry.p_c), sums.size, tuple(findings))


# ---------------------------------------------------------------------------
# communication load
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LoadReport:
    elements: int  # total downloaded by the decoder
    lower_bound: int  # size of the product itself, T*D
    per_worker: int


def communication_load(plan: EncodingPlan, big_t: int, big_d: int) -> LoadReport:
    if big_t % plan.t or big_d % plan.d:
        raise ConfigurationError(
            f"output shape {big_t}x{big_d} is not divisible by the grid "
            f"{plan.t}x{plan.d}"
        )
    per_worker = (big_t // plan.t) * (big_d // plan.d)
    return LoadReport(plan.recovery_threshold * per_worker, big_t * big_d, per_worker)


# ---------------------------------------------------------------------------
# share serialization
# ---------------------------------------------------------------------------


def write_share(path, share: CodedShare) -> None:
    """Header "worker_id point rows_a cols_a rows_b cols_b", then row-major
    integers of the a-share followed by the b-share."""
    header = (share.worker_id, share.point, *share.a_share.shape, *share.b_share.shape)
    write_text_file(path, header, [share.a_share, share.b_share], share.field.p)


def read_share(path, field: PrimeField) -> CodedShare:
    header, (a, b) = read_text_file(path, 6, slice(2, 6), field.p)
    return CodedShare(header[0], header[1], a, b, field)
