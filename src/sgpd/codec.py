"""Secure generalized PolyDot codes: augmentation, encoding and decoding.

Before encoding, the confidential inputs are augmented with uniformly random
blocks, the ones the layout's random masks mark, so that any P_C colluding
workers learn nothing.  Each worker, its point given by ``worker_points``,
receives one evaluation of two block-coefficient polynomials, F(z) built
from A* and G(z) built from B*, and returns the product F(z_p)G(z_p).  The
exponent maps are chosen so that every output block C_{i,l} of C = AB
appears as one clean coefficient of F(z)G(z): solve for the product
polynomial's coefficients from any recovery_threshold evaluations, read the
extraction exponents, done.  Both steps work on stacks, one entry per
worker: ``share_stacks`` and ``interpolate``, which ``cluster_sim.run``
calls; ``encode`` and ``decode`` are their per-worker forms.

A secure code has two candidate maps over the same masks: the paper's,
regime by regime, and the run map, which keeps the data on plain GPD over
(t, s, d) and gives each side's P_C random blocks the consecutive exponents
R, R + 1, ..., R + P_C - 1, R = t s d (GASP_big of arXiv:1812.09962 when
s = 1).  Every sum that meets a random block is then at least R, above every
extraction exponent, and a coalition's random map on either side is
diag(x**R) times a Vandermonde matrix, so the run map keeps its secret over
every field.  ``code_geometry`` keeps the map with the smaller live support,
and the runs on a tie; a plan over a small field keeps the other map where
only that one's support is distinct mod p - 1.

recovery_threshold is always derived from the construction: the number of
distinct exponents in the live sumset {a + b} over live (non-masked) blocks,
the support of F*G.  It is the degree plus one wherever that sumset has no
gap.  Decoding solves the generalized Vandermonde system on the support,
which for a sparse support can be singular mod p for some responder sets.
Both maps' support sizes have closed forms, which choose the map before
any array is built; the tests cross-check them against the construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import ceil

import numpy as np

from .blocks import BlockMatrix, write_text_file
from .errors import ConfigurationError, FieldMismatchError, NotEnoughResults
from .field import PrimeField, int64_array

_CASE_LABELS = {"gpd": "non-secure", "tall": "secure-tall", "wide": "secure-wide"}


# ---------------------------------------------------------------------------
# code geometry: live masks and exponent maps
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class AugmentationLayout:
    """Which blocks of A* and B* are live for a given (t, s, d, P_C).

    ``a_live`` covers A*'s whole block grid (t* x s_w) and ``b_live`` B*'s
    (s_w x d*); False marks a structurally zero block.  Data blocks sit in
    the top-left t x s and s x d corners and are always live, and exactly
    P_C appended blocks per side stay random: ``a_random`` and ``b_random``,
    live outside the corners, are the blocks ``augment`` draws.
    """

    case: str  # "gpd" | "tall" | "wide"
    t: int
    s: int
    d: int
    p_c: int
    delta: int  # tall: appended block rows of A / columns of B
    width: int  # wide: appended block columns of A / rows of B
    a_live: np.ndarray
    b_live: np.ndarray
    a_random: np.ndarray
    b_random: np.ndarray

    def __post_init__(self):
        for mask in (self.a_live, self.b_live, self.a_random, self.b_random):
            mask.setflags(write=False)


@dataclass(frozen=True)
class ExponentMap:
    """One monomial exponent per block of A* and of B*, plus the read-out spots.

    Structurally zero blocks carry an exponent here, but nothing reads it,
    and it need not be distinct from the live ones.
    """

    a_exponents: np.ndarray
    b_exponents: np.ndarray
    extraction: np.ndarray  # (t, d): coefficient of z**extraction[i,l] is C_{i,l}

    def __post_init__(self):
        for arr in (self.a_exponents, self.b_exponents, self.extraction):
            arr.setflags(write=False)


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

    @cached_property
    def sum_counts(self) -> np.ndarray:
        """[e] = the (live A* block, live B* block) pairs with a + b = e: the
        live sumset counted once, for ``support`` and ``exponent_audit``."""
        emap, lay = self.exponent_map, self.layout
        a, b = emap.a_exponents[lay.a_live], emap.b_exponents[lay.b_live]
        if (a < 0).any() or (b < 0).any():
            raise ConfigurationError(f"live exponent {min(a.min(), b.min())} is negative")
        counts = np.bincount(np.add.outer(a, b).ravel())
        counts.setflags(write=False)
        return counts

    @cached_property
    def support(self) -> np.ndarray:
        """The exponents F*G can carry: the distinct sums of one live A* and
        one live B* exponent, ascending, where ``sum_counts`` is nonzero."""
        support = np.flatnonzero(self.sum_counts)
        support.setflags(write=False)
        return support

    @property
    def recovery_threshold(self) -> int:
        """The size of the live support: one evaluation per unknown coefficient."""
        return int(self.support.size)

    @property
    def normalized_load(self) -> Fraction:
        """Downloaded elements per output element: P_R / (t*d)."""
        return Fraction(self.recovery_threshold, self.t * self.d)


def _first_live(n: int, rows: int, cols: int) -> np.ndarray:
    """A rows x cols band whose first n blocks in row-major order are live."""
    return (np.arange(rows * cols) < n).reshape(rows, cols)


def _gpd_maps(rows: int, width: int, cols: int, t: int, d: int):
    """Plain GPD exponents over a rows x width grid of A* blocks and a width x
    cols grid of B* blocks: a(i, j) = width i + j and b(k, l) = (width - 1 -
    k) + rows width l.  Within an output column band the b offsets run in
    reverse, so block pairs with matching inner index j = k stack on one
    exponent, and C_{i,l} is read at a(i, width - 1) + b(width - 1, l) =
    width (i + 1) - 1 + rows width l."""
    a = np.arange(rows * width).reshape(rows, width)
    b = np.add.outer(np.arange(width - 1, -1, -1), rows * width * np.arange(cols))
    return a, b, np.add.outer(a[:t, -1], b[-1, :d])


def _regime(t: int, s: int, d: int, p_c: int):
    """The paper's design for (t, s, d, P_C), regime by regime (0-based
    indices): the live masks, and the exponent map the paper gives them, one
    design that keeps random products off the extraction coefficients.
    Returns the layout, the size of the paper map's live support in closed
    form, and a function building that map's (a, b, extraction) arrays, so
    that a code keeping the run map never builds them."""
    for name, v in (("t", t), ("s", s), ("d", d)):
        if v < 1:
            raise ConfigurationError(f"{name} must be >= 1, got {v}")
    if p_c < 0:
        raise ConfigurationError(f"collusion tolerance must be >= 0, got {p_c}")
    delta = width = 0
    if p_c == 0:  # non-secure: nothing appended, plain GPD, sums 0 .. t s d + s - 2
        case, a_live, b_live = "gpd", np.ones((t, s), bool), np.ones((s, d), bool)
        threshold = t * s * d + s - 1

        def maps():
            return _gpd_maps(t, s, d, t, d)

    elif s < t:
        # secure-tall: delta = ceil(P_C/s) random block rows under A, so A* has
        # t* = t + delta block rows, and as many random block columns right of
        # B.  When s does not divide P_C the surplus is zeroed from the highest
        # exponent down: the rightmost blocks of A's last appended row, the
        # topmost of B's last column.  B's data bands keep the stride t* s, and
        # its appended columns are parked above every extraction exponent, at
        # t* s d + s(l-d+1) - k - 1.  A's live exponents are 0 .. t s + P_C - 1,
        # B's random ones t* s d + [0, P_C - 1]: the sums fill one interval
        case, delta = "tall", ceil(p_c / s)
        a_live, b_live = np.ones((t + delta, s), bool), np.ones((s, d + delta), bool)
        a_live[t:, :] = _first_live(p_c, delta, s)
        b_live[:, d:] = _first_live(p_c, delta, s).T[::-1]
        threshold = (t + delta) * s * d + t * s + 2 * p_c - 1

        def maps():
            a, b, ext = _gpd_maps(t + delta, s, d + delta, t, d)
            b[:, d:] = (s - 1 - np.arange(s)[:, None]) + (t + delta) * s * d + s * np.arange(delta)
            return a, b, ext

    elif min(t, d) == 1:
        # secure-wide, one band: P_C random columns right of A and rows under
        # B, s_w = s + P_C, live only in A's last block row and B's last block
        # column.  A keeps the GPD map; B's data rows keep the offsets s-1-k of
        # GPD over s, its random rows ascend, b(k >= s, l) = t s_w l + k, and C
        # is read at the data alignment s_w i + s-1 + t s_w l: the live random
        # strips' products land past every data exponent they could meet.  The
        # sums fill one interval, 0 .. t d s_w + s_w - 2
        case, width = "wide", p_c
        s_w = s + width
        a_live, b_live = np.ones((t, s_w), bool), np.ones((s_w, d), bool)
        a_live[: t - 1, s:] = b_live[s:, : d - 1] = False
        threshold = t * d * s_w + s_w - 1

        def maps():
            a = _gpd_maps(t, s_w, d, t, d)[0]
            k, band = np.arange(s_w)[:, None], t * s_w * np.arange(d)
            ext = s_w * np.arange(t)[:, None] + (s - 1) + band
            return a, np.where(k < s, s - 1 - k, k) + band, ext

    else:
        # secure-wide, two bands (min(t, d) >= 2): plain GPD over s_w = s +
        # ceil(P_C/t) + ceil(P_C/d).  A is random in its first ceil(P_C/t)
        # appended columns and B in its last ceil(P_C/d) appended rows, each
        # side zero where the other is random, so A*B* = AB exactly.  Surplus
        # dies highest exponent first: A's last appended blocks in row-major
        # order, the top rows of B's band.  When also P_C <= d, B's P_C live
        # random blocks take the exponents s_w, 2 s_w, ..., P_C s_w: a
        # coalition's random map on B goes from a Vandermonde matrix in
        # x**(t*s_w) to one in x**s_w, invertible wherever it was, and the
        # gaps this leaves in the support lower the threshold.  Above that
        # bound the GPD exponents stay.  Neither placement keeps B secret over
        # every field: two points with equal s_w-th powers give two colluders
        # the same sparse randomness, and the GPD exponents leak too, as
        # (2,4,2,4) does over GF(257) (B's random exponents are 0, 1, 16, 17
        # and 2**16 = 4**16 = 1) and (4,5,2,4) over GF(65537)
        delta_a, delta_b = ceil(p_c / t), ceil(p_c / d)
        case, width = "wide", delta_a + delta_b
        s_w = s + width
        a_live, b_live = np.ones((t, s_w), bool), np.ones((s_w, d), bool)
        a_live[:, s:], b_live[s:, :] = False, False
        a_live[:, s : s + delta_a] = _first_live(p_c, t, delta_a)
        b_live[s + delta_a :, :] = _first_live(p_c, d, delta_b).T[::-1]
        threshold = _two_band_threshold(t, s, d, p_c, delta_a, delta_b)

        def maps():
            a, b, ext = _gpd_maps(t, s_w, d, t, d)
            if p_c <= d:
                b[s:][b_live[s:]] = s_w * np.arange(1, p_c + 1)
            return a, b, ext

    a_random, b_random = a_live.copy(), b_live.copy()
    a_random[:t, :s] = b_random[:s, :d] = False  # the data corners
    layout = AugmentationLayout(
        case, t, s, d, p_c, delta, width, a_live, b_live, a_random, b_random
    )
    return layout, threshold, maps


def _two_band_threshold(t: int, s: int, d: int, p_c: int, delta_a: int, delta_b: int) -> int:
    """The size of the paper's two-band live support, cell by cell.  Cut the
    exponents into cells of s_w: A's row i is s_w i + [0, s + c_i - 1], with
    c_i its live random blocks, and B's data in column band l are t s_w l +
    [s_w - s, s_w - 1].  So for m = i + t l (each m < t d once) their sums
    fill the top s of cell m and a bottom of s + c_i - 1 in cell m + 1.  B's
    random blocks only lengthen bottoms: at t s_w l + [0, r_l - 1] they give
    cell m a bottom of s + c_i + r_l - 1; sparse, at s_w (l + 1), they put
    row i's s + c_i at the bottom of cell i + l + 1, where the longest comes
    from row max(0, m - P_C), since c falls with i.  A bottom meets its
    cell's top past delta_a + delta_b."""
    spill = [s - 1 + min(max(p_c - delta_a * i, 0), delta_a) for i in range(t)]
    bottom = [0, *spill * d]  # bottom[m]: how far cell m - 1 spills into cell m
    if p_c > d:
        for l in range(-(-p_c // delta_b)):  # the bands with live random blocks
            r = min(p_c - delta_b * l, delta_b)
            for i in range(t):
                bottom[t * l + i] = max(bottom[t * l + i], spill[i] + r)
    else:
        for m in range(1, t + p_c):
            bottom[m] = max(bottom[m], spill[max(m - p_c, 0)] + 1)
    cap = delta_a + delta_b
    return t * d * s + sum(min(b, cap) for b in bottom[:-1]) + bottom[-1]


def _run_threshold(t: int, s: int, d: int, p_c: int) -> int:
    """The size of the run map's live support, P_C >= 1, in closed form.
    With R = t s d, g = t s and L = s + P_C - 1 it is the union, in order of
    their starts, of [0, R + g + P_C - 2] (data times data, and A's data
    times B's run), R + g l + [0, L - 1] for 0 < l < d (A's run times B's
    column band l) and 2R + [0, 2 P_C - 2] (run times run).  The first band
    reaches s past the first interval, each later one min(L, g) past the
    band before it, and the last interval overlaps the last band by
    max(0, L - g)."""
    r, g, band = t * s * d, t * s, s + p_c - 1
    return r + g + s + 3 * p_c - 2 + (d - 2) * band - (d - 1) * max(0, band - g)


def _run_maps(layout: AugmentationLayout):
    """The run map over the layout's grids: the data corners on plain GPD over
    (t, s, d), so C_{i,l} is read below R = t s d, and each side's P_C random
    blocks on the run R, R + 1, ..., R + P_C - 1 in row-major order, so every
    sum that meets a random block is at least R.  A coalition's random map on
    either side is diag(x**R) times a Vandermonde matrix, invertible for any
    distinct nonzero points.  Dead blocks carry 0."""
    t, s, d = layout.t, layout.s, layout.d
    a_data, b_data, ext = _gpd_maps(t, s, d, t, d)
    run = np.arange(t * s * d, t * s * d + layout.p_c)
    maps = []
    for data, random in ((a_data, layout.a_random), (b_data, layout.b_random)):
        full = np.zeros(random.shape, np.int64)
        full[: data.shape[0], : data.shape[1]] = data
        full[random] = run
        maps.append(full)
    return (*maps, ext)


def _decodable(geometry: CodeGeometry, field: PrimeField) -> bool:
    """Whether the support's exponents are distinct mod p - 1: x**(p-1) = 1
    for every point, so two exponents equal mod p - 1 give equal columns of
    V and no responder set could decode."""
    support = geometry.support
    return support[-1] < field.p - 1 or np.unique(support % (field.p - 1)).size == support.size


def code_geometry(
    t: int, s: int, d: int, p_c: int, field: PrimeField | None = None
) -> CodeGeometry:
    """The live masks of (t, s, d, P_C) with one of two exponent maps: the
    paper's (``_regime``) or, for a secure code, the run map (``_run_maps``).
    The map with the smaller live support is kept, the runs on a tie; both
    sizes are closed forms, so only the kept map's arrays are built.  Over a
    given field a map must also have its support distinct mod p - 1
    (``_decodable``): the kept map gives way to the other where only that
    one's is, and where neither is, ``build_plan`` refuses the kept one."""
    layout, paper_threshold, paper_maps = _regime(t, s, d, p_c)
    ranked = [(paper_threshold, paper_maps)]
    if p_c:
        ranked.insert(0, (_run_threshold(t, s, d, p_c), lambda: _run_maps(layout)))
        if paper_threshold < ranked[0][0]:
            ranked.reverse()

    def geometry(maps) -> CodeGeometry:
        return CodeGeometry(t, s, d, p_c, layout, ExponentMap(*maps()))

    if field is not None:
        for threshold, maps in ranked:
            if threshold < field.p:  # else more exponents than residues mod p - 1
                geo = geometry(maps)
                if _decodable(geo, field):
                    return geo
    return geometry(ranked[0][1])


# ---------------------------------------------------------------------------
# augmentation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AugmentedPair:
    """The encoder's inputs: A and B with their random padding attached."""

    layout: AugmentationLayout
    a_star: BlockMatrix
    b_star: BlockMatrix

    @property
    def original_a(self) -> np.ndarray:
        br, bc = self.a_star.block_shape
        return self.a_star.data[: self.layout.t * br, : self.layout.s * bc]

    @property
    def original_b(self) -> np.ndarray:
        br, bc = self.b_star.block_shape
        return self.b_star.data[: self.layout.s * br, : self.layout.d * bc]


def _pad(m: BlockMatrix, random: np.ndarray, rng: np.random.Generator) -> BlockMatrix:
    """m zero-extended to the grid of ``random``, whose blocks are then drawn
    uniformly, one (count, *block shape) draw in row-major block order."""
    (rows, cols), (br, bc) = random.shape, m.block_shape
    out = np.pad(m.data, ((0, rows * br - m.shape[0]), (0, cols * bc - m.shape[1])))
    blocks = out.reshape(rows, br, cols, bc).swapaxes(1, 2)  # a view: writes reach out
    blocks[random] = m.field.random_array((int(random.sum()), br, bc), rng)
    return BlockMatrix.adopt(out, random.shape, m.field)


def augment(
    a: BlockMatrix, b: BlockMatrix, p_c: int, rng: np.random.Generator
) -> AugmentedPair:
    """Pad A and B to the grids of ``code_geometry(t, s, d, P_C)``, whose
    masks do not depend on the map it keeps, drawing only the layout's random
    blocks: A*'s P_C blocks first, then B*'s, each side in row-major block
    order.  With P_C = 0 nothing is drawn."""
    if a.field != b.field:
        raise FieldMismatchError("A and B must share one field")
    (t, s), (s2, d) = a.grid, b.grid
    if s != s2 or a.shape[1] != b.shape[0]:
        raise ConfigurationError(
            f"inner partitions do not agree: A {a.shape}/{a.grid}, B {b.shape}/{b.grid}"
        )
    layout = _regime(t, s, d, p_c)[0]
    return AugmentedPair(layout, _pad(a, layout.a_random, rng), _pad(b, layout.b_random, rng))


def naive_secure_threshold(t: int, s: int, d: int, p_c: int) -> int:
    """Threshold of the baseline that augments first and encodes with the
    plain construction, without rearranging the appended exponents.  Always
    >= the rearranged threshold; strictly larger once P_C > s."""
    if s >= t:
        raise ConfigurationError(f"baseline comparison is defined for s < t, got s={s}, t={t}")
    if p_c == 0:
        return t * s * d + s - 1
    delta = ceil(p_c / s)
    z = s * delta - p_c
    return (t + delta) * s * (d + delta) + s - 1 - 2 * z


# ---------------------------------------------------------------------------
# plans
# ---------------------------------------------------------------------------


def pool_points(n_workers: int, field: PrimeField) -> range:
    """The one point rule, read by plans and the secrecy audit through
    ``worker_points``: worker w (1-based) evaluates at w today, so a field
    serves P >= 1 workers when p > P.  A range, never an array of P."""
    if n_workers < 1:
        raise ConfigurationError(f"need at least one worker, got {n_workers}")
    if field.p <= n_workers:
        raise ConfigurationError(
            f"modulus {field.p} cannot supply {n_workers} distinct nonzero points"
        )
    return range(1, n_workers + 1)


def worker_points(pool: range, workers) -> list:
    """The listed 1-based worker ids' points in a ``pool_points`` range, in order."""
    bad = next((w for w in workers if not 1 <= w <= len(pool)), None)
    if bad is not None:
        raise ConfigurationError(f"worker {bad} is outside the pool 1..{len(pool)}")
    return [pool[w - 1] for w in workers]


@dataclass(frozen=True)
class EncodingPlan(CodeGeometry):
    """A code geometry bound to a field and a pool of evaluation points."""

    field: PrimeField
    n_workers: int
    evaluation_points: range  # pool_points, read through worker_points

    def check_pair(self, pair: AugmentedPair) -> None:
        """Raise unless ``pair`` was augmented for this plan's field and code."""
        emap, lay = self.exponent_map, pair.layout
        if pair.a_star.field != self.field or pair.b_star.field != self.field:
            raise FieldMismatchError("augmented pair does not live in the plan's field")
        if (pair.a_star.grid, pair.b_star.grid, lay.t, lay.s, lay.d, lay.p_c) != (
            emap.a_exponents.shape, emap.b_exponents.shape, self.t, self.s, self.d, self.p_c
        ):
            raise ConfigurationError(
                f"augmented grids {pair.a_star.grid}/{pair.b_star.grid} do not match "
                f"the plan's maps {emap.a_exponents.shape}/{emap.b_exponents.shape}"
            )


def build_plan(
    t: int,
    s: int,
    d: int,
    p_c: int,
    n_workers: int,
    field: PrimeField,
) -> EncodingPlan:
    """Validate parameters and assemble the full code description.

    The map is ``code_geometry``'s choice over the field, the recovery
    threshold its live support's size, the points from ``pool_points``.
    """
    geo = code_geometry(t, s, d, p_c, field)
    points = pool_points(n_workers, field)
    plan = EncodingPlan(t, s, d, p_c, geo.layout, geo.exponent_map, field, n_workers, points)
    vars(plan)["sum_counts"] = geo.sum_counts  # the sumset the choice counted, not a second one
    p_r = plan.recovery_threshold
    if p_c >= n_workers and p_c > 0:
        raise ConfigurationError(
            f"collusion level {p_c} must be below the pool size {n_workers}: "
            "privacy against every worker at once is unachievable"
        )
    if n_workers < p_r:
        raise ConfigurationError(
            f"recovery threshold is {p_r} but only {n_workers} workers are available"
        )
    if not _decodable(plan, field):
        raise ConfigurationError(
            f"the support spans exponents equal mod {field.p - 1}: no responder "
            f"set could decode over GF({field.p})"
        )
    return plan


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


def _live_rows(m: BlockMatrix, live: np.ndarray) -> np.ndarray:
    """The live blocks of m flattened to rows, in row-major grid order."""
    gr, gc = m.grid
    br, bc = m.block_shape
    blocks = m.data.reshape(gr, br, gc, bc).transpose(0, 2, 1, 3)[live]
    return blocks.reshape(len(blocks), br * bc)


def share_stacks(plan: EncodingPlan, pair: AugmentedPair, workers) -> tuple:
    """The a-share and b-share stacks of the listed 1-based worker ids: arrays
    of shape (len(workers), *block shape) whose entry i is worker workers[i]'s
    share, both polynomials evaluated at its point (``worker_points``, which
    refuses an id outside the pool).  Only live blocks enter the sums; the
    dead ones are zero.  ``pair`` must already have passed ``plan.check_pair``."""
    emap, lay = plan.exponent_map, plan.layout
    points = worker_points(plan.evaluation_points, workers)
    v_a = plan.field.power_table(points, emap.a_exponents[lay.a_live])
    v_b = plan.field.power_table(points, emap.b_exponents[lay.b_live])
    shares_a = plan.field.matmul(v_a, _live_rows(pair.a_star, lay.a_live))
    shares_b = plan.field.matmul(v_b, _live_rows(pair.b_star, lay.b_live))
    n = len(points)
    return (
        shares_a.reshape(n, *pair.a_star.block_shape),
        shares_b.reshape(n, *pair.b_star.block_shape),
    )


def encode(plan: EncodingPlan, pair: AugmentedPair, workers=None) -> list:
    """One CodedShare per listed 1-based worker id, in list order (all P in
    worker order when ``workers`` is None): the entries of ``share_stacks``."""
    plan.check_pair(pair)
    ids = range(1, plan.n_workers + 1) if workers is None else [int(w) for w in workers]
    points, stacks = worker_points(plan.evaluation_points, ids), share_stacks(plan, pair, ids)
    return [CodedShare(w, x, *share, plan.field) for w, x, *share in zip(ids, points, *stacks)]


def worker_compute(share: CodedShare, completion_time: float = 0.0) -> WorkerResult:
    product = share.field.matmul(share.a_share, share.b_share)
    return WorkerResult(share.worker_id, share.point, product, completion_time)


def interpolate(plan: EncodingPlan, workers, products: np.ndarray) -> BlockMatrix:
    """C from the first recovery_threshold entries of a (len(workers), rows,
    cols) stack whose entry i is the product of worker workers[i].  The one
    check of a responder set: ids in the pool (``worker_points``), distinct,
    at least recovery_threshold of them, one product each; else a named error.
    The system is the generalized Vandermonde matrix V[i, e] = x_i**e over
    the support, and only the rows of V**-1 at the extraction exponents are
    formed, by one ``PrimeField.solve`` of V^T; they multiply the stack, read
    in place.  V can be singular mod p for a sparse support; then
    SingularSystemError is raised, never a wrong product."""
    workers, p_r = list(workers), plan.recovery_threshold
    points = worker_points(plan.evaluation_points, workers)[:p_r]
    if len(set(workers)) < len(workers):
        dup = next(w for i, w in enumerate(workers) if w in workers[:i])
        raise ConfigurationError(f"duplicate result for worker {dup}")
    if len(workers) < p_r:
        raise NotEnoughResults(len(workers), p_r)
    if products.ndim != 3 or len(products) != len(workers):
        raise ConfigurationError(
            f"products must be a ({len(workers)}, rows, cols) stack, got shape {products.shape}"
        )
    ext = plan.exponent_map.extraction
    t, d = ext.shape
    _, br, bc = products.shape
    vandermonde = plan.field.power_table(points, plan.support)
    picks = np.zeros((p_r, t * d), dtype=np.int64)  # unit columns at the extraction rows
    picks[np.searchsorted(plan.support, ext.ravel()), np.arange(t * d)] = 1
    weights = plan.field.solve(vandermonde.T, picks).T
    coeffs = plan.field.matmul(weights, products[:p_r].reshape(p_r, br * bc))
    out = coeffs.reshape(t, d, br, bc).transpose(0, 2, 1, 3).reshape(t * br, d * bc)
    return BlockMatrix.adopt(out, (t, d), plan.field)


def decode(plan: EncodingPlan, results) -> BlockMatrix:
    """C from the first recovery_threshold results given: their products,
    stacked as integers, go to ``interpolate``, which checks the responder
    set.  Each result must carry the plan's point for its worker id, and all
    products must share one shape."""
    results = list(results)
    workers = [r.worker_id for r in results]
    for r, expected in zip(results, worker_points(plan.evaluation_points, workers)):
        if r.point != expected:
            raise ConfigurationError(
                f"worker {r.worker_id} carries point {r.point}, but the plan assigns {expected}"
            )
    shapes = {np.shape(r.product) for r in results}
    if len(shapes) > 1:
        raise ConfigurationError(f"results disagree on product shape: {sorted(shapes)}")
    products = np.array([int64_array(r.product) for r in results], dtype=np.int64)
    return interpolate(plan, workers, products)


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
    """Check that each extraction exponent receives exactly the intended data
    products, one (A_{i,k}, B_{k,l}) pair per inner k and nothing random; a
    plan is a geometry too.  A target whose ``sum_counts`` entry is s and that
    its s intended pairs all hit is clean; only the others are explained."""
    emap, lay = geometry.exponent_map, geometry.layout
    t, s, d = geometry.t, geometry.s, geometry.d
    a_exps, b_exps = emap.a_exponents[lay.a_live], emap.b_exponents[lay.b_live]
    ext, targets = emap.extraction, emap.extraction.ravel()
    sides = (("a-side live", a_exps), ("b-side live", b_exps), ("extraction", targets))
    findings = [
        f"{n} exponents are not distinct" for n, e in sides if len(set(e.tolist())) != e.size
    ]
    hits = np.concatenate(([0], geometry.sum_counts, [0])).take(targets + 1, mode="clip")
    intended = emap.a_exponents[:t, :s, None] + emap.b_exponents[None, :s, :d]  # data corners
    flagged = np.flatnonzero((hits != s) | ~(intended == ext[:, None, :]).all(axis=1).ravel())
    params, pairs = (t, s, d, geometry.p_c), a_exps.size * b_exps.size
    if not flagged.size:
        return ExponentAuditReport(params, pairs, tuple(findings))
    for e in sorted(set(targets[hits == 0].tolist())):  # no live pair hits e
        findings.append(f"extraction exponent {e} not in the live support")
    a_blocks, b_blocks = np.argwhere(lay.a_live).tolist(), np.argwhere(lay.b_live).tolist()
    sums = np.add.outer(a_exps, b_exps)  # row-major over live blocks, as a_blocks x b_blocks
    x, y = np.nonzero(np.isin(sums, targets[flagged]))  # every flagged target's hits, once
    hit_sums = sums[x, y]
    for g in flagged.tolist():
        (i, l), mine, seen = divmod(g, d), hit_sums == targets[g], []
        at = f"C[{i},{l}] at exponent {targets[g]} receives"
        for u, v in zip(x[mine].tolist(), y[mine].tolist()):
            (ai, aj), (bk, bl) = a_blocks[u], b_blocks[v]
            a_data, b_data = not lay.a_random[ai, aj], not lay.b_random[bk, bl]  # live, so data
            pair = f"a[{ai},{aj}] x b[{bk},{bl}]"
            if not (a_data and b_data):
                sides = " x ".join("data" if side else "random" for side in (a_data, b_data))
                findings.append(f"{at} {pair} ({sides})")
            elif (ai, aj, bl) != (i, bk, l):
                findings.append(f"{at} misaligned data pair {pair}")
            else:
                seen.append(aj)
        if sorted(seen) != list(range(s)):  # each inner index k in 0..s-1 exactly once
            findings.append(f"C[{i},{l}] inner-sum terms {sorted(seen)} != 0..{s - 1}")
    return ExponentAuditReport(params, pairs, tuple(findings))


# ---------------------------------------------------------------------------
# communication load
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LoadReport:
    elements: int  # total downloaded by the decoder


def communication_load(plan: EncodingPlan, big_t: int, big_d: int) -> LoadReport:
    if big_t < 1 or big_d < 1 or big_t % plan.t or big_d % plan.d:
        raise ConfigurationError(
            f"output shape {big_t}x{big_d} is not a positive multiple of the grid "
            f"{plan.t}x{plan.d}"
        )
    return LoadReport(plan.recovery_threshold * (big_t // plan.t) * (big_d // plan.d))


# ---------------------------------------------------------------------------
# share serialization
# ---------------------------------------------------------------------------


def write_share(path, share: CodedShare) -> None:
    """Header "worker_id point rows_a cols_a rows_b cols_b", then row-major
    integers of the a-share followed by the b-share."""
    header = (share.worker_id, share.point, *share.a_share.shape, *share.b_share.shape)
    write_text_file(path, header, [share.a_share, share.b_share], share.field.p)

