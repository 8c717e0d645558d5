"""Block-partitioned matrices over GF(p) and the secure augmentation step.

A matrix is cut into a t x s grid of equally sized dense blocks.  Before
encoding, confidential inputs are augmented with uniformly random blocks so
that any P_C colluding workers learn nothing.  The layout records, for every
block of the augmented grids A* and B*, whether it is live: the data always
fill the top-left t x s corner of A* and s x d corner of B*, exactly P_C
appended blocks per side stay random, and the rest are structurally zero.
Three regimes exist:

* ``gpd``  -- P_C = 0, nothing appended.
* ``tall`` -- s < t.  Random block rows are stacked under A and random block
  columns appended right of B.  When s does not divide P_C the surplus blocks
  are zeroed from the highest polynomial exponent downwards (rightmost blocks
  of the last appended row of A, topmost blocks of the last appended column
  of B).
* ``wide`` -- s >= t.  Random block columns are appended right of A and
  random block rows under B.  Placement depends on min(t, d):

  - min(t, d) == 1: P_C random columns/rows; only the last block row of the
    appended A columns and the last block column of the appended B rows stay
    live.  Their polynomial exponents sit past every data exponent they could
    interfere with.
  - min(t, d) >= 2: the appended band is split in two.  A carries randomness
    in its first ceil(P_C/t) appended columns, B in its last ceil(P_C/d)
    appended rows, and each side is structurally zero where the other side is
    random.  Every product of a random block with its facing partner is
    therefore zero, which keeps the decoded coefficients free of random
    contributions.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, FieldMismatchError
from .field import PrimeField


@dataclass(frozen=True)
class BlockMatrix:
    """A dense matrix over GF(p) together with its block-grid shape."""

    data: np.ndarray
    grid: tuple[int, int]
    field: PrimeField

    def __post_init__(self):
        # a copy, so the caller's array is never frozen or aliased; reduced
        # only when an entry lies outside [0, p)
        arr = np.array(self.data, dtype=np.int64)
        if arr.size and (arr.min() < 0 or arr.max() >= self.field.p):
            arr %= self.field.p
        gr, gc = self.grid
        if arr.ndim != 2:
            raise ConfigurationError("matrix data must be two-dimensional")
        if gr < 1 or gc < 1:
            raise ConfigurationError(f"block grid {self.grid} must be positive")
        if arr.shape[0] % gr or arr.shape[1] % gc:
            raise ConfigurationError(
                f"shape {arr.shape} is not divisible by block grid {self.grid}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "data", arr)

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    @property
    def block_shape(self) -> tuple[int, int]:
        return (self.data.shape[0] // self.grid[0], self.data.shape[1] // self.grid[1])

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, BlockMatrix)
            and self.field == other.field
            and self.grid == other.grid
            and np.array_equal(self.data, other.data)
        )


def partition(matrix: np.ndarray, grid: tuple[int, int], field: PrimeField) -> BlockMatrix:
    """Wrap a dense matrix as a block matrix with the given grid."""
    return BlockMatrix(np.asarray(matrix), grid, field)


# ---------------------------------------------------------------------------
# augmentation layout
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class AugmentationLayout:
    """Which blocks of A* and B* are live for a given (t, s, d, P_C).

    ``a_live`` covers A*'s whole block grid (t* x s_w) and ``b_live`` B*'s
    (s_w x d*); False marks a structurally zero block.  Data blocks sit in
    the top-left t x s and s x d corners and are always live.
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

    def __post_init__(self):
        self.a_live.setflags(write=False)
        self.b_live.setflags(write=False)


def _first_live(n: int, rows: int, cols: int) -> np.ndarray:
    """A rows x cols band whose first n blocks in row-major order are live."""
    return (np.arange(rows * cols) < n).reshape(rows, cols)


def augmentation_layout(t: int, s: int, d: int, p_c: int) -> AugmentationLayout:
    for name, v in (("t", t), ("s", s), ("d", d)):
        if v < 1:
            raise ConfigurationError(f"{name} must be >= 1, got {v}")
    if p_c < 0:
        raise ConfigurationError(f"collusion tolerance must be >= 0, got {p_c}")

    if p_c == 0:
        return AugmentationLayout(
            "gpd", t, s, d, 0, 0, 0, np.ones((t, s), bool), np.ones((s, d), bool)
        )

    if s < t:
        delta = ceil(p_c / s)
        a_live = np.ones((t + delta, s), bool)
        b_live = np.ones((s, d + delta), bool)
        # surplus: rightmost blocks of A's last row, topmost of B's last column
        a_live[t:, :] = _first_live(p_c, delta, s)
        b_live[:, d:] = _first_live(p_c, delta, s).T[::-1]
        return AugmentationLayout("tall", t, s, d, p_c, delta, 0, a_live, b_live)

    if min(t, d) == 1:
        width = p_c
        a_live = np.ones((t, s + width), bool)
        a_live[: t - 1, s:] = False  # live randomness sits in the last block row
        b_live = np.ones((s + width, d), bool)
        b_live[s:, : d - 1] = False  # and in the last block column
        return AugmentationLayout("wide", t, s, d, p_c, 0, width, a_live, b_live)

    delta_a = ceil(p_c / t)
    delta_b = ceil(p_c / d)
    width = delta_a + delta_b
    # Surplus dies highest exponent first.  A's appended block (i, j) has
    # exponent s_w*i + s + j; row r of B's random band in column l has
    # exponent t*s_w*l + (delta_b - 1 - r) under the plain GPD map (for
    # P_C <= d the codec moves B's live ones to multiples of s_w).
    a_live = np.ones((t, s + width), bool)
    a_live[:, s:] = False
    a_live[:, s : s + delta_a] = _first_live(p_c, t, delta_a)
    b_live = np.ones((s + width, d), bool)
    b_live[s:, :] = False
    b_live[s + delta_a :, :] = _first_live(p_c, d, delta_b).T[::-1]
    return AugmentationLayout("wide", t, s, d, p_c, 0, width, a_live, b_live)


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


def _validate_operands(a: BlockMatrix, b: BlockMatrix) -> tuple[int, int, int]:
    if a.field != b.field:
        raise FieldMismatchError("A and B must share one field")
    t, s = a.grid
    s2, d = b.grid
    if s != s2 or a.shape[1] != b.shape[0]:
        raise ConfigurationError(
            f"inner partitions do not agree: A {a.shape}/{a.grid}, B {b.shape}/{b.grid}"
        )
    return t, s, d


def _pad(m: BlockMatrix, live: np.ndarray, rng: np.random.Generator) -> BlockMatrix:
    """Zero-extend m to the grid of ``live``, fill the appended strip with
    uniform randomness, then zero every block that is not live."""
    br, bc = m.block_shape
    rows, cols = m.shape
    out = np.zeros((live.shape[0] * br, live.shape[1] * bc), dtype=np.int64)
    out[:rows, :cols] = m.data
    strip = out[rows:, :] if out.shape[0] > rows else out[:, cols:]
    strip[...] = m.field.random_array(strip.shape, rng)
    out.reshape(live.shape[0], br, live.shape[1], bc).swapaxes(1, 2)[~live] = 0
    return BlockMatrix(out, live.shape, m.field)


def augment(
    a: BlockMatrix, b: BlockMatrix, p_c: int, rng: np.random.Generator
) -> AugmentedPair:
    """Pad A and B to the layout of (t, s, d, P_C), drawing A's strip first.

    Tall (s < t) when the inner split is smaller than A's block rows, wide
    otherwise; with P_C = 0 nothing is drawn.  Total for every grid."""
    t, s, d = _validate_operands(a, b)
    layout = augmentation_layout(t, s, d, p_c)
    return AugmentedPair(layout, _pad(a, layout.a_live, rng), _pad(b, layout.b_live, rng))


# ---------------------------------------------------------------------------
# matrix text I/O
# ---------------------------------------------------------------------------


# A file is a sequence of tokens separated by runs of ASCII whitespace; a
# token is an optional "-" followed directly by 1 to 18 ASCII digits, so
# every token lies inside int64.  _CLASSES maps each digit to "0" and each
# whitespace byte to " ": a file in the grammar then holds only "0", " " and
# "-", with every "-" between a space (or the start) and a "0".
_MAX_DIGITS = 18
_CLASSES = bytes.maketrans(b"0123456789\t\n\v\f\r", b"0" * 10 + b" " * 5)


def _grammar_breach(norm: bytes) -> tuple[int, str] | None:
    """(offset, reason) of a breach of the token grammar in a file mapped
    through ``_CLASSES``, or None if the file keeps to it."""
    stray = norm.translate(None, b"0 -")
    if stray:
        return norm.index(stray[:1]), "non-integer entry"
    if b"-" in norm:  # written files hold none, so they skip these searches
        hits = [i for i in map(norm.find, (b"0-", b"--", b"- ")) if i >= 0]
        if norm.endswith(b"-"):
            hits.append(len(norm) - 1)
        if hits:
            return min(hits), "non-integer entry: a '-' must start a token and precede a digit"
    run = norm.find(b"0" * (_MAX_DIGITS + 1))
    if run >= 0:
        return run, f"an entry has more than {_MAX_DIGITS} digits, outside the int64 range"
    return None


def _check_entries(path, arr: np.ndarray, modulus: int) -> None:
    if arr.size and (arr.min() < 0 or arr.max() >= modulus):
        bad = arr[(arr < 0) | (arr >= modulus)][0]
        raise ConfigurationError(f"{path}: entry {bad} lies outside [0, {modulus})")


def write_text_file(path: str | Path, header, arrays, modulus: int) -> None:
    """The format of matrix and share files: one line of header integers,
    then the rows of each 2-D array in turn, entries separated by one space.

    Each array's rows are formatted from one printf template.  What the
    reader would refuse, an entry outside [0, modulus) or a header value of
    more than 18 digits, raises ``ConfigurationError`` naming the file, and
    then no file is written."""
    if any(abs(v) >= 10**_MAX_DIGITS for v in header):
        raise ConfigurationError(
            f"{path}: header {list(header)} has a value of more than {_MAX_DIGITS} digits"
        )
    arrays = [np.asarray(arr, dtype=np.int64) for arr in arrays]
    for arr in arrays:
        _check_entries(path, arr, modulus)
    lines = [" ".join(map(str, header)) + "\n"]
    for arr in arrays:
        row = " ".join(["%d"] * arr.shape[1]) + "\n"
        lines += [row % tuple(r) for r in arr.tolist()]
    Path(path).write_text("".join(lines))


def read_text_file(path: str | Path, header_len: int, dims: slice, modulus: int | None = None):
    """(header, arrays) of a ``write_text_file`` file.  ``header[dims]`` holds
    each array's (rows, cols); entries must lie in [0, modulus), the modulus
    defaulting to the header's last field.

    The bytes are checked against the token grammar (see ``_CLASSES``) before
    anything is parsed, and then parsed by one ``np.fromstring`` call.  Every
    refusal is a ``ConfigurationError`` naming the file."""
    raw = Path(path).read_bytes()
    breach = _grammar_breach(raw.translate(_CLASSES))
    if breach:
        offset, reason = breach
        line = raw.count(b"\n", 0, offset) + 1
        raise ConfigurationError(f"{path}: line {line}: {reason}")
    vals = np.fromstring(raw, dtype=np.int64, sep=" ")
    if vals.size < header_len:  # also a file of whitespace alone, which parses as [0]
        raise ConfigurationError(f"{path}: truncated file")
    header, vals = vals[:header_len].tolist(), vals[header_len:]
    shapes = list(zip(header[dims][::2], header[dims][1::2]))
    if min(map(min, shapes)) < 0:
        raise ConfigurationError(f"{path}: negative dimension in header {header}")
    sizes = [rows * cols for rows, cols in shapes]
    if vals.size != sum(sizes):
        raise ConfigurationError(f"{path}: expected {sum(sizes)} entries, found {vals.size}")
    _check_entries(path, vals, header[-1] if modulus is None else modulus)
    parts = np.split(vals, np.cumsum(sizes)[:-1])
    return header, [part.reshape(shape) for part, shape in zip(parts, shapes)]


def write_matrix(path: str | Path, matrix: np.ndarray, modulus: int) -> None:
    """Text format: first line "rows cols modulus", then row-major integers."""
    arr = np.asarray(matrix, dtype=np.int64)
    write_text_file(path, (*arr.shape, modulus), [arr], modulus)


def read_matrix(path: str | Path) -> tuple[np.ndarray, int]:
    header, (arr,) = read_text_file(path, 3, slice(0, 2))
    return arr, header[2]
