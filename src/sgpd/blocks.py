"""Block-partitioned matrices over GF(p) and their text file format.

A matrix is cut into a t x s grid of equally sized dense blocks.  Matrix and
share files are lines of integers behind a header.  The writer right-aligns
every entry in the width of p - 1, and ``read_text_file`` reads such a file as
one byte grid; any other file is checked byte by byte against the token
grammar before it is parsed.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigurationError
from .field import PrimeField, int64_array


@dataclass(frozen=True)
class BlockMatrix:
    """A dense matrix over GF(p) together with its block-grid shape."""

    data: np.ndarray
    grid: tuple[int, int]
    field: PrimeField

    def __post_init__(self):
        # a copy, so the caller's array is never frozen or aliased
        self._freeze(np.array(self.field.residues(self.data)))

    @classmethod
    def adopt(cls, data: np.ndarray, grid: tuple[int, int], field: PrimeField) -> BlockMatrix:
        """A BlockMatrix over ``data`` itself, frozen in place instead of
        copied: for an int64 array in [0, p) that its maker has just built and
        will neither write to nor hand out again."""
        block = cls.__new__(cls)
        object.__setattr__(block, "grid", grid)
        object.__setattr__(block, "field", field)
        block._freeze(data)
        return block

    def _freeze(self, arr: np.ndarray) -> None:
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


def _grid_rows(arr: np.ndarray, width: int) -> bytes:
    """arr's rows in the writer's layout: every entry right-aligned with
    spaces in width bytes, one space between entries, "\n" after each row.

    The digits are written one byte column at a time over the whole array,
    from the units up; a column above an entry's leading digit is a space."""
    rows, cols = arr.shape
    if not arr.size:
        return b"\n" * rows
    out = np.empty((rows, cols, width + 1), np.uint8)
    out[..., width] = ord(" ")
    out[:, -1, width] = ord("\n")
    # the entries were checked to be >= 0, and uint32 division is the cheaper
    rest = arr.astype(np.uint32) if arr.max() < 2**32 else arr
    for col in range(width - 1, -1, -1):
        quot = rest // 10
        digit = out[..., col]
        np.subtract(rest, quot * 10, out=digit, casting="unsafe")
        digit += ord("0")
        if col < width - 1:
            np.copyto(digit, ord(" "), where=rest == 0)
        rest = quot
    return out.tobytes()


def write_text_file(path: str | Path, header, arrays, modulus: int) -> None:
    """The format of matrix and share files: one line of header integers
    separated by one space, then the rows of each 2-D array in turn.  Every
    entry is right-aligned with spaces in the width of ``modulus - 1``, one
    space between entries and "\n" after each row, so each data row of an
    array has the same length (see ``read_text_file``).

    What the reader would refuse, an entry outside [0, modulus) or a header
    value of more than 18 digits, raises ``ConfigurationError`` naming the
    file, and then no file is written."""
    if any(abs(v) >= 10**_MAX_DIGITS for v in header):
        raise ConfigurationError(
            f"{path}: header {list(header)} has a value of more than {_MAX_DIGITS} digits"
        )
    arrays = [int64_array(arr) for arr in arrays]
    for arr in arrays:
        _check_entries(path, arr, modulus)
    width = len(str(modulus - 1))
    head = (" ".join(map(str, header)) + "\n").encode()
    Path(path).write_bytes(b"".join([head, *(_grid_rows(arr, width) for arr in arrays)]))


def _grid_entries(raw: bytes, header_len: int, dims: slice, modulus: int | None):
    """(header, entries) of a file in the writer's layout, or None for any
    other file.  The first line must be header_len fields of 1 to 18 ASCII
    digits joined by single spaces.  The rest is a grid exactly when, for the
    header's shapes (none of them empty) and the modulus's width w, it is
    rows*cols*(w + 1) bytes per array, each field is spaces followed by 1 to
    w ASCII digits, and the byte after each field is a space, or "\n" after
    a row's last field.  Such a file lies inside the token grammar, and these
    are the values its tokens hold."""
    end = raw.find(b"\n")
    fields = raw[:end].split(b" ") if end > 0 else []
    if len(fields) != header_len or not all(f.isdigit() and len(f) <= _MAX_DIGITS for f in fields):
        return None
    header = [int(f) for f in fields]
    width = len(str((header[-1] if modulus is None else modulus) - 1))
    shapes = list(zip(header[dims][::2], header[dims][1::2]))
    if width > _MAX_DIGITS or min(map(min, shapes)) < 1:  # int64 holds every entry
        return None
    body = np.frombuffer(raw, np.uint8, offset=end + 1)
    count = sum(rows * cols for rows, cols in shapes)
    if body.size != count * (width + 1):
        return None
    # the byte after each field: a space, or "\n" after each row's last
    after = np.full(count, ord(" "), np.uint8)
    start = 0
    for rows, cols in shapes:
        after[start + cols - 1 : start + rows * cols : cols] = ord("\n")
        start += rows * cols
    if not np.array_equal(body[width :: width + 1], after):
        return None
    # Every other byte is a digit or a space, each field ends in a digit, and
    # no digit is followed by a space inside a field: so a field's only step
    # from a digit to a non-digit is to its separator.
    digit = body - ord("0") < 10
    if not (
        digit[width - 1 :: width + 1].all()
        and np.count_nonzero(digit) + np.count_nonzero(body == ord(" "))
        == body.size - sum(rows for rows, _ in shapes)
        and np.count_nonzero(digit[:-1] > digit[1:]) == count
    ):
        return None
    del digit
    values = body & 15  # a digit's value, and 0 for a space
    entries = values[::width + 1].astype(np.int64)
    for col in range(1, width):
        entries *= 10
        entries += values[col :: width + 1]
    return header, entries


def _token_entries(path, raw: bytes, header_len: int) -> tuple[list, np.ndarray]:
    """(header, entries) of any file in the token grammar (see ``_CLASSES``),
    checked byte by byte and then parsed by one ``np.fromstring`` call."""
    breach = _grammar_breach(raw.translate(_CLASSES))
    if breach:
        offset, reason = breach
        line = raw.count(b"\n", 0, offset) + 1
        raise ConfigurationError(f"{path}: line {line}: {reason}")
    vals = np.fromstring(raw, dtype=np.int64, sep=" ")
    if vals.size < header_len:  # also a file of whitespace alone, which parses as [0]
        raise ConfigurationError(f"{path}: truncated file")
    return vals[:header_len].tolist(), vals[header_len:]


def read_text_file(path: str | Path, header_len: int, dims: slice, modulus: int | None = None):
    """(header, arrays) of a ``write_text_file`` file.  ``header[dims]`` holds
    each array's (rows, cols); entries must lie in [0, modulus), the modulus
    defaulting to the header's last field.

    A file in the writer's own layout is read as one byte grid (see
    ``_grid_entries``).  Every other file is checked against the token
    grammar and parsed token by token; both give the same values.  Every
    refusal is a ``ConfigurationError`` naming the file."""
    raw = Path(path).read_bytes()
    grid = _grid_entries(raw, header_len, dims, modulus)
    header, vals = grid if grid else _token_entries(path, raw, header_len)
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
    arr = int64_array(matrix)
    write_text_file(path, (*arr.shape, modulus), [arr], modulus)


def read_matrix(path: str | Path) -> tuple[np.ndarray, int]:
    header, (arr,) = read_text_file(path, 3, slice(0, 2))
    return arr, header[2]
