"""Exact arithmetic over a prime field GF(p).

Elements are entries of ``numpy`` int64 arrays reduced mod p.  Matrix
products run on float64 BLAS and are still exact: the operands are integers,
and every float sum the kernel forms stays below 2**50, where float64 holds
every integer.  Each operand entry x in [0, p) is split into 16-bit limbs
x = x1 * 2**16 + x0 (x1 < 2**15 since p <= 2**31), and

    a @ b = (hi * 2**16 + mid) * 2**16 + lo,
    hi = a1 @ b1,  mid = a0 @ b1 + a1 @ b0,  lo = a0 @ b0.

The inner dimension is cut into slices of k <= 2**17, so hi < 2**47 and
mid, lo < 2**49.  The three limb dgemms run on one tile of at most 512
output columns at a time and are reduced in float64 by Horner's rule:

* r - p * floor(r * (1/p)) for an integer 0 <= r < 2**50.  The computed
  quotient is off from r / p by less than 2**50 / p * 2**-52 = 1/(4p), so
  its floor is floor(r / p), or one less when p divides r: the result lies
  in [0, p], at most p.  So hi reduces to at most p, and each Horner step
  r * 2**16 + (mid or lo) stays below 2**47 + 2**49 < 2**50.
* The last step floors (r + 1/2) * (1/p) instead.  (r + 1/2) / p lies at
  least 1/(2p) from every integer, farther than the error, so that floor is
  exact and the result is canonical, in [0, p).

Every tile reuses the same float buffers, so the float temporaries of a
product grow with its rows but not with its columns.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError, SingularSystemError

MAX_MODULUS = 2**31

_LIMB = 16  # bits in the low limb of the split
_MASK = (1 << _LIMB) - 1
_SLICE = 2**17  # inner width of one tiled product: every float sum < 2**50
_TILE = 512  # output columns per tile

_MR_BASES = (2, 3, 5, 7, 11)  # deterministic for n < 3_215_031_751


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin test, exact for every modulus we accept."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def int64_array(x) -> np.ndarray:
    """x as an int64 array, refusing what that cast would change silently:
    entries of a dtype other than bool or integer (1.5 would become 1) and a
    uint64 entry past 2**63 - 1 (2**64 - 1 would become -1)."""
    arr = np.asarray(x)
    if arr.size and arr.dtype.kind not in "biu":
        raise ConfigurationError(f"entries must be integers, got dtype {arr.dtype}")
    if arr.dtype == np.uint64 and arr.size and arr.max() > np.iinfo(np.int64).max:
        raise ConfigurationError(f"entry {arr.max()} lies outside the int64 range")
    return arr.astype(np.int64, copy=False)


class PrimeField:
    """The field of integers modulo a prime p, with p <= 2**31.

    ``matmul`` is exact by construction (see the module docstring): 16-bit
    limb products on float64 BLAS, reduced in float64 one column tile at a
    time and sliced along the inner dimension.
    """

    def __init__(self, p: int):
        if not isinstance(p, int) or not is_prime(p):
            raise ConfigurationError(f"modulus must be prime, got {p!r}")
        if p > MAX_MODULUS:
            raise ConfigurationError(f"modulus {p} exceeds the supported bound 2**31")
        self.p = p

    # -- array operations ----------------------------------------------------

    def reduce(self, arr: np.ndarray) -> np.ndarray:
        return int64_array(arr) % self.p

    def residues(self, x) -> np.ndarray:
        """x as int64 entries in [0, p): copied and reduced only when an entry
        lies outside, so a reduced int64 array is used as it is."""
        x = int64_array(x)
        if x.size and (x.min() < 0 or x.max() >= self.p):
            return x % self.p
        return x

    def random_array(self, shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
        return rng.integers(0, self.p, size=shape, dtype=np.int64)

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Exact (a @ b) mod p of two 2-D arrays through float64 BLAS, for any
        integer entries: limb products and a float reduction per column tile,
        summed over slices of the inner dimension (see the module docstring).
        The result is a new int64 array; a and b are only read."""
        a, b = self.residues(a), self.residues(b)
        out = self._tiled_matmul(a[:, :_SLICE], b[:_SLICE])
        for lo in range(_SLICE, a.shape[1], _SLICE):
            out += self._tiled_matmul(a[:, lo : lo + _SLICE], b[lo : lo + _SLICE])
            out %= self.p
        return out

    def _tiled_matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """(a @ b) mod p for entries in [0, p) and an inner dimension <= 2**17.

        A's limbs are split once, as [a0 | a1], so one dgemm against a tile's
        [b1; b0] gives mid.  Every tile reuses the same float buffers."""
        p, inv = float(self.p), 1.0 / self.p
        (m, k), n = a.shape, b.shape[1]
        out = np.empty((m, n), dtype=np.int64)
        a01 = np.empty((m, 2 * k))
        np.bitwise_and(a, _MASK, out=a01[:, :k], casting="unsafe")
        np.right_shift(a, _LIMB, out=a01[:, k:], casting="unsafe")
        a0, a1 = a01[:, :k], a01[:, k:]
        width = min(_TILE, n)
        b10_buf = np.empty((2 * k, width))
        acc_buf, part_buf, quot_buf = (np.empty((m, width)) for _ in range(3))

        def fold(acc, quot):  # acc -> a value in [0, p], congruent mod p
            np.multiply(acc, inv, out=quot)
            np.floor(quot, out=quot)
            quot *= p
            acc -= quot

        for c in range(0, n, _TILE):
            w = min(_TILE, n - c)
            b10, acc, part, quot = (x[:, :w] for x in (b10_buf, acc_buf, part_buf, quot_buf))
            np.right_shift(b[:, c : c + w], _LIMB, out=b10[:k], casting="unsafe")
            np.bitwise_and(b[:, c : c + w], _MASK, out=b10[k:], casting="unsafe")
            np.matmul(a1, b10[:k], out=acc)  # hi
            fold(acc, quot)
            acc *= 2.0**_LIMB
            np.matmul(a01, b10, out=part)  # mid
            acc += part
            fold(acc, quot)
            acc *= 2.0**_LIMB
            np.matmul(a0, b10[k:], out=part)  # lo
            acc += part
            np.add(acc, 0.5, out=quot)  # the exact last step, into [0, p)
            quot *= inv
            np.floor(quot, out=quot)
            quot *= p
            np.subtract(acc, quot, out=out[:, c : c + w], casting="unsafe")
        return out

    def power_table(self, points, exponents) -> np.ndarray:
        """Matrix [w, k] = points[w] ** exponents[k] mod p, for exponents >= 0
        (a negative one raises ``ConfigurationError``): the powers 0..max of
        all points, one numpy step per power, then the requested columns."""
        points = self.reduce(points).reshape(-1)
        exponents = np.asarray(exponents, dtype=np.int64).reshape(-1)
        if (exponents < 0).any():
            raise ConfigurationError(f"exponents must be >= 0, got {int(exponents.min())}")
        top = int(exponents.max()) if exponents.size else 0
        table = np.empty((top + 1, points.size), dtype=np.int64)
        table[0] = 1 % self.p
        for e in range(1, top + 1):
            np.remainder(table[e - 1] * points, self.p, out=table[e])
        return table[exponents].T

    # -- elimination -----------------------------------------------------------

    def _row_reduce(self, matrix, pivot_cols: int) -> tuple[np.ndarray, int]:
        """Gauss-Jordan elimination in int64: the reduced row echelon form of
        matrix, with pivots sought in its first pivot_cols columns, and the
        rank found there.  Pivots are inverted by pow(x, -1, p) in Python ints.
        Entries stay in [0, p) with p <= 2**31 between steps, so each update
        r - f * pivot lies above -2**62 before it is reduced.  A pivot row is
        zero left of its pivot, so a step touches only the columns from it on."""
        p = self.p
        rows = self.reduce(matrix)
        rank = 0
        for col in range(pivot_cols):
            if rank == rows.shape[0]:
                break
            if not rows[rank, col]:
                nonzero = np.flatnonzero(rows[rank:, col])
                if nonzero.size == 0:
                    continue
                rows[[rank, rank + nonzero[0]]] = rows[[rank + nonzero[0], rank]]
            tail = rows[:, col:]
            pivot = tail[rank] * pow(int(tail[rank, 0]), -1, p) % p
            tail -= tail[:, :1] * pivot
            tail %= p
            tail[rank] = pivot
            rank += 1
        return rows, rank

    def rank(self, matrix) -> int:
        """Rank of a 2-D matrix over GF(p)."""
        matrix = np.asarray(matrix)
        return self._row_reduce(matrix, matrix.shape[1])[1]

    def solve(self, a, b) -> np.ndarray:
        """The x with a @ x = b mod p, for a square a and a 2-D b with as many
        rows.  Raises SingularSystemError when a is singular mod p, so no
        solution is ever returned for a system without a unique one."""
        a, b = np.asarray(a), np.asarray(b)
        n = a.shape[0]
        if a.shape != (n, n) or b.ndim != 2 or b.shape[0] != n:
            raise ConfigurationError(f"cannot solve a {a.shape} system for a {b.shape} right side")
        reduced, rank = self._row_reduce(np.hstack([a, b]), n)
        if rank < n:
            raise SingularSystemError(f"{n}x{n} system is singular mod {self.p} (rank {rank})")
        return reduced[:, n:]

    # -- misc ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("PrimeField", self.p))

    def __repr__(self) -> str:
        return f"PrimeField({self.p})"

