"""Exact arithmetic over a prime field GF(p).

Elements are entries of ``numpy`` int64 arrays reduced mod p.  Matrix
products run on float64 BLAS and are still exact: every float the kernel
forms is an integer of magnitude at most 2**52.  Both operands are taken as
balanced residues x - p*[x > h], h = p // 2, so |x| <= h, and only the left
one is split, at L = ceil(bitlength(h) / 2) bits (15 at p = 2**31 - 1):
a = a1*2**L + a0 with a1 = rint(a / 2**L), |a1| <= A1 = (h >> L) + 1 and
|a0| <= A0 = 2**(L-1).  One dgemm of the stacked [a1; a0] against B gives
s1 = a1 @ b and s0 = a0 @ b, 2k units of work for an inner dimension k, cut
into slices of at most K(p): the largest K <= 2**10 (a bound on one slice's
float buffers) with K*A1*h <= 2**52 and (h + 1)*2**L + K*A0*h <= 2**51 - 1
(K = 126 at p = 2**31 - 1).  So:

* Every partial sum of s1 or s0, in any order, is an integer of magnitude at
  most K*A1*h <= 2**52 or K*A0*h < 2**51: both are exact.
* q = s1 * fl(1/p) is off from s1/p by at most |s1|/p * 2**-52 * (1 + 2**-53),
  so r1 = s1 - p*rint(q) has |r1| <= p/2 + 1 + 2**-53, that is |r1| <= h + 1,
  and x = r1*2**L + s0, congruent to the product, has |x| <= 2**51 - 1.
* The last step x - p*floor((x + 1/2) * fl(1/p)) lands in [0, p): x + 1/2 is
  exact, its quotient is off by less than (|x| + 1/2)/p * 2**-52 * (1 + 2**-53)
  < 1/(2p), and (x + 1/2)/p lies at least 1/(2p) from every integer, so the
  floor is floor(x/p).  Slices are summed in int64 and reduced.

``matmul`` multiplies two 2-D arrays or two equal-length stacks,
(n, m, k) @ (n, k, c), entry by entry; a 2-D product is a stack of one, so
there is one kernel.  Each slice runs in steps: a step takes a run of stack
entries and one tile of at most 512 output columns, reusing the same float
buffers, so the float temporaries grow with the rows of a product but not
with its columns or its stack.  A run is as many entries as keep the step's
buffers within 2**15 floats (256 KB), and at least one: one 64 x 64 product
at p = 2**31 - 1, where longer runs made ``run()`` no faster and raised the
memory a request holds.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError, SingularSystemError

MAX_MODULUS = 2**31

_TILE = 512  # output columns per tile
_STEP = 2**15  # floats in one step's buffers, for as many stack entries as fit

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

    ``matmul`` is exact by construction (see the module docstring): balanced
    residues, one split of the left operand and one dgemm per column tile on
    float64 BLAS, reduced in float64 and sliced along the inner dimension.
    """

    def __init__(self, p: int):
        if not isinstance(p, int) or not is_prime(p):
            raise ConfigurationError(f"modulus must be prime, got {p!r}")
        if p > MAX_MODULUS:
            raise ConfigurationError(f"modulus {p} exceeds the supported bound 2**31")
        self.p = p
        h = p // 2  # L and K(p) of the module docstring
        self._shift = shift = (h.bit_length() + 1) // 2
        a1, a0 = (h >> shift) + 1, 1 << (shift - 1)
        fits = 2**52 // (a1 * h), (2**51 - 1 - ((h + 1) << shift)) // (a0 * h)
        self._slice = min(*fits, 2**10)  # 2**10 bounds one slice's float buffers
        self._floats = float(p), float(h), 1.0 / p, 2.0**shift  # p, h, 1/p, 2**L

    # -- array operations ----------------------------------------------------

    def residues(self, x) -> np.ndarray:
        """x as int64 entries in [0, p): copied and reduced only when an entry
        lies outside, so a reduced int64 array is used as it is."""
        x = int64_array(x)
        if x.size and x.view(np.uint64).max() >= self.p:  # a negative reads >= 2**63
            return x % self.p
        return x

    def random_array(self, shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
        return rng.integers(0, self.p, size=shape, dtype=np.int64)

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Exact (a @ b) mod p through float64 BLAS, summed over slices of the
        inner dimension (see the module docstring), for two 2-D integer arrays
        or two equal-length stacks, (n, m, k) @ (n, k, c), multiplied entry by
        entry.  Any other pair of shapes raises ``ConfigurationError``.  The
        result is a new int64 array; a and b are only read."""
        a, b = self.residues(a), self.residues(b)
        flat = a.ndim == b.ndim == 2
        if not (flat or a.ndim == b.ndim == 3 and len(a) == len(b)) or a.shape[-1] != b.shape[-2]:
            raise ConfigurationError(
                f"cannot multiply {a.shape} by {b.shape}: need two 2-D arrays or two "
                "equal-length stacks of matrices, with agreeing inner dimensions"
            )
        if flat:  # a 2-D product is a stack of one
            a, b = a[None], b[None]
        width = self._slice
        out = self._stacked_matmul(a[..., :width], b[:, :width])
        for lo in range(width, a.shape[2], width):
            out += self._stacked_matmul(a[..., lo : lo + width], b[:, lo : lo + width])
            out %= self.p
        return out[0] if flat else out

    def _stacked_matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """(a @ b) mod p for stacks of entries in [0, p) and an inner dimension
        <= K(p).  Each step takes a run of stack entries and a tile of output
        columns: the run's A is balanced and split once, as [a1; a0], so one
        dgemm per entry against each balanced tile of B gives s1 and s0."""
        p, h, inv, scale = self._floats
        (n, m, k), c = a.shape, b.shape[2]
        out = np.empty((n, m, c), dtype=np.int64)
        if not out.size:
            return out
        width, run = min(_TILE, c), n
        if n > 1:  # as many entries per step as keep its buffers within _STEP floats
            run = min(n, _STEP // (2 * m * k + 2 * k * width + 3 * m * width) or 1)
        a10 = np.empty((run, 2 * m, k))
        b_buf, high_buf = np.empty((run, k, width)), np.empty((run, k, width))
        s_buf, quot_buf = np.empty((run, 2 * m, width)), np.empty((run, m, width))
        for e in range(0, n, run):
            a_run, b_run, out_run = a[e : e + run], b[e : e + run], out[e : e + run]
            if len(a_run) < run:  # the last run is shorter
                run = len(a_run)
                a10, b_buf, high_buf, s_buf, quot_buf = (
                    buf[:run] for buf in (a10, b_buf, high_buf, s_buf, quot_buf)
                )
            a1, a0 = a10[:, :m], a10[:, m:]
            np.copyto(a0, a_run, casting="unsafe")
            a0 -= np.greater(a0, h, out=a1) * p  # balanced
            np.rint(np.multiply(a0, 1.0 / scale, out=a1), out=a1)
            a0 -= a1 * scale
            for c0 in range(0, c, _TILE):
                bt, high, s, quot = b_buf, high_buf, s_buf, quot_buf
                w = min(_TILE, c - c0)
                if w < width:  # the last tile is narrower
                    bt, high, s, quot = bt[..., :w], high[..., :w], s[..., :w], quot[..., :w]
                np.copyto(bt, b_run[..., c0 : c0 + w], casting="unsafe")
                np.greater(bt, h, out=high)
                high *= p
                bt -= high  # balanced
                np.matmul(a10, bt, out=s)
                s1, s0 = s[:, :m], s[:, m:]
                np.multiply(s1, inv, out=quot)  # fold s1: |r1| <= h + 1
                np.rint(quot, out=quot)
                quot *= p
                s1 -= quot
                s1 *= scale
                s1 += s0  # x, |x| < 2**51
                np.add(s1, 0.5, out=quot)  # the exact last step, into [0, p)
                quot *= inv
                np.floor(quot, out=quot)
                quot *= p
                np.subtract(s1, quot, out=out_run[..., c0 : c0 + w], casting="unsafe")
        return out

    def power_table(self, points, exponents) -> np.ndarray:
        """Matrix [w, k] = points[w] ** exponents[k] mod p, for exponents >= 0
        (a negative one raises ``ConfigurationError``): one row of powers of
        all points, one numpy step per power, copied out where requested."""
        points = int64_array(points).reshape(-1) % self.p
        exponents = np.asarray(exponents, dtype=np.int64).reshape(-1)
        if (exponents < 0).any():
            raise ConfigurationError(f"exponents must be >= 0, got {int(exponents.min())}")
        table, exps = np.empty((exponents.size, points.size), np.int64), exponents.tolist()
        power, product, e = np.ones_like(points), np.empty_like(points), 0  # power = points**e
        for k in sorted(range(len(exps)), key=exps.__getitem__):
            for _ in range(e, exps[k]):
                np.remainder(np.multiply(power, points, out=product), self.p, out=power)
            e = exps[k]
            table[k] = power
        return table.T

    # -- elimination -----------------------------------------------------------

    def _row_reduce(self, matrix, pivot_cols: int) -> tuple[np.ndarray, list]:
        """Gauss-Jordan elimination in int64: the reduced row echelon form of
        matrix, with pivots sought in its first pivot_cols columns, and their
        columns, ascending.  Pivots are inverted by pow(x, -1, p) in Python
        ints.  Entries stay in [0, p) with p <= 2**31 between steps, so each
        update r - f * pivot lies above -2**62 before it is reduced.  A pivot
        row is zero left of its pivot: a step touches the columns from it on."""
        p = self.p
        rows = int64_array(matrix) % p  # a fresh copy, eliminated in place
        pivots = []
        for col in range(pivot_cols):
            if (rank := len(pivots)) == rows.shape[0]:
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
            pivots.append(col)
        return rows, pivots

    def pivot_columns(self, matrix) -> list:
        """The ascending pivot columns of a 2-D matrix over GF(p), as many as
        its rank.  A column is a pivot exactly when it lies outside the span
        of those to its left, so the pivots below k are matrix[:, :k]'s."""
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
        reduced, pivots = self._row_reduce(np.hstack([a, b]), n)
        if (rank := len(pivots)) < n:
            raise SingularSystemError(f"{n}x{n} system is singular mod {self.p} (rank {rank})")
        return reduced[:, n:]

    # -- misc ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("PrimeField", self.p))

    def __repr__(self) -> str:
        return f"PrimeField({self.p})"

