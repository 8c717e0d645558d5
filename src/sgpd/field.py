"""Exact arithmetic over a prime field GF(p).

Elements are entries of ``numpy`` int64 arrays reduced mod p.  Matrix
products run on float64 BLAS and are still exact: the operands are integers,
and every partial sum a dgemm forms stays below 2**53, where float64 holds
every integer.  Each operand, with entries in [0, p), is split into 16-bit
limbs (the high limb is below 2**15 since p <= 2**31); the four limb products
are each exact for an inner dimension k <= 2**21, and a longer inner
dimension is cut into slices of that width, so the product is exact for
every k.  The limb products are recombined and reduced in int64.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError

MAX_MODULUS = 2**31

_LIMB = 16  # bits in the low limb of the split
_LIMB_K = 2**21  # inner width of one limb dgemm: (2**16 - 1)**2 * 2**21 < 2**53

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


class PrimeField:
    """The field of integers modulo a prime p, with p <= 2**31.

    ``matmul`` is exact by construction (see the module docstring): 16-bit
    limb products on float64 BLAS, sliced along the inner dimension.
    """

    def __init__(self, p: int):
        if not isinstance(p, int) or not is_prime(p):
            raise ConfigurationError(f"modulus must be prime, got {p!r}")
        if p > MAX_MODULUS:
            raise ConfigurationError(f"modulus {p} exceeds the supported bound 2**31")
        self.p = p

    # -- array operations ----------------------------------------------------

    def reduce(self, arr: np.ndarray) -> np.ndarray:
        return np.asarray(arr, dtype=np.int64) % self.p

    def random_array(self, shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
        return rng.integers(0, self.p, size=shape, dtype=np.int64)

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Exact (a @ b) mod p through float64 BLAS, for any integer entries."""
        a = self.reduce(a)
        b = self.reduce(b)
        out = self._limb_matmul(a[..., :_LIMB_K], b[:_LIMB_K])
        for lo in range(_LIMB_K, a.shape[-1], _LIMB_K):
            out += self._limb_matmul(a[..., lo : lo + _LIMB_K], b[lo : lo + _LIMB_K])
            out %= self.p
        return out

    def _limb_matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """(a @ b) mod p for reduced a, b and inner dimension <= 2**21.

        With x = x1 * 2**16 + x0, a @ b = hi * 2**32 + mid * 2**16 + lo, where
        hi = a1 @ b1, mid = a0 @ b1 + a1 @ b0 and lo = a0 @ b0.  Every limb
        dgemm is exact, and Horner's rule ((hi mod p) * 2**16 + mid) mod p,
        then * 2**16 + lo, keeps each int64 sum below 2**54.  One float
        buffer and one int64 buffer of the output's size are reused in place.
        """
        mask = (1 << _LIMB) - 1
        a0, a1 = (a & mask).astype(np.float64), (a >> _LIMB).astype(np.float64)
        b0, b1 = (b & mask).astype(np.float64), (b >> _LIMB).astype(np.float64)
        part = np.matmul(a1, b1)
        out = np.remainder(part, self.p, dtype=np.int64, casting="unsafe")
        out <<= _LIMB
        for x, y in ((a0, b1), (a1, b0)):
            np.matmul(x, y, out=part)
            np.add(out, part, out=out, dtype=np.int64, casting="unsafe")
        out %= self.p
        out <<= _LIMB
        np.matmul(a0, b0, out=part)
        np.add(out, part, out=out, dtype=np.int64, casting="unsafe")
        out %= self.p
        return out

    def power_table(self, points, exponents) -> np.ndarray:
        """Matrix [w, k] = points[w] ** exponents[k] mod p, for exponents >= 0:
        the powers 0..max(exponents) of all points, one numpy step per power,
        then the requested columns.  The encoder's evaluation map."""
        points = self.reduce(points).reshape(-1)
        exponents = np.asarray(exponents, dtype=np.int64).reshape(-1)
        top = int(exponents.max()) if exponents.size else 0
        table = np.empty((top + 1, points.size), dtype=np.int64)
        table[0] = 1 % self.p
        for e in range(1, top + 1):
            np.remainder(table[e - 1] * points, self.p, out=table[e])
        return table[exponents].T

    # -- misc ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("PrimeField", self.p))

    def __repr__(self) -> str:
        return f"PrimeField({self.p})"

