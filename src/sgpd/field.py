"""Exact arithmetic over a prime field GF(p).

Elements are entries of ``numpy`` int64 arrays reduced mod p; matrix
products are chunked so intermediate sums never overflow 63 bits.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigurationError

MAX_MODULUS = 2**31

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
    """The field of integers modulo a prime p, with p <= 2**31."""

    def __init__(self, p: int):
        if not isinstance(p, int) or not is_prime(p):
            raise ConfigurationError(f"modulus must be prime, got {p!r}")
        if p > MAX_MODULUS:
            raise ConfigurationError(f"modulus {p} exceeds the supported bound 2**31")
        self.p = p
        # Largest inner-dimension chunk whose int64 dot product cannot overflow.
        self._chunk = max(1, (2**62) // ((p - 1) ** 2 or 1))

    # -- array operations ----------------------------------------------------

    def reduce(self, arr: np.ndarray) -> np.ndarray:
        return np.asarray(arr, dtype=np.int64) % self.p

    def random_array(self, shape: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
        return rng.integers(0, self.p, size=shape, dtype=np.int64)

    def matmul(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Exact (a @ b) mod p; the inner dimension is chunked against overflow."""
        a = self.reduce(a)
        b = self.reduce(b)
        k = a.shape[-1]
        if k <= self._chunk:
            return (a @ b) % self.p
        acc = np.zeros(a.shape[:-1] + b.shape[1:], dtype=np.int64)
        for lo in range(0, k, self._chunk):
            hi = min(lo + self._chunk, k)
            acc = (acc + a[..., lo:hi] @ b[lo:hi]) % self.p
        return acc

    def powers(self, base: int, count: int) -> np.ndarray:
        """[base**0, base**1, ..., base**(count-1)] mod p."""
        out = np.empty(count, dtype=np.int64)
        if count == 0:
            return out
        out[0] = 1 % self.p
        b = base % self.p
        for i in range(1, count):
            out[i] = out[i - 1] * b % self.p
        return out

    # -- misc ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self) -> int:
        return hash(("PrimeField", self.p))

    def __repr__(self) -> str:
        return f"PrimeField({self.p})"

