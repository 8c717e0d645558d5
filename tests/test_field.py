"""Exact GF(p) arithmetic: axioms, overflow safety, uniform sampling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgpd import ConfigurationError, PrimeField, is_prime

from conftest import triple_loop_product

PRIMES = [2, 3, 5, 7, 257, 65537, 2147483647]
COMPOSITES = [0, 1, 4, 6, 9, 561, 65536, 2147483646]  # 561 is a Carmichael number


def test_is_prime_known_values():
    for p in PRIMES:
        assert is_prime(p)
    for n in COMPOSITES:
        assert not is_prime(n)


def test_field_rejects_composite_modulus():
    with pytest.raises(ConfigurationError):
        PrimeField(561)


def test_field_rejects_oversized_modulus():
    with pytest.raises(ConfigurationError):
        PrimeField(4294967311)  # prime, but past the 2**31 working bound


@given(st.sampled_from([5, 257, 65537]), st.data())
@settings(max_examples=60)
def test_element_axioms(p, data):
    # field elements are int64 array entries: add/sub via reduce, mul via matmul
    field = PrimeField(p)
    a, b, c = (data.draw(st.integers(0, p - 1)) for _ in range(3))

    def mul(x, y):
        return int(field.matmul(np.array([[x]]), np.array([[y]]))[0, 0])

    def add(x, y):
        return int(field.reduce(np.array([x + y]))[0])

    assert add(a, b) == (a + b) % p
    assert int(field.reduce(np.array([a - b]))[0]) == (a - b) % p
    assert mul(a, b) == (a * b) % p
    assert add(add(a, b), c) == add(a, add(b, c))
    assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
    assert mul(a, b) == mul(b, a)
    assert int(field.powers(a, 1)[0]) == 1


def test_reduce_handles_negatives(field5):
    arr = np.array([[-1, -7, 12]])
    assert (field5.reduce(arr) == [[4, 3, 2]]).all()


@pytest.mark.parametrize("p", [257, 65537, 2147483647])
def test_matmul_matches_triple_loop(p):
    field = PrimeField(p)
    rng = np.random.default_rng(p)
    a = field.random_array((3, 41), rng)
    b = field.random_array((41, 4), rng)
    assert np.array_equal(field.matmul(a, b), triple_loop_product(a, b, p))


def test_matmul_near_modulus_entries_do_not_overflow():
    # worst case: every product is (p-1)^2 with p just under 2**31; a naive
    # int64 dot over 600 terms would overflow 463 times over
    p = 2147483647
    field = PrimeField(p)
    a = np.full((2, 600), p - 1, dtype=np.int64)
    b = np.full((600, 2), p - 1, dtype=np.int64)
    got = field.matmul(a, b)
    want = (600 * (p - 1) * (p - 1)) % p
    assert (got == want).all()


def test_powers_row(field257):
    base = 3
    got = field257.powers(base, 9)
    assert [int(v) for v in got] == [pow(base, e, 257) for e in range(9)]


def test_random_array_reproducible(field257):
    a = field257.random_array((4, 4), np.random.default_rng(9))
    b = field257.random_array((4, 4), np.random.default_rng(9))
    assert np.array_equal(a, b)
    assert a.min() >= 0 and a.max() < 257


def test_sample_uniform_chi_square(field5):
    # chi-square over 5 buckets, df=4: mean 4, sd sqrt(8); 5 sigma ~ 18.1
    rng = np.random.default_rng(123)
    n = 50_000
    counts = np.zeros(5, dtype=np.int64)
    draws = field5.random_array((n,), rng)
    for v in draws:
        counts[v] += 1
    expected = n / 5
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    assert chi2 < 4 + 5 * np.sqrt(8.0)
