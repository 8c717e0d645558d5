"""Exact GF(p) arithmetic: axioms, overflow safety, uniform sampling, elimination."""

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgpd import (
    ConfigurationError,
    PrimeField,
    SingularSystemError,
    is_prime,
    partition,
    write_matrix,
)
from sgpd.field import _TILE

from conftest import python_gauss_jordan, triple_loop_product

PRIMES = [2, 3, 5, 7, 257, 65537, 2147483647]
COMPOSITES = [0, 1, 4, 6, 9, 561, 65536, 2147483646]  # 561 is a Carmichael number


def test_is_prime_known_values():
    for p in PRIMES:
        assert is_prime(p)
    for n in COMPOSITES:
        assert not is_prime(n)


def test_is_prime_matches_a_sieve():
    # 169 = 13**2, 221 = 13 * 17 and 247 = 13 * 19 are the first composites
    # with no factor up to 11, so the first to reach the Miller-Rabin rounds
    n = 2 * 10**5
    sieve = np.ones(n, bool)
    sieve[:2] = False
    for q in range(2, math.isqrt(n) + 1):
        if sieve[q]:
            sieve[q * q :: q] = False
    assert [is_prime(k) for k in range(n)] == sieve.tolist()
    composites = np.flatnonzero(~sieve)[2:].tolist()  # past 0 and 1
    unscreened = [k for k in composites if all(k % b for b in (2, 3, 5, 7, 11))]
    assert unscreened[:3] == [169, 221, 247] and len(unscreened) == 23_579
    assert not is_prime(2047)  # 23 * 89, a strong pseudoprime to base 2


def test_field_rejects_composite_modulus():
    for modulus in (561, 221):  # 221 = 13 * 17 passes the trial divisions
        with pytest.raises(ConfigurationError, match=f"modulus must be prime, got {modulus}"):
            PrimeField(modulus)


def test_field_rejects_oversized_modulus():
    with pytest.raises(ConfigurationError):
        PrimeField(4294967311)  # prime, but past the 2**31 working bound


@given(st.sampled_from([5, 257, 65537]), st.data())
@settings(max_examples=60)
def test_element_axioms(p, data):
    # field elements are int64 array entries: add/sub via residues, mul via matmul
    field = PrimeField(p)
    a, b, c = (data.draw(st.integers(0, p - 1)) for _ in range(3))

    def mul(x, y):
        return int(field.matmul(np.array([[x]]), np.array([[y]]))[0, 0])

    def add(x, y):
        return int(field.residues(np.array([x + y]))[0])

    assert add(a, b) == (a + b) % p
    assert int(field.residues(np.array([a - b]))[0]) == (a - b) % p
    assert mul(a, b) == (a * b) % p
    assert add(add(a, b), c) == add(a, add(b, c))
    assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
    assert mul(a, b) == mul(b, a)
    assert int(field.power_table([a], [0])[0, 0]) == 1


def test_reduce_handles_negatives(field5):
    arr = np.array([[-1, -7, 12]])
    assert (field5.residues(arr) == [[4, 3, 2]]).all()


@pytest.mark.parametrize("p", [5, 65537, 2**31 - 1])
def test_residues_copy_only_an_unreduced_input(p):
    # a reduced int64 array comes back as itself, strided or not; anything
    # else equals x % p, including -2**63, which reads as 2**63 unsigned
    field = PrimeField(p)
    reduced = np.arange(24, dtype=np.int64).reshape(4, 6) % p
    strided = reduced[::2, 1::3]
    for x in (reduced, strided, reduced[:1, :1]):
        assert field.residues(x) is x
    entries = np.array([-1, -(2**63), p - 1, p, 2**62, 0], dtype=np.int64)
    saved = entries.copy()
    inputs = [entries, entries.reshape(2, 3)[:, ::2], entries[::-1], np.array([True, False])]
    inputs += [np.array([e]) for e in entries] + [np.zeros((0, 3), dtype=np.int64)]
    for x in inputs:
        got = field.residues(x)
        assert got.dtype == np.int64 and got.shape == x.shape
        assert np.array_equal(got, x.astype(np.int64) % p), x
    assert np.array_equal(entries, saved)


def _fill(kind, p, shape):
    if kind == "max":
        return np.full(shape, p - 1, dtype=np.int64)
    if kind in ("+h", "-h"):
        # +-h with h = p // 2 (entries h and h + 1): the balanced residues of
        # largest magnitude.  The sum is odd when an odd count of products is
        # odd, so when k * h is even the last column steps to +-(h - 1)
        h, sign = p // 2, 1 if kind == "+h" else -1
        arr = np.full(shape, sign * h, dtype=np.int64)
        if shape[-1] * h % 2 == 0:
            arr[:, -1] = sign * (h - 1)
        return arr % p
    # odd products whose sum is odd: a float64 sum past 2**53 cannot hold it
    arr = np.full(shape, p - 2, dtype=np.int64)
    if shape[-1] % 2 == 0:
        arr[:, -1] = p - 3
    return arr


@pytest.mark.parametrize("p", [257, 65537, 2147483647, 2147483629])
def test_matmul_matches_triple_loop(p):
    field = PrimeField(p)
    rng = np.random.default_rng(p)
    a = field.random_array((3, 41), rng)
    b = field.random_array((41, 4), rng)
    assert np.array_equal(field.matmul(a, b), triple_loop_product(a, b, p))
    for kind in ("max", "odd"):
        a = _fill(kind, p, (3, 41))
        b = _fill(kind, p, (4, 41)).T
        assert np.array_equal(field.matmul(a, b), triple_loop_product(a, b, p)), kind


TILE_WIDTHS = [1, _TILE - 1, _TILE, _TILE + 1, 2 * _TILE + 3]


@pytest.mark.parametrize("p", [3, 257, 65537, 2147483647])
@pytest.mark.parametrize("m,k", [(3, 5), (1, 5), (3, 1)])
def test_matmul_at_tile_boundaries(p, m, k):
    # output widths on both sides of every column-tile edge, random entries
    # and all-(p-1) entries, which give the largest float sums
    field = PrimeField(p)
    rng = np.random.default_rng([p, m, k])
    for n in TILE_WIDTHS:
        for a, b in (
            (field.random_array((m, k), rng), field.random_array((k, n), rng)),
            (np.full((m, k), p - 1, dtype=np.int64), np.full((k, n), p - 1, dtype=np.int64)),
        ):
            assert np.array_equal(field.matmul(a, b), triple_loop_product(a, b, p)), n


@pytest.mark.parametrize("p", [3, 257, 65537, 2147483647, 2147483629])
def test_matmul_multiples_of_p_reduce_to_zero(p):
    # rows (x, p - x) against columns (c, c): every entry is a multiple of p.
    # At p = 2147483629, 1/p rounds down in float64, so flooring r * (1/p)
    # without the last step's half offset would leave many entries at p
    field = PrimeField(p)
    rng = np.random.default_rng(p)
    x = field.random_array((200,), rng)
    c = field.random_array((50,), rng)
    got = field.matmul(np.stack([x, (p - x) % p], axis=1), np.stack([c, c]))
    assert np.array_equal(got, np.zeros((200, 50), dtype=np.int64))


def test_matmul_and_partition_leave_the_callers_arrays_alone():
    # matmul skips the reducing copy of an operand already in [0, p); it must
    # still never write to it or freeze it, and neither may partition
    field = PrimeField(2147483647)
    rng = np.random.default_rng(5)
    a = field.random_array((4, 6), rng)
    b = field.random_array((6, _TILE + 1), rng)
    unreduced = a - field.p
    stack_a = field.random_array((3, 4, 6), rng)
    stack_b = field.random_array((3, 6, _TILE + 1), rng)
    saved = [x.copy() for x in (a, b, unreduced, stack_a, stack_b)]
    field.matmul(a, b)
    field.matmul(unreduced, b)
    field.matmul(stack_a, stack_b)
    block = partition(a, (2, 3), field)
    for x, before in zip((a, b, unreduced, stack_a, stack_b), saved, strict=True):
        assert x.flags.writeable
        assert np.array_equal(x, before)
    a[0, 0] = (a[0, 0] + 1) % field.p
    assert block.data[0, 0] == saved[0][0, 0]
    assert not block.data.flags.writeable


@pytest.mark.parametrize(
    "bad",
    [
        np.array([[1.5, 2.0], [3.0, 4.7]]),  # would decode as [[1, 2], [3, 4]]
        np.array([[1.0, 2.0]]),  # integral floats are refused too
        np.array([[2**64 - 1, 1]], dtype=np.uint64),  # would wrap to -1
        np.array([[2**64, 1]], dtype=object),
        np.array([["1", "2"]]),
    ],
    ids=["fractions", "integral-floats", "uint64-past-int64", "object", "strings"],
)
def test_entries_the_int64_cast_would_change_are_refused(tmp_path, field257, bad):
    rows, cols = bad.shape
    with pytest.raises(ConfigurationError):
        partition(bad, (1, 1), field257)
    with pytest.raises(ConfigurationError):
        field257.matmul(bad, np.eye(cols, dtype=np.int64))
    with pytest.raises(ConfigurationError):
        field257.matmul(np.eye(rows, dtype=np.int64), bad)
    with pytest.raises(ConfigurationError):
        write_matrix(tmp_path / "m.mat", bad, 257)
    assert not (tmp_path / "m.mat").exists()


def test_every_integer_dtype_reduces_exactly(field257):
    # uint64 up to 2**63 - 1, small signed types and bool cast without loss
    top = np.array([[2**63 - 1, 5]], dtype=np.uint64)
    want = [[(2**63 - 1) % 257, 5]]
    assert partition(top, (1, 1), field257).data.tolist() == want
    assert field257.matmul(top, np.eye(2, dtype=bool)).tolist() == want
    assert partition(np.array([[-1]], dtype=np.int8), (1, 1), field257).data.tolist() == [[256]]


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


@pytest.mark.parametrize("p", [257, 65537, 2147483647])
def test_matmul_unreduced_and_negative_inputs(p):
    field = PrimeField(p)
    rng = np.random.default_rng(11)
    a = rng.integers(-(2**62), 2**62, size=(4, 9), dtype=np.int64)
    b = rng.integers(-(2**62), 2**62, size=(9, 3), dtype=np.int64)
    a[0, 0], b[0, 0] = -1, -p
    assert np.array_equal(field.matmul(a, b), triple_loop_product(a, b, p))


@pytest.mark.parametrize("p", [257, 2147483647])
def test_matmul_empty_inner_dimension(p):
    got = PrimeField(p).matmul(np.zeros((3, 0), dtype=np.int64), np.zeros((0, 2), dtype=np.int64))
    assert got.dtype == np.int64
    assert np.array_equal(got, np.zeros((3, 2), dtype=np.int64))


@pytest.mark.parametrize("p", [3, 257, 65537, 2147483647, 2147483629])
def test_matmul_at_the_slice_width_with_balanced_extremes(p):
    # k = K(p) fills one inner slice and K(p) + 1 starts a second, with the
    # largest balanced entries on both sides and odd sums
    field = PrimeField(p)
    width = field._slice
    for k in (width, width + 1):
        for kind_a, kind_b in (("+h", "+h"), ("+h", "-h"), ("-h", "-h")):
            a = _fill(kind_a, p, (2, k))
            b = _fill(kind_b, p, (3, k)).T
            got = field.matmul(a, b)
            assert np.array_equal(got, triple_loop_product(a, b, p)), (k, kind_a, kind_b)


@pytest.mark.parametrize("p", [2, 257, 65537, 2147483647])
def test_stacked_matmul_at_the_slice_width_with_extreme_entries(p):
    # stacks at k = K(p), one full inner slice, and K(p) + 1, which starts a
    # second, with every entry p - 1 or p // 2 on both sides
    field = PrimeField(p)
    for k in (field._slice, field._slice + 1):
        for value in (p - 1, p // 2):
            a = np.full((3, 2, k), value, dtype=np.int64)
            b = np.full((3, k, 3), value, dtype=np.int64)
            got = field.matmul(a, b)
            assert got.shape == (3, 2, 3) and got.dtype == np.int64
            for x, y, z in zip(a, b, got, strict=True):
                assert np.array_equal(z, triple_loop_product(x, y, p)), (k, value)


@pytest.mark.parametrize("p", [257, 2147483647])
@pytest.mark.parametrize(
    "n,m,k,c",
    [(7, 64, 5, 64), (3, 8, 3, _TILE + 88), (5, 1, 130, 1), (3, 5, 130, _TILE + 88)],
)
def test_stacked_matmul_matches_each_entry(p, n, m, k, c):
    # seven entries through one set of buffers (7 x 64 x 64), a full and a
    # narrow last column tile in each entry (8 x 600), at p = 2**31 - 1 two
    # inner slices (k = 130), and both at once (5 x 600 over k = 130): entry
    # i of the result is a[i] @ b[i]
    field = PrimeField(p)
    rng = np.random.default_rng([p, n, m, k, c])
    a = field.random_array((n, m, k), rng)
    b = field.random_array((n, k, c), rng)
    got = field.matmul(a, b)
    assert got.shape == (n, m, c) and got.dtype == np.int64
    for x, y, z in zip(a, b, got, strict=True):
        assert np.array_equal(z, triple_loop_product(x, y, p))
    # a stack of one is the 2-D product
    assert np.array_equal(field.matmul(a[-1:], b[-1:]), field.matmul(a[-1], b[-1])[None])


def test_stacked_matmul_writes_into_its_output():
    # 26 x (64 x 64) @ (64 x 64), the responders' products of a 64 x 64 block
    # code: the buffers of one step hold about 260 KB beside the 851,968-byte
    # output, so a second output-sized temporary would pass the bound
    field = PrimeField(2**31 - 1)
    rng = np.random.default_rng(26)
    a = field.random_array((26, 64, 64), rng)
    b = field.random_array((26, 64, 64), rng)
    tracemalloc.start()
    try:
        got = field.matmul(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got.nbytes == 851_968
    assert peak < got.nbytes + 300_000, peak
    assert np.array_equal(got[7], triple_loop_product(a[7], b[7], field.p))


@pytest.mark.parametrize("p", [257, 2147483647])
def test_matmul_of_empty_stacks(p):
    field = PrimeField(p)
    got = field.matmul(np.zeros((0, 2, 3), dtype=np.int64), np.zeros((0, 3, 4), dtype=np.int64))
    assert got.dtype == np.int64 and got.shape == (0, 2, 4)
    got = field.matmul(np.zeros((2, 3, 0), dtype=np.int64), np.zeros((2, 0, 4), dtype=np.int64))
    assert got.dtype == np.int64 and np.array_equal(got, np.zeros((2, 3, 4), dtype=np.int64))


@pytest.mark.parametrize(
    "a_shape,b_shape",
    [
        ((2, 3), (4, 2)),
        ((2, 3), (3,)),
        ((3,), (3, 2)),
        ((), ()),
        ((2, 2, 3), (3, 3, 2)),
        ((2, 2, 3), (2, 4, 2)),
        ((2, 3), (1, 3, 2)),
        ((1, 2, 3), (3, 2)),
        ((1, 1, 2, 3), (1, 1, 3, 2)),
    ],
    ids=[
        "inner", "1-D-right", "1-D-left", "scalars", "stack-lengths", "stacked-inner",
        "matrix-by-stack", "stack-by-matrix", "4-D",
    ],
)
def test_matmul_refuses_shapes_it_cannot_multiply(field257, a_shape, b_shape):
    # numpy would broadcast, raise a ValueError or an IndexError; the kernel
    # takes two 2-D arrays or two equal-length stacks, and names both shapes
    a, b = np.ones(a_shape, dtype=np.int64), np.ones(b_shape, dtype=np.int64)
    with pytest.raises(ConfigurationError, match=re.escape(f"cannot multiply {a_shape} by {b_shape}")):
        field257.matmul(a, b)


def test_matmul_slices_the_inner_dimension_past_the_limb_bound():
    # A's entry splits into the odd limbs a1 = 2**15 - 1 and a0 = 2**14 - 1,
    # and B's entry is -h, so the high-limb sum over k terms is odd and past
    # 2**53 from k = 257, where one unsliced dgemm could not hold it
    p = 2147483647
    h = p // 2
    field = PrimeField(p)
    assert (field._shift, field._slice) == (15, 126)
    k = 4 * 126 + 9
    v = (2**15 - 1) * 2**15 + 2**14 - 1
    a = np.full((1, k), v, dtype=np.int64)
    b = np.full((k, 1), h + 1, dtype=np.int64)
    got = field.matmul(a, b)
    assert got.shape == (1, 1)
    assert int(got[0, 0]) == k * v * (h + 1) % p
    assert np.array_equal(got, triple_loop_product(a, b, p))


def test_powers_row(field257):
    base = 3
    got = field257.power_table([base], range(9))
    assert got.shape == (1, 9)
    assert [int(v) for v in got[0]] == [pow(base, e, 257) for e in range(9)]


@pytest.mark.parametrize("p", [5, 257, 65537, 2147483647])
def test_power_table_matches_pow(p):
    field = PrimeField(p)
    points = [0, 1, 2, p - 1, p, p + 3, 3 * p - 1, -1, -2, -p - 4, 2**40 + 7]
    exponents = [0, 5, 1, 5, 0, 17, 2, 64, 3]
    got = field.power_table(points, exponents)
    assert got.dtype == np.int64
    assert got.tolist() == [[pow(z, e, p) for e in exponents] for z in points]
    assert field.power_table(points, []).shape == (len(points), 0)
    assert field.power_table([], exponents).shape == (0, len(exponents))


def test_power_table_holds_no_more_than_its_result():
    # two columns of 10,000 points at exponents 0 and 1000: a table of every
    # power up to 1000 would hold 80 MB, the result holds 160 KB
    field = PrimeField(2**31 - 1)
    points = range(1, 10001)
    tracemalloc.start()
    try:
        got = field.power_table(points, [1000, 0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert got[:, 1].tolist() == [1] * 10000
    assert got[[0, 1, 9999], 0].tolist() == [pow(z, 1000, field.p) for z in (1, 2, 10000)]
    assert peak < 10**6, peak


@pytest.mark.parametrize("exponents", [[2, 3, -1], [-1], [0, -7, 4]])
def test_power_table_refuses_negative_exponents(field257, exponents):
    # a negative exponent would index the table from its end: x**-1 read as
    # x**top, or an IndexError past it
    with pytest.raises(ConfigurationError, match=f"got {min(exponents)}"):
        field257.power_table([2, 3], exponents)


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


# ---------------------------------------------------------------------------
# elimination: pivot columns and solve against a Python-int Gauss-Jordan
# ---------------------------------------------------------------------------


def _low_rank(field, rng, n, m, r):
    """A random n x m matrix of rank at most r: a product through r columns."""
    return field.matmul(field.random_array((n, r), rng), field.random_array((r, m), rng))


@pytest.mark.parametrize("p", [2, 3, 257, 2147483647])
def test_rank_matches_python_gauss_jordan(p):
    field = PrimeField(p)
    rng = np.random.default_rng(p % 1009)
    shapes = [(0, 3), (3, 0), (1, 1), (4, 4), (5, 3), (3, 5), (8, 8), (12, 7)]
    for n, m in shapes:
        for r in range(min(n, m) + 1):
            matrix = _low_rank(field, rng, n, m, r)
            if r == min(n, m):
                matrix = field.random_array((n, m), rng)  # full rank unless p is tiny
            assert len(field.pivot_columns(matrix)) == python_gauss_jordan(matrix, p)[1], (n, m, r)
    # unreduced int64 entries are taken mod p
    matrix = field.random_array((6, 6), rng) - 3 * p
    assert len(field.pivot_columns(matrix)) == python_gauss_jordan(matrix, p)[1]


@pytest.mark.parametrize("p", [2, 257, 2147483647])
def test_pivots_below_k_are_the_pivots_of_the_first_k_columns(p):
    # a column is a pivot exactly when it lies outside the span of the
    # columns to its left, so one elimination gives the rank of every
    # leading block: random, rank-deficient and zero-column matrices
    field = PrimeField(p)
    rng = np.random.default_rng(p % 1013)
    matrices = [field.random_array(shape, rng) for shape in [(3, 5), (5, 3), (6, 6)]]
    matrices += [_low_rank(field, rng, n, m, r) for n, m, r in [(6, 8, 3), (8, 6, 2), (5, 5, 0)]]
    zeroed = field.random_array((5, 7), rng)
    zeroed[:, [0, 3, 6]] = 0
    repeated = field.random_array((6, 5), rng)
    repeated[:, 3] = repeated[:, 1] * 2 % p
    matrices += [zeroed, repeated, np.zeros((4, 0), np.int64), np.zeros((0, 4), np.int64)]
    for matrix in matrices:
        pivots = field.pivot_columns(matrix)
        assert pivots == sorted(set(pivots)) and len(pivots) == python_gauss_jordan(matrix, p)[1]
        for k in range(matrix.shape[1] + 1):
            assert [c for c in pivots if c < k] == field.pivot_columns(matrix[:, :k]), k
    assert not {0, 3, 6} & set(field.pivot_columns(zeroed))
    assert 3 not in field.pivot_columns(repeated)


@pytest.mark.parametrize("p", [2, 3, 257, 2147483647])
def test_solve_matches_python_gauss_jordan(p):
    field = PrimeField(p)
    rng = np.random.default_rng(p % 997 + 1)
    solved = singular = 0
    for n, k in [(1, 1), (2, 3), (5, 1), (8, 4), (16, 2), (26, 4)] * 6:
        a = field.random_array((n, n), rng)
        if singular < 3 and rng.random() < 0.3:
            a = _low_rank(field, rng, n, n, n - 1)  # singular whatever p is
        b = field.random_array((n, k), rng)
        reduced, rank = python_gauss_jordan(np.hstack([a, b]), p, n)
        if rank < n:
            with pytest.raises(SingularSystemError):
                field.solve(a, b)
            singular += 1
            continue
        x = field.solve(a, b)
        assert x.dtype == np.int64
        assert x.tolist() == [row[n:] for row in reduced], (n, k)
        assert np.array_equal(triple_loop_product(a, x, p), b)
        solved += 1
    assert solved and singular


def test_solve_leaves_its_operands_alone(field257):
    rng = np.random.default_rng(5)
    a, b = field257.random_array((6, 6), rng), field257.random_array((6, 2), rng)
    a0, b0 = a.copy(), b.copy()
    field257.solve(a, b)
    assert np.array_equal(a, a0) and np.array_equal(b, b0)


@pytest.mark.parametrize("a_shape,b_shape", [((3, 4), (3, 1)), ((3, 3), (4, 1)), ((3, 3), (3,))])
def test_solve_rejects_mismatched_shapes(field257, a_shape, b_shape):
    with pytest.raises(ConfigurationError):
        field257.solve(np.ones(a_shape, dtype=np.int64), np.ones(b_shape, dtype=np.int64))
