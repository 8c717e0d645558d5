"""Exponent maps, thresholds, encode/decode, and their independent oracles."""

import dataclasses
import hashlib
import itertools
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgpd import (
    ConfigurationError,
    FieldMismatchError,
    NotEnoughResults,
    PrimeField,
    SingularSystemError,
    augment,
    build_plan,
    code_geometry,
    communication_load,
    decode,
    encode,
    exponent_audit,
    naive_secure_threshold,
    partition,
    worker_compute,
    write_share,
)
from sgpd.blocks import read_text_file
from sgpd.codec import CodedShare, WorkerResult, interpolate, share_stacks

from conftest import (
    closed_form_thresholds,
    distinct_live_sums,
    encoding_terms,
    evaluate_terms,
    gpd_b_map,
    lagrange_coefficient_matrix,
    looped_exponent_audit,
    make_pair,
    product_coefficients,
    small_matmul,
    triple_loop_product,
)


# ---------------------------------------------------------------------------
# exponent maps, hand-computed
# ---------------------------------------------------------------------------


def test_exponent_map_plain_grid():
    geo = code_geometry(2, 3, 2, 0)
    exps = geo.exponent_map
    assert exps.a_exponents.tolist() == [[0, 1, 2], [3, 4, 5]]
    assert exps.b_exponents.tolist() == [[2, 8], [1, 7], [0, 6]]
    assert exps.extraction.tolist() == [[2, 8], [5, 11]]
    assert geo.layout.a_live.all() and geo.layout.b_live.all()
    assert geo.recovery_threshold == 14


def test_exponent_map_tall():
    geo = code_geometry(3, 2, 2, 2)
    exps = geo.exponent_map
    assert exps.a_exponents.tolist() == [[0, 1], [2, 3], [4, 5], [6, 7]]
    assert exps.b_exponents.tolist() == [[1, 9, 17], [0, 8, 16]]
    assert exps.extraction.tolist() == [[1, 9], [3, 11], [5, 13]]
    assert geo.recovery_threshold == 25


def test_exponent_map_wide_corner():
    geo = code_geometry(1, 2, 1, 1)
    exps = geo.exponent_map
    assert exps.a_exponents.tolist() == [[0, 1, 2]]
    assert exps.b_exponents.tolist() == [[1], [0], [2]]
    assert exps.extraction.tolist() == [[1]]
    assert geo.recovery_threshold == 5


def test_recovery_threshold_examples():
    # frozen reference values, one per regime
    assert code_geometry(2, 1, 2, 0).recovery_threshold == 4
    assert code_geometry(1, 4, 1, 0).recovery_threshold == 7
    assert code_geometry(3, 2, 2, 2).recovery_threshold == 25
    assert code_geometry(1, 1, 1, 1).recovery_threshold == 3
    # two-band: B's random blocks sit at 4 and 8, so the live support is
    # {2, ..., 17}, 16 exponents, against a dense degree range of 18
    geo = code_geometry(2, 2, 2, 2)
    assert geo.recovery_threshold == 16 == distinct_live_sums(geo)
    assert geo.support.tolist() == list(range(2, 18))


# sha256 of every geometry over t, s, d in 1..5 and P_C in 0..6: the regime
# table's cases, masks, exponent maps and extraction spots
REGIME_TABLE_SHA256 = "1cba7f5f23a8e9926815aeece157d62253ad6821f7035924191db919e8ad62a0"


def test_regime_table_is_pinned():
    h = hashlib.sha256()
    for t, s, d, p_c in itertools.product(range(1, 6), range(1, 6), range(1, 6), range(7)):
        geo = code_geometry(t, s, d, p_c)
        lay, emap = geo.layout, geo.exponent_map
        h.update(repr((t, s, d, p_c, lay.case, lay.delta, lay.width)).encode())
        for arr in (lay.a_live, lay.b_live, emap.a_exponents, emap.b_exponents, emap.extraction):
            h.update(repr(arr.shape).encode())
            h.update(arr.astype(np.int64).tobytes())
    assert h.hexdigest() == REGIME_TABLE_SHA256


def test_random_masks_are_the_live_blocks_outside_the_data_corners():
    for t, s, d, p_c in itertools.product(range(1, 6), range(1, 6), range(1, 6), range(7)):
        lay = code_geometry(t, s, d, p_c).layout
        for live, random, rows, cols in ((lay.a_live, lay.a_random, t, s),
                                         (lay.b_live, lay.b_random, s, d)):
            corner = np.zeros(live.shape, bool)
            corner[:rows, :cols] = True
            assert np.array_equal(random, live & ~corner), (t, s, d, p_c)
            assert random.sum() == p_c and not random.flags.writeable


def test_case_labels():
    assert code_geometry(2, 1, 2, 0).case == "non-secure"
    assert code_geometry(3, 2, 2, 1).case == "secure-tall"
    assert code_geometry(2, 2, 2, 1).case == "secure-wide"


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------


def test_closed_form_matches_construction_full_band():
    forms = closed_form_thresholds(3, 2, 2, 2)
    assert forms["tall"] == 25 == code_geometry(3, 2, 2, 2).recovery_threshold


def test_closed_form_matches_construction_partial_band():
    forms = closed_form_thresholds(3, 2, 2, 1)
    assert forms["tall"] == 23 == code_geometry(3, 2, 2, 1).recovery_threshold
    assert "tall_degree_variant" in forms  # recorded alternative, not asserted


def test_closed_form_wide_general_single_output_dim():
    # min(t, d) = 1: the construction realizes t*d*(s+P_C) + (s+P_C) - 1
    for t, s, d, p_c in [(1, 2, 1, 1), (2, 3, 1, 2), (1, 1, 4, 3), (1, 6, 1, 4)]:
        forms = closed_form_thresholds(t, s, d, p_c)
        geo = code_geometry(t, s, d, p_c)
        assert geo.recovery_threshold == forms["wide_general"]


def test_unsecured_closed_form():
    assert closed_form_thresholds(4, 2, 3, 0)["unsecured"] == 4 * 2 * 3 + 1
    assert code_geometry(4, 2, 3, 0).recovery_threshold == 25


def test_naive_threshold_examples():
    assert naive_secure_threshold(3, 2, 2, 2) == 25
    assert naive_secure_threshold(4, 2, 3, 2) == 41
    assert naive_secure_threshold(5, 2, 3, 0) == 5 * 2 * 3 + 1  # no augmentation
    with pytest.raises(ConfigurationError, match="s < t"):
        naive_secure_threshold(2, 3, 2, 1)


def test_naive_never_beats_construction():
    strict = 0
    for t in range(1, 7):
        for s in range(1, t):
            for d in range(1, 7):
                for p_c in range(0, 5):
                    naive = naive_secure_threshold(t, s, d, p_c)
                    ours = code_geometry(t, s, d, p_c).recovery_threshold
                    assert naive >= ours, (t, s, d, p_c)
                    strict += naive > ours
    assert strict > 0  # separation is real, not vacuous
    assert naive_secure_threshold(12, 1, 12, 2) == 196
    assert code_geometry(12, 1, 12, 2).recovery_threshold == 183


def test_threshold_monotone_in_collusion():
    for t in range(1, 5):
        for s in range(1, 5):
            for d in range(1, 5):
                prev = code_geometry(t, s, d, 0).recovery_threshold
                for p_c in range(1, 5):
                    cur = code_geometry(t, s, d, p_c).recovery_threshold
                    assert cur >= prev, (t, s, d, p_c)
                    prev = cur
                assert prev > code_geometry(t, s, d, 0).recovery_threshold


def test_reduction_points():
    # s=1 collapses to one block product per output block
    assert code_geometry(3, 1, 4, 0).recovery_threshold == 12
    assert code_geometry(3, 1, 4, 0).normalized_load == 1
    # t=d=1 collapses to an inner-product code
    assert code_geometry(1, 5, 1, 0).recovery_threshold == 9


# ---------------------------------------------------------------------------
# encoding
# ---------------------------------------------------------------------------


def test_encode_hand_example(field5):
    # t=2, s=1: the A polynomial is A_0 + A_1 x, B polynomial is just B_0
    plan = build_plan(2, 1, 1, 0, 4, field5)
    a = partition(np.array([[1], [4]]), (2, 1), field5)
    b = partition(np.array([[3]]), (1, 1), field5)
    pair = augment(a, b, 0, np.random.default_rng(0))
    shares = encode(plan, pair)
    assert [sh.point for sh in shares] == [1, 2, 3, 4]
    assert shares[1].a_share.tolist() == [[(1 + 4 * 2) % 5]]
    assert shares[1].b_share.tolist() == [[3]]
    decoded = decode(plan, [worker_compute(sh) for sh in shares[:2]])
    assert decoded.data.tolist() == [[3], [12 % 5]]


@pytest.mark.parametrize(
    "t,s,d,p_c",
    [(3, 2, 2, 2), (2, 3, 2, 0), (1, 2, 1, 1), (2, 2, 2, 2), (4, 3, 2, 3)],
)
def test_encode_matches_polynomial_oracle(t, s, d, p_c, field257):
    rng = np.random.default_rng(17)
    _, _, pair = make_pair(t, s, d, p_c, field257, rng, bt=2, bs=1, bd=2)
    plan = build_plan(t, s, d, p_c, code_geometry(t, s, d, p_c).recovery_threshold + 3, field257)
    exps = plan.exponent_map
    a_terms = encoding_terms(pair.a_star, exps.a_exponents, plan.layout.a_live)
    b_terms = encoding_terms(pair.b_star, exps.b_exponents, plan.layout.b_live)
    for share in encode(plan, pair):
        x = share.point
        assert np.array_equal(
            share.a_share, evaluate_terms(a_terms, x, 257, pair.a_star.block_shape)
        )
        assert np.array_equal(
            share.b_share, evaluate_terms(b_terms, x, 257, pair.b_star.block_shape)
        )


@pytest.mark.parametrize(
    "t,s,d,p_c",
    [(3, 2, 2, 2), (3, 2, 2, 1), (2, 3, 2, 0), (1, 2, 1, 1), (2, 3, 1, 2),
     (2, 2, 2, 2), (3, 3, 3, 2), (1, 1, 1, 1), (4, 1, 3, 2)],
)
def test_product_polynomial_oracle(t, s, d, p_c, field257):
    """Term-by-term convolution: live support and extraction coefficients."""
    rng = np.random.default_rng(23)
    a_arr, b_arr, pair = make_pair(t, s, d, p_c, field257, rng, bt=1, bs=2, bd=1)
    geo = code_geometry(t, s, d, p_c)
    coeffs, _ = product_coefficients(pair, geo)
    assert sorted(coeffs) == geo.support.tolist()
    want = triple_loop_product(a_arr, b_arr, 257)
    br = a_arr.shape[0] // t
    bc = b_arr.shape[1] // d
    for i in range(t):
        for l in range(d):
            g = int(geo.exponent_map.extraction[i, l])
            assert np.array_equal(
                coeffs[g], want[i * br : (i + 1) * br, l * bc : (l + 1) * bc]
            ), (i, l)


def test_encode_rejects_mismatched_pair(field257):
    rng = np.random.default_rng(2)
    plan = build_plan(3, 2, 2, 2, 30, field257)
    _, _, other = make_pair(3, 2, 2, 1, field257, rng)
    with pytest.raises(ConfigurationError):
        encode(plan, other)


def test_encode_gives_the_listed_workers_in_list_order(field257):
    rng = np.random.default_rng(4)
    plan = build_plan(3, 2, 2, 2, 30, field257)
    _, _, pair = make_pair(3, 2, 2, 2, field257, rng, bt=2, bs=1, bd=2)
    every = encode(plan, pair)
    assert [share.worker_id for share in every] == list(range(1, 31))
    ids = [17, 3, 30, 1, 3]
    for mine, want in zip(encode(plan, pair, ids), (every[w - 1] for w in ids), strict=True):
        assert (mine.worker_id, mine.point) == (want.worker_id, want.point)
        assert np.array_equal(mine.a_share, want.a_share)
        assert np.array_equal(mine.b_share, want.b_share)
    assert encode(plan, pair, []) == []
    for bad in ([0], [31], [2, -1]):
        with pytest.raises(ConfigurationError, match="pool 1..30"):
            encode(plan, pair, bad)


def test_encode_rejects_wrong_field(field257, field65537):
    rng = np.random.default_rng(3)
    plan = build_plan(2, 1, 1, 0, 4, field257)
    _, _, pair = make_pair(2, 1, 1, 0, field65537, rng)
    with pytest.raises(FieldMismatchError):
        encode(plan, pair)


# ---------------------------------------------------------------------------
# interpolation
# ---------------------------------------------------------------------------


def test_lagrange_matrix_recovers_coefficients(field257):
    rng = np.random.default_rng(31)
    n = 12
    coeffs = field257.random_array((n, 5), rng)
    xs = np.array([1, 3, 5, 7, 9, 11, 100, 200, 250, 256, 2, 4], dtype=np.int64)
    vander = np.array([[pow(int(x), e, 257) for e in range(n)] for x in xs])
    values = triple_loop_product(vander, coeffs, 257)
    basis = lagrange_coefficient_matrix(field257, xs)
    assert np.array_equal(triple_loop_product(basis, values, 257), coeffs)


def test_lagrange_matrix_large_prime():
    field = PrimeField(2147483647)
    rng = np.random.default_rng(37)
    n = 9
    coeffs = field.random_array((n, 2), rng)
    xs = field.random_array((n,), rng) % (field.p - 1) + 1
    xs = np.array(sorted(set(int(x) for x in xs))[:n], dtype=np.int64)
    while len(xs) < n:  # pragma: no cover - astronomically unlikely
        xs = np.append(xs, int(xs[-1]) + 1)
    vander = np.array([[pow(int(x), e, field.p) for e in range(n)] for x in xs])
    values = triple_loop_product(vander, coeffs, field.p)
    basis = lagrange_coefficient_matrix(field, xs)
    assert np.array_equal(triple_loop_product(basis, values, field.p), coeffs)


def test_lagrange_matrix_single_point(field257):
    assert lagrange_coefficient_matrix(field257, [42]).tolist() == [[1]]


@pytest.mark.parametrize("xs", [[3, 3], [1, 5, 2, 5], [4, 261]])
def test_lagrange_matrix_rejects_duplicate_points(field257, xs):
    # 261 = 4 mod 257: points are compared as field elements
    with pytest.raises(ConfigurationError, match="not distinct"):
        lagrange_coefficient_matrix(field257, xs)


def test_lagrange_matrix_sixty_points_near_2_31():
    p = 2147483647
    field = PrimeField(p)
    n = 60
    xs = np.array([1 + 35791394 * i for i in range(n)], dtype=np.int64)  # spread over GF(p)
    vander = np.array([[pow(int(x), e, p) for e in range(n)] for x in xs])
    basis = lagrange_coefficient_matrix(field, xs)
    assert np.array_equal(triple_loop_product(basis, vander, p), np.eye(n, dtype=np.int64))


# ---------------------------------------------------------------------------
# decode
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "t,s,d,p_c,bt,bs,bd",
    [
        (3, 2, 2, 2, 2, 3, 2),  # tall, full band
        (4, 1, 3, 3, 1, 2, 2),  # tall, s=1
        (3, 2, 2, 1, 1, 1, 1),  # tall, masked surplus
        (2, 3, 2, 0, 2, 2, 3),  # plain
        (1, 2, 1, 2, 3, 2, 4),  # wide, single output block
        (2, 3, 1, 1, 2, 1, 5),  # wide, single output column
        (2, 2, 2, 1, 2, 2, 2),  # wide, padded bands
        (3, 4, 3, 4, 1, 1, 1),  # wide, padded with surplus masking
    ],
)
def test_decode_round_trip(t, s, d, p_c, bt, bs, bd, field257):
    rng = np.random.default_rng(41)
    a_arr, b_arr, pair = make_pair(t, s, d, p_c, field257, rng, bt=bt, bs=bs, bd=bd)
    p_r = code_geometry(t, s, d, p_c).recovery_threshold
    plan = build_plan(t, s, d, p_c, p_r + 5, field257)
    results = [worker_compute(sh) for sh in encode(plan, pair)]
    want = triple_loop_product(a_arr, b_arr, 257)
    picked = list(rng.permutation(len(results))[:p_r])
    got = decode(plan, [results[i] for i in picked])
    assert got.grid == (t, d)
    assert np.array_equal(got.data, want)


@pytest.mark.parametrize(
    "p,t,s,d,p_c,bt,bs,bd",
    [
        (2147483647, 2, 2, 2, 0, 2, 3, 2),  # plain
        (2147483647, 3, 2, 2, 1, 1, 4, 2),  # tall
        (2147483647, 2, 4, 2, 2, 2, 3, 2),  # wide, two bands
    ],
)
def test_decode_exact_at_large_moduli(p, t, s, d, p_c, bt, bs, bd):
    field = PrimeField(p)
    rng = np.random.default_rng(p % 1000 + t)
    a_arr, b_arr, pair = make_pair(t, s, d, p_c, field, rng, bt=bt, bs=bs, bd=bd)
    p_r = code_geometry(t, s, d, p_c).recovery_threshold
    plan = build_plan(t, s, d, p_c, p_r + 3, field)
    results = [worker_compute(sh) for sh in encode(plan, pair)]
    picked = [results[i] for i in rng.permutation(len(results))[:p_r]]
    got = decode(plan, picked)
    assert np.array_equal(got.data, triple_loop_product(a_arr, b_arr, p))


def test_decode_subset_independent(field257):
    rng = np.random.default_rng(43)
    _, _, pair = make_pair(3, 2, 2, 2, field257, rng)
    plan = build_plan(3, 2, 2, 2, 30, field257)
    results = [worker_compute(sh) for sh in encode(plan, pair)]
    reference = decode(plan, results[:25]).data
    for trial in range(10):
        subset = [results[i] for i in rng.permutation(30)[:25]]
        assert np.array_equal(decode(plan, subset).data, reference)


def test_decode_with_surplus_results(field257):
    rng = np.random.default_rng(47)
    a_arr, b_arr, pair = make_pair(2, 2, 2, 1, field257, rng)
    plan = build_plan(2, 2, 2, 1, 25, field257)
    results = [worker_compute(sh) for sh in encode(plan, pair)]
    got = decode(plan, results)  # all 25, threshold is 15
    assert np.array_equal(got.data, triple_loop_product(a_arr, b_arr, 257))
    # the first 15 given are decoded, not the lowest ids: a wrong product
    # from worker 1, given last, is never read
    spare = results[0]
    tampered = results[:0:-1] + [dataclasses.replace(spare, product=(spare.product + 1) % 257)]
    assert np.array_equal(decode(plan, tampered).data, got.data)
    # but every result given must share the product shape
    tampered[-1] = dataclasses.replace(spare, product=np.zeros((9, 9), np.int64))
    with pytest.raises(ConfigurationError, match="disagree on product shape"):
        decode(plan, tampered)


@pytest.mark.parametrize("p", [29, 257])
def test_decode_every_responder_set_of_a_sparse_code(p):
    # (2,2,3,1) has the live support {2, ..., 24} less one exponent, so its
    # generalized Vandermonde system can be singular mod p for some responder
    # sets: each of the 276 sets of 22 from a pool of 24 decodes exactly or
    # raises, and never yields a wrong product
    field = PrimeField(p)
    rng = np.random.default_rng(p)
    a_arr, b_arr, pair = make_pair(2, 2, 3, 1, field, rng, bt=2, bs=1, bd=1)
    plan = build_plan(2, 2, 3, 1, 24, field)
    assert plan.recovery_threshold == 22 < int(plan.support[-1] - plan.support[0]) + 1
    results = [worker_compute(sh) for sh in encode(plan, pair)]
    want = triple_loop_product(a_arr, b_arr, p)
    outcomes = {"exact": 0, "singular": 0}
    for subset in itertools.combinations(results, 22):
        try:
            got = decode(plan, list(subset))
        except SingularSystemError:
            outcomes["singular"] += 1
            continue
        assert np.array_equal(got.data, want), [r.worker_id for r in subset]
        outcomes["exact"] += 1
    assert outcomes["exact"] > 200 and outcomes["singular"] >= 1, outcomes


def test_build_plan_refuses_a_support_that_aliases_mod_p_minus_1():
    # over GF(23), x**22 = 1: (2,2,3,1)'s exponents 2 and 24 give equal
    # columns for every responder set, so no plan is built
    with pytest.raises(ConfigurationError, match="equal mod 22"):
        build_plan(2, 2, 3, 1, 22, PrimeField(23))
    assert build_plan(2, 2, 3, 1, 22, PrimeField(29)).recovery_threshold == 22


@pytest.mark.parametrize("p", [257, 2147483647])
def test_solve_extraction_rows_match_the_lagrange_basis(p):
    # wherever the support is 0..n-1 the system is the plain Vandermonde
    # matrix, whose inverse's rows are the Lagrange basis coefficients
    field = PrimeField(p)
    rng = np.random.default_rng(p % 1013)
    dense = 0
    for t, s, d in itertools.product(range(1, 4), repeat=3):
        for p_c in range(0, 3):
            geo = code_geometry(t, s, d, p_c)
            n = geo.recovery_threshold
            if geo.support.tolist() != list(range(n)):
                continue
            xs = rng.choice(np.arange(1, min(p, 10**6), dtype=np.int64), n, replace=False)
            ext = geo.exponent_map.extraction.ravel()
            picks = np.eye(n, dtype=np.int64)[:, ext]
            weights = field.solve(field.power_table(xs, geo.support).T, picks).T
            assert np.array_equal(weights, lagrange_coefficient_matrix(field, xs)[ext])
            dense += 1
    assert dense >= 60


def test_decode_below_threshold_raises(field257):
    rng = np.random.default_rng(53)
    _, _, pair = make_pair(3, 2, 2, 2, field257, rng)
    plan = build_plan(3, 2, 2, 2, 30, field257)
    results = [worker_compute(sh) for sh in encode(plan, pair)]
    with pytest.raises(NotEnoughResults) as info:
        decode(plan, results[:24])
    assert info.value.have == 24 and info.value.need == 25


def test_decode_rejects_duplicate_workers(field257):
    rng = np.random.default_rng(59)
    _, _, pair = make_pair(2, 1, 1, 0, field257, rng)
    plan = build_plan(2, 1, 1, 0, 4, field257)
    results = [worker_compute(sh) for sh in encode(plan, pair)]
    with pytest.raises(ConfigurationError):
        decode(plan, [results[0], results[0], results[1]])


def test_decode_rejects_malformed_product(field257):
    rng = np.random.default_rng(61)
    _, _, pair = make_pair(2, 1, 1, 0, field257, rng)
    plan = build_plan(2, 1, 1, 0, 4, field257)
    results = [worker_compute(sh) for sh in encode(plan, pair)]
    bad = WorkerResult(results[0].worker_id, results[0].point, np.zeros((9, 9), dtype=np.int64))
    with pytest.raises(ConfigurationError):
        decode(plan, [bad, results[1]])


def test_decode_rejects_point_that_disagrees_with_plan(field257):
    rng = np.random.default_rng(71)
    _, _, pair = make_pair(3, 2, 2, 2, field257, rng)
    plan = build_plan(3, 2, 2, 2, 30, field257)
    results = [worker_compute(sh) for sh in encode(plan, pair)][:25]
    results[3] = dataclasses.replace(results[3], point=results[3].point + 100)
    with pytest.raises(ConfigurationError, match="worker 4"):
        decode(plan, results)


def test_decode_refuses_a_non_integer_product(field257):
    # a float product would be truncated to a wrong C, not refused
    rng = np.random.default_rng(75)
    _, _, pair = make_pair(3, 2, 2, 2, field257, rng)
    plan = build_plan(3, 2, 2, 2, 30, field257)
    results = [worker_compute(sh) for sh in encode(plan, pair)][:25]
    results[2] = dataclasses.replace(results[2], product=results[2].product + 0.5)
    with pytest.raises(ConfigurationError, match="integers"):
        decode(plan, results)


def test_decode_rejects_worker_outside_pool(field257):
    rng = np.random.default_rng(73)
    _, _, pair = make_pair(3, 2, 2, 2, field257, rng)
    plan = build_plan(3, 2, 2, 2, 30, field257)
    results = [worker_compute(sh) for sh in encode(plan, pair)][:25]
    results[0] = dataclasses.replace(results[0], worker_id=99)
    with pytest.raises(ConfigurationError, match="worker 99"):
        decode(plan, results)


@pytest.mark.parametrize("bad", [0, -3, 21])
def test_stacked_cores_refuse_a_worker_outside_the_pool(field257, bad):
    # (2,2,2,1) with P = 20: 0 and -3 would index the pool from its end and
    # decode a wrong product, 21 would run past it
    rng = np.random.default_rng(76)
    a, b, pair = make_pair(2, 2, 2, 1, field257, rng, bt=2, bs=2, bd=2)
    plan = build_plan(2, 2, 2, 1, 20, field257)
    ids = list(range(1, plan.recovery_threshold + 1))
    products = field257.matmul(*share_stacks(plan, pair, ids))
    assert np.array_equal(interpolate(plan, ids, products).data, triple_loop_product(a, b, 257))
    ids[3] = bad
    message = re.escape(f"worker {bad} is outside the pool 1..20")
    with pytest.raises(ConfigurationError, match=message):
        share_stacks(plan, pair, ids)
    with pytest.raises(ConfigurationError, match=message):
        interpolate(plan, ids, products)


@pytest.mark.parametrize("case", ["2-D stack", "stack too long", "duplicate", "one short"])
def test_interpolate_refuses_a_malformed_responder_set(field257, case):
    # every rule about a responder set is interpolate's, and each breach
    # raises a named error before any solve, never numpy's or a singular one
    rng = np.random.default_rng(78)
    _, _, pair = make_pair(2, 2, 2, 1, field257, rng, bt=2, bs=2, bd=2)
    plan = build_plan(2, 2, 2, 1, 20, field257)
    p_r = plan.recovery_threshold
    ids = list(range(1, p_r + 2))
    products = field257.matmul(*share_stacks(plan, pair, ids))
    stack_error = f"products must be a ({p_r}, rows, cols) stack, got shape "
    workers, stack, error, message = {
        "2-D stack": (ids[:p_r], products[:p_r, 0], ConfigurationError, f"{stack_error}({p_r}, 2)"),
        "stack too long": (
            ids[:p_r], products, ConfigurationError, f"{stack_error}({p_r + 1}, 2, 2)"
        ),
        "duplicate": (
            [*ids[: p_r - 1], 3], products[:p_r], ConfigurationError,
            "duplicate result for worker 3",
        ),
        "one short": (
            ids[: p_r - 1], products[: p_r - 1], NotEnoughResults,
            f"decoding needs {p_r} worker results, got {p_r - 1}",
        ),
    }[case]
    with pytest.raises(error, match=re.escape(message)):
        interpolate(plan, workers, stack)


def test_interpolate_decodes_the_first_threshold_entries(field257):
    # a set one longer than the threshold decodes its first P_R entries: the
    # spare is never read, so a wrong product there changes nothing
    rng = np.random.default_rng(79)
    a, b, pair = make_pair(2, 2, 2, 1, field257, rng, bt=2, bs=2, bd=2)
    plan = build_plan(2, 2, 2, 1, 20, field257)
    ids = list(range(20, 19 - plan.recovery_threshold, -1))
    products = field257.matmul(*share_stacks(plan, pair, ids))
    products[-1] = (products[-1] + 1) % 257
    assert np.array_equal(interpolate(plan, ids, products).data, triple_loop_product(a, b, 257))


def test_worker_compute_refuses_shares_whose_inner_dimensions_disagree(field257):
    share = CodedShare(1, 1, np.zeros((2, 3), np.int64), np.zeros((2, 2), np.int64), field257)
    with pytest.raises(ConfigurationError, match=re.escape("cannot multiply (2, 3) by (2, 2)")):
        worker_compute(share)


# ---------------------------------------------------------------------------
# plan validation
# ---------------------------------------------------------------------------


def test_build_plan_rejects_small_pool(field257):
    with pytest.raises(ConfigurationError) as info:
        build_plan(3, 2, 2, 2, 24, field257)
    assert "25" in str(info.value)


def test_build_plan_rejects_collusion_not_below_pool(field5):
    with pytest.raises(ConfigurationError):
        build_plan(1, 1, 1, 4, 4, field5)


def test_build_plan_needs_enough_points(field5):
    # default points are 1..P and must be distinct nonzero mod p
    with pytest.raises(ConfigurationError):
        build_plan(2, 1, 1, 0, 5, field5)
    with pytest.raises(ConfigurationError, match="need at least one worker, got 0"):
        build_plan(1, 1, 1, 0, 0, field5)
    assert list(build_plan(2, 1, 1, 0, 4, field5).evaluation_points) == [1, 2, 3, 4]


def test_recovery_threshold_is_above_twice_the_collusion_level():
    # each side's P_C + data live exponents are distinct, and two sets of
    # integers have |A + B| >= |A| + |B| - 1, so P_R >= t s + s d + 2 P_C - 1,
    # above 2 P_C: build_plan needs no refusal of P_R < 2 P_C
    at_bound = 0
    for t, s, d, p_c in itertools.product(range(1, 7), range(1, 7), range(1, 7), range(9)):
        geo = code_geometry(t, s, d, p_c)
        lay, bound = geo.layout, t * s + s * d + 2 * p_c - 1
        assert (lay.a_live.sum(), lay.b_live.sum()) == (t * s + p_c, s * d + p_c)
        assert geo.recovery_threshold >= bound, (t, s, d, p_c)
        at_bound += geo.recovery_threshold == bound
    assert at_bound == 114


@pytest.mark.parametrize("name", ["t", "s", "d"])
def test_code_geometry_refuses_an_empty_grid(name):
    dims = {"t": 2, "s": 2, "d": 2, name: 0}
    with pytest.raises(ConfigurationError, match=f"{name} must be >= 1, got 0"):
        code_geometry(dims["t"], dims["s"], dims["d"], 1)


def test_plan_star_dimensions(field257):
    # the augmented grids are the shapes of the layout's live masks
    tall = build_plan(3, 2, 2, 2, 30, field257)
    assert (tall.layout.a_live.shape, tall.layout.b_live.shape) == ((4, 2), (2, 3))
    wide = build_plan(2, 2, 2, 2, 20, field257)
    assert (wide.layout.a_live.shape, wide.layout.b_live.shape) == ((2, 4), (4, 2))


# ---------------------------------------------------------------------------
# exponent audit
# ---------------------------------------------------------------------------


def test_exponent_audit_clean_examples():
    for t, s, d, p_c in [(3, 2, 2, 2), (2, 3, 2, 0), (1, 2, 1, 1), (2, 2, 2, 2)]:
        report = exponent_audit(code_geometry(t, s, d, p_c))
        assert report.clean, report.collisions
        assert report.checked_pairs > 0


def test_exponent_audit_accepts_plan(field257):
    assert exponent_audit(build_plan(3, 2, 2, 2, 30, field257)).clean


def test_exponent_audit_detects_duplicate_exponents():
    geo = code_geometry(3, 2, 2, 2)
    bad_a = geo.exponent_map.a_exponents.copy()
    bad_a[1, 0] = bad_a[0, 0]  # two A blocks now share a monomial
    corrupted = dataclasses.replace(
        geo, exponent_map=dataclasses.replace(geo.exponent_map, a_exponents=bad_a)
    )
    report = exponent_audit(corrupted)
    assert not report.clean and len(report.collisions) >= 1


def test_exponent_audit_detects_random_contamination():
    # drop a live random B column onto a data exponent: products containing it
    # now collide with extraction coefficients
    geo = code_geometry(3, 2, 2, 2)
    bad_b = geo.exponent_map.b_exponents.copy()
    bad_b[0, 2] = bad_b[0, 1]
    corrupted = dataclasses.replace(
        geo, exponent_map=dataclasses.replace(geo.exponent_map, b_exponents=bad_b)
    )
    report = exponent_audit(corrupted)
    assert not report.clean and len(report.collisions) >= 1


def _with_map(geo, **arrays):
    return dataclasses.replace(geo, exponent_map=dataclasses.replace(geo.exponent_map, **arrays))


def _corrupted_geometries(geo, rng):
    """Seeded corruptions of one exponent map: an a- or b-side exponent moved
    or duplicated, an extraction exponent moved or duplicated, and a live
    random block put on a data block's exponent (when the code has one)."""
    emap, lay = geo.exponent_map, geo.layout
    top = geo.recovery_threshold + 2
    for name in ("a_exponents", "b_exponents", "extraction"):
        arr = getattr(emap, name).copy()
        flat = arr.reshape(-1)
        dst = rng.integers(flat.size)
        if rng.integers(2):
            flat[dst] = flat[rng.integers(flat.size)]  # duplicated
        else:
            flat[dst] = rng.integers(top)  # moved
        yield _with_map(geo, **{name: arr})
    for name, live, data_shape in (
        ("a_exponents", lay.a_live, (geo.t, geo.s)),
        ("b_exponents", lay.b_live, (geo.s, geo.d)),
    ):
        data = np.zeros_like(live)
        data[: data_shape[0], : data_shape[1]] = True
        randoms = np.argwhere(live & ~data)
        if len(randoms):
            arr = getattr(emap, name).copy()
            datas = np.argwhere(data)
            arr[tuple(randoms[rng.integers(len(randoms))])] = arr[
                tuple(datas[rng.integers(len(datas))])
            ]
            yield _with_map(geo, **{name: arr})


def _dense_two_band_threshold(geo) -> int:
    """The degree plus one of a two-band code under the plain GPD b map: the
    dense range the sparse placement must beat."""
    a_top = geo.exponent_map.a_exponents[geo.layout.a_live].max()
    return int(a_top + gpd_b_map(geo)[geo.layout.b_live].max()) + 1


def test_sparse_two_band_codes_are_clean_and_lower():
    # the codes with s >= t, min(t, d) >= 2 and P_C <= d take the sparse
    # placement; each passes the audit with a lower threshold.  Above the
    # bound the plain GPD exponents stay
    gated = above = 0
    for t, s, d in itertools.product(range(2, 7), repeat=3):
        for p_c in range(1, 7):
            if s < t:
                continue
            geo = code_geometry(t, s, d, p_c)
            if p_c > d:
                assert np.array_equal(geo.exponent_map.b_exponents, gpd_b_map(geo)), (t, s, d, p_c)
                above += 1
                continue
            b_random = geo.layout.b_live.copy()
            b_random[:s] = False
            width = geo.layout.a_live.shape[1]
            assert sorted(geo.exponent_map.b_exponents[b_random].tolist()) == [
                width * m for m in range(1, p_c + 1)
            ], (t, s, d, p_c)
            report = exponent_audit(geo)
            assert report.clean, (t, s, d, p_c, report.collisions[:2])
            dense = _dense_two_band_threshold(geo)
            assert 2 <= dense - geo.recovery_threshold <= 7, (t, s, d, p_c)
            gated += 1
    assert (gated, above) == (300, 150)
    sweep_code = code_geometry(4, 4, 4, 11)  # the design-audit sweep's two-band row
    assert exponent_audit(sweep_code).clean
    assert (_dense_two_band_threshold(sweep_code), sweep_code.recovery_threshold) == (165, 165)


def test_exponent_audit_matches_looped_oracle_on_clean_maps():
    for t, s, d in itertools.product(range(1, 7), repeat=3):
        for p_c in range(5):
            geo = code_geometry(t, s, d, p_c)
            assert exponent_audit(geo) == looped_exponent_audit(geo), (t, s, d, p_c)


def test_exponent_audit_matches_looped_oracle_on_corrupted_maps():
    dirty = 0
    for t, s, d in itertools.product(range(1, 5), repeat=3):
        for p_c in range(5):
            geo = code_geometry(t, s, d, p_c)
            rng = np.random.default_rng((t, s, d, p_c))
            for _ in range(2):
                for bad in _corrupted_geometries(geo, rng):
                    want = looped_exponent_audit(bad)
                    assert exponent_audit(bad) == want, (t, s, d, p_c)
                    dirty += not want.clean
    assert dirty > 1000  # most corruptions are caught, so the findings text is compared


def test_exponent_audit_catches_a_count_preserving_swap():
    # swapping b[0,0] and b[1,0] of (3,2,2,2) leaves every count at every
    # target at s = 2, but pairs a[i,0] with b[1,0]: only the intended-pair
    # check sees it
    geo = code_geometry(3, 2, 2, 2)
    b = geo.exponent_map.b_exponents.copy()
    b[0, 0], b[1, 0] = b[1, 0], b[0, 0]
    swapped = _with_map(geo, b_exponents=b)
    assert np.array_equal(swapped.sum_counts, geo.sum_counts)
    report = exponent_audit(swapped)
    assert report == looped_exponent_audit(swapped)
    assert report.collisions[0] == "C[0,0] at exponent 1 receives misaligned data pair a[0,0] x b[1,0]"


def test_exponent_audit_matches_looped_oracle_on_every_swap():
    # every swap of two live exponents on one side, t, s, d <= 4, P_C <= 4
    swaps = dirty = 0
    for t, s, d in itertools.product(range(1, 5), repeat=3):
        for p_c in range(5):
            geo = code_geometry(t, s, d, p_c)
            for name, live in (("a_exponents", geo.layout.a_live), ("b_exponents", geo.layout.b_live)):
                for u, v in itertools.combinations(map(tuple, np.argwhere(live)), 2):
                    arr = getattr(geo.exponent_map, name).copy()
                    arr[u], arr[v] = arr[v], arr[u]
                    bad = _with_map(geo, **{name: arr})
                    want = looped_exponent_audit(bad)
                    assert exponent_audit(bad) == want, (t, s, d, p_c, name, u, v)
                    swaps += 1
                    dirty += not want.clean
    assert (swaps, dirty) == (25280, 24000)


def test_clean_exponent_audit_forms_no_per_target_pairs():
    # the clean verdict reads the count: its peak stays below two int64
    # arrays of every live pair, where forming each (target, hit) pair did not
    geo = code_geometry(32, 32, 32, 64)
    tracemalloc.start()
    try:
        report = exponent_audit(geo)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.clean and report.checked_pairs == 1183744
    assert peak < 16 * report.checked_pairs, peak


def test_support_is_where_the_sum_count_is_nonzero():
    for t, s, d in itertools.product(range(1, 5), repeat=3):
        for p_c in range(5):
            geo = code_geometry(t, s, d, p_c)
            counts = geo.sum_counts
            assert np.array_equal(geo.support, np.flatnonzero(counts))
            assert counts.sum() == exponent_audit(geo).checked_pairs
            assert not counts.flags.writeable


@pytest.mark.parametrize("name", ["a_exponents", "b_exponents"])
def test_sum_count_refuses_a_negative_live_exponent(name):
    geo = code_geometry(3, 2, 2, 2)
    arr = getattr(geo.exponent_map, name).copy()
    arr[0, 0] = -3
    bad = _with_map(geo, **{name: arr})
    for read in (lambda g: g.sum_counts, lambda g: g.support, exponent_audit):
        with pytest.raises(ConfigurationError, match="live exponent -3 is negative"):
            read(bad)


@pytest.mark.parametrize("t,s,d,p_c", [(3, 2, 2, 1), (2, 2, 2, 1), (2, 4, 2, 2)])
def test_dead_block_exponents_are_never_read(t, s, d, p_c, field257):
    # a structurally zero block's exponent may repeat a live one: the audit
    # stays clean and the shares do not change
    rng = np.random.default_rng(5)
    _, _, pair = make_pair(t, s, d, p_c, field257, rng, bt=2, bs=1, bd=2)
    plan = build_plan(t, s, d, p_c, code_geometry(t, s, d, p_c).recovery_threshold, field257)
    emap, lay = plan.exponent_map, plan.layout
    arrays = {}
    for name, live in (("a_exponents", lay.a_live), ("b_exponents", lay.b_live)):
        arr = getattr(emap, name).copy()
        arr[~live] = arr[live][0]
        arrays[name] = arr
    assert (~lay.a_live).any() or (~lay.b_live).any()
    moved = _with_map(plan, **arrays)
    assert exponent_audit(moved).clean and exponent_audit(moved) == looped_exponent_audit(moved)
    for mine, want in zip(encode(moved, pair), encode(plan, pair)):
        assert np.array_equal(mine.a_share, want.a_share)
        assert np.array_equal(mine.b_share, want.b_share)


# ---------------------------------------------------------------------------
# shares on disk, communication load
# ---------------------------------------------------------------------------


def test_share_file_round_trip(tmp_path, field257):
    rng = np.random.default_rng(67)
    _, _, pair = make_pair(3, 2, 2, 2, field257, rng, bt=2, bs=1, bd=2)
    plan = build_plan(3, 2, 2, 2, 30, field257)
    share = encode(plan, pair)[4]
    path = tmp_path / "w.share"
    write_share(path, share)
    header = path.read_text().splitlines()[0].split()
    assert [int(x) for x in header] == [
        share.worker_id, share.point,
        share.a_share.shape[0], share.a_share.shape[1],
        share.b_share.shape[0], share.b_share.shape[1],
    ]
    back, (a_back, b_back) = read_text_file(path, 6, slice(2, 6), field257.p)
    assert back[:2] == [share.worker_id, share.point]
    assert np.array_equal(a_back, share.a_share)
    assert np.array_equal(b_back, share.b_share)


@pytest.mark.parametrize(
    "share,expected",
    [
        pytest.param(
            (60, 2**31 - 2, [[0, 2**31 - 2]], [[2**31 - 2], [0]], 2**31 - 1),
            b"60 2147483646 1 2 2 1\n         0 2147483646\n2147483646\n         0\n",
            id="p31-grid",
        ),
        ((1, 2, [[2, 0, 1]], [[0], [2], [1]], 3), b"1 2 1 3 3 1\n2 0 1\n0\n2\n1\n"),
        ((3, 5, np.zeros((2, 0)), [[1, 2, 3]], 7), b"3 5 2 0 1 3\n\n\n1 2 3\n"),
        ((3, 5, [[4], [6]], np.zeros((0, 3)), 7), b"3 5 2 1 0 3\n4\n6\n"),
    ],
)
def test_share_file_bytes_are_pinned(tmp_path, share, expected):
    worker, point, a, b, p = share
    a, b = np.array(a, dtype=np.int64), np.array(b, dtype=np.int64)
    path = tmp_path / "w.share"
    write_share(path, CodedShare(worker, point, a, b, PrimeField(p)))
    assert path.read_bytes() == expected


@pytest.mark.parametrize("entry", [-1, 257])
def test_share_writer_refuses_entries_outside_field(tmp_path, field257, entry):
    path = tmp_path / "w.share"
    share = CodedShare(1, 1, np.array([[5, 6]]), np.array([[7], [entry]]), field257)
    with pytest.raises(ConfigurationError, match="outside") as info:
        write_share(path, share)
    assert str(path) in str(info.value)
    assert not path.exists()


@pytest.mark.parametrize(
    "token,message",
    [("x", "non-integer"), ("300", "outside"), ("-2", "outside")],
)
def test_share_file_rejects_bad_entries(tmp_path, field257, token, message):
    path = tmp_path / "w.share"
    path.write_text(f"1 1 1 2 2 1\n5 {token}\n7\n8\n")
    with pytest.raises(ConfigurationError, match=message) as info:
        read_text_file(path, 6, slice(2, 6), field257.p)
    assert str(path) in str(info.value)


def test_share_file_rejects_non_integer_header(tmp_path, field257):
    path = tmp_path / "w.share"
    path.write_text("1 one 1 1 1 1\n5\n7\n")
    with pytest.raises(ConfigurationError, match="non-integer"):
        read_text_file(path, 6, slice(2, 6), field257.p)


def test_share_file_rejects_negative_dimensions(tmp_path, field257):
    path = tmp_path / "w.share"
    path.write_text("1 1 -1 -2 1 1\n5 6\n7\n")
    with pytest.raises(ConfigurationError, match="negative dimension") as info:
        read_text_file(path, 6, slice(2, 6), field257.p)
    assert str(path) in str(info.value)


def test_communication_load(field257):
    plan = build_plan(3, 2, 2, 2, 30, field257)
    report = communication_load(plan, 6, 6)
    # 25 responders, each returning one 2x3 block of the 6x6 product
    assert report.elements == 25 * 6
    with pytest.raises(ConfigurationError):
        communication_load(plan, 7, 6)


@pytest.mark.parametrize("big_t,big_d", [(-4, 4), (0, 4), (4, -2), (4, 0)])
def test_communication_load_refuses_empty_or_negative_outputs(field257, big_t, big_d):
    # -4 and 0 are multiples of t = 2, yet they would read -60 and 0 elements
    plan = build_plan(2, 2, 2, 1, 20, field257)
    with pytest.raises(ConfigurationError, match="positive multiple"):
        communication_load(plan, big_t, big_d)


# ---------------------------------------------------------------------------
# randomized structural property
# ---------------------------------------------------------------------------


@given(
    st.integers(1, 4), st.integers(1, 4), st.integers(1, 4),
    st.integers(0, 3), st.integers(0, 2**31),
)
@settings(max_examples=30, deadline=None)
def test_construction_threshold_is_tight(t, s, d, p_c, seed):
    """The declared threshold is the number of exponents the product carries."""
    field = PrimeField(65537)
    rng = np.random.default_rng(seed)
    _, _, pair = make_pair(t, s, d, p_c, field, rng)
    geo = code_geometry(t, s, d, p_c)
    coeffs, _ = product_coefficients(pair, geo)
    assert len(coeffs) == geo.recovery_threshold == distinct_live_sums(geo)
    assert exponent_audit(geo).clean
