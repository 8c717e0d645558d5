"""Exponent maps, thresholds, encode/decode, and their independent oracles."""

import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sgpd import (
    ConfigurationError,
    FieldMismatchError,
    NotEnoughResults,
    PrimeField,
    WrongCaseError,
    augment,
    build_plan,
    code_geometry,
    communication_load,
    decode,
    encode,
    exponent_audit,
    naive_secure_threshold,
    partition,
    read_share,
    worker_compute,
    write_share,
)
from sgpd.codec import CodedShare, WorkerResult, _lagrange_coefficient_matrix

from conftest import (
    closed_form_thresholds,
    encoding_terms,
    evaluate_terms,
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
    assert code_geometry(2, 2, 2, 2).recovery_threshold == 18


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
    with pytest.raises(WrongCaseError):
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
    """Term-by-term convolution: degree bound and extraction coefficients."""
    rng = np.random.default_rng(23)
    a_arr, b_arr, pair = make_pair(t, s, d, p_c, field257, rng, bt=1, bs=2, bd=1)
    geo = code_geometry(t, s, d, p_c)
    coeffs, _ = product_coefficients(pair, geo)
    assert max(coeffs) == geo.recovery_threshold - 1
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
    basis = _lagrange_coefficient_matrix(field257, xs)
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
    basis = _lagrange_coefficient_matrix(field, xs)
    assert np.array_equal(triple_loop_product(basis, values, field.p), coeffs)


def test_lagrange_matrix_single_point(field257):
    assert _lagrange_coefficient_matrix(field257, [42]).tolist() == [[1]]


@pytest.mark.parametrize("xs", [[3, 3], [1, 5, 2, 5], [4, 261]])
def test_lagrange_matrix_rejects_duplicate_points(field257, xs):
    # 261 = 4 mod 257: points are compared as field elements
    with pytest.raises(ConfigurationError, match="not distinct"):
        _lagrange_coefficient_matrix(field257, xs)


def test_lagrange_matrix_sixty_points_near_2_31():
    p = 2147483647
    field = PrimeField(p)
    n = 60
    xs = np.array([1 + 35791394 * i for i in range(n)], dtype=np.int64)  # spread over GF(p)
    vander = np.array([[pow(int(x), e, p) for e in range(n)] for x in xs])
    basis = _lagrange_coefficient_matrix(field, xs)
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
    got = decode(plan, results)  # all 25, threshold is 17
    assert np.array_equal(got.data, triple_loop_product(a_arr, b_arr, 257))


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


def test_decode_rejects_worker_outside_pool(field257):
    rng = np.random.default_rng(73)
    _, _, pair = make_pair(3, 2, 2, 2, field257, rng)
    plan = build_plan(3, 2, 2, 2, 30, field257)
    results = [worker_compute(sh) for sh in encode(plan, pair)][:25]
    results[0] = dataclasses.replace(results[0], worker_id=99)
    with pytest.raises(ConfigurationError, match="worker 99"):
        decode(plan, results)


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
    assert build_plan(2, 1, 1, 0, 4, field5).evaluation_points.tolist() == [1, 2, 3, 4]


def test_build_plan_custom_points(field257):
    plan = build_plan(2, 1, 1, 0, 3, field257, evaluation_points=[5, 17, 101])
    assert plan.evaluation_points.tolist() == [5, 17, 101]
    for bad in ([5, 17], [5, 17, 5], [5, 17, 0]):
        with pytest.raises(ConfigurationError):
            build_plan(2, 1, 1, 0, 3, field257, evaluation_points=bad)


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
    back = read_share(path, field257)
    assert back.worker_id == share.worker_id and back.point == share.point
    assert np.array_equal(back.a_share, share.a_share)
    assert np.array_equal(back.b_share, share.b_share)


@pytest.mark.parametrize(
    "share,expected",
    [
        (
            (60, 2**31 - 2, [[0, 2**31 - 2]], [[2**31 - 2], [0]], 2**31 - 1),
            b"60 2147483646 1 2 2 1\n0 2147483646\n2147483646\n0\n",
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
        read_share(path, field257)
    assert str(path) in str(info.value)


def test_share_file_rejects_non_integer_header(tmp_path, field257):
    path = tmp_path / "w.share"
    path.write_text("1 one 1 1 1 1\n5\n7\n")
    with pytest.raises(ConfigurationError, match="non-integer"):
        read_share(path, field257)


def test_share_file_rejects_negative_dimensions(tmp_path, field257):
    path = tmp_path / "w.share"
    path.write_text("1 1 -1 -2 1 1\n5 6\n7\n")
    with pytest.raises(ConfigurationError, match="negative dimension") as info:
        read_share(path, field257)
    assert str(path) in str(info.value)


def test_communication_load(field257):
    plan = build_plan(3, 2, 2, 2, 30, field257)
    report = communication_load(plan, 6, 6)
    assert report.per_worker == 6
    assert report.elements == 25 * 6
    assert report.lower_bound == 36
    with pytest.raises(ConfigurationError):
        communication_load(plan, 7, 6)


# ---------------------------------------------------------------------------
# randomized structural property
# ---------------------------------------------------------------------------


@given(
    st.integers(1, 4), st.integers(1, 4), st.integers(1, 4),
    st.integers(0, 3), st.integers(0, 2**31),
)
@settings(max_examples=30, deadline=None)
def test_construction_threshold_is_tight(t, s, d, p_c, seed):
    """The declared threshold equals 1 + the realized product degree."""
    field = PrimeField(65537)
    rng = np.random.default_rng(seed)
    _, _, pair = make_pair(t, s, d, p_c, field, rng)
    geo = code_geometry(t, s, d, p_c)
    coeffs, _ = product_coefficients(pair, geo)
    live_max = max(coeffs)
    assert live_max <= geo.recovery_threshold - 1
    assert exponent_audit(geo).clean
