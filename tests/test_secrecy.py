"""Exact leakage audit over tiny fields.

Security here means: for every admissible coalition, the distribution of the
coalition's observations is the same for every assignment of the data
matrices.  The audit decides this by rank over GF(p), so SECURE is a theorem
about the instance, not a sample; the brute-force enumeration in
``conftest.py`` counts every assignment and must agree field for field.
"""

import dataclasses
import itertools
import tracemalloc
from math import comb

import numpy as np
import pytest

from sgpd import (
    MAX_AUDIT_SIZE,
    AuditInstance,
    BudgetExceeded,
    ConfigurationError,
    PrimeField,
    SubsetVerdict,
    audit_all_subsets,
    build_plan,
    code_geometry,
    codec,
    decode,
    encode,
    report_lines,
    secrecy_audit,
    worker_compute,
)
from sgpd.codec import ExponentMap
from sgpd.secrecy_audit import _check_audit_size, _rank_tables, _ranks

from conftest import (
    block,
    enumerated_subset_verdict,
    gpd_b_map,
    make_pair,
    observation_matrix,
    triple_loop_product,
    verdict_fields,
)


@pytest.fixture(scope="module")
def micro_tall():
    return AuditInstance(2, 1, 1, 1, 4, PrimeField(5), 2, 1, 1)


def test_micro_tall_is_secure(micro_tall):
    verdict = audit_all_subsets(micro_tall)
    assert verdict.secure
    assert verdict.cases_per_subset == 3125  # 5 data + random symbols over GF(5)
    assert len(verdict.subsets) == 4
    for sub in verdict.subsets:
        assert sub.secure
        assert sub.rank_random == 2  # observations cover GF(5)^2 uniformly


def test_negative_control_flips_to_insecure(micro_tall):
    control = AuditInstance(2, 1, 1, 1, 4, PrimeField(5), 2, 1, 1, negative_control=True)
    verdict = audit_all_subsets(control)
    assert not verdict.secure
    assert any(not sub.secure for sub in verdict.subsets)
    # shares without randomness are a deterministic function of the data
    assert all(sub.rank_random == 0 for sub in verdict.subsets)


def test_micro_wide_is_secure():
    inst = AuditInstance(1, 1, 1, 1, 4, PrimeField(5), 1, 1, 1)
    assert audit_all_subsets(inst).secure
    control = AuditInstance(1, 1, 1, 1, 4, PrimeField(5), 1, 1, 1, negative_control=True)
    assert not audit_all_subsets(control).secure


def test_smaller_coalitions_also_learn_nothing():
    inst = AuditInstance(2, 1, 1, 2, 3, PrimeField(5), 2, 1, 1)
    for subset in [(1, 3), (2,)]:  # the second is below the collusion bound
        rank, full_rank = _ranks(inst, subset, _rank_tables(inst))
        assert rank == full_rank, subset


def test_budget_refusal():
    # 1000 workers have 499,500 coalitions of two, each ranking 12 entries:
    # refused before any rank
    inst = AuditInstance(1, 1, 1, 2, 1000, PrimeField(1009), 1, 1, 1)
    with pytest.raises(BudgetExceeded) as info:
        audit_all_subsets(inst)
    assert (info.value.coalitions, info.value.size, info.value.cap) == (
        499500, 12, MAX_AUDIT_SIZE
    )


@pytest.mark.parametrize(
    "n,k",
    [(447, 2), (448, 2), (10**5, 1), (10**5 + 1, 10**5), (1000, 40), (60, 30),
     (258, 2), (259, 2), (10**5 + 1, 1), (446, 446), (447, 447)],
)
def test_coalition_cap_is_decided_exactly(n, k):
    # (1,1,1) ranks k x (2k + 2) entries per coalition: C(258, 2) * 12 =
    # 397,836 is under the cap and C(259, 2) * 12 = 400,932 over it, 10^5
    # coalitions of 4 entries reach it exactly, and one coalition of 446
    # (398,724) is under it and of 447 (400,512) over it; past 30 digits the
    # refusal names the count's power of ten
    count, size = comb(n, k), k * (2 * k + 2)
    if count * size <= MAX_AUDIT_SIZE:
        _check_audit_size(n, k, size)
        return
    with pytest.raises(BudgetExceeded) as info:
        _check_audit_size(n, k, size)
    assert info.value.size == size
    if count < 10**30:
        assert (info.value.coalitions, info.value.exponent) == (count, None)
    else:
        assert (info.value.coalitions, info.value.exponent) == (None, len(str(count)) - 1)


def test_cap_charges_each_coalition_by_its_rank_size(monkeypatch):
    # 200 coalitions of 199 workers are few, but each ranks 199 x 400 entries
    # (about 0.06 s a coalition): refused before any rank is taken, while one
    # coalition of all 200 workers (80,400 entries) is audited
    def no_rank(*_):
        raise AssertionError("a rank was taken")

    field = PrimeField(401)
    inst = AuditInstance(1, 1, 1, 199, 200, field, 1, 1, 1)
    monkeypatch.setattr(secrecy_audit, "_ranks", no_rank)
    with pytest.raises(BudgetExceeded) as info:
        audit_all_subsets(inst)
    assert (info.value.coalitions, info.value.size) == (200, 79600)
    monkeypatch.undo()
    verdict = audit_all_subsets(AuditInstance(1, 1, 1, 200, 200, field, 1, 1, 1))
    assert verdict.secure and len(verdict.subsets) == 1


def test_negative_control_charged_like_the_real_audit():
    # the control has no randomness but checks the same coalitions as the
    # instance it mimics, so a pool that blocks the audit also blocks its control
    control = AuditInstance(1, 1, 1, 2, 1000, PrimeField(1009), 1, 1, 1, negative_control=True)
    with pytest.raises(BudgetExceeded) as info:
        audit_all_subsets(control)
    assert (info.value.coalitions, info.value.size, info.value.cap) == (
        499500, 12, MAX_AUDIT_SIZE
    )


@pytest.mark.parametrize(
    "p_c,workers,p", [(5 * 10**5, 10**6, 1000003), (2, 10**7, 10000019)]
)
def test_cap_refusal_allocates_nothing_of_pool_size(p_c, workers, p):
    # the geometry grows with P_C and a point array with P: neither is built
    # before the cap refuses (the first case's geometry alone is about 16 MB)
    field = PrimeField(p)
    tracemalloc.start()
    try:
        inst = AuditInstance(1, 1, 1, p_c, workers, field, 1, 1, 1)
        with pytest.raises(BudgetExceeded):
            audit_all_subsets(inst)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20, peak


def test_instance_validation():
    with pytest.raises(ConfigurationError):
        AuditInstance(2, 1, 1, 1, 5, PrimeField(5), 2, 1, 1)  # needs p > workers
    with pytest.raises(ConfigurationError):
        AuditInstance(2, 1, 1, 1, 4, PrimeField(5), 3, 1, 1)  # t does not divide T
    with pytest.raises(ConfigurationError):
        AuditInstance(2, 1, 1, 0, 4, PrimeField(5), 2, 1, 1)  # nothing to audit


def test_report_lines_shape(micro_tall):
    verdict = audit_all_subsets(micro_tall)
    lines = report_lines(micro_tall, verdict)
    assert lines[0].startswith("instance t=2 s=1 d=1")
    assert lines[-1] == "verdict=SECURE"
    assert sum("verdict=SECURE" in ln for ln in lines[1:-1]) == 4


def test_observed_support_matches_collusion_dimension():
    # two colluding workers observe 4 symbols; the randomness alone spans all
    # of them, so the observed support is p^4
    inst = AuditInstance(2, 1, 1, 2, 3, PrimeField(5), 2, 1, 1)
    assert _ranks(inst, (1, 2), _rank_tables(inst)) == (4, 4)


@pytest.mark.parametrize(
    "t,s,d,p_c",
    [(3, 2, 2, 2), (1, 2, 2, 2), (2, 2, 2, 2)],
    ids=["tall", "single-band-wide", "two-band-wide"],
)
def test_observation_matrix_is_the_encoders_map(t, s, d, p_c):
    # the audit's linear model, applied to the augmented blocks in its
    # documented variable order, must give the real encoder's shares
    field = PrimeField(257)
    rng = np.random.default_rng(41)
    bt, bs, bd = 2, 3, 2
    _, _, pair = make_pair(t, s, d, p_c, field, rng, bt=bt, bs=bs, bd=bd)
    plan = build_plan(t, s, d, p_c, 40, field)
    shares = encode(plan, pair)
    inst = AuditInstance(t, s, d, p_c, 40, field, t * bt, s * bs, d * bd)
    lay = pair.layout
    corner_a = [(i, j) for i in range(t) for j in range(s)]
    corner_b = [(k, l) for k in range(s) for l in range(d)]
    random_a = [tuple(ij) for ij in np.argwhere(lay.a_live) if tuple(ij) not in corner_a]
    random_b = [tuple(kl) for kl in np.argwhere(lay.b_live) if tuple(kl) not in corner_b]
    x = np.concatenate(
        [block(pair.a_star, *ij).ravel() for ij in corner_a]
        + [block(pair.b_star, *kl).ravel() for kl in corner_b]
        + [block(pair.a_star, *ij).ravel() for ij in random_a]
        + [block(pair.b_star, *kl).ravel() for kl in random_b]
    )
    for subset in [(1, 2), (7, 40), (3, 17, 29)]:
        observed = observation_matrix(inst, subset) @ x % field.p
        expected = np.concatenate(
            [np.concatenate([shares[w - 1].a_share.ravel(), shares[w - 1].b_share.ravel()])
             for w in subset]
        )
        assert np.array_equal(observed, expected), subset


def _oracle_grid():
    """t, s, d <= 3, P_C <= 2, p in {2, 3, 5, 7}, P in P_C..P_C + 2 (below p),
    one entry per block, with and without the negative control, kept where
    the enumeration stays below 3 * 10**5 assignments (counting the claimed
    randomness even for a control, which has none)."""
    for t, s, d in itertools.product(range(1, 4), repeat=3):
        for p_c, p in itertools.product((1, 2), (2, 3, 5, 7)):
            for workers in range(p_c, min(p_c + 2, p - 1) + 1):
                for negative in (False, True):
                    inst = AuditInstance(t, s, d, p_c, workers, PrimeField(p), t, s, d, negative)
                    ea, eb, n_data = inst.entry_sizes()
                    n_vars = n_data + p_c * (ea + eb)
                    if comb(workers, p_c) * p**n_vars <= 3 * 10**5:
                        yield inst


def assert_matches_enumeration(inst, verdict):
    expected = tuple(enumerated_subset_verdict(inst, v.subset) for v in verdict.subsets)
    assert tuple(map(verdict_fields, verdict.subsets)) == expected, inst


def test_rank_audit_matches_enumeration_on_grid():
    grid = list(_oracle_grid())
    assert len(grid) == 250
    for inst in grid:
        verdict = audit_all_subsets(inst)
        assert_matches_enumeration(inst, verdict)
        assert not (inst.negative_control and verdict.secure), inst


def test_rank_audit_matches_enumeration_on_insecure_code():
    # over GF(3), x**2 = 1 for every nonzero x, so exponents alias and two
    # colluders see the data of the two-band wide code
    inst = AuditInstance(2, 2, 2, 2, 2, PrimeField(3), 2, 2, 2)
    verdict = audit_all_subsets(inst)
    assert verdict.cases_per_subset == 531441 and not verdict.secure
    assert_matches_enumeration(inst, verdict)


def test_rank_audit_matches_enumeration_below_collusion_level():
    inst = AuditInstance(2, 1, 1, 2, 3, PrimeField(5), 2, 1, 1)
    for size in range(inst.p_c + 1):  # the empty coalition included
        for subset in itertools.combinations(range(1, 4), size):
            want = enumerated_subset_verdict(inst, subset)
            verdict = SubsetVerdict(subset, *_ranks(inst, subset, _rank_tables(inst)))
            assert verdict_fields(verdict) == want, subset


def test_block_ranks_match_the_entry_level_matrix():
    # beyond the enumeration's reach: blocks of 6 A entries and 3 B entries
    # (unequal, so the sides cannot be confused), moduli up to 2**31 - 1 and
    # coalitions of three; the entry-level oracle gives rank[M_r] from its
    # random columns, rank[M_r | M_d] from all of them
    pairs = insecure = 0
    for t, s, d in itertools.product(range(1, 4), repeat=3):
        for p_c, p in itertools.product((1, 2, 3), (3, 257, 2**31 - 1)):
            workers = min(p_c + 1, p - 1)
            if p_c > workers:
                continue
            for negative in (False, True):
                inst = AuditInstance(
                    t, s, d, p_c, workers, PrimeField(p), 2 * t, 3 * s, d, negative
                )
                n_data, tables = inst.entry_sizes()[2], _rank_tables(inst)
                for subset in itertools.combinations(range(1, workers + 1), p_c):
                    matrix = observation_matrix(inst, subset)
                    rank_r = len(inst.field.pivot_columns(matrix[:, n_data:]))
                    expected = (rank_r, len(inst.field.pivot_columns(matrix)))
                    assert _ranks(inst, subset, tables) == expected, (inst, subset)
                    pairs += 1
                    insecure += not negative and expected[0] != expected[1]
    assert pairs == 1134 and insecure > 0


def _two_elimination_ranks(inst, subset):
    """The ranks as two eliminations per side take them, on a power table
    over the coalition's own points: rank[V_r] from the random columns alone,
    rank[V_r | V_d] from all of them."""
    geo, (ea, eb, _) = inst.geometry, inst.entry_sizes()
    points = codec.worker_points(codec.pool_points(inst.n_workers, inst.field), subset)
    rank_r = rank = 0
    for exps, live, random, entries in (
        (geo.exponent_map.a_exponents, geo.layout.a_live, geo.layout.a_random, ea),
        (geo.exponent_map.b_exponents, geo.layout.b_live, geo.layout.b_random, eb),
    ):
        kept = random & (not inst.negative_control)
        table = inst.field.power_table(points, np.concatenate([exps[kept], exps[live & ~random]]))
        rank_r += entries * len(inst.field.pivot_columns(table[:, : kept.sum()]))
        rank += entries * len(inst.field.pivot_columns(table))
    return rank_r, rank


def test_one_elimination_per_side_gives_both_ranks():
    # every coalition of t, s, d, P_C <= 3 with pools of P_C..P_C + 3 workers:
    # the pivots of one elimination of the pool table's coalition rows give
    # what two eliminations of the coalition's own table give
    coalitions = leaking = 0
    for t, s, d, p_c in itertools.product(range(1, 4), repeat=4):
        for workers, p, negative in itertools.product(
            range(p_c, p_c + 4), (257, 65537), (False, True)
        ):
            inst = AuditInstance(t, s, d, p_c, workers, PrimeField(p), 2 * t, 3 * s, d, negative)
            tables = _rank_tables(inst)
            for subset in itertools.combinations(range(1, workers + 1), p_c):
                expected = _two_elimination_ranks(inst, subset)
                assert _ranks(inst, subset, tables) == expected, (inst, subset)
                coalitions += 1
                leaking += expected[0] != expected[1]
    assert coalitions == 7020 and leaking > 0


def test_pool_tables_keep_a_large_pool_audit_small():
    # 11,764 coalitions of one worker at 34 rank entries each, just under the
    # cap: the audit holds one pool table of 11,764 x 17 entries per side and
    # no table of every power up to the top exponent (about 300 of them)
    inst = AuditInstance(16, 1, 16, 1, 11764, PrimeField(2**31 - 1), 16, 1, 16)
    tracemalloc.start()
    try:
        verdict = audit_all_subsets(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict.secure and len(verdict.subsets) == 11764
    assert peak < 6 * 10**6, peak


@pytest.mark.parametrize("p", [2, 7, 65537, 2**31 - 1])
def test_rank_of_a_known_factorisation(p):
    # [I; X] @ [I | Y] has rank r exactly, whatever X and Y; a step that
    # skipped a reduction mod p would take a multiple of p for a pivot or,
    # at p = 2**31 - 1, overflow int64
    field = PrimeField(p)
    rng = np.random.default_rng(17)
    for n, m, r in [(6, 9, 4), (9, 6, 6), (7, 7, 5), (5, 5, 0), (0, 4, 0)]:
        left = np.vstack([np.eye(r, dtype=np.int64), field.random_array((n - r, r), rng)])
        right = np.hstack([np.eye(r, dtype=np.int64), field.random_array((r, m - r), rng)])
        matrix = field.matmul(left, right)[rng.permutation(n)][:, rng.permutation(m)]
        assert len(field.pivot_columns(matrix)) == r, (n, m, r)


def test_wide_cli_plan_is_secure_at_block_level():
    # the sparse two-band code (2,4,2,2) with P = 60 at p = 2**31 - 1: B's
    # random blocks sit at exponents 6 and 12, and every one of the 1,770
    # coalitions of two still sees randomness covering the data; without
    # the randomness every coalition sees the data
    for negative in (False, True):
        inst = AuditInstance(
            2, 4, 2, 2, 60, PrimeField(2**31 - 1), 128, 256, 128, negative
        )
        tables = _rank_tables(inst)
        verdicts = [
            rank == full_rank
            for rank, full_rank in (
                _ranks(inst, subset, tables) for subset in itertools.combinations(range(1, 61), 2)
            )
        ]
        assert verdicts == [not negative] * comb(60, 2) and len(verdicts) == 1770
    emap, lay = inst.geometry.exponent_map, inst.geometry.layout
    assert sorted(emap.b_exponents[lay.b_live][-2:].tolist()) == [6, 12]


def test_sparse_placement_keeps_every_coalition_the_gpd_map_kept():
    # B's random exponents move from c + t*s_w*l (GPD) to s_w*m (sparse), so
    # a coalition's random map on B is a Vandermonde matrix in x**s_w instead
    # of x**(t*s_w): full rank wherever it was.  A's map is unchanged, so no
    # coalition the GPD placement kept secure leaks.  Points 4**k are the
    # 8th roots of unity mod 257, where such powers collide
    field = PrimeField(257)
    points = [1, 2, 3, 4, 16, 64, 128, 129, 241, 256]
    gained = 0
    for t, s, d in itertools.product(range(2, 5), repeat=3):
        for p_c in range(2, d + 1):
            if s < t:
                continue
            geo = code_geometry(t, s, d, p_c)
            random = geo.layout.b_live.copy()
            random[:s] = False
            sparse = geo.exponent_map.b_exponents[random]
            dense = gpd_b_map(geo)[random]
            for subset in itertools.combinations(points, p_c):
                kept = len(field.pivot_columns(field.power_table(subset, sparse)))
                was = len(field.pivot_columns(field.power_table(subset, dense)))
                assert kept >= was, (t, s, d, p_c, subset)
                gained += kept > was
    assert gained > 0


def test_above_the_bound_the_gpd_placement_keeps_small_fields_secure():
    # (2,2,2,3) has P_C > d, so B keeps the GPD exponents.  The multiples of
    # s_w = 6 would give workers x and 257 - x equal 6th powers, hence the
    # same randomness on B, and the coalitions below would see B's data
    inst = AuditInstance(2, 2, 2, 3, 256, PrimeField(257), 2, 2, 2)
    coalitions = [(1, 2, 256), (2, 128, 129)]
    for subset in coalitions:
        rank, full_rank = _ranks(inst, subset, _rank_tables(inst))
        assert rank == full_rank, subset
    geo, random = inst.geometry, inst.geometry.layout.b_live.copy()
    random[:2] = False
    b = geo.exponent_map.b_exponents.copy()
    b[random] = 6 * np.arange(1, 4)
    emap = ExponentMap(geo.exponent_map.a_exponents, b, geo.exponent_map.extraction)
    object.__setattr__(inst, "geometry", dataclasses.replace(geo, exponent_map=emap))
    for subset in coalitions:
        rank, full_rank = _ranks(inst, subset, _rank_tables(inst))
        assert rank < full_rank, subset


def test_plan_shares_decode_and_audit_read_one_point_rule(monkeypatch):
    # (2,2,2,2) over GF(257) with 19 workers leaks where two points share a
    # 4th power on B: 1 and 16, 15 and 17.  Moving every worker w to the
    # point w + 1 in the one rule moves the plan, its shares, its decode and
    # the audit together, so only workers 14 and 16 (points 15, 17) leak
    field = PrimeField(257)
    inst = AuditInstance(2, 2, 2, 2, 19, field, 2, 2, 2)
    leaks = [v.subset for v in audit_all_subsets(inst).subsets if not v.secure]
    assert leaks == [(1, 16), (15, 17)]
    monkeypatch.setattr(codec, "pool_points", lambda n_workers, field: range(2, n_workers + 2))
    inst = AuditInstance(2, 2, 2, 2, 19, field, 2, 2, 2)
    leaks = [v.subset for v in audit_all_subsets(inst).subsets if not v.secure]
    assert leaks == [(14, 16)]
    n_data, coalitions = inst.entry_sizes()[2], 0
    for subset in itertools.combinations(range(1, 20), 2):
        matrix = observation_matrix(inst, subset)
        expected = (len(field.pivot_columns(matrix[:, n_data:])), len(field.pivot_columns(matrix)))
        assert _ranks(inst, subset, _rank_tables(inst)) == expected, subset
        coalitions += 1
    assert coalitions == 171
    plan = build_plan(2, 2, 2, 2, 19, field)
    assert list(plan.evaluation_points) == list(range(2, 21))
    a, b, pair = make_pair(2, 2, 2, 2, field, np.random.default_rng(16), bt=2, bs=2, bd=2)
    shares = encode(plan, pair)
    assert [sh.point for sh in shares] == [sh.worker_id + 1 for sh in shares]
    product = decode(plan, [worker_compute(sh) for sh in shares])
    assert np.array_equal(product.data, triple_loop_product(a, b, field.p))
