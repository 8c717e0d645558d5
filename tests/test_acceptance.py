"""Acceptance suite: one test per acceptance criterion, one verdict line each.

Run with ``pytest -v tests/test_acceptance.py``; the verbose listing shows a
single PASSED/FAILED line per criterion.  Criterion 2 additionally writes
``threshold_discrepancies.txt`` into its pytest temporary directory,
documenting closed-form variants that deliberately do not match the
implemented construction.
"""

import itertools
from fractions import Fraction
from math import sqrt

import numpy as np
import pytest

from sgpd import (
    AuditInstance,
    LatencyModel,
    NotEnoughResults,
    PrimeField,
    audit_all_subsets,
    build_plan,
    code_geometry,
    decode,
    encode,
    exponent_audit,
    latency_sweep,
    naive_secure_threshold,
    worker_compute,
)
from sgpd.cli import sweep_rows

from conftest import (
    closed_form_thresholds,
    enumerated_subset_verdict,
    make_pair,
    paper_support,
    triple_loop_product,
    verdict_fields,
)


def test_criterion_1_end_to_end_exactness():
    """200+ randomized configurations decode to the exact product."""
    rng = np.random.default_rng(20260814)
    fields = {257: PrimeField(257), 65537: PrimeField(65537)}
    runs = 0
    seen_cases = set()
    seen_p_c = set()
    while runs < 200:
        t, s, d = (int(v) for v in rng.integers(1, 5, size=3))
        p_c = int(rng.integers(0, 4))
        field = fields[257 if runs % 2 else 65537]
        p_r = code_geometry(t, s, d, p_c).recovery_threshold
        pool = p_r + int(rng.integers(0, 4))
        plan = build_plan(t, s, d, p_c, pool, field)
        bt, bs, bd = (int(v) for v in rng.integers(1, 3, size=3))
        a_arr, b_arr, pair = make_pair(t, s, d, p_c, field, rng, bt=bt, bs=bs, bd=bd)
        results = [worker_compute(sh) for sh in encode(plan, pair)]
        picked = [results[i] for i in rng.permutation(pool)[:p_r]]
        got = decode(plan, picked)
        want = triple_loop_product(a_arr, b_arr, field.p)
        assert np.array_equal(got.data, want), (t, s, d, p_c)
        seen_cases.add(plan.case)
        seen_p_c.add(p_c)
        runs += 1
    assert runs >= 200
    assert {"secure-tall", "secure-wide", "non-secure"} <= seen_cases
    assert seen_p_c == {0, 1, 2, 3}


def test_criterion_2_threshold_closed_forms(tmp_path):
    """Construction-derived thresholds equal the closed forms on the grid.

    Each secure code keeps the smaller of the paper's map and the run map.
    Asserted exactly: p_c=0, and the smaller of the paper's form and the
    run form for every s<t case (both branches of the paper's form) and
    every s>=t case with a single random band (a single-row/column output
    grid).  Two-band wide codes are asserted at or below both the paper's
    two-band degree form and the run form, and equal to the smaller of the
    run form and the paper's support counted by the oracle; their
    thresholds intentionally differ from the single-band closed form, and
    those values, plus the recorded closed-form variants, go to
    threshold_discrepancies.txt under tmp_path.
    """
    asserted = 0
    branch_zero = branch_pos = 0
    lines = [
        "# Closed-form threshold values that do not match the implemented",
        "# construction, recorded while asserting criterion 2 on the grid",
        "# t,s,d in [1,6], p_c in [0,4].  The construction threshold is the",
        "# authoritative recovery threshold; each variant below is a recorded",
        "# alternative closed form that disagrees with it (or with the form",
        "# that is asserted), kept for reference and never asserted.",
        "#",
        "# kind=two_band_wide: s>=t with min(t,d)>=2 and p_c>=1.  The",
        "#   decodable construction pads both operands (two bands).  Its",
        "#   threshold is the size of its live support, the smaller of the",
        "#   paper's map (sparse where p_c<=d puts B's random blocks on the",
        "#   multiples of the inner width) and the run map, and still",
        "#   exceeds the single-band closed form recorded here.",
        "# kind=degree_count_variant: s<t alternative count that differs from",
        "#   the asserted closed form by an off-by-one / bookkeeping slip.",
        "# kind=square_special_variant: the square-grid (t=d) special form,",
        "#   shown with both divisibility readings of its guard condition.",
        "# kind=baseline_printed_variant: printed baseline threshold whose",
        "#   grid dimension differs from the dimensionally consistent one.",
    ]
    for t, s, d in itertools.product(range(1, 7), repeat=3):
        for p_c in range(0, 5):
            geo = code_geometry(t, s, d, p_c)
            p_r = geo.recovery_threshold
            forms = closed_form_thresholds(t, s, d, p_c)
            if p_c == 0:
                assert p_r == forms["unsecured"] == t * s * d + s - 1, (t, s, d)
                asserted += 1
                continue
            if s < t:
                assert p_r == min(forms["tall"], forms["runs"]), (t, s, d, p_c)
                # the sweep's naive_P_R column is the library's baseline threshold
                assert forms["naive_tall"] == naive_secure_threshold(t, s, d, p_c), (t, s, d, p_c)
                asserted += 1
                z = s * geo.layout.delta - p_c
                if z == 0:
                    branch_zero += 1
                else:
                    branch_pos += 1
                if forms["tall_degree_variant"] != forms["tall"]:
                    lines.append(
                        f"kind=degree_count_variant t={t} s={s} d={d} pc={p_c} "
                        f"construction={p_r} variant={forms['tall_degree_variant']}"
                    )
                if forms.get("naive_tall_variant", forms["naive_tall"]) != forms["naive_tall"]:
                    lines.append(
                        f"kind=baseline_printed_variant t={t} s={s} d={d} pc={p_c} "
                        f"baseline={forms['naive_tall']} "
                        f"variant={forms['naive_tall_variant']}"
                    )
                continue
            # s >= t, p_c >= 1
            if min(t, d) == 1:
                assert p_r == min(forms["wide_general"], forms["runs"]), (t, s, d, p_c)
                asserted += 1
            else:
                assert p_r <= min(forms["two_band_dense"], forms["runs"]), (t, s, d, p_c)
                assert p_r == min(len(paper_support(t, s, d, p_c)), forms["runs"])
                lines.append(
                    f"kind=two_band_wide t={t} s={s} d={d} pc={p_c} "
                    f"construction={p_r} single_band={forms['wide_general']}"
                )
            if "wide_special" in forms and forms["wide_special"] != p_r:
                lines.append(
                    f"kind=square_special_variant t={t} s={s} d={d} pc={p_c} "
                    f"construction={p_r} variant={forms['wide_special']} "
                    f"guard_div_s={forms['wide_special_applies_div_s']} "
                    f"guard_div_min={forms['wide_special_applies_div_min']}"
                )
    assert branch_zero > 0 and branch_pos > 0  # both s<t branches exercised
    assert asserted > 600
    artifact = tmp_path / "threshold_discrepancies.txt"
    artifact.write_text("\n".join(lines) + "\n")
    assert any(ln.startswith("kind=two_band_wide") for ln in artifact.read_text().splitlines())


def test_criterion_3_subset_independence(field257):
    """50 random minimum-size subsets decode identically; one fewer fails."""
    rng = np.random.default_rng(30)
    plan = build_plan(3, 2, 2, 2, 30, field257)
    forms = closed_form_thresholds(3, 2, 2, 2)
    p_r = min(forms["tall"], forms["runs"])  # 24, the run map's: 25 on the paper's
    assert plan.recovery_threshold == p_r == 24
    _, _, pair = make_pair(3, 2, 2, 2, field257, rng, bt=2, bs=2, bd=2)
    results = [worker_compute(sh) for sh in encode(plan, pair)]
    reference = decode(plan, results[:p_r]).data
    for _ in range(50):
        subset = [results[i] for i in rng.permutation(30)[:p_r]]
        assert np.array_equal(decode(plan, subset).data, reference)
    with pytest.raises(NotEnoughResults):
        decode(plan, results[: p_r - 1])
    short = [results[i] for i in rng.permutation(30)[: p_r - 1]]
    with pytest.raises(NotEnoughResults):
        decode(plan, short)


def test_criterion_4_reduction_points():
    """Collusion-free plans reproduce the two classic code families exactly."""
    for m in (4, 12, 36):
        for s in range(1, m + 1):
            if m % s:
                continue
            t = d = m // s
            geo = code_geometry(t, s, d, 0)
            assert geo.recovery_threshold == t * s * d + s - 1
            assert geo.normalized_load == Fraction(t * s * d + s - 1, t * d)
        one = code_geometry(m, 1, m, 0)
        assert one.recovery_threshold == m * m  # one evaluation per output block
        assert one.normalized_load == 1
        inner = code_geometry(1, m, 1, 0)
        assert inner.recovery_threshold == 2 * m - 1  # inner-product point
        assert inner.normalized_load == 2 * m - 1


# (t, s, d, p_c, (T, S, D), modulus, workers); every instance is small enough
# to enumerate by brute force and at least one per branch has a strict ceiling
AUDIT_CATALOG = {
    "tall": [
        (2, 1, 1, 1, (2, 1, 1), 5, 4),
        (2, 1, 2, 1, (2, 1, 2), 3, 2),
        (2, 1, 1, 2, (2, 1, 1), 5, 3),
        (3, 2, 1, 1, (3, 2, 1), 3, 2),  # s*delta - p_c = 1: strict ceiling
    ],
    "wide": [
        (1, 1, 1, 1, (1, 1, 1), 5, 4),
        (1, 1, 2, 1, (1, 1, 2), 7, 6),
        (1, 1, 1, 2, (1, 1, 1), 5, 4),
        (2, 2, 2, 1, (2, 2, 2), 3, 2),  # two-band placement
    ],
}


def test_criterion_5_exhaustive_secrecy():
    """Every catalog instance is information-theoretically secure; zeroing
    the randomness flips each verdict to INSECURE."""
    strict_seen = False
    for branch, entries in AUDIT_CATALOG.items():
        assert len(entries) >= 3
        assert {e[3] for e in entries} == {1, 2}
        for t, s, d, p_c, (big_t, big_s, big_d), modulus, workers in entries:
            field = PrimeField(modulus)
            inst = AuditInstance(t, s, d, p_c, workers, field, big_t, big_s, big_d)
            assert inst.geometry.case.endswith(branch)
            layout = inst.geometry.layout
            if layout.case == "tall" and s * layout.delta - p_c > 0:
                strict_seen = True
            verdict = audit_all_subsets(inst)
            assert verdict.secure, (branch, t, s, d, p_c)
            control = AuditInstance(
                t, s, d, p_c, workers, field, big_t, big_s, big_d,
                negative_control=True,
            )
            control_verdict = audit_all_subsets(control)
            assert not control_verdict.secure, (branch, t, s, d, p_c)
            # the brute-force enumeration agrees on every subset
            for i, v in ((inst, verdict), (control, control_verdict)):
                assert tuple(map(verdict_fields, v.subsets)) == tuple(
                    enumerated_subset_verdict(i, sub.subset) for sub in v.subsets
                ), (branch, t, s, d, p_c, i.negative_control)
    assert strict_seen


def test_criterion_6_exponent_collision_audit():
    """No exponent collisions anywhere on the grid; a corrupted map is caught."""
    import dataclasses

    for t, s, d in itertools.product(range(1, 7), repeat=3):
        for p_c in range(0, 5):
            report = exponent_audit(code_geometry(t, s, d, p_c))
            assert report.clean, (t, s, d, p_c, report.collisions[:2])
    geo = code_geometry(3, 2, 2, 2)
    bad_b = geo.exponent_map.b_exponents.copy()
    bad_b[0, 2] = bad_b[0, 0]  # random column collides with a data column
    corrupted = dataclasses.replace(
        geo, exponent_map=dataclasses.replace(geo.exponent_map, b_exponents=bad_b)
    )
    assert len(exponent_audit(corrupted).collisions) >= 1


def test_criterion_7_tradeoff_sweep_curves():
    """Threshold/load curves: exact endpoints, collusion dominance, bounds."""
    rows = sweep_rows(36, 36, 3000, [0, 11, 29])
    assert len(rows) == 27  # nine divisors, three collusion levels
    by_key = {(r["pc"], r["t"], r["s"], r["d"]): r for r in rows}
    ends = by_key[(0, 36, 1, 36)]
    assert (ends["P_R"], ends["C_L_over_TD"]) == (1296, Fraction(1))
    ends = by_key[(0, 1, 36, 1)]
    assert (ends["P_R"], ends["C_L_over_TD"]) == (71, Fraction(71))
    for s in (1, 2, 3, 4, 6, 9, 12, 18, 36):
        t = d = 36 // s
        prev = None
        for p_c in (0, 11, 29):
            row = by_key[(p_c, t, s, d)]
            assert row["P_R"] >= 36
            assert row["C_L_over_TD"] >= 1
            assert row["feasible"] == (row["P_R"] <= 3000)
            if prev is not None:
                # raising the collusion level never improves either coordinate
                assert row["P_R"] >= prev["P_R"]
                assert row["C_L_over_TD"] >= prev["C_L_over_TD"]
            prev = row


def test_criterion_8_latency_model_sanity(field257):
    """Empirical mean completion times match the order-statistic law and are
    monotone in the recovery threshold."""
    shift, rate, pool, trials = 1.0, 2.0, 30, 1000
    model = LatencyModel(shift, rate, 0.0, seed=2026)

    def analytic(k):
        mean = shift + sum(1.0 / j for j in range(pool - k + 1, pool + 1)) / rate
        var = sum(1.0 / j**2 for j in range(pool - k + 1, pool + 1)) / rate**2
        return mean, sqrt(var / trials)

    means = {}
    for t, s, d, p_c in [(2, 2, 2, 0), (3, 2, 2, 2)]:  # P_R 9 and 24
        plan = build_plan(t, s, d, p_c, pool, field257)
        summary = latency_sweep(plan, model, trials=trials)
        assert summary.failed_trials == 0
        mean, stderr = analytic(plan.recovery_threshold)
        assert abs(summary.mean - mean) <= 3 * stderr, (plan.recovery_threshold,)
        means[plan.recovery_threshold] = summary.mean
    assert list(means) == [9, 24] and means[24] > means[9]
