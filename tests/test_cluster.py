"""Straggler models and the end-to-end simulated run."""

import dataclasses
import itertools
import math
import tracemalloc

import numpy as np
import pytest

from sgpd import (
    ConfigurationError,
    FieldMismatchError,
    FixedSet,
    LatencyModel,
    NotEnoughResults,
    PrimeField,
    RandomSubset,
    build_plan,
    cluster_sim,
    codec,
    decode,
    encode,
    latency_sweep,
    run,
    worker_compute,
)
from sgpd.blocks import read_text_file

from conftest import (
    binomial_at_least,
    default_rng_completion_times,
    kth_completion_cdf,
    looped_latency_sweep,
    make_pair,
    triple_loop_product,
)


@pytest.fixture
def tall_setup(field257):
    rng = np.random.default_rng(71)
    a_arr, b_arr, pair = make_pair(3, 2, 2, 2, field257, rng, bt=1, bs=2, bd=1)
    plan = build_plan(3, 2, 2, 2, 30, field257)
    return plan, pair, a_arr, b_arr


def test_fixed_set_success_at_threshold(tall_setup, field257):
    plan, pair, a_arr, b_arr = tall_setup
    report = run(plan, pair, FixedSet(list(range(1, 26))))
    assert report.success
    assert report.responders == tuple(range(1, 26))
    assert report.wall_clock == 25.0  # listed responders finish at ranks 1..25
    assert np.array_equal(report.decoded.data, triple_loop_product(a_arr, b_arr, 257))


def test_fixed_set_below_threshold_fails_gracefully(tall_setup):
    plan, pair, _, _ = tall_setup
    report = run(plan, pair, FixedSet(list(range(1, 25))))
    assert not report.success
    assert report.decoded is None
    assert report.wall_clock == float("inf")
    assert "have 24, need 25" in report.cause
    assert "success=False" in report.lines()[0]


def test_fixed_set_validates_ids(tall_setup):
    plan, pair, _, _ = tall_setup
    with pytest.raises(ConfigurationError):
        FixedSet([1, 1, 2])
    with pytest.raises(ConfigurationError):
        run(plan, pair, FixedSet([0, 1, 2]))
    with pytest.raises(ConfigurationError):
        run(plan, pair, FixedSet([1, 2, 31]))


def test_random_subset_runs_and_reproduces(tall_setup):
    plan, pair, a_arr, b_arr = tall_setup
    first = run(plan, pair, RandomSubset(27, seed=5))
    second = run(plan, pair, RandomSubset(27, seed=5))
    assert first.success and second.success
    assert first.responders == second.responders
    assert first.checksum == second.checksum
    different = run(plan, pair, RandomSubset(27, seed=6))
    assert different.responders != first.responders  # seed actually matters


def test_random_subset_below_threshold(tall_setup):
    plan, pair, _, _ = tall_setup
    report = run(plan, pair, RandomSubset(20, seed=1))
    assert not report.success and "need 25" in report.cause


def test_latency_model_run_is_deterministic(tall_setup):
    plan, pair, _, _ = tall_setup
    model = LatencyModel(shift=1.0, rate=2.0, failure_prob=0.05, seed=13)
    r1 = run(plan, pair, model, trial=4)
    r2 = run(plan, pair, LatencyModel(shift=1.0, rate=2.0, failure_prob=0.05, seed=13), trial=4)
    assert r1 == r2
    r3 = run(plan, pair, model, trial=5)
    assert r3.wall_clock != r1.wall_clock


def test_latency_constant_delays_order_by_worker_id(tall_setup):
    plan, pair, _, _ = tall_setup
    report = run(plan, pair, LatencyModel(shift=3.5, rate=float("inf"), seed=0))
    assert report.success
    assert report.responders == tuple(range(1, 26))  # ties broken by id
    assert report.wall_clock == 3.5


def test_completion_order_gives_1_based_ids_ties_broken_by_id():
    # worker w finishes at times[w - 1]; workers 2 and 5 tie at 1.0 and
    # worker 3 never finishes
    times = np.array([2.0, 1.0, np.inf, 0.5, 1.0, 2.0])
    assert cluster_sim._completion_order(times) == [4, 2, 5, 1, 6]
    assert cluster_sim._completion_order(np.full(3, np.inf)) == []


def test_measured_load_counts_used_results_only(tall_setup, field257):
    plan, pair, _, _ = tall_setup
    report = run(plan, pair, FixedSet(list(range(1, 31))))
    # each used result is a 1x1 block grid times (bt x bd) elements
    per_worker = (pair.a_star.block_shape[0]) * (pair.b_star.block_shape[1])
    assert report.measured_load == 25 * per_worker


def test_latency_model_validation():
    for shift in (-0.1, math.nan, math.inf):
        with pytest.raises(ConfigurationError, match="shift"):
            LatencyModel(shift=shift)
    with pytest.raises(ConfigurationError):
        LatencyModel(rate=0.0)
    with pytest.raises(ConfigurationError):
        LatencyModel(failure_prob=1.5)
    with pytest.raises(ConfigurationError):
        LatencyModel(seed=-1)
    for model in (LatencyModel(), RandomSubset(2), FixedSet([1])):
        for trial in (-1, 2**64):
            with pytest.raises(ConfigurationError, match="trial"):
                model.completion_times(3, trial=trial)
    with pytest.raises(ConfigurationError, match="seed"):
        RandomSubset(3, seed=-1)
    with pytest.raises(ConfigurationError, match="responder count must be >= 0, got -1"):
        RandomSubset(-1)
    with pytest.raises(ConfigurationError, match="cannot pick 4 responders from 3 workers"):
        RandomSubset(4).completion_times(3)


def test_model_descriptions():
    assert FixedSet([2, 1]).describe()["model"] == "fixed-set"
    assert RandomSubset(3, seed=2).describe()["count"] == 3
    desc = LatencyModel(1.0, 2.0, 0.1, seed=4).describe()
    assert desc["model"] == "latency" and desc["rate"] == 2.0


def test_run_over_many_latency_trials(tall_setup):
    plan, pair, a_arr, b_arr = tall_setup
    want = triple_loop_product(a_arr, b_arr, 257)
    ok = 0
    for trial in range(100):
        report = run(plan, pair, LatencyModel(1.0, 1.0, 0.0, seed=99), trial=trial)
        assert report.success
        assert np.array_equal(report.decoded.data, want)
        ok += 1
    assert ok == 100


def test_latency_sweep_statistics(field257):
    rng = np.random.default_rng(73)
    plan = build_plan(3, 2, 2, 2, 30, field257)
    summary = latency_sweep(plan, LatencyModel(2.0, 4.0, 0.0, seed=21), trials=400)
    assert summary.trials == 400 and summary.failed_trials == 0
    assert summary.times.shape == (400,)
    stderr = np.std(summary.times, ddof=1) / 20.0
    # analytic mean of the 25th of 30 shifted-exponential order statistics
    analytic = 2.0 + 0.25 * sum(1.0 / j for j in range(6, 31))
    assert abs(summary.mean - analytic) < 5 * stderr + 1e-9


def test_latency_sweep_constant_delays(field257):
    plan = build_plan(2, 1, 1, 0, 6, field257)
    summary = latency_sweep(plan, LatencyModel(1.25, float("inf"), 0.0, seed=3), trials=50)
    assert summary.mean == 1.25 and np.all(summary.times == 1.25)


def test_latency_sweep_all_failures(field257):
    plan = build_plan(2, 1, 1, 0, 6, field257)
    summary = latency_sweep(plan, LatencyModel(1.0, 1.0, 1.0, seed=3), trials=20)
    assert summary.failed_trials == 20
    assert summary.times.size == 0
    assert summary.mean == math.inf  # no recovery, and no warning


def test_latency_sweep_monotone_in_threshold(field257):
    # same pool and delay law: a larger threshold waits longer on average
    small = build_plan(2, 2, 2, 0, 30, field257)   # threshold 9
    large = build_plan(3, 2, 2, 2, 30, field257)   # threshold 25
    model = LatencyModel(1.0, 1.0, 0.0, seed=8)
    s_small = latency_sweep(small, model, trials=300)
    s_large = latency_sweep(large, model, trials=300)
    assert s_large.mean > s_small.mean


def _ks_distance(sample, cdf) -> float:
    """Kolmogorov-Smirnov distance between a sample and a continuous CDF."""
    x = np.sort(sample)
    f = cdf(x)
    i = np.arange(1, x.size + 1)
    return float(max((i / x.size - f).max(), (f - (i - 1) / x.size).max()))


def _two_sample_ks_distance(a, b) -> float:
    grid = np.concatenate([a, b])
    fa = np.searchsorted(np.sort(a), grid, side="right") / a.size
    fb = np.searchsorted(np.sort(b), grid, side="right") / b.size
    return float(np.abs(fa - fb).max())


KS_CRITICAL = 1.95  # sqrt(n) * D at the 0.1% level


@pytest.mark.parametrize("failure_prob", [0.0, 0.2])
@pytest.mark.parametrize("rate", [1.0, 4.0])
def test_latency_sweep_follows_the_exact_law(field257, failure_prob, rate):
    # the 25th of 30 completion times, against its exact CDF given recovery,
    # and the failed trials against their binomial mean and deviation
    plan = build_plan(3, 2, 2, 2, 30, field257)
    model = LatencyModel(1.5, rate, failure_prob, seed=43)
    trials = 20_000
    summary = latency_sweep(plan, model, trials)
    d = _ks_distance(summary.times, lambda t: kth_completion_cdf(t, 30, 25, model))
    assert math.sqrt(summary.times.size) * d < KS_CRITICAL, d
    fail = 1.0 - binomial_at_least(30, 1.0 - failure_prob, 25)
    sd = math.sqrt(trials * fail * (1.0 - fail))
    assert abs(summary.failed_trials - trials * fail) <= 4 * sd + 1e-9


@pytest.mark.parametrize("failure_prob", [0.0, 0.2, 1.0])
@pytest.mark.parametrize("rate", [1.0, 4.0, float("inf")])
@pytest.mark.parametrize("trials", [1, 31, 32, 33, 300, 2000])
def test_latency_sweep_matches_default_rng_oracle(field257, failure_prob, rate, trials):
    # the oracle sorts each trial's P simulated delays; the sweep draws the
    # P_R-th one directly from another stream, so the two agree in law only.
    # Small counts check the bookkeeping; the large ones give the KS test power
    plan = build_plan(3, 2, 2, 2, 30, field257)
    model = LatencyModel(1.5, rate, failure_prob, seed=41)
    got = latency_sweep(plan, model, trials)
    want = looped_latency_sweep(plan, model, trials)
    assert got.times.dtype == want.times.dtype
    assert got.trials == want.trials == trials
    fail = 1.0 - binomial_at_least(30, 1.0 - failure_prob, 25)
    sd = math.sqrt(2 * trials * fail * (1.0 - fail))  # of the difference
    assert abs(got.failed_trials - want.failed_trials) <= 4 * sd + 1e-9
    n, m = got.times.size, want.times.size
    if n and m:
        d = _two_sample_ks_distance(got.times, want.times)
        assert math.sqrt(n * m / (n + m)) * d < KS_CRITICAL, d
    if math.isinf(rate):
        assert np.all(got.times == 1.5) and np.all(want.times == 1.5)


@pytest.mark.parametrize("seed", [0, 2**64 + 3])
def test_latency_sweep_same_seed_same_summary(field257, seed):
    plan = build_plan(3, 2, 2, 2, 30, field257)
    first = latency_sweep(plan, LatencyModel(1.0, 2.0, 0.2, seed), 500)
    again = latency_sweep(plan, LatencyModel(1.0, 2.0, 0.2, seed), 500)
    assert np.array_equal(first.times, again.times)
    assert first.failed_trials == again.failed_trials
    other = latency_sweep(plan, LatencyModel(1.0, 2.0, 0.2, seed + 1), 500)
    assert not np.array_equal(first.times, other.times)


@pytest.mark.parametrize("trials", [0, -3, 2.5, 3.0, "3", True, None])
def test_latency_sweep_trials_must_be_a_positive_int(field257, trials):
    plan = build_plan(3, 2, 2, 2, 30, field257)
    with pytest.raises(ConfigurationError, match="trials must be an int >= 1"):
        latency_sweep(plan, LatencyModel(), trials)
    assert latency_sweep(plan, LatencyModel(), np.int64(3)).trials == 3


@pytest.mark.parametrize("trial", [0, 7, 2**32 + 1])
def test_completion_times_match_default_rng_oracle(trial):
    model = LatencyModel(0.5, 3.0, 0.2, seed=2**40 + 9)
    want = default_rng_completion_times(model, 50, trial)
    assert np.array_equal(model.completion_times(50, trial), want)


@pytest.mark.parametrize("model", [FixedSet([1, 2, 3]), RandomSubset(27, seed=5)])
def test_latency_sweep_needs_a_latency_model(field257, model):
    plan = build_plan(3, 2, 2, 2, 30, field257)
    with pytest.raises(ConfigurationError, match="needs a LatencyModel"):
        latency_sweep(plan, model, trials=10)


def test_latency_sweep_memory_stays_small():
    # a few arrays of one number per trial, never a 20,000 x 300 delay
    # table (48 MB alone)
    plan = build_plan(8, 3, 8, 4, 300, PrimeField(65537))
    model = LatencyModel(1.0, 1.0, 0.02, seed=3)
    tracemalloc.start()
    try:
        summary = latency_sweep(plan, model, trials=20_000)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(summary.times) + summary.failed_trials == 20_000
    assert peak < 8 * 2**20, peak


RUN_MODELS = [
    FixedSet(range(30, 5, -1)),
    RandomSubset(27, seed=5),
    LatencyModel(1.0, 2.0, 0.1, seed=3),
    FixedSet(range(1, 25)),  # one short of the threshold
    RandomSubset(3, seed=1),
]


def _record_encodes(monkeypatch) -> list:
    """Wrap the share_stacks that run() calls: one entry per call, the row
    counts of the share products it formed."""
    calls = []
    matmul = PrimeField.matmul

    def recording_encode(*args):
        rows = []
        calls.append(rows)
        with monkeypatch.context() as m:
            m.setattr(PrimeField, "matmul", lambda f, a, b: rows.append(len(a)) or matmul(f, a, b))
            return codec.share_stacks(*args)

    monkeypatch.setattr(cluster_sim, "share_stacks", recording_encode)
    return calls


def test_trace_dump(monkeypatch, tmp_path, tall_setup, field257):
    # the trace writes every worker's share, so run encodes all P of them
    plan, pair, _, _ = tall_setup
    calls = _record_encodes(monkeypatch)
    report = run(plan, pair, FixedSet(list(range(1, 26))), trace_dir=tmp_path)
    assert report.success
    assert calls == [[plan.n_workers] * 2]
    shares = sorted(tmp_path.glob("worker_*.share"))
    assert len(shares) == 30
    for path, want in zip(shares, encode(plan, pair), strict=True):
        header, (a_share, b_share) = read_text_file(path, 6, slice(2, 6), field257.p)
        assert header[:2] == [want.worker_id, want.point]
        assert np.array_equal(a_share, want.a_share)
        assert np.array_equal(b_share, want.b_share)
    manifest = (tmp_path / "manifest.txt").read_text()
    assert "t=3" in manifest and "model=fixed-set" in manifest and "success=True" in manifest


@pytest.mark.parametrize("model", RUN_MODELS[:3], ids=["fixed", "subset", "latency"])
def test_run_encodes_only_the_shares_it_reads(monkeypatch, tall_setup, model):
    plan, pair, a_arr, b_arr = tall_setup
    calls = _record_encodes(monkeypatch)
    report = run(plan, pair, model)
    assert report.success
    assert np.array_equal(report.decoded.data, triple_loop_product(a_arr, b_arr, 257))
    assert calls == [[plan.recovery_threshold] * 2]  # A's and B's share products


@pytest.mark.parametrize("model", RUN_MODELS[3:], ids=["fixed", "subset"])
def test_run_with_too_few_finishers_encodes_no_share(monkeypatch, tall_setup, model):
    plan, pair, _, _ = tall_setup
    calls = _record_encodes(monkeypatch)
    report = run(plan, pair, model)
    assert not report.success and report.cause.startswith("NotEnoughResults")
    assert calls == []


@pytest.mark.parametrize(
    "model", RUN_MODELS, ids=["fixed", "subset", "latency", "fixed-short", "subset-short"]
)
def test_run_report_is_the_same_with_and_without_a_trace(tmp_path, tall_setup, model):
    plan, pair, _, _ = tall_setup
    plain = run(plan, pair, model, trial=2)
    traced = run(plan, pair, model, trial=2, trace_dir=tmp_path)
    assert plain.lines() == traced.lines()
    assert (plain.decoded is None) == (traced.decoded is None)
    if plain.decoded is not None:
        assert np.array_equal(plain.decoded.data, traced.decoded.data)
    assert len(list(tmp_path.glob("worker_*.share"))) == plan.n_workers


def _assert_run_is_the_per_worker_path(plan, pair, model) -> None:
    """run() against decode(plan, [worker_compute(s) for s in encode(plan,
    pair, used)]): the same decoded product, measured_load and report lines."""
    report = run(plan, pair, model)
    times = model.completion_times(plan.n_workers)
    order = sorted(
        (w for w in range(1, plan.n_workers + 1) if math.isfinite(times[w - 1])),
        key=lambda w: (times[w - 1], w),
    )
    p_r = plan.recovery_threshold
    used = order[:p_r] if len(order) >= p_r else []
    results = [worker_compute(share) for share in encode(plan, pair, used)]
    load = sum(r.product.size for r in results)
    if used:
        decoded = decode(plan, results)
        want = dataclasses.replace(
            report, success=True, measured_load=load, checksum=cluster_sim._checksum(decoded),
            cause="", decoded=decoded,
        )
        assert np.array_equal(report.decoded.data, decoded.data)
    else:
        with pytest.raises(NotEnoughResults):
            decode(plan, results)
        cause = f"NotEnoughResults: have {len(order)}, need {p_r}"
        want = dataclasses.replace(report, success=False, measured_load=0, checksum="", cause=cause)
        assert report.decoded is None
    assert report.measured_load == load
    assert report.responders == tuple(used or order)
    assert report.lines() == want.lines()


@pytest.mark.parametrize(
    "model", RUN_MODELS, ids=["fixed", "subset", "latency", "fixed-short", "subset-short"]
)
def test_run_equals_the_per_worker_path(tall_setup, model):
    plan, pair, _, _ = tall_setup
    _assert_run_is_the_per_worker_path(plan, pair, model)


def test_run_equals_the_per_worker_path_on_the_wide_cli_code():
    # (2,4,2,2) with P = 60 and 64 x 64 blocks at p = 2**31 - 1: 26 responders
    # in seeded completion order, one batched product of their share stacks
    field = PrimeField(2**31 - 1)
    rng = np.random.default_rng(26)
    _, _, pair = make_pair(2, 4, 2, 2, field, rng, bt=64, bs=64, bd=64)
    plan = build_plan(2, 4, 2, 2, 60, field)
    responders = [int(w) + 1 for w in rng.permutation(60)[: plan.recovery_threshold]]
    _assert_run_is_the_per_worker_path(plan, pair, FixedSet(responders))


class _RefusingModel:
    def completion_times(self, n_workers, trial=0):
        raise AssertionError("the model was consulted")


def test_run_refuses_a_mismatched_pair_before_the_model(tall_setup, field257, field65537):
    plan, _, _, _ = tall_setup
    rng = np.random.default_rng(8)
    _, _, other_code = make_pair(3, 2, 2, 1, field257, rng)
    with pytest.raises(ConfigurationError):
        run(plan, other_code, _RefusingModel())
    _, _, other_field = make_pair(3, 2, 2, 2, field65537, rng)
    with pytest.raises(FieldMismatchError):
        run(plan, other_field, _RefusingModel())


def test_singular_responder_set_is_a_failed_run():
    # (2,2,3,1)'s support has a gap, so some responder sets give a singular
    # system mod 29: run() reports the named error, with no product
    field = PrimeField(29)
    rng = np.random.default_rng(29)
    _, _, pair = make_pair(2, 2, 3, 1, field, rng)
    plan = build_plan(2, 2, 3, 1, 24, field)
    outcomes = set()
    for subset in itertools.combinations(range(1, 25), plan.recovery_threshold):
        report = run(plan, pair, FixedSet(subset))
        outcomes.add(report.success)
        if not report.success:
            assert report.cause.startswith("SingularSystemError: ")
            assert report.decoded is None and report.checksum == ""
            assert report.responders == subset and report.measured_load > 0
            assert f"cause={report.cause}" in report.lines()
            break
    assert outcomes == {True, False}
