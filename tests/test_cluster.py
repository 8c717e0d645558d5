"""Straggler models and the end-to-end simulated run."""

import tracemalloc

import numpy as np
import pytest

from sgpd import (
    ConfigurationError,
    FixedSet,
    LatencyModel,
    PrimeField,
    RandomSubset,
    build_plan,
    latency_sweep,
    read_share,
    run,
)
from sgpd.cluster_sim import _SWEEP_CHUNK, _latency_seed_words

from conftest import (
    default_rng_completion_times,
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


def test_measured_load_counts_used_results_only(tall_setup, field257):
    plan, pair, _, _ = tall_setup
    report = run(plan, pair, FixedSet(list(range(1, 31))))
    # each used result is a 1x1 block grid times (bt x bd) elements
    per_worker = (pair.a_star.block_shape[0]) * (pair.b_star.block_shape[1])
    assert report.measured_load == 25 * per_worker


def test_latency_model_validation():
    with pytest.raises(ConfigurationError):
        LatencyModel(shift=-0.1)
    with pytest.raises(ConfigurationError):
        LatencyModel(rate=0.0)
    with pytest.raises(ConfigurationError):
        LatencyModel(failure_prob=1.5)
    with pytest.raises(ConfigurationError):
        LatencyModel(seed=-1)
    with pytest.raises(ConfigurationError):
        LatencyModel().completion_times(3, trial=-1)


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
    assert summary.stderr == pytest.approx(summary.std / 20.0)
    # analytic mean of the 25th of 30 shifted-exponential order statistics
    analytic = 2.0 + 0.25 * sum(1.0 / j for j in range(6, 31))
    assert abs(summary.mean - analytic) < 5 * summary.stderr + 1e-9


def test_latency_sweep_constant_delays(field257):
    plan = build_plan(2, 1, 1, 0, 6, field257)
    summary = latency_sweep(plan, LatencyModel(1.25, float("inf"), 0.0, seed=3), trials=50)
    assert summary.mean == 1.25 and summary.std == 0.0


def test_latency_sweep_all_failures(field257):
    plan = build_plan(2, 1, 1, 0, 6, field257)
    summary = latency_sweep(plan, LatencyModel(1.0, 1.0, 1.0, seed=3), trials=20)
    assert summary.failed_trials == 20
    assert summary.times.size == 0


def test_latency_sweep_monotone_in_threshold(field257):
    # same pool, same delays: a larger threshold can only wait longer
    small = build_plan(2, 2, 2, 0, 30, field257)   # threshold 9
    large = build_plan(3, 2, 2, 2, 30, field257)   # threshold 25
    model = LatencyModel(1.0, 1.0, 0.0, seed=8)
    s_small = latency_sweep(small, model, trials=300)
    s_large = latency_sweep(large, model, trials=300)
    assert s_large.mean > s_small.mean


@pytest.mark.parametrize("seed", [0, 1, 2**31 - 1, 2**32, 2**64 + 3])
def test_latency_seed_words_match_seed_sequence(seed):
    # 2**64 + 3 is three entropy words, so five in all: more than the pool of 4
    trials = list(range(301)) + [2**32 + 1, 2**64 - 1]
    want = [
        np.random.SeedSequence((0x1A7E, seed, trial)).generate_state(4, np.uint64)
        for trial in trials
    ]
    assert np.array_equal(_latency_seed_words(seed, trials), want)


@pytest.mark.parametrize("failure_prob", [0.0, 0.2, 1.0])
@pytest.mark.parametrize("rate", [1.0, 4.0, float("inf")])
@pytest.mark.parametrize("trials", [1, _SWEEP_CHUNK - 1, _SWEEP_CHUNK, _SWEEP_CHUNK + 1, 300])
def test_latency_sweep_matches_default_rng_oracle(field257, failure_prob, rate, trials):
    plan = build_plan(3, 2, 2, 2, 30, field257)
    model = LatencyModel(1.5, rate, failure_prob, seed=41)
    got = latency_sweep(plan, model, trials)
    want = looped_latency_sweep(plan, model, trials)
    assert got.times.dtype == want.times.dtype
    assert np.array_equal(got.times, want.times)
    assert (got.trials, got.failed_trials) == (want.trials, want.failed_trials)


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


def test_latency_sweep_memory_stays_chunked():
    # a full 20,000 x 300 delay table alone would be 48 MB
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


def test_trace_dump(tmp_path, tall_setup, field257):
    plan, pair, _, _ = tall_setup
    report = run(plan, pair, FixedSet(list(range(1, 26))), trace_dir=tmp_path)
    assert report.success
    shares = sorted(tmp_path.glob("worker_*.share"))
    assert len(shares) == 30
    sh = read_share(shares[2], field257)
    assert sh.worker_id == 3 and sh.point == 3
    manifest = (tmp_path / "manifest.txt").read_text()
    assert "t=3" in manifest and "model=fixed-set" in manifest and "success=True" in manifest
