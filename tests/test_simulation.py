import dataclasses
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import pilotsched.simulation as simulation
from oracles import (DATA, PILOT, SchedulerState, decide, max_goodput_matrix,
                     realized_rewards_per_slot, slot_streams, step)
from pilotsched import (EXPECTED, REALIZED, McsEntry, McsTable, RewardCurve, TabulatedBlerCurve,
                        build_reward_curve, derive_streams, generate_fading_trace, index_gamma,
                        run_policy, sinr_gain, solve_threshold)


@pytest.fixture(scope="module")
def reference_curve(reference_params, default_table):
    return build_reward_curve(reference_params, default_table, 160)


@pytest.fixture(scope="module")
def reference_solution(reference_curve):
    return solve_threshold(reference_curve)


class TestStep:
    """The slot-level reference loop, and the realized statistics of the shipped path."""

    def test_pilot_reward_zero_and_age_reset(self, reference_params, default_table):
        trace, noise, _ = derive_streams(reference_params, 1000, 1, seed=5)
        state = SchedulerState(age=7, last_pilot_value=None, slot=0)
        nxt, reward = step(state, PILOT, trace, reference_params, default_table,
                           EXPECTED, pilot_noise=complex(noise[0]))
        assert reward == 0.0
        assert nxt.age == 1
        assert nxt.slot == 1
        expected_y = math.sqrt(reference_params.pilot_power) * trace.samples[0] + noise[0]
        assert nxt.last_pilot_value == expected_y

    def test_data_increments_age(self, reference_params, default_table, reference_curve):
        trace, _, _ = derive_streams(reference_params, 1000, 1, seed=5)
        state = SchedulerState(age=5, last_pilot_value=1.0 + 0.5j, slot=3)
        nxt, _ = step(state, DATA, trace, reference_params, default_table,
                      EXPECTED, reward_curve=reference_curve)
        assert nxt.age == 6
        assert nxt.last_pilot_value == state.last_pilot_value

    def test_expected_reward_is_curve_value(self, reference_params, default_table, reference_curve):
        trace, _, _ = derive_streams(reference_params, 1000, 1, seed=5)
        state = SchedulerState(age=2, last_pilot_value=0.3 - 1.2j, slot=10)
        _, reward = step(state, DATA, trace, reference_params, default_table,
                         EXPECTED, reward_curve=reference_curve)
        assert reward == reference_curve.values[1]

    def test_expected_reward_without_curve_uses_quadrature(self, reference_params,
                                                           default_table, reference_curve):
        trace, _, _ = derive_streams(reference_params, 1000, 1, seed=5)
        state = SchedulerState(age=2, last_pilot_value=0.3 - 1.2j, slot=10)
        _, with_curve = step(state, DATA, trace, reference_params, default_table,
                             EXPECTED, reward_curve=reference_curve)
        _, without = step(state, DATA, trace, reference_params, default_table, EXPECTED)
        assert without == with_curve

    def test_data_before_first_pilot_rejected(self, reference_params, default_table):
        trace, _, _ = derive_streams(reference_params, 1000, 1, seed=5)
        state = SchedulerState(age=1, last_pilot_value=None, slot=0)
        with pytest.raises(ValueError, match="first pilot"):
            step(state, DATA, trace, reference_params, default_table, EXPECTED)

    def test_realized_bernoulli_mean_given_pilot(self, reference_params, default_table):
        # repetitions at one fixed pilot y: mean matches R*(1-bler(eta))
        y = 1.1 - 0.4j
        age = 2
        eta = sinr_gain(age, reference_params) * abs(y) ** 2
        goodput, chosen, _ = max_goodput_matrix(eta, default_table)
        assert chosen >= 0
        uniforms = np.random.default_rng(31).random(100_000)
        draws = simulation._realized_rewards(np.full(uniforms.size, eta), uniforms,
                                             default_table)
        se = draws.std(ddof=1) / math.sqrt(len(draws))
        assert draws.mean() == pytest.approx(goodput, abs=3 * se)

    def test_realized_mean_over_fresh_pilots_matches_expected(self, reference_params,
                                                              default_table, reference_curve):
        # period 2 pilots at the even slots and sends data at age 1 in the odd
        # ones: the realized mean converges to r(1)
        horizon = 100_000
        res = run_policy(2, reference_params, default_table, horizon, seed=8, mode=REALIZED)
        trace, noise, uniforms = slot_streams(reference_params, horizon, 2, seed=8)
        y = math.sqrt(reference_params.pilot_power) * trace.samples[0::2] + noise[0::2]
        eta = sinr_gain(1, reference_params) * np.abs(y) ** 2
        rewards = simulation._realized_rewards(eta, uniforms[1::2], default_table)
        assert 2 * res.avg_goodput == rewards.mean()
        se = rewards.std(ddof=1) / math.sqrt(len(rewards))
        assert rewards.mean() == pytest.approx(reference_curve.values[0], abs=3 * se)

    def test_unknown_mode_rejected(self, reference_params, default_table):
        trace, noise, _ = derive_streams(reference_params, 1000, 1, seed=5)
        state = SchedulerState(age=1, last_pilot_value=None, slot=0)
        with pytest.raises(ValueError, match="mode"):
            step(state, PILOT, trace, reference_params, default_table, "typo",
                 pilot_noise=complex(noise[0]))


class TestPolicies:
    @pytest.mark.parametrize("curve_name", ["reference", "zero"])
    def test_decision_rule_pilots_once_per_period(self, curve_name, request):
        # run_policy takes the threshold policy as its period; the decision
        # rule must send data at every younger age and a pilot at that period
        if curve_name == "reference":
            curve = request.getfixturevalue("reference_curve")
            sol = request.getfixturevalue("reference_solution")
        else:
            curve = RewardCurve(values=np.zeros(50))
            sol = solve_threshold(curve)
        gamma = index_gamma(curve)
        assert np.all(gamma[:sol.period - 1] > sol.beta)
        assert gamma[sol.period - 1] <= sol.beta

    def test_period_one_always_pilot(self, reference_params, default_table):
        res = run_policy(1, reference_params, default_table,
                         2000, seed=3, mode=EXPECTED)
        assert res.avg_goodput == 0.0
        assert res.pilot_fraction == 1.0

    def test_invalid_period(self, reference_params, default_table):
        with pytest.raises(ValueError, match="period"):
            run_policy(0, reference_params, default_table, 2000, seed=1, mode=EXPECTED)

    def test_degenerate_zero_curve_always_pilot(self, reference_params, default_table):
        curve = RewardCurve(values=np.zeros(50))
        sol = solve_threshold(curve)
        res = run_policy(sol.period, reference_params, default_table, 2000, seed=4,
                         mode=EXPECTED, reward_curve=curve)
        assert res.pilot_fraction == 1.0
        assert res.avg_goodput == 0.0


class TestRunPolicy:
    def test_threshold_average_matches_beta(self, reference_params, default_table,
                                            reference_curve, reference_solution):
        horizon = 200_000
        res = run_policy(reference_solution.period, reference_params,
                         default_table, horizon, seed=42, mode=EXPECTED,
                         reward_curve=reference_curve)
        assert abs(res.avg_goodput - reference_solution.beta) <= \
            10 * reference_solution.period / horizon

    def test_periodic_average_closed_form(self, reference_params, default_table, reference_curve):
        horizon = 100_000
        for period in (2, 5):
            res = run_policy(period, reference_params, default_table,
                             horizon, seed=42, mode=EXPECTED, reward_curve=reference_curve)
            closed_form = float(reference_curve.values[:period - 1].sum()) / period
            assert abs(res.avg_goodput - closed_form) <= 10 * period / horizon

    def test_expected_mode_integrates_only_ages_beyond_curve(self, monkeypatch,
                                                              reference_params, default_table):
        # period 2400 over a 600-age curve needs r(601..2399) and nothing else
        curve = build_reward_curve(reference_params, default_table, 600)
        kernel, asked = simulation.expected_goodputs, []

        def recording_kernel(ages, *args):
            asked.append(ages.copy())
            return kernel(ages, *args)

        monkeypatch.setattr(simulation, "expected_goodputs", recording_kernel)
        res = run_policy(2400, reference_params, default_table, 5000, seed=1,
                         mode=EXPECTED, reward_curve=curve)
        assert len(asked) == 1 and np.array_equal(asked[0], np.arange(601, 2400))
        full = build_reward_curve(reference_params, default_table, 2399)
        assert res.avg_goodput == run_policy(2400, reference_params, default_table, 5000,
                                             seed=1, mode=EXPECTED,
                                             reward_curve=full).avg_goodput

    @staticmethod
    def per_slot_sum(values, horizon, period) -> float:
        """math.fsum of the expected rewards of the data slots, slot by slot."""
        ages = np.arange(horizon - 1) % period + 1  # slots 1 .. horizon-1
        return math.fsum(values[ages[ages < period] - 1].tolist())

    @given(st.lists(st.integers(0, 64).map(lambda k: k / 8), min_size=1, max_size=40),
           st.integers(1_000, 3_000), st.integers(1, 3_100))
    @example([0.875, 2.5, 8.0], 1_000, 3)
    @settings(max_examples=60, deadline=None)
    def test_closed_form_equals_the_slot_sum_on_eighths(self, reference_params, default_table,
                                                        pattern, horizon, period):
        # every product count * r(a) of eighths is exact, so the correctly
        # rounded sums agree bit for bit, at periods up to past the horizon
        values = np.resize(np.array(pattern), max(1, min(period - 1, horizon - 1)))
        res = run_policy(period, reference_params, default_table, horizon, seed=0,
                         mode=EXPECTED, reward_curve=RewardCurve(values=values))
        assert res.avg_goodput == self.per_slot_sum(values, horizon, period) / horizon

    @given(st.lists(st.floats(0.0, 8.0), min_size=1, max_size=40),
           st.integers(1_000, 3_000), st.integers(1, 3_100))
    @settings(max_examples=60, deadline=None)
    def test_closed_form_within_4_ulps_of_the_slot_sum(self, pattern, horizon, period):
        # the rounded products add at most 1 ulp, the two final roundings 1/2 each
        values = np.resize(np.array(pattern), min(period - 1, horizon - 1))
        want = self.per_slot_sum(values, horizon, period)
        got = simulation.expected_total(values, horizon, period)
        assert abs(got - want) <= 4 * math.ulp(want)

    def test_expected_mode_memory_is_independent_of_the_horizon(self, reference_params,
                                                                default_table, reference_curve):
        # a per-slot reward array at 10^7 slots would be 51 MB
        tracemalloc.start()
        try:
            res = run_policy(3, reference_params, default_table, 10_000_000, seed=1,
                             mode=EXPECTED, reward_curve=reference_curve)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024
        assert res.pilot_fraction == 3_333_334 / 10_000_000

    def test_realized_mode_peak_memory(self, reference_params, default_table):
        # 41,667 pilot slots embed on 2^17 points: the trace synthesis's 32
        # bytes per point and the run's per-slot arrays (4.8 MB measured; 6.2
        # MB while the trace, the pilot noise and the observations stayed
        # live past |y|^2, 6.8 MB with the complex covariance FFT and three
        # selection outputs, and 7.6 MB if the trace were a view of the
        # inverse transform's output)
        run_policy(3, reference_params, default_table, 125_000, seed=0, mode=REALIZED)
        tracemalloc.start()
        try:
            run_policy(3, reference_params, default_table, 125_000, seed=1, mode=REALIZED)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5.2e6

    def test_periodic_pilot_fraction(self, reference_params, default_table, reference_curve):
        horizon = 10_000
        res = run_policy(2, reference_params, default_table,
                         horizon, seed=1, mode=EXPECTED, reward_curve=reference_curve)
        assert abs(res.pilot_fraction - 0.5) <= 1.0 / horizon

    def test_deterministic_given_seed(self, reference_params, default_table, reference_curve,
                                      reference_solution):
        period = reference_solution.period
        a = run_policy(period, reference_params, default_table, 5000, seed=9,
                       mode=REALIZED, reward_curve=reference_curve)
        b = run_policy(period, reference_params, default_table, 5000, seed=9,
                       mode=REALIZED, reward_curve=reference_curve)
        assert a.avg_goodput == b.avg_goodput
        assert a.age_histogram == b.age_histogram

    @pytest.mark.parametrize("period", [3, 1])
    def test_realized_runs_equal_each_link_run_alone(self, reference_params, default_table,
                                                     period):
        # links that differ only in noise variance read one draw per seed, and
        # each run is the link's own run at that seed, bit for bit
        links = [dataclasses.replace(reference_params, noise_variance=v)
                 for v in (0.01, 0.1, 3.0)]
        runs = simulation.realized_runs(period, links, default_table, 5000, [1, 2])
        for params, row in zip(links, runs, strict=True):
            for seed, got in zip((1, 2), row, strict=True):
                want = run_policy(period, params, default_table, 5000, seed, REALIZED)
                assert (got.avg_goodput, got.pilot_fraction, got.age_histogram, got.horizon) == \
                    (want.avg_goodput, want.pilot_fraction, want.age_histogram, want.horizon)
        goodputs = {tuple(r.avg_goodput for r in row) for row in runs}
        if period == 1:
            assert goodputs == {(0.0, 0.0)}
        else:
            assert len(goodputs) == 3

    def test_expected_mode_seed_invariant_for_age_policies(self, reference_params,
                                                           default_table, reference_curve,
                                                           reference_solution):
        # expected-mode rewards depend only on the age sequence for these policies
        period = reference_solution.period
        a = run_policy(period, reference_params, default_table, 5000, seed=1,
                       mode=EXPECTED, reward_curve=reference_curve)
        b = run_policy(period, reference_params, default_table, 5000, seed=2,
                       mode=EXPECTED, reward_curve=reference_curve)
        assert a.avg_goodput == b.avg_goodput

    def test_histogram_invariants(self, reference_params, default_table, reference_curve,
                                  reference_solution):
        horizon = 5000
        res = run_policy(reference_solution.period, reference_params,
                         default_table, horizon, seed=3, mode=EXPECTED,
                         reward_curve=reference_curve)
        assert sum(res.age_histogram.values()) == horizon
        assert min(res.age_histogram) >= 1
        assert res.pilot_fraction * horizon == pytest.approx(
            round(res.pilot_fraction * horizon), abs=1e-9)

    @pytest.mark.parametrize("horizon", [1, 2, 7, 999, 1000, 1001, 5003])
    @pytest.mark.parametrize("period", [1, 2, 3, 7, 1000, 1001, 5003, 10 ** 6])
    def test_schedule_counts_match_the_slot_ages(self, horizon, period):
        # periods at and past the horizon, and horizons that are not a
        # multiple of the period, against the per-slot ages
        ages = np.arange(-1, horizon - 1) % period + 1
        ages[0] = 1
        pilots, histogram = simulation.schedule_counts(horizon, period)
        assert pilots == 1 + np.count_nonzero(ages[1:] == period)
        assert histogram == {a: int(c) for a, c in enumerate(np.bincount(ages)) if c}
        assert all(type(v) is int for v in (pilots, *histogram, *histogram.values()))

    def test_short_horizon_rejected(self, reference_params, default_table):
        with pytest.raises(ValueError, match="horizon"):
            run_policy(2, reference_params, default_table,
                       999, seed=1, mode=EXPECTED)

    def test_excessive_horizon_rejected(self, reference_params, default_table):
        with pytest.raises(ValueError, match="maximum"):
            run_policy(2, reference_params, default_table,
                       60_000_000, seed=1, mode=EXPECTED)

    def test_matches_step_loop_exactly(self, reference_params, default_table, reference_curve,
                                       reference_solution):
        # the vectorized reward pass must reproduce the one-slot reference path;
        # the threshold run takes its actions from the index rule
        horizon = 2000
        sol = reference_solution
        gamma = index_gamma(reference_curve)
        for mode in (EXPECTED, REALIZED):
            for period in (sol.period, 3):
                res = run_policy(period, reference_params, default_table, horizon,
                                 seed=17, mode=mode, reward_curve=reference_curve)
                trace, noise, uniforms = slot_streams(reference_params, horizon, period,
                                                      seed=17)
                state = SchedulerState(age=1, last_pilot_value=None, slot=0)
                total = 0.0
                pilots = 0
                histogram = Counter()
                for t in range(horizon):
                    if t == 0:
                        action = PILOT
                    elif period == sol.period:
                        action = decide(state.age, sol, gamma)
                    else:
                        action = PILOT if t % period == 0 else DATA
                    pilots += action == PILOT
                    histogram[state.age] += 1
                    state, reward = step(state, action, trace, reference_params,
                                         default_table, mode,
                                         pilot_noise=complex(noise[t]),
                                         decode_uniform=float(uniforms[t]),
                                         reward_curve=reference_curve)
                    total += reward
                assert res.avg_goodput == pytest.approx(total / horizon, abs=1e-12)
                assert res.pilot_fraction == pilots / horizon
                assert res.age_histogram == dict(histogram)

    def test_expected_mode_draws_no_streams(self, monkeypatch, reference_params,
                                            default_table, reference_curve):
        def refuse(*args, **kwargs):
            raise AssertionError("expected mode must not draw the random streams")

        monkeypatch.setattr(simulation, "_seed_streams", refuse)
        res = run_policy(4, reference_params, default_table, 10_000, seed=1,
                         mode=EXPECTED, reward_curve=reference_curve)
        assert res.pilot_fraction == 0.25
        with pytest.raises(AssertionError, match="random streams"):
            run_policy(4, reference_params, default_table, 10_000, seed=1,
                       mode=REALIZED, reward_curve=reference_curve)

    def test_realized_without_data_slots_draws_no_streams(self, monkeypatch,
                                                          reference_params, default_table):
        # period 1 pilots in every slot, so nothing would read the streams
        def refuse(*args, **kwargs):
            raise AssertionError("a run without data slots must not draw the random streams")

        monkeypatch.setattr(simulation, "_seed_streams", refuse)
        res = run_policy(1, reference_params, default_table, 10_000, seed=1, mode=REALIZED)
        assert res.avg_goodput == 0.0
        assert res.pilot_fraction == 1.0

    @pytest.mark.parametrize("horizon, period", [(1000, 2), (1001, 2), (1000, 3), (1000, 7),
                                                 (1006, 7), (1000, 1000), (1000, 1)])
    def test_streams_cover_exactly_the_read_slots(self, reference_params, horizon, period):
        trace, noise, uniforms = derive_streams(reference_params, horizon, period, seed=3)
        pilots = len(range(0, horizon, period))
        assert len(trace) == noise.size == pilots
        assert uniforms.size == horizon - pilots
        # the trace is the channel at the pilot slots, `period` slots apart
        lattice = generate_fading_trace(reference_params, pilots, trace.seed, stride=period)
        assert np.array_equal(trace.samples, lattice.samples)

    @pytest.mark.parametrize("horizon, period", [(125_000, 2), (1000, 7)])
    def test_pilot_noise_equals_the_temporaries(self, reference_params, horizon, period):
        # 62,500 draws per half cross three whole draw blocks and a partial one
        _, noise, _ = derive_streams(reference_params, horizon, period, seed=3)
        noise_seed = int(np.random.default_rng(3).integers(0, 2 ** 63, size=3)[1])
        rng = np.random.default_rng(noise_seed)
        sigma = math.sqrt(reference_params.noise_variance / 2.0)
        want = sigma * (rng.standard_normal(noise.size) + 1j * rng.standard_normal(noise.size))
        assert noise.tobytes() == want.tobytes()

    def test_realized_matches_expected_in_mean(self, reference_params, default_table,
                                               reference_curve, reference_solution):
        horizon = 200_000
        period = reference_solution.period
        exp = run_policy(period, reference_params, default_table, horizon, seed=42,
                         mode=EXPECTED, reward_curve=reference_curve)
        real = run_policy(period, reference_params, default_table, horizon, seed=42,
                          mode=REALIZED, reward_curve=reference_curve)
        # batched standard error: cycles are weakly correlated through fading
        assert abs(real.avg_goodput - exp.avg_goodput) <= 0.01

    def test_threshold_dominates_periodic_sample(self, reference_params, default_table,
                                                 reference_curve, reference_solution):
        horizon = 100_000
        thr = run_policy(reference_solution.period, reference_params,
                         default_table, horizon, seed=7, mode=EXPECTED,
                         reward_curve=reference_curve)
        for period in (1, 2, 3, 5, 8, 13, 21, 30):
            per = run_policy(period, reference_params, default_table,
                             horizon, seed=7, mode=EXPECTED, reward_curve=reference_curve)
            assert thr.avg_goodput >= per.avg_goodput - 1e-3


def tabulated_table(table) -> McsTable:
    """`table`'s BLER curves sampled every 2 dB from -30 to 40 dB."""
    grid = np.arange(-30.0, 42.0, 2.0)
    return McsTable(entries=[McsEntry(index=e.index, rate=e.rate,
                                      bler_curve=TabulatedBlerCurve(grid, e.bler_curve(grid)))
                             for e in table.entries], e_max=table.e_max)


class TestRealizedRewards:
    """`_realized_rewards` decides each block in band order; it must equal
    the per-slot decisions in slot order bit for bit."""

    @pytest.mark.parametrize("n", [(1 << 16) - 1, (1 << 16) + 1, (1 << 17) + 3])
    @pytest.mark.parametrize("tabulated", [False, True])
    def test_equals_the_per_slot_reference(self, default_table, rng, n, tabulated):
        table = tabulated_table(default_table) if tabulated else default_table
        t = table.feasibility_thresholds
        t = t[np.isfinite(t) & (t > 0)]
        special = np.concatenate([t, np.nextafter(t, 0.0), np.nextafter(t, np.inf),
                                  [0.0, -0.0, -1.0, -np.inf, 5e-324, np.inf]])
        eta = rng.lognormal(2.0, 3.0, n)
        eta[rng.choice(n, 40 * special.size, replace=False)] = np.repeat(special, 40)
        uniforms = rng.random(n)
        # draws exactly at 1 - BLER, where a slot just fails
        _, chosen, chosen_bler = max_goodput_matrix(eta, table)
        edge = rng.choice(n, 1000, replace=False)
        uniforms[edge] = np.where(chosen[edge] >= 0, 1.0 - chosen_bler[edge], 0.0)
        got = simulation._realized_rewards(eta, uniforms, table)
        want = realized_rewards_per_slot(eta, uniforms, table)
        assert np.array_equal(got, want)
        assert 0 < np.count_nonzero(got) < n
