import math
from collections import Counter

import numpy as np
import pytest

import pilotsched.simulation as simulation
from pilotsched import (DATA, EXPECTED, PILOT, REALIZED, RewardCurve,
                        SchedulerState, build_reward_curve, decide,
                        derive_streams, max_goodput, run_policy, sinr,
                        solve_threshold, step)


@pytest.fixture(scope="module")
def reference_curve(reference_params, default_table):
    return build_reward_curve(reference_params, default_table, 160)


@pytest.fixture(scope="module")
def reference_solution(reference_curve):
    return solve_threshold(reference_curve, tol=1e-13, tau_max=128)


class TestStep:
    def test_pilot_reward_zero_and_age_reset(self, reference_params, default_table):
        trace, noise, _ = derive_streams(reference_params, 1000, seed=5)
        state = SchedulerState(age=7, last_pilot_value=None, slot=0)
        nxt, reward = step(state, PILOT, trace, reference_params, default_table,
                           EXPECTED, pilot_noise=complex(noise[0]))
        assert reward == 0.0
        assert nxt.age == 1
        assert nxt.slot == 1
        expected_y = math.sqrt(reference_params.pilot_power) * trace.samples[0] + noise[0]
        assert nxt.last_pilot_value == expected_y

    def test_data_increments_age(self, reference_params, default_table, reference_curve):
        trace, _, _ = derive_streams(reference_params, 1000, seed=5)
        state = SchedulerState(age=5, last_pilot_value=1.0 + 0.5j, slot=3)
        nxt, _ = step(state, DATA, trace, reference_params, default_table,
                      EXPECTED, reward_curve=reference_curve)
        assert nxt.age == 6
        assert nxt.last_pilot_value == state.last_pilot_value

    def test_expected_reward_is_curve_value(self, reference_params, default_table, reference_curve):
        trace, _, _ = derive_streams(reference_params, 1000, seed=5)
        state = SchedulerState(age=2, last_pilot_value=0.3 - 1.2j, slot=10)
        _, reward = step(state, DATA, trace, reference_params, default_table,
                         EXPECTED, reward_curve=reference_curve)
        assert reward == reference_curve.value(2)

    def test_expected_reward_without_curve_uses_quadrature(self, reference_params,
                                                           default_table, reference_curve):
        trace, _, _ = derive_streams(reference_params, 1000, seed=5)
        state = SchedulerState(age=2, last_pilot_value=0.3 - 1.2j, slot=10)
        _, with_curve = step(state, DATA, trace, reference_params, default_table,
                             EXPECTED, reward_curve=reference_curve)
        _, without = step(state, DATA, trace, reference_params, default_table, EXPECTED)
        assert without == with_curve

    def test_data_before_first_pilot_rejected(self, reference_params, default_table):
        trace, _, _ = derive_streams(reference_params, 1000, seed=5)
        state = SchedulerState(age=1, last_pilot_value=None, slot=0)
        with pytest.raises(ValueError, match="first pilot"):
            step(state, DATA, trace, reference_params, default_table, EXPECTED)

    def test_realized_bernoulli_mean_given_pilot(self, reference_params, default_table):
        # repetitions at one fixed pilot y: mean matches R*(1-bler(eta))
        trace, _, _ = derive_streams(reference_params, 1000, seed=5)
        y = 1.1 - 0.4j
        age = 2
        eta = sinr(age, y, reference_params)
        goodput, entry = max_goodput(eta, default_table)
        assert entry is not None
        rng = np.random.default_rng(31)
        state = SchedulerState(age=age, last_pilot_value=y, slot=0)
        draws = np.array([
            step(state, DATA, trace, reference_params, default_table, REALIZED,
                 decode_uniform=float(u))[1]
            for u in rng.random(100_000)
        ])
        se = draws.std(ddof=1) / math.sqrt(len(draws))
        assert draws.mean() == pytest.approx(goodput, abs=3 * se)

    def test_realized_mean_over_fresh_pilots_matches_expected(self, reference_params,
                                                              default_table, reference_curve):
        # repetitions of pilot + data: realized mean converges to r(age)
        horizon = 100_000
        trace, noise, uniforms = derive_streams(reference_params, horizon, seed=8)
        age = 1
        rewards = np.empty(horizon // 2)
        for i in range(horizon // 2):
            s0 = SchedulerState(age=1, last_pilot_value=None, slot=2 * i)
            s1, _ = step(s0, PILOT, trace, reference_params, default_table, REALIZED,
                         pilot_noise=complex(noise[2 * i]))
            _, r = step(s1, DATA, trace, reference_params, default_table, REALIZED,
                        decode_uniform=float(uniforms[2 * i + 1]))
            rewards[i] = r
        se = rewards.std(ddof=1) / math.sqrt(len(rewards))
        assert rewards.mean() == pytest.approx(reference_curve.value(age), abs=3 * se)

    def test_unknown_mode_rejected(self, reference_params, default_table):
        trace, noise, _ = derive_streams(reference_params, 1000, seed=5)
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
            sol = solve_threshold(curve, tau_max=10)
        actions = [decide(age, sol, curve) for age in range(1, sol.period + 1)]
        assert actions == [DATA] * (sol.period - 1) + [PILOT]

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
        sol = solve_threshold(curve, tau_max=10)
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
        # the vectorized reward pass must reproduce the one-slot reference path
        horizon = 2000
        for mode in (EXPECTED, REALIZED):
            for period in (reference_solution.period, 3):
                res = run_policy(period, reference_params, default_table, horizon,
                                 seed=17, mode=mode, reward_curve=reference_curve)
                trace, noise, uniforms = derive_streams(reference_params, horizon, seed=17)
                state = SchedulerState(age=1, last_pilot_value=None, slot=0)
                total = 0.0
                pilots = 0
                histogram = Counter()
                for t in range(horizon):
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

        monkeypatch.setattr(simulation, "derive_streams", refuse)
        res = run_policy(4, reference_params, default_table, 10_000, seed=1,
                         mode=EXPECTED, reward_curve=reference_curve)
        assert res.pilot_fraction == 0.25
        with pytest.raises(AssertionError, match="random streams"):
            run_policy(4, reference_params, default_table, 10_000, seed=1,
                       mode=REALIZED, reward_curve=reference_curve)

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
