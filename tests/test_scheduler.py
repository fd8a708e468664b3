import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import pilotsched.scheduler as scheduler
from oracles import best_period_brute, gamma_brute, index_gamma_per_age
from pilotsched import (DATA, PILOT, ConvergenceError, HorizonExhaustedError,
                        RewardCurve, brute_force_optimal_period, hitting_age,
                        index_gamma, load_reward_curve, relative_value_iteration,
                        save_reward_curve, solve_threshold)


def curve_of(*values, pad: int = 0) -> RewardCurve:
    vals = np.array(list(values) + [0.0] * pad)
    return RewardCurve(values=vals)


HAND_CURVE = curve_of(1.0, 1.0, 1.0, pad=47)  # optimum: period 4, beta 3/4


class TestIndexGamma:
    def test_constant_curve(self):
        c = curve_of(*[2.5] * 30)
        gamma = index_gamma(c, tau_max=10)
        assert len(gamma) == 21
        assert np.all(gamma == 2.5)

    def test_single_spike(self):
        # r = (2, 0, 0, ...): tau = 1 maximizes at age 1
        c = curve_of(2.0, pad=19)
        assert index_gamma(c, tau_max=10)[0] == 2.0

    def test_later_spike_widens_window(self):
        # r = (1, 3, 0, ...): the two-slot window averages 2, beating tau=1
        c = curve_of(1.0, 3.0, pad=18)
        assert index_gamma(c, tau_max=10)[0] == 2.0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_matches_brute_force(self, rng):
        # random full-support curves legitimately hit the window boundary
        for _ in range(30):
            values = rng.uniform(0, 5, size=40)
            c = RewardCurve(values=values)
            age = int(rng.integers(1, 20))
            tau_max = int(rng.integers(1, 40 - age + 2))
            assert index_gamma(c, tau_max)[age - 1] == pytest.approx(
                gamma_brute(values.tolist(), age, tau_max), rel=1e-12)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_matches_per_age_formula_exactly(self, rng, monkeypatch):
        # every block size gives the per-age values bit for bit, at both
        # extremes of the window bound
        for _ in range(50):
            length = int(rng.integers(1, 80))
            values = rng.uniform(0, 5, size=length)
            values[rng.random(length) < 0.3] = 0.0
            c = RewardCurve(values=values)
            for tau_max in (1, length, int(rng.integers(1, length + 1))):
                monkeypatch.setattr(scheduler, "_INDEX_BLOCK_ELEMENTS",
                                    int(rng.integers(1, 4 * tau_max + 1)))
                want = [index_gamma_per_age(age, c, tau_max)
                        for age in range(1, length - tau_max + 2)]
                assert np.array_equal(index_gamma(c, tau_max), want)

    def test_window_overflow_rejected(self):
        c = curve_of(1.0, 1.0, 1.0)
        with pytest.raises(ValueError, match="exceeds"):
            index_gamma(c, tau_max=4)

    def test_boundary_argmax_warns(self):
        # strictly increasing curve: the best window is always the longest,
        # and one warning counts all 11 ages
        c = RewardCurve(values=np.arange(1.0, 21.0))
        with pytest.warns(RuntimeWarning, match="tau_max=10 at 11 of 11 ages") as record:
            index_gamma(c, tau_max=10)
        assert len(record) == 1


class TestHittingAge:
    def test_immediate_hit_for_large_beta(self):
        assert hitting_age(5.0, index_gamma(HAND_CURVE, tau_max=10)) == 1

    def test_hand_curve(self):
        assert hitting_age(0.75, index_gamma(HAND_CURVE, tau_max=10)) == 4

    def test_no_hit_raises(self):
        gamma = index_gamma(curve_of(*[1.0] * 30), tau_max=5)
        with pytest.raises(HorizonExhaustedError, match="horizon exhausted"):
            hitting_age(0.0, gamma)


class TestSolveThreshold:
    def test_hand_curve_exact(self):
        sol = solve_threshold(HAND_CURVE, tol=1e-13, tau_max=10)
        assert sol.beta == 0.75
        assert sol.period == 4
        assert sol.hitting_age == 4

    def test_all_zero_curve(self):
        sol = solve_threshold(curve_of(*[0.0] * 20), tau_max=5)
        assert sol.beta == 0.0
        assert sol.period == 1

    def test_cycle_average_invariant(self, rng):
        for _ in range(20):
            values = np.concatenate([rng.uniform(0, 4, size=15), np.zeros(45)])
            c = RewardCurve(values=values)
            sol = solve_threshold(c, tol=1e-13, tau_max=20)
            # bitwise against the curve's own prefix sums, near-exact against
            # an independent summation order
            assert sol.beta == float(c.cumulative[sol.period - 1]) / sol.period
            independent = sum(float(v) for v in values[:sol.period - 1]) / sol.period
            assert sol.beta == pytest.approx(independent, rel=1e-13)

    def test_threshold_separates_index(self, rng):
        for _ in range(10):
            values = np.concatenate([rng.uniform(0, 4, size=12), np.zeros(48)])
            c = RewardCurve(values=values)
            sol = solve_threshold(c, tol=1e-13, tau_max=20)
            gamma = index_gamma(c, sol.tau_max)
            assert np.all(gamma[:sol.hitting_age - 1] > sol.beta)
            assert gamma[sol.hitting_age - 1] <= sol.beta

    def test_scaling_covariance(self, rng):
        values = np.concatenate([rng.uniform(0, 3, size=10), np.zeros(40)])
        base = solve_threshold(RewardCurve(values=values), tol=1e-13, tau_max=15)
        for scale in (0.5, 2.0, 8.0):
            scaled = solve_threshold(RewardCurve(values=scale * values),
                                     tol=1e-13, tau_max=15)
            assert scaled.period == base.period
            assert scaled.beta == pytest.approx(scale * base.beta, rel=1e-12)

    def test_bisection_g_nonincreasing(self):
        # g(b) = sum(r(1..h(b)-1)) - b*h(b) over a beta grid
        values = np.concatenate([np.array([2.0, 1.5, 1.0, 3.0, 0.2]), np.zeros(45)])
        c = RewardCurve(values=values)
        cs = c.cumulative
        gamma = index_gamma(c, tau_max=10)
        last = None
        for beta in np.linspace(0.0, 3.0, 301):
            try:
                h = hitting_age(float(beta), gamma)
            except HorizonExhaustedError:
                continue
            g = float(cs[h - 1]) - beta * h
            if last is not None:
                assert g <= last + 1e-12
            last = g

    def test_zero_tolerance_rejected(self):
        with pytest.raises(ValueError):
            solve_threshold(HAND_CURVE, tol=0.0, tau_max=10)


class TestBruteForce:
    def test_all_zero(self):
        assert brute_force_optimal_period(curve_of(*[0.0] * 10), 10) == (1, 0.0)

    def test_hand_curve(self):
        assert brute_force_optimal_period(HAND_CURVE, 10) == (4, 0.75)

    def test_single_spike(self):
        # r = (2, 0, ...): period 2 yields 2/2 = 1, the best
        period, avg = brute_force_optimal_period(curve_of(2.0, pad=9), 10)
        assert (period, avg) == (2, 1.0)

    def test_matches_pure_python(self, rng):
        for _ in range(25):
            values = rng.uniform(0, 5, size=30)
            c = RewardCurve(values=values)
            got = brute_force_optimal_period(c, 31)
            want = best_period_brute(values.tolist(), 31)
            assert got[0] == want[0]
            assert got[1] == pytest.approx(want[1], rel=1e-12)

    def test_p_max_bound(self):
        with pytest.raises(ValueError):
            brute_force_optimal_period(curve_of(1.0, 1.0), 4)


class TestRelativeValueIteration:
    def test_zero_curve(self):
        sol = relative_value_iteration(curve_of(*[0.0] * 20), 20)
        assert sol.gain == pytest.approx(0.0, abs=1e-12)

    def test_hand_curve(self):
        sol = relative_value_iteration(HAND_CURVE, 50, tol=1e-10)
        assert sol.gain == pytest.approx(0.75, abs=1e-8)
        assert sol.policy[:3] == (DATA, DATA, DATA)
        assert all(a == PILOT for a in sol.policy[3:10])

    def test_gain_matches_threshold(self, rng):
        for _ in range(10):
            values = np.concatenate([rng.uniform(0, 4, size=12), np.zeros(48)])
            c = RewardCurve(values=values)
            beta = solve_threshold(c, tol=1e-13, tau_max=20).beta
            gain = relative_value_iteration(c, 60, tol=1e-10).gain
            assert gain == pytest.approx(beta, abs=1e-7)

    def test_max_age_longer_than_curve_rejected(self):
        with pytest.raises(ValueError):
            relative_value_iteration(curve_of(1.0, 1.0, 1.0), 10)


class TestOracleTriangle:
    @given(st.lists(st.floats(min_value=0.0, max_value=8.0,
                              allow_nan=False, allow_infinity=False),
                    min_size=1, max_size=20))
    @settings(max_examples=40, deadline=None)
    def test_three_way_agreement(self, support):
        values = np.concatenate([np.array(support, dtype=float), np.zeros(60)])
        c = RewardCurve(values=values)
        sol = solve_threshold(c, tol=1e-13, tau_max=25)
        _, bf_avg = brute_force_optimal_period(c, len(values) + 1)
        gain = relative_value_iteration(c, len(values), tol=1e-9).gain
        assert abs(sol.beta - bf_avg) <= 1e-6
        assert abs(sol.beta - gain) <= 1e-6
        assert abs(bf_avg - gain) <= 1e-6


class TestDecide:
    """The threshold rule pilots at age d exactly when gamma(d) <= beta."""

    def test_hitting_age_is_pilot(self):
        sol = solve_threshold(HAND_CURVE, tol=1e-13, tau_max=10)
        assert index_gamma(HAND_CURVE, sol.tau_max)[sol.hitting_age - 1] <= sol.beta

    def test_fresh_age_is_data(self):
        sol = solve_threshold(HAND_CURVE, tol=1e-13, tau_max=10)
        assert index_gamma(HAND_CURVE, sol.tau_max)[0] > sol.beta

    def test_cycle_structure(self):
        sol = solve_threshold(HAND_CURVE, tol=1e-13, tau_max=10)
        gamma = index_gamma(HAND_CURVE, sol.tau_max)
        assert np.all(gamma[:sol.period - 1] > sol.beta)
        assert gamma[sol.period - 1] <= sol.beta


class TestRewardCurveCsv:
    def test_round_trip(self, tmp_path, rng):
        curve = RewardCurve(values=rng.uniform(0, 3, size=12))
        path = tmp_path / "curve.csv"
        save_reward_curve(curve, path)
        loaded = load_reward_curve(path)
        assert np.array_equal(loaded.values, curve.values)

    def test_non_consecutive_ages_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("age,reward\n1,1.0\n3,2.0\n")
        with pytest.raises(ValueError, match="consecutive"):
            load_reward_curve(path)

    def test_empty_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("age,reward\n")
        with pytest.raises(ValueError, match="no data"):
            load_reward_curve(path)

    def test_negative_reward_rejected(self, tmp_path):
        path = tmp_path / "neg.csv"
        path.write_text("age,reward\n1,-0.5\n")
        with pytest.raises(ValueError):
            load_reward_curve(path)
