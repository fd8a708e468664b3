import dataclasses
import functools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from oracles import (DATA, PILOT, ConvergenceError, best_period_brute,
                     best_period_prefix_loop, gamma_brute, index_gamma_per_age,
                     relative_value_iteration, solve_threshold_bisection)
from pilotsched import (HorizonExhaustedError, RewardCurve,
                        brute_force_optimal_period, build_reward_curve, default_config,
                        default_mcs_table, hitting_age, index_gamma, load_reward_curve,
                        policy_iteration, solve_threshold)
from pilotsched.cli import _write_csv
from pilotsched.validation import random_reward_curves


def curve_of(*values, pad: int = 0) -> RewardCurve:
    vals = np.array(list(values) + [0.0] * pad)
    return RewardCurve(values=vals)


HAND_CURVE = curve_of(1.0, 1.0, 1.0, pad=47)  # optimum: period 4, beta 3/4


def brute_force_ties(curve):
    """Brute force's (gain, tie set) over periods 1 .. len(curve) + 1."""
    _, best = brute_force_optimal_period(curve, len(curve) + 1)
    cs = curve.cumulative
    return best, [p for p in range(1, len(curve) + 2) if float(cs[p - 1]) / p == best]


BISECTION = functools.partial(solve_threshold_bisection, tol=1e-13)


def outcome(solve, curve) -> tuple:
    """('solved', beta, period), or ('unsolved',) when the optimal period
    does not fit the curve, which the bisection reports as a ConvergenceError."""
    try:
        sol = solve(curve)
    except (HorizonExhaustedError, ConvergenceError):
        return ("unsolved",)
    return ("solved", sol.beta, sol.period)


def physical_curve(**overrides) -> RewardCurve:
    cfg = dataclasses.replace(default_config(), **overrides)
    return build_reward_curve(cfg.link_params(), default_mcs_table(), cfg.delta_max,
                              cfg.quad_nodes)


def full_window_maximum(curve) -> np.ndarray:
    """The per-age oracle with every window that fits the curve."""
    n = len(curve)
    return np.array([index_gamma_per_age(age, curve, n - age + 1) for age in range(1, n + 1)])


# Multiples of 1/8 up to 8, in runs (ties and constant stretches) and with a
# zero tail: on such curves of up to a few hundred ages every prefix sum,
# difference and chord comparison is exact, so the hull vertex is the exact
# argmax and its rounded average is the largest rounded one.
EIGHTHS = st.integers(0, 64).map(lambda k: k / 8)
RUNS = st.lists(st.tuples(EIGHTHS, st.integers(1, 12)), min_size=1, max_size=8)


class TestIndexGamma:
    def test_constant_curve(self):
        c = curve_of(*[2.5] * 30)
        gamma = index_gamma(c)
        assert len(gamma) == 30
        assert np.all(gamma == 2.5)

    def test_single_spike(self):
        # r = (2, 0, 0, ...): tau = 1 maximizes at age 1
        c = curve_of(2.0, pad=19)
        assert index_gamma(c)[0] == 2.0

    def test_later_spike_widens_window(self):
        # r = (1, 3, 0, ...): the two-slot window averages 2, beating tau=1
        c = curve_of(1.0, 3.0, pad=18)
        assert index_gamma(c)[0] == 2.0

    def test_increasing_curve_takes_the_whole_tail(self):
        # the best window from every age runs to the end of the curve
        c = RewardCurve(values=np.arange(1.0, 21.0))
        assert np.array_equal(index_gamma(c), (np.arange(1.0, 21.0) + 20.0) / 2)

    def test_matches_brute_force(self, rng):
        for _ in range(30):
            values = rng.uniform(0, 5, size=40)
            c = RewardCurve(values=values)
            age = int(rng.integers(1, 41))
            assert index_gamma(c)[age - 1] == pytest.approx(
                gamma_brute(values.tolist(), age, 41 - age), rel=1e-12)

    def test_matches_per_age_formula_exactly(self, rng):
        for _ in range(50):
            length = int(rng.integers(1, 80))
            values = rng.uniform(0, 5, size=length)
            values[rng.random(length) < 0.3] = 0.0
            c = RewardCurve(values=values)
            assert np.array_equal(index_gamma(c), full_window_maximum(c))

    @given(RUNS, st.integers(0, 20))
    @example([(3.0, 1)], 0)
    @settings(max_examples=200, deadline=None)
    def test_matches_full_window_maximum_exactly(self, runs, zeros):
        c = curve_of(*[v for v, count in runs for _ in range(count)], pad=zeros)
        assert np.array_equal(index_gamma(c), full_window_maximum(c))

    @given(st.lists(st.floats(min_value=0.0, max_value=8.0), min_size=1, max_size=60))
    @settings(max_examples=200, deadline=None)
    def test_within_rounding_of_full_window_maximum(self, values):
        # gamma is one of the window averages the oracle maximizes over, so
        # it is never above it; where prefix sums are collinear up to
        # rounding (0.1 fifty times, say) the largest rounded average can
        # sit an ulp or two above the hull vertex's
        c = curve_of(*values)
        got, want = index_gamma(c), full_window_maximum(c)
        assert np.all(got <= want)
        assert np.allclose(got, want, rtol=1e-14, atol=0.0)


class TestHittingAge:
    def test_immediate_hit_for_large_beta(self):
        assert hitting_age(5.0, index_gamma(HAND_CURVE)) == 1

    def test_hand_curve(self):
        assert hitting_age(0.75, index_gamma(HAND_CURVE)) == 4

    def test_no_hit_raises(self):
        gamma = index_gamma(curve_of(*[1.0] * 30))
        with pytest.raises(HorizonExhaustedError, match="horizon exhausted"):
            hitting_age(0.0, gamma)


class TestSolveThreshold:
    def test_hand_curve_exact(self):
        sol = solve_threshold(HAND_CURVE)
        assert sol.beta == 0.75
        assert sol.period == 4
        assert hitting_age(sol.beta, index_gamma(HAND_CURVE)) == 4

    def test_all_zero_curve(self):
        sol = solve_threshold(curve_of(*[0.0] * 20))
        assert sol.beta == 0.0
        assert sol.period == 1

    def test_cycle_average_invariant(self, rng):
        for _ in range(20):
            values = np.concatenate([rng.uniform(0, 4, size=15), np.zeros(45)])
            c = RewardCurve(values=values)
            sol = solve_threshold(c)
            # bitwise against the curve's own prefix sums, near-exact against
            # an independent summation order
            assert sol.beta == float(c.cumulative[sol.period - 1]) / sol.period
            independent = sum(float(v) for v in values[:sol.period - 1]) / sol.period
            assert sol.beta == pytest.approx(independent, rel=1e-13)

    def test_threshold_separates_index(self, rng):
        for _ in range(10):
            values = np.concatenate([rng.uniform(0, 4, size=12), np.zeros(48)])
            c = RewardCurve(values=values)
            sol = solve_threshold(c)
            gamma = index_gamma(c)
            assert np.all(gamma[:sol.period - 1] > sol.beta)
            assert gamma[sol.period - 1] <= sol.beta

    def test_scaling_covariance(self, rng):
        values = np.concatenate([rng.uniform(0, 3, size=10), np.zeros(40)])
        base = solve_threshold(RewardCurve(values=values))
        for scale in (0.5, 2.0, 8.0):
            scaled = solve_threshold(RewardCurve(values=scale * values))
            assert scaled.period == base.period
            assert scaled.beta == pytest.approx(scale * base.beta, rel=1e-12)

    def test_bisection_g_nonincreasing(self):
        # g(b) = sum(r(1..h(b)-1)) - b*h(b) over a beta grid
        values = np.concatenate([np.array([2.0, 1.5, 1.0, 3.0, 0.2]), np.zeros(45)])
        c = RewardCurve(values=values)
        cs = c.cumulative
        gamma = index_gamma(c)
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

    @pytest.mark.parametrize("values,beta,period", [([0.0], 0.0, 1), ([2.0, 0.0], 1.0, 2)])
    def test_one_and_two_age_curves(self, values, beta, period):
        # r = (2, 0): gamma = (2, 0), so b = 0 hits at age 2 and b = 1 stays there
        sol = solve_threshold(curve_of(*values))
        assert (sol.beta, sol.period) == (beta, period)

    def test_tie_set_takes_the_smaller_hitting_age(self):
        # periods 2 and 4 both average 1/2; the first step hits at age 4, the
        # second at age 2 with b unchanged, and the third confirms age 2
        sol = solve_threshold(curve_of(1.0, 0.0, 1.0, pad=20))
        assert (sol.beta, sol.period) == (0.5, 2)
        assert brute_force_optimal_period(curve_of(1.0, 0.0, 1.0, pad=20), 24) == (2, 0.5)

    @pytest.mark.parametrize("values", [[1.0], [1.0] * 30, list(range(1, 11))])
    def test_optimum_past_the_curve_raises(self, values):
        # the fixed point is the forced pilot at age len(curve) + 1
        with pytest.raises(HorizonExhaustedError, match="exceeds the"):
            solve_threshold(curve_of(*values))

    @given(RUNS, st.integers(0, 20))
    @example([(0.0, 3)], 0)
    @settings(max_examples=300, deadline=None)
    def test_equals_bisection_and_brute_force_on_eighths(self, runs, zeros):
        # the prefix sums of these curves are exact and rounding a quotient is
        # monotone, so beta equals brute force's best average bit for bit
        c = curve_of(*[v for v, count in runs for _ in range(count)], pad=zeros)
        want = outcome(BISECTION, c)
        assert outcome(solve_threshold, c) == want
        if want[0] == "solved":
            assert want[1] == brute_force_optimal_period(c, len(c) + 1)[1]

    @given(st.integers(0, 2 ** 32 - 1), st.integers(1, 80), st.integers(0, 40))
    @settings(max_examples=300, deadline=None)
    def test_equals_bisection_on_uniform_floats(self, seed, support, zeros):
        # a fifth of the support zeroed, as in random_reward_curves; curves
        # whose prefix sums are collinear only up to rounding (one value
        # repeated at many ages, say) can put two periods a few ulps apart,
        # and there the two solvers may settle on different ones
        rng = np.random.default_rng(seed)
        values = rng.uniform(0.0, 8.0, size=support)
        values[rng.random(support) < 0.2] = 0.0
        c = curve_of(*values, pad=zeros)
        assert outcome(solve_threshold, c) == outcome(BISECTION, c)

    def test_subnormal_roundoff_keeps_the_larger_average(self):
        # 1e-323 / 3 rounds up to 5e-324, the index at age 1, so b = 5e-324
        # hits at age 1, whose average 0 is smaller: the iteration stops at
        # period 3, as brute force and policy iteration find (the bisection
        # raised ConvergenceError here)
        c = curve_of(5e-324, 5e-324, pad=18)
        sol = solve_threshold(c)
        assert (sol.beta, sol.period) == (5e-324, 3)
        assert brute_force_optimal_period(c, 21) == (3, 5e-324)
        assert policy_iteration(c)[:2] == (3, 5e-324)


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

    def test_equals_the_loop_over_prefix_sums(self, rng):
        # uniform values, subnormal multiples (whose averages round by up to
        # half their value), eighths, and repeats of a short block, whose
        # cycle averages tie or nearly tie
        for k in range(400):
            n = int(rng.integers(1, 60))
            values = [rng.uniform(0.0, 5.0, n), rng.integers(0, 8, n) * 5e-324,
                      rng.integers(0, 17, n) / 8.0,
                      np.resize(rng.uniform(0.0, 3.0, int(rng.integers(1, 6))), n)][k % 4]
            c = RewardCurve(values=np.concatenate([values, np.zeros(int(rng.integers(0, 30)))]))
            for p_max in (1, int(rng.integers(1, len(c) + 2)), len(c) + 1):
                got = brute_force_optimal_period(c, p_max)
                assert got == best_period_prefix_loop(c, p_max)
                assert type(got[0]) is int and type(got[1]) is float

    def test_p_max_bound(self):
        with pytest.raises(ValueError):
            brute_force_optimal_period(curve_of(1.0, 1.0), 4)


class TestRelativeValueIteration:
    """The slow reference for policy iteration, kept in tests/oracles.py."""

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
            beta = solve_threshold(c).beta
            gain = relative_value_iteration(c, 60, tol=1e-10).gain
            assert gain == pytest.approx(beta, abs=1e-7)

    def test_max_age_longer_than_curve_rejected(self):
        with pytest.raises(ValueError):
            relative_value_iteration(curve_of(1.0, 1.0, 1.0), 10)


class TestPolicyIteration:
    def test_hand_curve_exact(self):
        # from all-pilot, one improvement sends data at ages 1..3 and the
        # second evaluation confirms it
        assert policy_iteration(HAND_CURVE) == (4, 0.75, 2)

    def test_zero_curve(self):
        # the all-pilot start is already optimal
        assert policy_iteration(curve_of(*[0.0] * 20)) == (1, 0.0, 1)

    def test_tie_keeps_current_action(self):
        # periods 4 and 5 both average 3/4; the first improvement sends data
        # at ages 1..4, and at age 4 data and pilot then tie, so data stays
        assert policy_iteration(curve_of(1.0, 1.0, 1.0, 0.75, pad=46)) == (5, 0.75, 2)

    def test_single_age_curve(self):
        # ages 1 and 2 only: pilot every slot (gain 0) or every other (r(1)/2)
        assert policy_iteration(curve_of(3.0))[:2] == (2, 1.5)

    def test_matches_brute_force_bitwise(self):
        for curve in random_reward_curves(200, np.random.default_rng(37)):
            period, gain, _ = policy_iteration(curve)
            best, ties = brute_force_ties(curve)
            assert gain == best
            assert period in ties

    @pytest.mark.parametrize("values, period, gain", [
        # periods 5, 4, 5, ...: the return to 5 (a fall to 1.5e-323) stops it
        ((2e-323, 2.5e-323, 2.5e-323, 1.5e-323, 0.0, 5e-324), 4, 2e-323),
        # periods 5, 6: the fall to gain 0 at 6 stops it; past it, the
        # iteration would go on to period 3 and end there at gain 0
        ((0.0, 5e-324, 0.0, 1e-323, 0.0), 5, 5e-324)])
    def test_subnormal_roundoff_stops_at_the_larger_gain(self, values, period, gain):
        curve = curve_of(*values)
        assert policy_iteration(curve)[:2] == (period, gain)
        assert brute_force_optimal_period(curve, len(values) + 1) == (period, gain)

    @given(st.lists(st.integers(0, 64).map(lambda k: k * 5e-324), min_size=1, max_size=40))
    @example([5e-324, 0.0, 0.0, 0.0, 0.0, 1e-323, 0.0])  # cycled at an equal gain
    @settings(max_examples=300, deadline=None)
    def test_subnormal_curves_end_on_a_cycle_average(self, values):
        # cycle averages of multiples of 5e-324 round by up to half their
        # value, which made the iteration cycle; it must end within the bound
        curve = curve_of(*values)
        n_ages = len(values) + 1
        period, gain, iterations = policy_iteration(curve)
        assert 1 <= period <= n_ages
        assert gain == float(curve.cumulative[period - 1]) / period
        assert gain <= brute_force_optimal_period(curve, n_ages)[1]
        assert iterations <= n_ages ** 2 + 1

    def test_matches_value_iteration_on_triangle_curves(self):
        for curve in random_reward_curves(20, np.random.default_rng(37)):
            rvi = relative_value_iteration(curve, len(curve), tol=1e-9)
            assert abs(policy_iteration(curve)[1] - rvi.gain) <= 1e-9

    @pytest.mark.parametrize("overrides,period", [
        ({}, 3), ({"snr_db": 20.0, "speed": 0.15}, 27), ({"speed": 0.005}, 247)])
    def test_matches_value_iteration_on_physical_curves(self, overrides, period):
        curve = physical_curve(**overrides)
        got_period, gain, _ = policy_iteration(curve)
        rvi = relative_value_iteration(curve, len(curve), tol=1e-9)
        assert abs(gain - rvi.gain) <= 1e-9
        assert got_period == period
        assert gain == brute_force_optimal_period(curve, len(curve) + 1)[1]


class TestOracleTriangle:
    @given(st.lists(st.floats(min_value=0.0, max_value=8.0,
                              allow_nan=False, allow_infinity=False),
                    min_size=1, max_size=20))
    @settings(max_examples=40, deadline=None)
    def test_three_way_agreement(self, support):
        values = np.concatenate([np.array(support, dtype=float), np.zeros(60)])
        c = RewardCurve(values=values)
        sol = solve_threshold(c)
        bf_avg, ties = brute_force_ties(c)
        gain = relative_value_iteration(c, len(values), tol=1e-9).gain
        mdp_period, mdp_gain, _ = policy_iteration(c)
        assert abs(sol.beta - bf_avg) <= 1e-6
        assert abs(sol.beta - gain) <= 1e-6
        assert abs(bf_avg - gain) <= 1e-6
        assert mdp_gain == bf_avg
        assert mdp_period in ties


class TestDecide:
    """The threshold rule pilots at age d exactly when gamma(d) <= beta."""

    def test_hitting_age_is_pilot(self):
        sol = solve_threshold(HAND_CURVE)
        assert index_gamma(HAND_CURVE)[sol.period - 1] <= sol.beta

    def test_fresh_age_is_data(self):
        sol = solve_threshold(HAND_CURVE)
        assert index_gamma(HAND_CURVE)[0] > sol.beta

    def test_cycle_structure(self):
        sol = solve_threshold(HAND_CURVE)
        gamma = index_gamma(HAND_CURVE)
        assert np.all(gamma[:sol.period - 1] > sol.beta)
        assert gamma[sol.period - 1] <= sol.beta


class TestRewardCurveCsv:
    def test_round_trip(self, tmp_path, rng):
        # written as goodput-curve writes it
        curve = RewardCurve(values=rng.uniform(0, 3, size=12))
        path = tmp_path / "curve.csv"
        _write_csv(path, ["age", "reward"], enumerate(curve.values.tolist(), start=1))
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
