"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Statistical criteria run with pinned seeds so reruns are identical.
"""

import math
import time

import numpy as np
import pytest

from pilotsched import (EXPECTED, REALIZED, LinkParams, MPH_TO_MPS, SPEED_OF_LIGHT,
                        RewardCurve, build_reward_curve, default_mcs_table,
                        expected_goodputs, hitting_age, index_gamma, run_policy,
                        solve_threshold)
from pilotsched.config import ExperimentConfig
from pilotsched.validation import (check_autocorrelation_fidelity,
                                   check_orthogonality, mc_expected_goodput,
                                   oracle_deviations, random_reward_curves)

SNR_GRID_DB = [-5.0, 0.0, 5.0, 10.0, 15.0, 20.0, 25.0]
SPEED_GRID_MPH = [2.0, 10.0, 20.0, 30.0, 40.0, 50.0, 60.0]


def report(criterion: int, passed: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion} {'PASS' if passed else 'FAIL'}: {detail}")


@pytest.fixture(scope="module")
def reference_point():
    params = LinkParams(pilot_power=1.0, data_power=1.0, noise_variance=0.01,
                        channel_variance=1.0,
                        doppler_hz=15 * MPH_TO_MPS * 2.4e9 / SPEED_OF_LIGHT,
                        sample_period=1e-3)
    return params, default_mcs_table()


def test_criterion_1_scheduler_oracle_triangle(reference_point):
    """The threshold fixed point, brute force (every period the curve covers),
    and policy iteration (every tabulated age) agree to 1e-6."""
    t0 = time.perf_counter()
    params, table = reference_point
    rng = np.random.default_rng(2024)
    worst = 0.0
    for curve in random_reward_curves(20, rng):
        dev = oracle_deviations(curve)
        worst = max(worst, dev["max_deviation"])
    physical = build_reward_curve(params, table, 600)
    dev = oracle_deviations(physical)
    worst = max(worst, dev["max_deviation"])
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 10.0
    report(1, ok, f"worst pairwise deviation {worst:.3e} (tol 1e-6), "
                  f"physical period {dev['period']}, {elapsed:.1f}s (< 10s)")
    assert worst <= 1e-6
    assert elapsed < 10.0


def test_criterion_2_hand_checkable_fixed_point():
    """r = (1,1,1,0,...) yields beta 3/4, period 4, hitting age 4 exactly."""
    curve = RewardCurve(values=np.concatenate([np.ones(3), np.zeros(197)]))
    sol = solve_threshold(curve)
    hit = hitting_age(sol.beta, index_gamma(curve))
    ok = abs(sol.beta - 0.75) <= 1e-12 and sol.period == 4 and hit == 4
    report(2, ok, f"beta {sol.beta!r} (want 0.75 +- 1e-12), period {sol.period}, "
                  f"hitting age {hit}")
    assert abs(sol.beta - 0.75) <= 1e-12
    assert sol.period == 4
    assert hit == 4


def test_criterion_3_goodput_non_monotonicity(reference_point):
    """r(1..20) at the headline point dips at the first Bessel zero and recovers."""
    t0 = time.perf_counter()
    params, table = reference_point
    values = expected_goodputs(np.arange(1, 21), params, table).tolist()
    argmin = int(np.argmin(values)) + 1
    recovery = values[argmin + 3 - 1] > values[argmin - 1]
    elapsed = time.perf_counter() - t0
    ok = argmin in (6, 7, 8) and recovery and elapsed < 5.0
    report(3, ok, f"argmin age {argmin} (want 6..8), "
                  f"r({argmin + 3}) = {values[argmin + 2]:.3e} > "
                  f"r({argmin}) = {values[argmin - 1]:.3e}, {elapsed:.1f}s (< 5s)")
    assert argmin in (6, 7, 8)
    assert recovery
    assert elapsed < 5.0


def test_criterion_4_policy_dominance():
    """Threshold beats periodic-2 on both sweep grids, CRN, horizon 1e6."""
    t0 = time.perf_counter()
    table = default_mcs_table()
    horizon = 1_000_000
    seed = 7
    margins = []

    def compare(params):
        curve = build_reward_curve(params, table, 160)
        sol = solve_threshold(curve)
        thr = run_policy(sol.period, params, table, horizon,
                         seed, EXPECTED, reward_curve=curve)
        per = run_policy(2, params, table, horizon,
                         seed, EXPECTED, reward_curve=curve)
        return thr.avg_goodput - per.avg_goodput

    cfg = ExperimentConfig(snr_db=20.0)
    for snr_db in SNR_GRID_DB:
        margins.append((f"{snr_db:g} dB", compare(cfg.link_params(snr_db=snr_db))))
    for mph in SPEED_GRID_MPH:
        margins.append((f"{mph:g} mph", compare(cfg.link_params(speed_mph=mph))))

    worst_label, worst_margin = min(margins, key=lambda kv: kv[1])
    elapsed = time.perf_counter() - t0
    ok = worst_margin >= -1e-3 and elapsed < 120.0
    report(4, ok, f"threshold - periodic2 margin >= {worst_margin:.3e} "
                  f"(worst at {worst_label}, tol -1e-3), {len(margins)} grid points, "
                  f"{elapsed:.0f}s (< 120s)")
    assert worst_margin >= -1e-3
    assert elapsed < 120.0


def test_criterion_5_closed_loop_consistency(reference_point):
    """Simulated threshold average hits beta up to the truncated final cycle;
    realized mode agrees with expected mode within 3 MC standard errors."""
    params, table = reference_point
    curve = build_reward_curve(params, table, 160)
    sol = solve_threshold(curve)
    horizon = 1_000_000
    exp = run_policy(sol.period, params, table, horizon, 42, EXPECTED, reward_curve=curve)
    bound = 10 * sol.period / horizon
    beta_gap = abs(exp.avg_goodput - sol.beta)

    # realized mode: independent runs give a clean between-run standard error
    n_runs, sub_horizon = 8, 125_000
    avgs = [run_policy(sol.period, params, table, sub_horizon, 100 + k, REALIZED,
                       reward_curve=curve).avg_goodput for k in range(n_runs)]
    avgs = np.array(avgs)
    se = float(avgs.std(ddof=1) / math.sqrt(n_runs))
    realized_gap = abs(float(avgs.mean()) - exp.avg_goodput)

    ok = beta_gap <= bound and realized_gap <= 3 * se
    report(5, ok, f"|sim - beta| = {beta_gap:.2e} (bound {bound:.2e}); "
                  f"|realized - expected| = {realized_gap:.2e} (3 SE = {3 * se:.2e})")
    assert beta_gap <= bound
    assert realized_gap <= 3 * se


def test_criterion_6_channel_fidelity(reference_point):
    """Trace autocovariance matches the Jakes curve; MMSE orthogonality holds."""
    params, _ = reference_point
    fid_params = LinkParams(pilot_power=1.0, data_power=1.0, noise_variance=0.01,
                            channel_variance=1.0, doppler_hz=50.0, sample_period=1e-3)
    fid = check_autocorrelation_fidelity(fid_params)
    orth = check_orthogonality(params, age=3, n=1_000_000, seed=11)
    ok = fid.passed and orth.passed
    report(6, ok, f"{fid.detail}; {orth.detail}")
    assert fid.passed, fid.detail
    assert orth.passed, orth.detail


def test_criterion_7_quadrature_vs_monte_carlo():
    """Quadrature r(age) within relative 1e-3 of a 1e7-sample Monte Carlo."""
    table = default_mcs_table()
    rng = np.random.default_rng(23)
    worst = 0.0
    checked = 0
    while checked < 10:
        snr_db = rng.uniform(0.0, 20.0)
        fd_ts = rng.uniform(0.02, 0.08)
        age = int(rng.integers(1, 6))
        params = LinkParams(pilot_power=1.0, data_power=1.0,
                            noise_variance=10.0 ** (-snr_db / 10.0),
                            channel_variance=1.0, doppler_hz=fd_ts * 1000.0,
                            sample_period=1e-3)
        quad_val = float(expected_goodputs([age], params, table)[0])
        if quad_val < 0.05 * table.max_rate:
            continue
        mc_val, _ = mc_expected_goodput(age, params, table, 10_000_000,
                                        seed=int(rng.integers(0, 2 ** 63)))
        worst = max(worst, abs(quad_val - mc_val) / mc_val)
        checked += 1
    ok = worst <= 1e-3
    report(7, ok, f"worst relative deviation {worst:.3e} over 10 points "
                  f"(tol 1e-3, n = 1e7)")
    assert worst <= 1e-3
