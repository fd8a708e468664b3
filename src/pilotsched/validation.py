"""Self-checks tying the implementation to its independent oracles.

Each check returns a CheckResult; the CLI `validate` command runs the whole
battery and fails on any red check.  Each check fixes its own sample sizes,
seeds and tolerances, so every run certifies the same statistics; the test
suite calls the same functions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .channel import (LinkParams, _complex_normal, autocorrelation,
                      empirical_autocorrelation, generate_fading_trace)
from .estimation import mmse_gain, pilot_second_moment, sinr_gain
from .link_adaptation import McsTable, RewardCurve, _select_blocks, expected_goodputs
from .scheduler import (HorizonExhaustedError, ThresholdSolution,
                        brute_force_optimal_period, policy_iteration, solve_threshold)


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    metrics: dict = field(default_factory=dict)


def check_autocorrelation_fidelity(params: LinkParams) -> CheckResult:
    """Empirical lag autocovariance of a 10^6-slot trace vs the Jakes curve,
    RMSE over lags 0..100 within 2% of the channel power."""
    max_lag = 100
    trace = generate_fading_trace(params, 1_000_000, seed=7)
    empirical = empirical_autocorrelation(trace, max_lag)
    theory = autocorrelation(np.arange(max_lag + 1), params)
    rmse = float(np.sqrt(np.mean((empirical - theory) ** 2)))
    limit = 0.02 * params.channel_variance
    return CheckResult(
        name="autocorrelation-fidelity",
        passed=bool(rmse <= limit),
        detail=f"RMSE {rmse:.3e} vs limit {limit:.3e} over lags 0..{max_lag}",
        metrics={"rmse": rmse, "limit": limit},
    )


def draw_joint_channel_pair(params: LinkParams, age: int, n: int, rng) -> tuple:
    """Sample (h_past, h_now) jointly complex Gaussian with the Jakes covariance."""
    rho0 = params.channel_variance
    rho = autocorrelation(age, params)
    h_past = _complex_normal(rng, n, math.sqrt(rho0 / 2.0))
    resid_var = rho0 - rho * rho / rho0
    innov = _complex_normal(rng, n, math.sqrt(max(resid_var, 0.0) / 2.0))
    h_now = (rho / rho0) * h_past
    h_now += innov
    return h_past, h_now


def check_orthogonality(params: LinkParams, age: int = 3, n: int = 1_000_000,
                        seed: int = 11) -> CheckResult:
    """|mean(estimate * conj(error))| within 3 standard errors of zero."""
    rng = np.random.default_rng(seed)
    h_past, h_now = draw_joint_channel_pair(params, age, n, rng)
    noise = _complex_normal(rng, n, math.sqrt(params.noise_variance / 2.0))
    # y, then the estimate, overwrite h_past; the error, then the cross
    # products, overwrite h_now
    y = np.multiply(math.sqrt(params.pilot_power), h_past, out=h_past)
    y += noise
    del noise
    estimate = np.multiply(mmse_gain(age, params), y, out=y)
    error = np.subtract(h_now, estimate, out=h_now)
    # conj(error) * estimate, in this order: with fused multiply-adds the
    # complex product's last bit depends on the operand order, and this is
    # the order numpy evaluates `estimate * np.conj(error)` in (in place, in
    # the conj temporary)
    cross = np.conj(error, out=error)
    cross *= estimate
    stat = abs(complex(cross.mean()))
    se = math.sqrt((cross.real.var(ddof=1) + cross.imag.var(ddof=1)) / n)
    return CheckResult(
        name="mmse-orthogonality",
        passed=bool(stat <= 3.0 * se),
        detail=f"|mean(est*conj(err))| = {stat:.3e} vs 3 SE = {3 * se:.3e} (n={n})",
        metrics={"stat": stat, "three_se": 3 * se},
    )


def mc_expected_goodput(age: int, params: LinkParams, table: McsTable,
                        n_samples: int, seed: int) -> tuple:
    """Monte Carlo oracle for the age-conditional expected goodput.

    Draws |y|^2 exponentially and averages the feasible-MCS maximum; returns
    (mean, standard_error).  Draws come in chunks of 10^6, through one
    reused buffer, to bound memory;
    the chunk size also fixes how the sums are grouped, so it stays put,
    while MCS selection cuts each chunk into its own blocks.  Only the
    goodput is selected, scattered back into draw order so that each sum
    runs over the draws in the order they were made.
    """
    rng = np.random.default_rng(seed)
    gain = sinr_gain(age, params)
    mean_y2 = pilot_second_moment(params)
    total = 0.0
    total_sq = 0.0
    chunk = 1_000_000
    draws = np.empty(min(chunk, n_samples))
    g = np.empty_like(draws)
    remaining = n_samples
    while remaining > 0:
        m = min(chunk, remaining)
        # the draws become their SINRs, then the squared goodputs, in place;
        # scaling standard exponentials is what exponential(scale=...) does
        x = rng.standard_exponential(out=draws[:m])
        x *= mean_y2
        x *= gain
        g_m = g[:m]
        for sl, (order, goodput, _, _) in _select_blocks(x, table, choices=False):
            g_m[sl][order] = goodput
        total += float(g_m.sum())
        total_sq += float(np.multiply(g_m, g_m, out=x).sum())
        remaining -= m
    mean = total / n_samples
    var = max(total_sq / n_samples - mean * mean, 0.0)
    return mean, math.sqrt(var / n_samples)


def check_quadrature_vs_mc(table: McsTable) -> CheckResult:
    """Quadrature r(age) against an independent Monte Carlo of 10^6 draws at
    10 random operating points, within 1e-3 relative.

    Points whose goodput is below 5% of the top rate are redrawn: a relative
    comparison there tests only Monte Carlo shot noise.
    """
    count, n_samples, rel_tol = 10, 1_000_000, 1e-3
    rng = np.random.default_rng(59)
    worst = 0.0
    checked = 0
    while checked < count:
        snr_db = rng.uniform(0.0, 20.0)
        fd_ts = rng.uniform(0.02, 0.08)
        age = int(rng.integers(1, 6))
        params = LinkParams(
            pilot_power=1.0, data_power=1.0,
            noise_variance=10.0 ** (-snr_db / 10.0),
            channel_variance=1.0, doppler_hz=fd_ts * 1000.0, sample_period=1e-3)
        quad_val = float(expected_goodputs([age], params, table)[0])
        if quad_val < 0.05 * table.max_rate:
            continue
        mc_val, se = mc_expected_goodput(age, params, table, n_samples,
                                         seed=int(rng.integers(0, 2 ** 63)))
        rel = abs(quad_val - mc_val) / mc_val
        worst = max(worst, rel)
        checked += 1
    return CheckResult(
        name="quadrature-vs-monte-carlo",
        passed=bool(worst <= rel_tol),
        detail=f"worst relative deviation {worst:.3e} vs {rel_tol:.0e} "
               f"over {count} points (n={n_samples})",
        metrics={"worst_rel": worst, "rel_tol": rel_tol},
    )


def random_reward_curves(count: int, rng) -> list:
    """Nonnegative curves of 1-50 random values padded with zeros to 200
    ages, for oracle tests."""
    curves = []
    for _ in range(count):
        support = int(rng.integers(1, 51))
        values = rng.uniform(0.0, 5.0, size=support)
        values[rng.random(support) < 0.2] = 0.0
        padded = np.zeros(200)
        padded[:support] = values
        curves.append(RewardCurve(values=padded))
    return curves


def solve_curve(curve: RewardCurve) -> ThresholdSolution:
    """Solve the threshold; when no pilot period is found, name the field at fault.

    A curve too short to hold the optimal pilot period raises a
    HorizonExhaustedError naming delta_max, the config field that sets the
    curve length.  A flat positive curve of two or more ages, which is what
    a static channel (speed 0) gives, has no optimal finite period at any
    length, and its error names speed; a one-age curve says nothing about
    the channel, so its error names delta_max.
    """
    try:
        return solve_threshold(curve)
    except HorizonExhaustedError as exc:
        if len(curve) > 1 and np.all(curve.values == curve.values[0]):
            raise HorizonExhaustedError(
                f"r(age) is {float(curve.values[0])!r} at every age, as on a static "
                "channel (speed 0), so no finite pilot period is optimal") from exc
        raise HorizonExhaustedError(f"no pilot period found within the {len(curve)} "
                                    "tabulated ages (delta_max)") from exc


def oracle_deviations(curve: RewardCurve) -> dict:
    """The threshold solution of one curve and its deviations from both
    oracles, under the keys of `solve.json`.

    Brute force searches every period up to len(curve) + 1 and policy
    iteration runs over ages 1 .. len(curve) + 1, so no period the curve can
    express escapes either oracle.
    """
    sol = solve_curve(curve)
    bf_period, bf_avg = brute_force_optimal_period(curve, len(curve) + 1)
    _, mdp_gain, mdp_iterations = policy_iteration(curve)
    deviations = {
        "beta_vs_brute_force": abs(sol.beta - bf_avg),
        "beta_vs_mdp": abs(sol.beta - mdp_gain),
        "brute_force_vs_mdp": abs(bf_avg - mdp_gain),
    }
    return {
        "beta": sol.beta,
        "hitting_age": sol.period,
        "period": sol.period,
        "oracles": {
            "brute_force_average": bf_avg,
            "brute_force_period": bf_period,
            "mdp_gain": mdp_gain,
            "mdp_iterations": mdp_iterations,
        },
        "deviations": deviations,
        "max_deviation": max(deviations.values()),
    }


def check_scheduler_triangle(physical_curve: RewardCurve, count: int = 20) -> CheckResult:
    """Three-way agreement of the threshold solver, brute force and policy
    iteration, within 1e-6, on `count` random curves and `physical_curve`."""
    tol = 1e-6
    rng = np.random.default_rng(37)
    worst = 0.0
    for curve in [*random_reward_curves(count, rng), physical_curve]:
        worst = max(worst, oracle_deviations(curve)["max_deviation"])
    return CheckResult(
        name="scheduler-oracle-triangle",
        passed=bool(worst <= tol),
        detail=f"worst pairwise deviation {worst:.3e} vs {tol:.0e} "
               f"({count} random curves + physical)",
        metrics={"worst_pairwise": worst, "tol": tol},
    )


def run_all_checks(params: LinkParams, table: McsTable,
                   physical_curve: RewardCurve) -> list:
    """The full validation battery at one operating point.

    The Monte Carlo checks run with their own pinned seeds: each is a
    calibrated statistical certification, deterministic on rerun.
    """
    return [
        check_autocorrelation_fidelity(
            replace(params, doppler_hz=0.05 / params.sample_period)),
        check_orthogonality(params),
        check_quadrature_vs_mc(table),
        check_scheduler_triangle(physical_curve),
    ]
