"""Self-checks tying the implementation to its independent oracles.

Each check returns a CheckResult; the CLI `validate` command runs the whole
battery and fails on any red check.  The same functions back the test suite,
with tests pinning their own seeds and tolerances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .channel import (LinkParams, autocorrelation, empirical_autocorrelation,
                      generate_fading_trace)
from .estimation import error_variance, mmse_gain, pilot_second_moment, sinr_gain
from .link_adaptation import (McsTable, QuadratureConfig, RewardCurve,
                              build_reward_curve, expected_goodput, max_goodput_array)
from .scheduler import (ConvergenceError, ThresholdSolution,
                        brute_force_optimal_period, relative_value_iteration,
                        solve_threshold)


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    metrics: dict = field(default_factory=dict)


def check_autocorrelation_fidelity(params: LinkParams, length: int = 1_000_000,
                                   max_lag: int = 100, seed: int = 7,
                                   rmse_limit_frac: float = 0.02) -> CheckResult:
    """Empirical lag autocovariance of a generated trace vs the Jakes curve."""
    trace = generate_fading_trace(params, length, seed)
    empirical = empirical_autocorrelation(trace, max_lag)
    theory = autocorrelation(np.arange(max_lag + 1), params)
    rmse = float(np.sqrt(np.mean((empirical - theory) ** 2)))
    limit = rmse_limit_frac * params.channel_variance
    return CheckResult(
        name="autocorrelation-fidelity",
        passed=bool(rmse <= limit),
        detail=f"RMSE {rmse:.3e} vs limit {limit:.3e} over lags 0..{max_lag}",
        metrics={"rmse": rmse, "limit": limit},
    )


def draw_joint_channel_pair(params: LinkParams, age: int, n: int, rng) -> tuple:
    """Sample (h_past, h_now) jointly complex Gaussian with the Jakes covariance."""
    rho0 = params.channel_variance
    rho = autocorrelation(np.arange(age + 1), params)[age]
    h_past = math.sqrt(rho0 / 2.0) * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    resid_var = rho0 - rho * rho / rho0
    innov = math.sqrt(max(resid_var, 0.0) / 2.0) * (
        rng.standard_normal(n) + 1j * rng.standard_normal(n))
    h_now = (rho / rho0) * h_past + innov
    return h_past, h_now


def check_orthogonality(params: LinkParams, age: int = 3, n: int = 1_000_000,
                        seed: int = 11) -> CheckResult:
    """|mean(estimate * conj(error))| within 3 standard errors of zero."""
    rng = np.random.default_rng(seed)
    h_past, h_now = draw_joint_channel_pair(params, age, n, rng)
    noise = math.sqrt(params.noise_variance / 2.0) * (
        rng.standard_normal(n) + 1j * rng.standard_normal(n))
    y = math.sqrt(params.pilot_power) * h_past + noise
    estimate = mmse_gain(age, params) * y
    error = h_now - estimate
    cross = estimate * np.conj(error)
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
    (mean, standard_error).  Chunked to bound memory.
    """
    rng = np.random.default_rng(seed)
    gain = sinr_gain(age, params)
    mean_y2 = pilot_second_moment(params)
    total = 0.0
    total_sq = 0.0
    chunk = 1_000_000
    remaining = n_samples
    while remaining > 0:
        m = min(chunk, remaining)
        x = rng.exponential(scale=mean_y2, size=m)
        g, _, _ = max_goodput_array(gain * x, table)
        total += float(g.sum())
        total_sq += float((g * g).sum())
        remaining -= m
    mean = total / n_samples
    var = max(total_sq / n_samples - mean * mean, 0.0)
    return mean, math.sqrt(var / n_samples)


def check_quadrature_vs_mc(table: McsTable, count: int = 10, n_samples: int = 1_000_000,
                           rel_tol: float = 1e-3, seed: int = 59,
                           min_value_frac: float = 0.05) -> CheckResult:
    """Quadrature r(age) against an independent Monte Carlo for random operating points.

    Points whose goodput is below min_value_frac of the top rate are redrawn:
    a relative comparison there tests only Monte Carlo shot noise.
    """
    rng = np.random.default_rng(seed)
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
        quad_val = expected_goodput(age, params, table)
        if quad_val < min_value_frac * table.max_rate:
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


def random_reward_curves(count: int, rng, max_support: int = 50,
                         pad_to: int = 200) -> list:
    """Nonnegative finite-support curves padded with zeros, for oracle tests."""
    curves = []
    for _ in range(count):
        support = int(rng.integers(1, max_support + 1))
        values = rng.uniform(0.0, 5.0, size=support)
        values[rng.random(support) < 0.2] = 0.0
        padded = np.zeros(pad_to)
        padded[:support] = values
        curves.append(RewardCurve(values=padded, fingerprint="random"))
    return curves


def oracle_deviations(curve: RewardCurve, sol: ThresholdSolution) -> dict:
    """Pairwise deviations of a threshold solution and both oracles on one curve.

    Brute force searches every period up to len(curve) + 1 and value
    iteration runs over all len(curve) ages, so no period the curve can
    express escapes either oracle.
    """
    bf_period, bf_avg = brute_force_optimal_period(curve, len(curve) + 1)
    mdp = relative_value_iteration(curve, len(curve), tol=1e-9)
    deviations = {
        "beta_vs_brute_force": abs(sol.beta - bf_avg),
        "beta_vs_rvi": abs(sol.beta - mdp.gain),
        "brute_force_vs_rvi": abs(bf_avg - mdp.gain),
    }
    return {
        "beta": sol.beta,
        "brute_force": bf_avg,
        "rvi_gain": mdp.gain,
        "period": sol.period,
        "brute_force_period": bf_period,
        "deviations": deviations,
        "max_pairwise": max(deviations.values()),
    }


def solve_clamped(curve: RewardCurve, tau_max: int) -> ThresholdSolution:
    """Solve the threshold with the index window clamped to half the curve.

    A curve too short to hold the optimal pilot period raises a ValueError
    naming delta_max, the config field that sets the curve length.
    """
    tau_eff = min(tau_max, max(1, len(curve) // 2))
    try:
        return solve_threshold(curve, tol=1e-13, tau_max=tau_eff)
    except ConvergenceError as exc:
        raise ValueError(f"no pilot period found within the {len(curve)} tabulated ages "
                         f"(delta_max): {exc}") from exc


def scheduler_triangle_deviation(curve: RewardCurve, tau_max: int = 150) -> dict:
    """Pairwise deviations of the three solver routes on one curve."""
    return oracle_deviations(curve, solve_clamped(curve, tau_max))


def check_scheduler_triangle(physical_curve: RewardCurve | None = None,
                             physical_tau_max: int = 512,
                             count: int = 20, tol: float = 1e-6,
                             seed: int = 37) -> CheckResult:
    """Three-way agreement of bisection, brute force, and value iteration."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for curve in random_reward_curves(count, rng):
        worst = max(worst, scheduler_triangle_deviation(curve)["max_pairwise"])
    if physical_curve is not None:
        dev = scheduler_triangle_deviation(physical_curve, tau_max=physical_tau_max)
        worst = max(worst, dev["max_pairwise"])
    return CheckResult(
        name="scheduler-oracle-triangle",
        passed=bool(worst <= tol),
        detail=f"worst pairwise deviation {worst:.3e} vs {tol:.0e} "
               f"({count} random curves{' + physical' if physical_curve is not None else ''})",
        metrics={"worst_pairwise": worst, "tol": tol},
    )


def run_all_checks(params: LinkParams, table: McsTable,
                   physical_curve: RewardCurve | None = None,
                   physical_tau_max: int = 512,
                   mc_samples: int = 1_000_000) -> list:
    """The full validation battery at one operating point.

    The Monte Carlo checks run with their own pinned seeds: each is a
    calibrated statistical certification, deterministic on rerun.
    """
    fidelity_params = LinkParams(
        pilot_power=params.pilot_power, data_power=params.data_power,
        noise_variance=params.noise_variance, channel_variance=params.channel_variance,
        doppler_hz=0.05 / params.sample_period, sample_period=params.sample_period)
    return [
        check_autocorrelation_fidelity(fidelity_params),
        check_orthogonality(params),
        check_quadrature_vs_mc(table, n_samples=mc_samples),
        check_scheduler_triangle(physical_curve, physical_tau_max=physical_tau_max),
    ]
