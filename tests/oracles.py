"""Independent reference computations backing the frozen expected values.

These deliberately avoid the package's own code paths: the Bessel oracle is an
arbitrary-precision power series, the scheduler oracles are plain Python
loops over the definitions or the index evaluated one age at a time, and the
reward-curve oracle integrates one age and one quadrature panel at a time,
with the MCS feasibility thresholds found by bisection and the best MCS by an
argmax over all entries.  `step` advances the closed loop one slot at a time,
the slot-level reference for the array pass of `run_policy`.
"""

import math
from dataclasses import dataclass
from decimal import Decimal, getcontext

import numpy as np

from pilotsched import DATA, EXPECTED, PILOT, expected_goodput, max_goodput_array
from pilotsched.estimation import pilot_second_moment, sinr_gain
from pilotsched.simulation import MODES


def j0_series(x: float, digits: int = 30) -> float:
    """J0 via its alternating power series in arbitrary-precision decimals.

    Working precision covers the catastrophic cancellation: the largest term
    grows like e^|x|, so extra digits scale with |x|.  Practical for |x| <~ 60.
    """
    xd = Decimal(repr(float(x)))
    work = digits + 25 + int(0.9 * abs(float(x)))
    getcontext().prec = work
    z = (xd / 2) ** 2
    term = Decimal(1)
    total = Decimal(1)
    k = 0
    cutoff = Decimal(10) ** -(work - 5)
    while True:
        k += 1
        term = -term * z / (k * k)
        total += term
        if abs(term) < cutoff and k > abs(float(x)):
            break
    return float(total)


def gamma_brute(values, age: int, tau_max: int) -> float:
    """Index function by direct enumeration of window averages."""
    best = None
    for tau in range(1, tau_max + 1):
        window = values[age - 1:age - 1 + tau]
        avg = sum(window) / tau
        if best is None or avg > best:
            best = avg
    return best


def index_gamma_per_age(age: int, curve, tau_max: int) -> float:
    """gamma(age) alone, with the float operations of the array index: the
    cumulative-sum differences, the division by the window lengths, and the
    value at the first argmax."""
    cs = curve.cumulative
    taus = np.arange(1, tau_max + 1)
    averages = (cs[age - 1 + taus] - cs[age - 1]) / taus
    return float(averages[int(np.argmax(averages))])


def best_period_brute(values, p_max: int):
    """(period, average) by direct enumeration of sum(r(1..p-1))/p."""
    best_p, best_avg = 1, 0.0
    for p in range(1, p_max + 1):
        avg = sum(values[:p - 1]) / p
        if avg > best_avg:
            best_p, best_avg = p, avg
    return best_p, best_avg


def bisect_thresholds(table):
    """Smallest linear SINR at which each entry meets the BLER ceiling, by
    200 geometric bisection steps on [1e-18, 1e18]; 0 or +inf outside it."""
    def curve_bler(x, entry):
        return float(entry.bler_curve(10.0 * np.log10(x)))

    out = np.empty(len(table.entries))
    for i, entry in enumerate(table.entries):
        lo, hi = 1e-18, 1e18
        if curve_bler(lo, entry) <= table.e_max:
            out[i] = 0.0
            continue
        if curve_bler(hi, entry) > table.e_max:
            out[i] = np.inf
            continue
        for _ in range(200):
            mid = math.sqrt(lo * hi)
            if curve_bler(mid, entry) <= table.e_max:
                hi = mid
            else:
                lo = mid
        out[i] = hi
    return out


def max_goodput_matrix(eta, table):
    """Best feasible rate * (1 - BLER) by argmax over an (entries, points) matrix.

    Returns (goodput, chosen_index, chosen_bler) like max_goodput_array.
    A linear SINR of 0 is -inf dB.
    """
    eta = np.asarray(eta, dtype=float)
    snr_db = np.full(eta.size, -np.inf)
    pos = eta.ravel() > 0
    snr_db[pos] = 10.0 * np.log10(eta.ravel()[pos])
    blers = np.empty((len(table.entries), eta.size))
    for i, entry in enumerate(table.entries):
        blers[i] = entry.bler_curve(snr_db)
    rates = np.array([e.rate for e in table.entries])
    goodput = rates[:, None] * (1.0 - blers)
    goodput[blers > table.e_max] = -1.0
    chosen = np.argmax(goodput, axis=0)
    best = goodput[chosen, np.arange(eta.size)]
    infeasible = best < 0
    best[infeasible] = 0.0
    chosen_bler = blers[chosen, np.arange(eta.size)]
    chosen_bler[infeasible] = 1.0
    chosen[infeasible] = -1
    return best.reshape(eta.shape), chosen.reshape(eta.shape), chosen_bler.reshape(eta.shape)


def reward_curve_panels(ages, params, table, quad):
    """r(age) at each of `ages` by composite Gauss-Legendre quadrature, one
    age and one panel at a time.

    The u-axis (|y|^2 in units of its mean) is cut at every feasibility
    threshold, each piece is split into panels no longer than quad.max_panel,
    and each panel's weighted sum is added to the age's total in order.
    """
    feasibility = bisect_thresholds(table)
    x_ref, w_ref = np.polynomial.legendre.leggauss(quad.nodes)
    out = []
    for age in ages:
        gain = sinr_gain(int(age), params)
        if gain <= 0.0:
            out.append(0.0)
            continue
        scale = gain * pilot_second_moment(params)
        thresholds = feasibility / scale
        finite = thresholds[np.isfinite(thresholds)]
        if finite.size == 0:
            out.append(0.0)
            continue
        u_start = float(finite.min())
        u_end = min(max(quad.tail, u_start + 30.0), 700.0)
        if u_start >= u_end:
            out.append(0.0)
            continue
        cuts = np.unique(np.concatenate(
            ([u_start, u_end], finite[(finite > u_start) & (finite < u_end)])))
        total = 0.0
        for a, b in zip(cuts[:-1], cuts[1:]):
            n_sub = max(1, int(math.ceil((b - a) / quad.max_panel)))
            edges = np.linspace(a, b, n_sub + 1)
            for lo, hi in zip(edges[:-1], edges[1:]):
                hw = 0.5 * (hi - lo)
                u = 0.5 * (lo + hi) + hw * x_ref
                g, _, _ = max_goodput_matrix(u * scale, table)
                total += hw * float(np.dot(w_ref, g * np.exp(-u)))
        out.append(total)
    return np.array(out)


@dataclass
class SchedulerState:
    """Slot-level state of the reference loop driven by `step`."""

    age: int
    last_pilot_value: complex | None
    slot: int


def decide(age: int, solution, gamma) -> str:
    """The threshold rule: pilot when gamma(age) is at or below beta, else data."""
    return PILOT if gamma[age - 1] <= solution.beta else DATA


def step(state: SchedulerState, action: str, trace, params, table, mode: str, *,
         pilot_noise: complex | None = None, decode_uniform: float | None = None,
         reward_curve=None):
    """Advance the closed loop by one slot; returns (next_state, slot_reward).

    A pilot observes y = sqrt(P_p) * h_t + n_t with the supplied fresh noise
    sample and earns 0.  A data slot earns r(age) in expected mode, or the
    Bernoulli-decoded rate of the MCS selected at SINR sinr_gain(age) * |y|^2
    in realized mode.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if state.slot >= len(trace):
        raise ValueError(f"slot {state.slot} beyond the trace length {len(trace)}")

    if action == PILOT:
        if pilot_noise is None:
            raise ValueError("a pilot slot needs a fresh noise sample")
        y = math.sqrt(params.pilot_power) * trace.samples[state.slot] + pilot_noise
        return SchedulerState(age=1, last_pilot_value=y, slot=state.slot + 1), 0.0

    if action != DATA:
        raise ValueError(f"unknown action {action!r}")
    if state.last_pilot_value is None:
        raise ValueError("data slot before the first pilot of the run; "
                         "every run must begin with a pilot")

    if mode == EXPECTED:
        if reward_curve is not None and state.age <= len(reward_curve):
            reward = reward_curve.value(state.age)
        else:
            reward = expected_goodput(state.age, params, table)
    else:
        eta = sinr_gain(state.age, params) * abs(state.last_pilot_value) ** 2
        _, chosen, chosen_bler = max_goodput_array(eta, table)
        if chosen >= 0 and decode_uniform is None:
            raise ValueError("a realized data slot needs a decode draw")
        success = chosen >= 0 and decode_uniform < 1.0 - chosen_bler
        reward = table.entries[int(chosen)].rate if success else 0.0

    next_state = SchedulerState(age=state.age + 1,
                                last_pilot_value=state.last_pilot_value,
                                slot=state.slot + 1)
    return next_state, reward
