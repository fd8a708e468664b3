"""Simulation of pilot schedules, each given by its pilot period.

The threshold policy pilots when the age reaches its hitting age, and the age
resets to 1 after every pilot, so it is the periodic schedule with that
period; the periodic baseline is one too.  Every run starts with a forced
pilot so the CSI age is well defined.  A pilot slot spends the slot refreshing
the observation (reward 0, age resets to 1); a data slot earns goodput and
ages the CSI by one.  Two reward modes:

  expected  - the slot earns the age-conditional mean goodput r(age), the
              quantity the scheduler optimizes.  The run's total is the
              renewal-reward sum: the exact data-slot count of each age
              1 .. period-1 times r(age), summed with `math.fsum`, in
              O(period) time and memory, independent of the horizon.
  realized  - the slot earns the full physical draw: SINR
              sinr_gain(age) * |y|^2 from the last pilot observation y,
              MCS selection, Bernoulli decoding, all data slots evaluated
              together as arrays, block by block in the selector's band
              order, with only the rewards put back in slot order.

Realized mode draws only what the schedule reads: the fading trace and the
pilot noise at the pilot slots 0, P, 2P, ..., and one decode draw per data
slot, from three independent streams derived from one run seed.  A data slot
depends on the channel only through its last pilot and its age, so this is
the same model as a trace at every slot.  A run with no data slots draws
nothing.

Two policies run with the same seed share the noise and decode seeds, but
not trace samples or slot alignment: each period reads its own lattice of
the channel, and a stream's k-th draw falls on a different slot under each
period.  Their rewards are not paired slot by slot, so the difference of two
realized averages gets little of the variance reduction that common random
numbers would give.  Nothing here relies on that pairing: `_sweep_point`
averages each policy over the seeds on its own, and the realized tests
compare each policy with its own expected value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import LinkParams, _complex_normal, generate_fading_trace
from .config import MAX_TABULATED_AGES
from .estimation import sinr_gain
from .link_adaptation import McsTable, RewardCurve, _select_blocks, expected_goodputs

EXPECTED = "expected"
REALIZED = "realized"
MODES = (EXPECTED, REALIZED)

MAX_HORIZON = 50_000_000


@dataclass(frozen=True, eq=False)
class SimulationResult:
    avg_goodput: float
    pilot_fraction: float
    age_histogram: dict
    horizon: int


def derive_streams(params: LinkParams, horizon: int, period: int, seed: int,
                   shared_weights: dict | None = None):
    """Per-run randomness of a period-`period` schedule, at the slots that read it.

    Returns the fading trace at the K = ceil(horizon / period) pilot slots
    (slot k * period), K pilot-noise samples, and horizon - K decode draws,
    one per data slot in slot order.  The three streams are derived
    independently from the seed.  `shared_weights` goes to
    `generate_fading_trace`.
    """
    if period < 1:
        raise ValueError(f"period must be >= 1, got {period}")
    root = np.random.default_rng(seed)
    fade_seed, noise_seed, decode_seed = (int(s) for s in root.integers(0, 2 ** 63, size=3))
    pilots = -(-horizon // period)
    trace = generate_fading_trace(params, pilots, fade_seed, stride=period,
                                  shared_weights=shared_weights)
    pilot_noise = _complex_normal(np.random.default_rng(noise_seed), pilots,
                                  math.sqrt(params.noise_variance / 2.0))
    decode_uniforms = np.random.default_rng(decode_seed).random(horizon - pilots)
    return trace, pilot_noise, decode_uniforms


def _realized_rewards(eta: np.ndarray, uniforms: np.ndarray, table: McsTable) -> np.ndarray:
    """Per-slot realized rewards of data slots with SINR `eta` and decode draws `uniforms`.

    Each slot sends the best feasible MCS for its SINR and earns its rate when
    the draw falls below 1 - BLER, else 0; a slot with no feasible MCS earns 0.
    Each block is decided in the selector's band order, with the draws
    gathered into it, and only the rewards are scattered back to slot order.
    """
    rewards = np.empty(eta.size)
    # chosen index -1 (no feasible MCS, BLER 1.0) reads the appended rate 0
    rate_of = np.array([e.rate for e in table.entries] + [0.0])
    for sl, (order, _, chosen, chosen_bler) in _select_blocks(eta, table, choices=True):
        success = uniforms[sl].take(order) < 1.0 - chosen_bler
        rewards[sl][order] = np.where(success, rate_of.take(chosen), 0.0)
    return rewards


def schedule_counts(horizon: int, period: int) -> tuple:
    """(pilot count, age histogram) of the period-`period` schedule over `horizon` slots.

    Slot 0 is the forced pilot, counted at age 1; slot t >= 1 has age
    (t-1) % period + 1 and is a pilot at age `period`.  Each age 1 .. period
    occurs (horizon-1) // period times in slots 1 .. horizon-1, and the first
    (horizon-1) % period ages once more.  Exact integers, no per-slot arrays.
    """
    full, extra = divmod(horizon - 1, period)
    top = max(1, min(period, horizon - 1))  # ages past horizon - 1 never occur
    histogram = {age: full + (age <= extra) + (age == 1) for age in range(1, top + 1)}
    return 1 + full, histogram


def expected_total(values: np.ndarray, horizon: int, period: int) -> float:
    """Sum of r(age) over the data slots of the period-`period` schedule.

    `values` holds r(age) from age 1 on, at least up to the last age a data
    slot reaches, min(period-1, horizon-1).  By the count of
    `schedule_counts`, each age a < period has (horizon-1) // period data
    slots, and the first (horizon-1) % period ages one more, so the sum is
    the count-weighted sum over the ages, correctly rounded by `math.fsum`:
    O(period) time and memory, whatever the horizon.
    """
    full, extra = divmod(horizon - 1, period)
    return math.fsum((full + (age <= extra)) * reward
                     for age, reward in enumerate(values[:period - 1].tolist(), start=1))


def run_policy(period: int, params: LinkParams, table: McsTable, horizon: int, seed: int,
               mode: str, reward_curve: RewardCurve | None = None,
               nodes: int = 64, shared_weights: dict | None = None) -> SimulationResult:
    """Simulate the schedule that pilots every `period` slots; deterministic given (seed, mode).

    Slot 0 is the forced pilot; slot t >= 1 has age (t-1) % period + 1 and is
    a pilot when that age equals the period.  The pilot count and age
    histogram are closed-form (`schedule_counts`).  Expected mode sums r(age)
    weighted by the exact data-slot count of each age (`expected_total`), so
    its cost is O(period) and independent of the horizon; it reads r only at
    ages 1 .. min(period-1, data slots), integrating those past
    `reward_curve` with `nodes` quadrature nodes.  Realized mode evaluates
    its rewards in one vectorized pass over the data slots, and only it
    draws the fading trace and noise, and only when the schedule has data
    slots; its trace's spectral weights are kept in `shared_weights` when
    given (`generate_fading_trace`), so runs of one schedule at several seeds
    compute them once.
    """
    if period < 1:
        raise ValueError(f"period must be >= 1, got {period}")
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if horizon < 1_000:
        raise ValueError(f"horizon must be >= 1000, got {horizon}")
    if horizon > MAX_HORIZON:
        raise ValueError(f"horizon {horizon} exceeds the supported maximum {MAX_HORIZON}")

    pilot_count, histogram = schedule_counts(horizon, period)
    data_slots = horizon - pilot_count
    total_reward = 0.0
    if data_slots:
        if mode == EXPECTED:
            max_needed = min(period - 1, data_slots)
            values = reward_curve.values if reward_curve is not None else np.empty(0)
            if values.size < max_needed:
                if max_needed > MAX_TABULATED_AGES:
                    raise ValueError(f"period {period} needs r(age) up to age {max_needed}, "
                                     f"beyond the bound {MAX_TABULATED_AGES}")
                # r(age) does not depend on the other ages tabulated with it
                missing = np.arange(values.size + 1, max_needed + 1)
                values = np.concatenate([values, expected_goodputs(missing, params, table, nodes)])
            total_reward = expected_total(values, horizon, period)
        else:
            trace, pilot_noise, decode_uniforms = derive_streams(params, horizon, period, seed,
                                                                 shared_weights)
            # |y|^2 of the pilot observations y = sqrt(pp) * h + noise
            y = np.multiply(math.sqrt(params.pilot_power), trace.samples)
            y += pilot_noise
            y_sq = np.abs(y)
            np.square(y_sq, out=y_sq)
            del trace, pilot_noise, y  # only |y|^2 is read below
            # pilot k is followed by the data slots of ages 1 .. period-1, so
            # the rows of this outer product, read in order, are the data slots
            gains = sinr_gain(np.arange(1, period), params)
            eta = (y_sq[:, None] * gains[None, :]).ravel()[:decode_uniforms.size]
            total_reward = float(_realized_rewards(eta, decode_uniforms, table).sum())

    return SimulationResult(
        avg_goodput=total_reward / horizon,
        pilot_fraction=pilot_count / horizon,
        age_histogram=histogram,
        horizon=horizon,
    )
