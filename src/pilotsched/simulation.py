"""Simulation of pilot schedules, each given by its pilot period.

The threshold policy pilots when the age reaches its hitting age, and the age
resets to 1 after every pilot, so it is the periodic schedule with that
period; the periodic baseline is one too.  Every run starts with a forced
pilot so the CSI age is well defined.  A pilot slot spends the slot refreshing
the observation (reward 0, age resets to 1); a data slot earns goodput and
ages the CSI by one.  All slots are evaluated together as arrays.  Two reward
modes:

  expected  - the slot earns the age-conditional mean goodput r(age), the
              quantity the scheduler optimizes; averages are exact cycle
              averages up to the truncated final cycle.
  realized  - the slot earns the full physical draw: SINR
              sinr_gain(age) * |y|^2 from the last pilot observation y,
              MCS selection, Bernoulli decoding.

Realized mode draws the fading trace, the per-slot pilot noise, and the
per-slot decode draws from three independent streams derived from one run
seed, so paired policy comparisons share their randomness (common random
numbers).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import LinkParams, generate_fading_trace
from .estimation import sinr_gain
from .link_adaptation import (MAX_TABULATED_AGES, McsTable, QuadratureConfig, RewardCurve,
                              _expected_goodputs, max_goodput_array)

EXPECTED = "expected"
REALIZED = "realized"
MODES = (EXPECTED, REALIZED)

MAX_HORIZON = 50_000_000


@dataclass(frozen=True, eq=False)
class SimulationResult:
    avg_goodput: float
    pilot_fraction: float
    age_histogram: dict
    mode: str
    seed: int
    horizon: int


def derive_streams(params: LinkParams, horizon: int, seed: int):
    """Per-run randomness: fading trace, per-slot pilot noise, per-slot decode draws.

    The three streams are derived independently from the seed, so the same
    seed reuses the same fading trace and pilot noise across policies.
    """
    root = np.random.default_rng(seed)
    fade_seed, noise_seed, decode_seed = (int(s) for s in root.integers(0, 2 ** 63, size=3))
    trace = generate_fading_trace(params, horizon, fade_seed)
    noise_rng = np.random.default_rng(noise_seed)
    sigma = math.sqrt(params.noise_variance / 2.0)
    pilot_noise = sigma * (noise_rng.standard_normal(horizon)
                           + 1j * noise_rng.standard_normal(horizon))
    decode_uniforms = np.random.default_rng(decode_seed).random(horizon)
    return trace, pilot_noise, decode_uniforms


def _realized_rewards(eta: np.ndarray, uniforms: np.ndarray, table: McsTable) -> np.ndarray:
    """Per-slot realized rewards of data slots with SINR `eta` and decode draws `uniforms`.

    Each slot sends the best feasible MCS for its SINR and earns its rate when
    the draw falls below 1 - BLER, else 0; a slot with no feasible MCS earns 0.
    """
    rewards = np.empty(eta.size)
    rate_of = np.array([e.rate for e in table.entries])
    chunk = 1 << 20
    for start in range(0, eta.size, chunk):
        sl = slice(start, min(start + chunk, eta.size))
        _, chosen, chosen_bler = max_goodput_array(eta[sl], table)
        success = (chosen >= 0) & (uniforms[sl] < 1.0 - chosen_bler)
        rewards[sl] = np.where(success, rate_of[np.maximum(chosen, 0)], 0.0)
    return rewards


def run_policy(period: int, params: LinkParams, table: McsTable, horizon: int, seed: int,
               mode: str, reward_curve: RewardCurve | None = None,
               quad: QuadratureConfig = QuadratureConfig()) -> SimulationResult:
    """Simulate the schedule that pilots every `period` slots; deterministic given (seed, mode).

    Slot 0 is the forced pilot; slot t >= 1 has age (t-1) % period + 1 and is
    a pilot when that age equals the period.  Rewards are evaluated in one
    vectorized pass over the data slots.  Only realized mode draws the fading
    trace and noise.
    """
    if period < 1:
        raise ValueError(f"period must be >= 1, got {period}")
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if horizon < 1_000:
        raise ValueError(f"horizon must be >= 1000, got {horizon}")
    if horizon > MAX_HORIZON:
        raise ValueError(f"horizon {horizon} exceeds the supported maximum {MAX_HORIZON}")

    if mode == REALIZED:
        # drawn before the schedule arrays exist, so that they do not add to
        # the memory peak of the trace synthesis
        trace, pilot_noise, decode_uniforms = derive_streams(params, horizon, seed)
    ages = np.arange(-1, horizon - 1, dtype=np.int64) % period + 1
    ages[0] = 1
    is_pilot = ages == period
    is_pilot[0] = True

    data_idx = np.flatnonzero(~is_pilot)
    data_ages = ages[data_idx]
    total_reward = 0.0
    if data_idx.size:
        if mode == EXPECTED:
            max_needed = int(data_ages.max())
            values = reward_curve.values if reward_curve is not None else np.empty(0)
            if values.size < max_needed:
                if max_needed > MAX_TABULATED_AGES:
                    raise ValueError(f"period {period} needs r(age) up to age {max_needed}, "
                                     f"beyond the bound {MAX_TABULATED_AGES}")
                # r(age) does not depend on the other ages tabulated with it
                missing = np.arange(values.size + 1, max_needed + 1)
                values = np.concatenate([values, _expected_goodputs(missing, params, table, quad)])
            rewards = values[data_ages - 1]
        else:
            pilot_idx = np.flatnonzero(is_pilot)
            y_pilots = (math.sqrt(params.pilot_power) * trace.samples[pilot_idx]
                        + pilot_noise[pilot_idx])
            owner = np.searchsorted(pilot_idx, data_idx, side="left") - 1
            y_sq = np.abs(y_pilots[owner]) ** 2
            unique_ages, inverse = np.unique(data_ages, return_inverse=True)
            gains = sinr_gain(unique_ages, params)
            rewards = _realized_rewards(gains[inverse] * y_sq, decode_uniforms[data_idx], table)
        total_reward = float(rewards.sum())

    pilot_count = int(is_pilot.sum())
    counts = np.bincount(ages)
    histogram = {int(a): int(c) for a, c in enumerate(counts) if c}
    return SimulationResult(
        avg_goodput=total_reward / horizon,
        pilot_fraction=pilot_count / horizon,
        age_histogram=histogram,
        mode=mode,
        seed=seed,
        horizon=horizon,
    )
