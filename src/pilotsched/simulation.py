"""Simulation of pilot schedules, each given by its pilot period.

The threshold policy pilots when the age reaches its hitting age, and the age
resets to 1 after every pilot, so it is the periodic schedule with that
period; the periodic baseline is one too.  Every run starts with a forced
pilot so the CSI age is well defined.  A pilot slot spends the slot refreshing
the observation (reward 0, age resets to 1); a data slot earns goodput and
ages the CSI by one.  `step` is the slot-level reference of that loop.  Two
reward modes:

  expected  - the slot earns the age-conditional mean goodput r(age), the
              quantity the scheduler optimizes; averages are exact cycle
              averages up to the truncated final cycle.
  realized  - the slot earns the full physical draw: SINR from the stored
              pilot value, MCS selection, Bernoulli decoding.

Realized mode draws the fading trace, the per-slot pilot noise, and the
per-slot decode draws from three independent streams derived from one run
seed, so paired policy comparisons share their randomness (common random
numbers).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import LinkParams, FadingTrace, generate_fading_trace
from .estimation import sinr, sinr_gain
from .link_adaptation import (McsTable, QuadratureConfig, RewardCurve,
                              build_reward_curve, expected_goodput,
                              max_goodput, max_goodput_array, bler)
from .scheduler import PILOT, DATA

EXPECTED = "expected"
REALIZED = "realized"
MODES = (EXPECTED, REALIZED)

MAX_HORIZON = 50_000_000


@dataclass
class SchedulerState:
    """Slot-level state of the reference loop driven by `step`."""

    age: int
    last_pilot_value: complex | None
    slot: int


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


def step(state: SchedulerState, action: str, trace: FadingTrace, params: LinkParams,
         table: McsTable, mode: str, *, pilot_noise: complex | None = None,
         decode_uniform: float | None = None,
         reward_curve: RewardCurve | None = None):
    """Advance the closed loop by one slot; returns (next_state, slot_reward).

    A pilot observes y = sqrt(P_p) * h_t + n_t with the supplied fresh noise
    sample and earns 0.  A data slot earns r(age) in expected mode, or the
    Bernoulli-decoded rate of the SINR-selected MCS in realized mode.
    """
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")
    if state.slot >= len(trace):
        raise ValueError(f"slot {state.slot} beyond the trace length {len(trace)}")

    if action == PILOT:
        if pilot_noise is None:
            raise ValueError("a pilot slot needs a fresh noise sample")
        y = math.sqrt(params.pilot_power) * trace.samples[state.slot] + pilot_noise
        next_state = SchedulerState(age=1, last_pilot_value=y, slot=state.slot + 1)
        return next_state, 0.0

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
        eta = sinr(state.age, state.last_pilot_value, params)
        goodput, entry = max_goodput(eta, table)
        if entry is None:
            reward = 0.0
        else:
            if decode_uniform is None:
                raise ValueError("a realized data slot needs a decode draw")
            reward = entry.rate if decode_uniform < 1.0 - bler(eta, entry) else 0.0

    next_state = SchedulerState(age=state.age + 1,
                                last_pilot_value=state.last_pilot_value,
                                slot=state.slot + 1)
    return next_state, reward


def run_policy(period: int, params: LinkParams, table: McsTable, horizon: int, seed: int,
               mode: str, reward_curve: RewardCurve | None = None,
               quad: QuadratureConfig = QuadratureConfig()) -> SimulationResult:
    """Simulate the schedule that pilots every `period` slots; deterministic given (seed, mode).

    Slot 0 is the forced pilot; slot t >= 1 has age (t-1) % period + 1 and is
    a pilot when that age equals the period.  Rewards are evaluated in one
    vectorized pass, which matches step() exactly.  Only realized mode draws
    the fading trace and noise.
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
            if reward_curve is None or len(reward_curve) < max_needed:
                reward_curve = build_reward_curve(params, table, max_needed, quad)
            rewards = reward_curve.values[data_ages - 1]
        else:
            pilot_idx = np.flatnonzero(is_pilot)
            y_pilots = (math.sqrt(params.pilot_power) * trace.samples[pilot_idx]
                        + pilot_noise[pilot_idx])
            owner = np.searchsorted(pilot_idx, data_idx, side="left") - 1
            y_sq = np.abs(y_pilots[owner]) ** 2
            unique_ages, inverse = np.unique(data_ages, return_inverse=True)
            gains = np.array([sinr_gain(int(a), params) for a in unique_ages])
            eta = gains[inverse] * y_sq
            rewards = np.empty(data_idx.size)
            rate_of = np.array([e.rate for e in table.entries])
            chunk = 1 << 20
            for start in range(0, data_idx.size, chunk):
                sl = slice(start, min(start + chunk, data_idx.size))
                gp, chosen, chosen_bler = max_goodput_array(eta[sl], table)
                rates = np.where(chosen >= 0, rate_of[np.maximum(chosen, 0)], 0.0)
                success = decode_uniforms[data_idx[sl]] < 1.0 - chosen_bler
                rewards[sl] = np.where((chosen >= 0) & success, rates, 0.0)
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
