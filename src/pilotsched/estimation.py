"""Linear MMSE channel estimation from one aged pilot, and the data-slot SINR.

A pilot received `age` slots ago gives the observation y.  The MMSE estimate
of the current channel is a scalar gain times y; the residual error variance
depends on the age only.  The SINR of a data transmission made with that
estimate factors as sinr_gain(age) * |y|^2, which is what makes the expected
goodput a one-dimensional integral downstream.

mmse_gain, error_variance and sinr_gain take a scalar age (and return a
float) or an array of ages (and return an array of the same shape).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import LinkParams, autocorrelation


@dataclass(frozen=True)
class PilotObservation:
    """Received pilot amplitude and how many slots ago it was received."""

    value: complex
    age: int

    def __post_init__(self):
        if self.age < 1:
            raise ValueError(f"pilot age must be >= 1, got {self.age}")


@dataclass(frozen=True)
class ChannelEstimate:
    estimate: complex
    estimate_variance: float
    error_variance: float


def _mmse_terms(rho, params: LinkParams) -> tuple:
    """(MMSE gain, residual error variance) for the autocovariance rho = rho(age)."""
    den = pilot_second_moment(params)
    return (math.sqrt(params.pilot_power) * rho / den,
            params.channel_variance - params.pilot_power * rho * rho / den)


def mmse_gain(age, params: LinkParams):
    """MMSE gain sqrt(P_p) * rho(age) / (P_p * rho0 + noise_var).

    age = 0 is the fresh-pilot limit, allowed for reference computations;
    negative ages are rejected.
    """
    if np.any(np.asarray(age) < 0):
        raise ValueError(f"age must be >= 0, got {age}")
    return _mmse_terms(autocorrelation(age, params), params)[0]


def error_variance(age, params: LinkParams):
    """Variance of the estimation residual, rho0 - P_p*rho(age)^2/(P_p*rho0 + noise)."""
    if np.any(np.asarray(age) < 0):
        raise ValueError(f"age must be >= 0, got {age}")
    return _mmse_terms(autocorrelation(age, params), params)[1]


def estimate_channel(obs: PilotObservation, params: LinkParams) -> ChannelEstimate:
    """MMSE reconstruction of the current channel from one aged pilot."""
    gain = mmse_gain(obs.age, params)
    est = gain * obs.value
    return ChannelEstimate(
        estimate=est,
        estimate_variance=gain * gain * abs(obs.value) ** 2,
        error_variance=error_variance(obs.age, params),
    )


def sinr(age: int, y: complex, params: LinkParams) -> float:
    """SINR of a data slot whose channel estimate comes from pilot y at the given age.

    P_d * gain^2 * |y|^2 / (P_d * error_variance + noise); computed through
    sinr_gain so the factorization sinr == sinr_gain * |y|^2 is exact.
    """
    return sinr_gain(age, params) * abs(y) ** 2


def sinr_gain(age, params: LinkParams):
    """Factor g(age) such that sinr(age, y) == g(age) * |y|^2 exactly."""
    if np.any(np.asarray(age) < 1):
        raise ValueError(f"age must be >= 1 at a data slot, got {age}")
    if params.noise_variance <= 0:
        raise ValueError("noise variance must be strictly positive")
    gain, err = _mmse_terms(autocorrelation(age, params), params)
    den = params.data_power * err + params.noise_variance
    return params.data_power * gain * gain / den


def pilot_second_moment(params: LinkParams) -> float:
    """E|y|^2 of a received pilot: P_p * rho0 + noise variance.

    y is zero-mean complex Gaussian, so |y|^2 is exponential with this mean.
    """
    return params.pilot_power * params.channel_variance + params.noise_variance
