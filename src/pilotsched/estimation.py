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

import numpy as np

from .channel import LinkParams, autocorrelation


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


def sinr_gain(age, params: LinkParams):
    """SINR per unit |y|^2 of a data slot estimated from a pilot `age` slots old.

    The slot's SINR is sinr_gain(age) * |y|^2, with
    sinr_gain = P_d * gain^2 / (P_d * error_variance + noise).
    """
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
