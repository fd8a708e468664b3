"""Independent reference for the benchmark's output checks.

Recomputes the documented model from first principles with scipy, without
calling any pilotsched numerics:

  rho(d)   = rho0 * J0(2 pi f_d T_s d)                       (Jakes)
  g(d)     = P_d * P_p rho(d)^2 / (P_p rho0 + N0)^2
             / (P_d (rho0 - P_p rho(d)^2 / (P_p rho0 + N0)) + N0)   (MMSE SINR gain)
  SINR     = g(d) * X,  X = |y|^2 ~ Exp(mean P_p rho0 + N0)
  r(d)     = E[max over feasible CQI of rate * (1 - BLER(SINR))]

with the logistic BLER 1 / (1 + exp(a (SINR_dB - b_i))).  A CQI is feasible
when BLER <= e_max, i.e. when SINR_dB >= b_i + ln(1/e_max - 1) / a, so the
integrand jumps only at these closed-form thresholds and the integral is
split there for scipy.integrate.quad.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate, special

SPEED_OF_LIGHT = 299_792_458.0
MPH_TO_MPS = 0.44704

# LTE CQI efficiency column (3GPP TS 36.213, Table 7.2.3-1), CQI 1..15.
LTE_RATES = (0.1523, 0.2344, 0.3770, 0.6016, 0.8770, 1.1758, 1.4766, 1.9141,
             2.4063, 2.7305, 3.3223, 3.9023, 4.5234, 5.1152, 5.5547)
# Documented default BLER model: slope a per dB and 50% points b_i in dB.
BLER_SLOPE_PER_DB = 1.5
BLER_MIDPOINTS_DB = (-8.2, -6.2, -3.8, -1.3, 0.9, 2.8, 4.4, 6.6, 8.8, 10.2,
                     12.6, 14.8, 17.2, 19.5, 21.2)
E_MAX = 0.1

# Defaults of the CLI config: unit powers and channel variance, 2.4 GHz, 1 ms slots.
CARRIER_HZ = 2.4e9
SAMPLE_PERIOD_S = 1e-3


def feasibility_thresholds_db(e_max: float = E_MAX) -> np.ndarray:
    """Smallest SINR in dB at which each CQI meets the BLER ceiling."""
    shift = math.log(1.0 / e_max - 1.0) / BLER_SLOPE_PER_DB
    return np.array(BLER_MIDPOINTS_DB) + shift


def slot_goodput(sinr_linear: float) -> float:
    """Best rate * (1 - BLER) over the CQIs within the ceiling; 0 when none is."""
    if sinr_linear <= 0.0:
        return 0.0
    snr_db = 10.0 * math.log10(sinr_linear)
    best = 0.0
    for rate, mid in zip(LTE_RATES, BLER_MIDPOINTS_DB):
        z = BLER_SLOPE_PER_DB * (snr_db - mid)
        e = 1.0 / (1.0 + math.exp(min(z, 700.0)))
        if e <= E_MAX:
            best = max(best, rate * (1.0 - e))
    return best


class OperatingPoint:
    """The link at one SNR (dB) and speed (mph), at the CLI's default constants."""

    def __init__(self, snr_db: float, speed_mph: float):
        self.snr_db = snr_db
        self.speed_mph = speed_mph
        self.noise = 10.0 ** (-snr_db / 10.0)
        self.fd_ts = speed_mph * MPH_TO_MPS * CARRIER_HZ / SPEED_OF_LIGHT * SAMPLE_PERIOD_S
        self.pilot_moment = 1.0 + self.noise  # E|y|^2 = P_p rho0 + N0
        self._cache: dict = {}

    def sinr_gain(self, age: int) -> float:
        rho = special.j0(2.0 * math.pi * self.fd_ts * age)
        m = self.pilot_moment
        err = 1.0 - rho * rho / m
        return (rho * rho / (m * m)) / (err + self.noise)

    def reward(self, age: int) -> float:
        """r(age): the exponential-measure integral of slot_goodput(g * X)."""
        if age not in self._cache:
            self._cache[age] = self._integrate(age)
        return self._cache[age]

    def rewards(self, max_age: int) -> np.ndarray:
        return np.array([self.reward(a) for a in range(1, max_age + 1)])

    def _integrate(self, age: int) -> float:
        scale = self.sinr_gain(age) * self.pilot_moment
        if scale <= 0.0:
            return 0.0
        cuts = np.sort(10.0 ** (feasibility_thresholds_db() / 10.0) / scale)

        def f(u):
            return slot_goodput(scale * u) * math.exp(-u)

        total = 0.0  # exp(-u) underflows to 0 beyond u = 745
        for a, b in zip(cuts[:-1], cuts[1:]):
            if a < 745.0:
                total += integrate.quad(f, a, min(b, 745.0), epsabs=0.0,
                                        epsrel=1e-13, limit=200)[0]
        if cuts[-1] < 745.0:
            total += integrate.quad(f, cuts[-1], np.inf, epsabs=0.0,
                                    epsrel=1e-13, limit=200)[0]
        return total


def cycle_average(r: np.ndarray, period: int, horizon: int) -> float:
    """Exact expected-mode average of a pilot every `period` slots over `horizon` slots.

    (floor(H/p) * sum_{a<p} r(a) + sum_{a < H mod p} r(a)) / H, ages from 1.
    """
    full, rest = divmod(horizon, period)
    cycle = math.fsum(r[:period - 1])
    tail = math.fsum(r[:max(rest - 1, 0)])
    return (full * cycle + tail) / horizon


def best_periods(r: np.ndarray, rel_tol: float = 0.0) -> tuple:
    """Uncapped brute force over every period p <= len(r) + 1.

    Returns (best average, periods whose average is within rel_tol of it).
    """
    avgs = np.array([math.fsum(r[:p - 1]) / p for p in range(1, len(r) + 2)])
    best = float(avgs.max())
    near = [int(p) for p in np.flatnonzero(avgs >= best * (1.0 - rel_tol)) + 1]
    return best, near
