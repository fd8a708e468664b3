"""Time-correlated Rayleigh fading with a Jakes Doppler spectrum.

The channel is a zero-mean circularly-symmetric complex Gaussian process whose
autocovariance at lag d is  rho(d) = rho0 * J0(2*pi*f_d*T_s*d).  Traces are
synthesized in the frequency domain (circulant embedding of the covariance),
which reproduces the target autocovariance exactly at every lag shorter than
the trace.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

SPEED_OF_LIGHT = 299_792_458.0  # m/s, exact SI value
MPH_TO_MPS = 0.44704            # exact by definition of the international mile


@dataclass(frozen=True)
class LinkParams:
    """Physical constants of one link, all in linear units.

    pilot_power / data_power : transmit powers (W)
    noise_variance           : receiver noise variance (linear)
    channel_variance         : rho(0), the channel power
    doppler_hz               : maximum Doppler shift f_d (Hz), 0 for a static channel
    sample_period            : slot duration T_s (s)
    """

    pilot_power: float
    data_power: float
    noise_variance: float
    channel_variance: float = 1.0
    doppler_hz: float = 0.0
    sample_period: float = 1e-3

    def __post_init__(self):
        for name in ("pilot_power", "data_power", "noise_variance",
                     "channel_variance", "sample_period"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and strictly positive, got {value!r}")
        if not (math.isfinite(self.doppler_hz) and self.doppler_hz >= 0):
            raise ValueError(f"doppler_hz must be finite and >= 0, got {self.doppler_hz!r}")
        if self.normalized_doppler >= 0.5:
            raise ValueError(
                f"normalized Doppler f_d*T_s = {self.normalized_doppler:.6g} "
                "violates the sampling adequacy bound (must be < 0.5)")

    @property
    def normalized_doppler(self) -> float:
        return self.doppler_hz * self.sample_period


@dataclass(frozen=True)
class MobilityParams:
    """User speed and carrier frequency, from which the Doppler shift follows."""

    speed_mps: float
    carrier_hz: float

    def __post_init__(self):
        if not (0 <= self.speed_mps < SPEED_OF_LIGHT):
            raise ValueError(f"speed_mps must be in [0, c), got {self.speed_mps!r}")
        if not (math.isfinite(self.carrier_hz) and self.carrier_hz > 0):
            raise ValueError(f"carrier_hz must be positive, got {self.carrier_hz!r}")


@dataclass(frozen=True, eq=False)
class FadingTrace:
    """A sampled realization of the fading process, immutable after creation."""

    samples: np.ndarray
    params: LinkParams
    seed: int

    def __len__(self) -> int:
        return len(self.samples)


def doppler_frequency(mob: MobilityParams) -> float:
    """Doppler shift v * f_c / c in Hz."""
    return mob.speed_mps * mob.carrier_hz / SPEED_OF_LIGHT


# Rational approximations for J0 (Cephes Math Library, Moshier).  Peak
# absolute error ~4e-16 on [0, 30], well inside the 1e-8 budget up to 1e4.

_PP = np.array([
    7.96936729297347051624e-4, 8.28352392107440799803e-2,
    1.23953371646414299388e0, 5.44725003058768775090e0,
    8.74716500199817011941e0, 5.30324038235394892183e0,
    9.99999999999999997821e-1,
])
_PQ = np.array([
    9.24408810558863637013e-4, 8.56288474354474431428e-2,
    1.25352743901058953537e0, 5.47097740330417105182e0,
    8.76190883237069594232e0, 5.30605288235394617618e0,
    1.00000000000000000218e0,
])
_QP = np.array([
    -1.13663838898469149931e-2, -1.28252718670509318512e0,
    -1.95539544257735972385e1, -9.32060152123768231369e1,
    -1.77681167980488050595e2, -1.47077505154951170175e2,
    -5.14105326766599330220e1, -6.05014350600728481186e0,
])
_QQ = np.array([
    6.43178256118178023184e1, 8.56430025976980587198e2,
    3.88240183605401609683e3, 7.24046774195652478189e3,
    5.93072701187316984827e3, 2.06209331660327847417e3,
    2.42005740240291393179e2,
])
_RP = np.array([
    -4.79443220978201773821e9, 1.95617491946556577543e12,
    -2.49248344360967716204e14, 9.70862251047306323952e15,
])
_RQ = np.array([
    4.99563147152651017219e2, 1.73785401676374683123e5,
    4.84409658339962045305e7, 1.11855537045356834862e10,
    2.11277520115489217587e12, 3.10518229857422583814e14,
    3.18121955943204943306e16, 1.71086294081043136091e18,
])
_DR1 = 5.78318596294678452118e0
_DR2 = 3.04712623436620863991e1
_SQ2OPI = 7.9788456080286535587989e-1  # sqrt(2/pi)
_PIO4 = 7.85398163397448309616e-1      # pi/4


def _polevl(x: np.ndarray, coef: np.ndarray) -> np.ndarray:
    out = np.full_like(x, coef[0])
    for c in coef[1:]:
        out = out * x + c
    return out


def _p1evl(x: np.ndarray, coef: np.ndarray) -> np.ndarray:
    # leading coefficient 1 implied
    out = x + coef[0]
    for c in coef[1:]:
        out = out * x + c
    return out


def bessel_j0(x):
    """Zeroth-order Bessel function of the first kind.

    Accepts a scalar or ndarray; rejects non-finite input.  Piecewise rational
    approximation on [0, 5] and a Hankel asymptotic form beyond.
    """
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("bessel_j0 requires finite input")
    scalar = arr.ndim == 0
    ax = np.abs(arr.ravel())
    out = np.empty_like(ax)

    tiny = ax < 1e-5
    mid = ~tiny & (ax <= 5.0)
    big = ax > 5.0

    if tiny.any():
        z = ax[tiny]
        out[tiny] = 1.0 - z * z / 4.0
    if mid.any():
        z = ax[mid] ** 2
        out[mid] = (z - _DR1) * (z - _DR2) * _polevl(z, _RP) / _p1evl(z, _RQ)
    if big.any():
        xx = ax[big]
        w = 5.0 / xx
        q = 25.0 / (xx * xx)
        p = _polevl(q, _PP) / _polevl(q, _PQ)
        qq = _polevl(q, _QP) / _p1evl(q, _QQ)
        xn = xx - _PIO4
        out[big] = _SQ2OPI * (p * np.cos(xn) - w * qq * np.sin(xn)) / np.sqrt(xx)

    if scalar:
        return float(out[0])
    return out.reshape(arr.shape)


def autocorrelation(delta, params: LinkParams):
    """Channel autocovariance rho0 * J0(2*pi*f_d*T_s*delta) at integer lag(s) delta.

    Accepts a scalar lag (returns a float) or an array of lags (returns an
    array of the same shape).
    """
    if np.any(np.asarray(delta) < 0):
        raise ValueError(f"lag must be >= 0, got {delta}")
    arg = 2.0 * math.pi * params.normalized_doppler * delta
    return params.channel_variance * bessel_j0(arg)


def generate_fading_trace(params: LinkParams, length: int, seed: int) -> FadingTrace:
    """Draw one stationary complex Gaussian trace with the Jakes autocovariance.

    Circulant embedding: the covariance sequence is symmetrically extended to a
    power-of-two circle, its FFT gives the (nonnegative, up to roundoff)
    spectral weights, and shaping i.i.d. complex Gaussians by the square root
    of those weights yields a process whose autocovariance matches the target
    at every lag below `length`.  Deterministic for a given seed.
    """
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")
    if params.normalized_doppler >= 0.5:
        raise ValueError("normalized Doppler must be < 0.5")

    rng = np.random.default_rng(seed)
    rho0 = params.channel_variance

    if params.normalized_doppler == 0.0:
        # Degenerate spectrum: the process is a single coherent draw.
        re, im = rng.standard_normal(2)
        h0 = math.sqrt(rho0 / 2.0) * complex(re, im)
        samples = np.full(length, h0, dtype=complex)
    else:
        m = 1 << max(2, int(2 * length - 1).bit_length())
        half = m // 2
        r = autocorrelation(np.arange(half + 1), params)
        cov = np.empty(m)
        cov[:half + 1] = r
        cov[half + 1:] = r[half - 1:0:-1]
        lam = np.fft.fft(cov).real
        np.maximum(lam, 0.0, out=lam)
        total = lam.sum()
        if total <= 0:
            raise ValueError("degenerate covariance embedding")
        lam *= (m * rho0) / total  # keep the lag-0 covariance at exactly rho0

        re = rng.standard_normal(m)
        im = rng.standard_normal(m)
        w = (re + 1j * im) / math.sqrt(2.0)
        h = np.fft.ifft(np.sqrt(lam) * w) * math.sqrt(m)
        samples = h[:length].copy()

    samples.flags.writeable = False
    return FadingTrace(samples=samples, params=params, seed=seed)


def empirical_autocorrelation(trace: FadingTrace, max_lag: int) -> np.ndarray:
    """Sample autocovariance Re{mean of h_t conj(h_{t-d})} for d = 0 .. max_lag.

    Each lag averages over its N-d available products (unbiased in the mean),
    so a constant trace of value c returns |c|^2 at every lag.
    """
    if max_lag < 1:
        raise ValueError(f"max_lag must be >= 1, got {max_lag}")
    n = len(trace.samples)
    if n <= 10 * max_lag:
        raise ValueError(
            f"trace length {n} too short for max_lag {max_lag} (need > {10 * max_lag})")
    h = trace.samples
    out = np.empty(max_lag + 1)
    for d in range(max_lag + 1):
        tail = h[d:]
        head = h[:n - d] if d else h
        out[d] = np.vdot(head, tail).real / (n - d)
    return out
