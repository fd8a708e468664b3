"""Time-correlated Rayleigh fading with a Jakes Doppler spectrum.

The channel is a zero-mean circularly-symmetric complex Gaussian process whose
autocovariance at lag d is  rho(d) = rho0 * J0(2*pi*f_d*T_s*d).  Traces are
synthesized in the frequency domain (circulant embedding of the covariance);
the embedded covariance is real and even, so its spectrum is the real
transform of half of it.  The embedding's negative eigenvalues are clipped
to 0, so the trace reproduces the target autocovariance at every lag shorter
than the trace only up to that clipping: 0.02-0.9% of the spectral mass at
5*10^5 samples for f_d*T_s from 0.45 down to 0.005 (see
`generate_fading_trace`).  The inverse transform runs as two of half the
circle's size, so the samples equal those of one whole-circle `np.fft.ifft`
of the same weights and draws only up to rounding: within 2e-15 of the
trace's rms wherever measured.
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


@dataclass(frozen=True, eq=False)
class FadingTrace:
    """A sampled realization of the fading process, immutable after creation."""

    samples: np.ndarray
    params: LinkParams
    seed: int

    def __len__(self) -> int:
        return len(self.samples)


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


_J0_BLOCK = 1 << 13  # points per block of bessel_j0's work arrays
_DRAW_BLOCK = 1 << 14  # points per block of a trace's normal draws
_SPLIT_BLOCK = 1 << 13  # points per block of a trace's split pass (a power of two)


def _polevl(x: np.ndarray, coef: np.ndarray) -> np.ndarray:
    out = np.full_like(x, coef[0])
    for c in coef[1:]:
        out *= x
        out += c
    return out


def _p1evl(x: np.ndarray, coef: np.ndarray) -> np.ndarray:
    # leading coefficient 1 implied
    out = x + coef[0]
    for c in coef[1:]:
        out *= x
        out += c
    return out


def _j0_block(ax: np.ndarray, out: np.ndarray) -> None:
    """J0 of the nonnegative block `ax`, written into `out`."""
    tiny = ax < 1e-5
    mid = ~tiny & (ax <= 5.0)
    big = ax > 5.0

    if tiny.any():
        z = ax[tiny]
        out[tiny] = 1.0 - z * z / 4.0
    if mid.any():
        z = ax[mid] ** 2
        t = z - _DR1
        t *= z - _DR2
        t *= _polevl(z, _RP)
        t /= _p1evl(z, _RQ)
        out[mid] = t
    if big.any():
        xx = ax[big]
        w = 5.0 / xx
        q = 25.0 / (xx * xx)
        p = _polevl(q, _PP)
        p /= _polevl(q, _PQ)
        qq = _polevl(q, _QP)
        qq /= _p1evl(q, _QQ)
        xn = xx - _PIO4
        p *= np.cos(xn)
        w *= qq
        w *= np.sin(xn)
        p -= w
        p *= _SQ2OPI
        p /= np.sqrt(xx)
        out[big] = p


def bessel_j0(x):
    """Zeroth-order Bessel function of the first kind.

    Accepts a scalar or ndarray; rejects non-finite input.  Piecewise rational
    approximation on [0, 5] and a Hankel asymptotic form beyond.  Evaluated in
    blocks of _J0_BLOCK points, so the work arrays stay small however long
    the input; every point gets the same float operations whatever the block.
    """
    arr = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise ValueError("bessel_j0 requires finite input")
    flat = arr.ravel()
    out = np.empty_like(flat)
    for start in range(0, flat.size, _J0_BLOCK):
        stop = start + _J0_BLOCK
        _j0_block(np.abs(flat[start:stop]), out[start:stop])
    if arr.ndim == 0:
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


def _normal_blocks(rng, n: int):
    """n standard normal draws from `rng`, as (slice, block) pairs.

    The blocks are successive views of one buffer of at most _DRAW_BLOCK
    points, each overwritten by the next; the generator continues one stream
    across them, so they hold the draws of one n-point call.
    """
    buf = np.empty(min(n, _DRAW_BLOCK))
    for start in range(0, n, buf.size):
        stop = min(start + buf.size, n)
        yield slice(start, stop), rng.standard_normal(out=buf[:stop - start])


def _complex_normal(rng, n: int, scale: float) -> np.ndarray:
    """scale * (re + 1j * im) for n standard normal draws re, then n more im."""
    z = np.empty(n, dtype=complex)
    for part in (z.real, z.imag):
        for sl, normal in _normal_blocks(rng, n):
            part[sl] = normal
    z *= scale
    return z


def _spectral_weights(params: LinkParams, stride: int, out: np.ndarray) -> None:
    """The circulant embedding's shaping weights, written into `out` (m points).

    The circle's covariance is real and even, so its spectrum is the real
    transform of the half covariance rho(stride * (0 .. m/2));
    `np.fft.irfft(..., norm="forward")` of a real input is bit for bit
    `np.fft.hfft`.  The half covariance is computed in blocks of _J0_BLOCK
    lags straight into the real part of the transform's complex input, so
    no full-size lag, argument or cast array is made.  Negative weights are
    clipped to 0 and the rest rescaled so the lag-0 covariance stays rho0;
    the 1/sqrt(2) of a unit complex normal and the sqrt(m) that scales the
    inverse transform to a sum go into the same weights, which end as square
    roots.
    """
    m = out.size
    half = np.zeros(m // 2 + 1, dtype=complex)
    for start in range(0, half.size, _J0_BLOCK):
        stop = min(start + _J0_BLOCK, half.size)
        half.real[start:stop] = autocorrelation(stride * np.arange(start, stop), params)
    np.fft.irfft(half, m, norm="forward", out=out)
    np.maximum(out, 0.0, out=out)
    total = out.sum()
    if total <= 0:
        raise ValueError("degenerate covariance embedding")
    out *= (m * params.channel_variance) / total * (m / 2.0)
    np.sqrt(out, out=out)


def _complex_multiply(ar, ai, br, bi, out_re, out_im, x, y) -> None:
    """(ar + i ai) * (br + i bi) into out_re + i out_im, every real operation
    rounded on its own (x and y are scratch of the output's shape).

    numpy's complex multiply may fuse a product and a sum in some loops and
    not in others, so the same operands could round differently by where
    they fall in an array; these real ufuncs cannot.
    """
    np.multiply(ar, br, out=x)
    np.multiply(ai, bi, out=y)
    np.subtract(x, y, out=out_re)
    np.multiply(ar, bi, out=x)
    np.multiply(ai, br, out=y)
    np.add(x, y, out=out_im)


def _split_pass(w: np.ndarray) -> None:
    """One radix-2 decimation-in-frequency pass over w (m points, m a power of
    two >= 4), in place: with h = m/2, w[:h] becomes a = w[:h] + w[h:] and
    w[h:] becomes b = (w[:h] - w[h:]) * e^{2 pi i k/m}.

    It runs in blocks of _SPLIT_BLOCK points.  The twiddle of k = q*B + j
    (B a power of two near sqrt(h)) is the product of two small tables,
    e^{2 pi i qB/m} and e^{2 pi i j/m}: a fixed function of k and m, like its
    product with w[k] - w[h+k], so the result is the same bit for bit
    whatever the block size.
    """
    h = w.size // 2
    fine = 1 << (h.bit_length() // 2)
    angle = 2.0 * math.pi / w.size
    coarse_k, fine_k = angle * np.arange(0, h, fine), angle * np.arange(fine)
    c1, s1, c0, s0 = np.cos(coarse_k), np.sin(coarse_k), np.cos(fine_k), np.sin(fine_k)
    n = min(_SPLIT_BLOCK, h)
    rows, cols = max(1, n // fine), min(n, fine)
    diff = np.empty(n, dtype=complex)
    tw_re, tw_im, x, y = np.empty((4, n))
    grid = [a.reshape(rows, cols) for a in (tw_re, tw_im, x, y)]
    for start in range(0, h, n):
        lo, hi = w[start:start + n], w[h + start:h + start + n]
        np.subtract(lo, hi, out=diff)
        np.add(lo, hi, out=lo)
        q, j = divmod(start, fine)
        _complex_multiply(c1[q:q + rows, None], s1[q:q + rows, None], c0[j:j + cols],
                          s0[j:j + cols], *grid)
        _complex_multiply(diff.real, diff.imag, tw_re, tw_im, hi.real, hi.imag, x, y)


def _ifft_head(w: np.ndarray, length: int) -> np.ndarray:
    """The first `length` points of `np.fft.ifft(w)` for w of m points, m a
    power of two >= 4 and length <= m/2, as two inverse transforms of m/2
    points; w is overwritten.

    After `_split_pass` the even outputs are half the inverse transform of
    w[:m/2] and the odd ones half that of w[m/2:].  Each half is transformed
    in place, so pocketfft's working buffers are those of an m/2-point
    transform, freed before the second one runs.
    """
    _split_pass(w)
    h = w.size // 2
    for half in (w[:h], w[h:]):
        np.fft.ifft(half, out=half)
    samples = np.empty(length, dtype=complex)
    samples[0::2] = w[:(length + 1) // 2]
    samples[1::2] = w[h:h + length // 2]
    parts = samples.view(float)
    parts *= 0.5
    return samples


def generate_fading_trace(params: LinkParams, length: int, seed: int,
                          stride: int = 1, shared_weights: dict | None = None) -> FadingTrace:
    """Draw one stationary complex Gaussian trace with the Jakes autocovariance.

    Circulant embedding: the covariance sequence is symmetrically extended to a
    power-of-two circle of m points, whose FFT gives the spectral weights,
    and shaping i.i.d. complex Gaussians by the square root of those weights
    yields a process whose autocovariance matches the target at every lag
    below `length`, exactly only if no weight is negative.  The circle is
    real and even, so the weights are the real transform of its first
    m/2 + 1 points (within 1e-15 of the largest weight of the complex FFT of
    the whole circle), and the circle itself is never built; the Jakes
    embedding has negative weights, clipped to 0 (`_spectral_weights`).

    The weights go into a real array of m points, and the trace into one
    complex array w of m points: the real-part normals, then the
    imaginary-part normals, are drawn through one small buffer
    (`_normal_blocks`) and multiplied by the weights into w.real and w.imag;
    the weights are freed, and the inverse transform runs in place as two of
    m/2 points after one radix-2 split pass (`_ifft_head`), from which only
    `length` samples are copied out.  The process RSS rises by about 32
    bytes per embedding point, and two phases each reach that level: the
    weights (the half covariance, the weights and the m-point `irfft`'s own
    buffers) and the transform (w and pocketfft's buffers for an m/2-point
    transform, half what one m-point transform takes).  A smaller transform
    therefore cannot lower the peak; ROADMAP item 7 holds the measurements.
    The split changes the order in which the transform rounds, so the
    samples differ from those of one m-point `np.fft.ifft` by rounding only:
    at most 2e-15 of the rms from 1 to 2^17 samples at strides 1-12 and at
    10^6 samples.
    Traced memory (`tracemalloc` does not see pocketfft's buffers) peaks at
    about 25 bytes per point while the weights and w are both live.  At
    5*10^5 samples and stride 1
    the clipped weights hold 0.02% of the spectral mass at f_d*T_s = 0.45,
    0.4% at 0.05 and 0.9% at 0.005; strides 2, 3 and 12 gave 0.003-0.75%.
    Deterministic for a given seed.

    With `stride` P the trace is the process read every P slots: sample k has
    the law of the slot-kP sample, with autocovariance rho(P * d) at lag d.
    That subsequence is stationary too, so the same embedding works at
    length about 2 * length rather than 2 * P * length.  Its normalized
    Doppler P * f_d * T_s may exceed 0.5 (the spectrum aliases); rho(P * d)
    is still a valid covariance.

    The weights depend on the params, the stride and m, not on the seed.
    `shared_weights`, a dict the caller keeps across calls, holds them under
    `(params, stride, m)`: a call finds them there or computes and stores
    them, so traces that differ only in seed compute them once.  The samples
    are the same bit for bit; the stored weights stay live through the
    transform, 8 bytes per embedding point above the peak of an unshared
    call.
    """
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")

    rng = np.random.default_rng(seed)

    if params.normalized_doppler == 0.0:
        # Degenerate spectrum: the process is a single coherent draw.
        re, im = rng.standard_normal(2)
        h0 = math.sqrt(params.channel_variance / 2.0) * complex(re, im)
        samples = np.full(length, h0, dtype=complex)
    else:
        m = 1 << max(2, int(2 * length - 1).bit_length())
        key = (params, stride, m)
        weights = None if shared_weights is None else shared_weights.get(key)
        if weights is None:
            weights = np.empty(m)
            _spectral_weights(params, stride, weights)
            if shared_weights is not None:
                shared_weights[key] = weights
        w = np.empty(m, dtype=complex)  # weights * (re + 1j * im)
        for part in (w.real, w.imag):
            for sl, normal in _normal_blocks(rng, m):
                np.multiply(normal, weights[sl], out=part[sl])
        del weights
        samples = _ifft_head(w, length)

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
