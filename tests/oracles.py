"""Independent reference computations backing the frozen expected values.

These deliberately avoid the package's own code paths: the Bessel oracle is an
arbitrary-precision power series, the scheduler oracles are plain Python
loops over the definitions, the index evaluated one age at a time, the
best cycle average one period at a time (`best_period_prefix_loop`), damped
relative value iteration on the age MDP (the slow reference for
`policy_iteration`), or the tolerance bisection for the threshold that
`solve_threshold`'s fixed-point iteration must equal bit for bit, and the
reward-curve oracle integrates one age and one quadrature panel at a time,
with the MCS feasibility thresholds found by bisection and the best MCS by
an argmax over all entries.  `step` advances
the closed loop one slot at a time, the slot-level reference for the array
pass of `run_policy`, and `slot_streams` lays one run's streams
(`simulation._seed_streams`, the noise scaled here) out by slot for it.
`fading_trace_unstrided` is the trace synthesis with every slot read and
`fading_trace_strided` the strided synthesis with a fresh embedding-size
array per step, both one seed's trace array with one m-point
`np.fft.ifft`: `fading_traces` splits that transform in two of m/2 points,
so each trace it yields must equal them within rounding (1e-13 of their
rms) at stride 1 and at every stride.
`embedding_weights` is the strided synthesis' spectral weights from the
whole half covariance and `np.fft.hfft`, which the block-wise
`_spectral_weights` must equal bit for bit.
`max_goodput_matrix` selects the MCS by an argmax over every entry at
every point, the reference that the band-order selection
(`_BlockSelector`) must equal bit for bit.  Through it,
`mc_expected_goodput_full_outputs` is the Monte Carlo oracle with all three
selection outputs in draw order, which the goodput-only
`mc_expected_goodput` must equal bit for bit; `realized_rewards_per_slot`
decides realized rewards slot by slot, the reference for the band-order
decisions of `_realized_rewards`; and `step` selects a realized data slot's
MCS.
`bessel_j0_unblocked` and `orthogonality_metrics` are the whole-array
formulations, with a fresh temporary per operation, that the blocked J0 and
the in-place `check_orthogonality` must equal bit for bit.
"""

import math
from dataclasses import dataclass
from decimal import Decimal, getcontext

import numpy as np

from pilotsched import (EXPECTED, HorizonExhaustedError, RewardCurve, ThresholdSolution,
                        autocorrelation, expected_goodputs, hitting_age, index_gamma)
from pilotsched.channel import (_DR1, _DR2, _PIO4, _PP, _PQ, _QP, _QQ, _RP, _RQ,
                                _SQ2OPI)
from pilotsched.estimation import mmse_gain, pilot_second_moment, sinr_gain
from pilotsched.link_adaptation import _MAX_PANEL, _QUAD_TAIL, _gauss_legendre
from pilotsched.simulation import MODES, _seed_streams

PILOT = "pilot"
DATA = "data"


class ConvergenceError(RuntimeError):
    """An iterative solver broke a bound that holds in exact arithmetic (roundoff)."""


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


def _polevl(x, coef):
    out = np.full_like(x, coef[0])
    for c in coef[1:]:
        out = out * x + c
    return out


def _p1evl(x, coef):
    out = x + coef[0]
    for c in coef[1:]:
        out = out * x + c
    return out


def bessel_j0_unblocked(x):
    """The Cephes J0 approximation over the whole array at once, each branch
    on its masked points, every step a new temporary."""
    arr = np.asarray(x, dtype=float)
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
    if arr.ndim == 0:
        return float(out[0])
    return out.reshape(arr.shape)


def orthogonality_metrics(params, age: int, n: int, seed: int) -> dict:
    """The MMSE orthogonality statistic with one temporary per operation:
    (h_past, h_now) jointly Gaussian, then pilot noise, y, the estimate, the
    error and the cross products, drawn and combined as `check_orthogonality`
    did before it reused its buffers."""
    rng = np.random.default_rng(seed)
    rho0 = params.channel_variance
    rho = autocorrelation(np.arange(age + 1), params)[age]
    h_past = math.sqrt(rho0 / 2.0) * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    resid_var = rho0 - rho * rho / rho0
    innov = math.sqrt(max(resid_var, 0.0) / 2.0) * (
        rng.standard_normal(n) + 1j * rng.standard_normal(n))
    h_now = (rho / rho0) * h_past + innov
    noise = math.sqrt(params.noise_variance / 2.0) * (
        rng.standard_normal(n) + 1j * rng.standard_normal(n))
    y = math.sqrt(params.pilot_power) * h_past + noise
    estimate = mmse_gain(age, params) * y
    error = h_now - estimate
    # as numpy evaluates `estimate * np.conj(error)` on arrays of 256 KiB or
    # more: in place in the conj temporary, so with that operand order
    cross = np.conj(error) * estimate
    stat = abs(complex(cross.mean()))
    se = math.sqrt((cross.real.var(ddof=1) + cross.imag.var(ddof=1)) / n)
    return {"stat": stat, "three_se": 3 * se}


def fading_trace_unstrided(params, length: int, seed: int) -> np.ndarray:
    """The circulant-embedding trace synthesis with every slot read (no stride)."""
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")
    if params.normalized_doppler >= 0.5:
        raise ValueError("normalized Doppler must be < 0.5")

    rng = np.random.default_rng(seed)
    rho0 = params.channel_variance

    if params.normalized_doppler == 0.0:
        re, im = rng.standard_normal(2)
        h0 = math.sqrt(rho0 / 2.0) * complex(re, im)
        samples = np.full(length, h0, dtype=complex)
    else:
        m = 1 << max(2, int(2 * length - 1).bit_length())
        r = autocorrelation(np.arange(m // 2 + 1), params)
        lam = np.maximum(np.fft.hfft(r, m), 0.0)
        total = lam.sum()
        if total <= 0:
            raise ValueError("degenerate covariance embedding")
        # the rescaling to rho0 at lag 0, the 1/sqrt(2) of a unit complex
        # normal and the sqrt(m) of the inverse transform, in one factor
        weights = np.sqrt(lam * ((m * rho0) / total * (m / 2.0)))

        re = rng.standard_normal(m)
        im = rng.standard_normal(m)
        w = np.empty(m, dtype=complex)
        w.real = re * weights
        w.imag = im * weights
        samples = np.fft.ifft(w)[:length].copy()

    samples.flags.writeable = False
    return samples


def embedding_weights(params, m: int, stride: int = 1) -> np.ndarray:
    """The m spectral weights of the strided embedding: `np.fft.hfft` of the
    whole half covariance, clipped at 0, rescaled and square-rooted."""
    lam = np.fft.hfft(autocorrelation(stride * np.arange(m // 2 + 1), params), m)
    np.maximum(lam, 0.0, out=lam)
    total = lam.sum()
    if total <= 0:
        raise ValueError("degenerate covariance embedding")
    lam *= (m * params.channel_variance) / total * (m / 2.0)
    np.sqrt(lam, out=lam)
    return lam


def fading_trace_strided(params, length: int, seed: int, stride: int = 1) -> np.ndarray:
    """The strided trace synthesis with a fresh embedding-size array per step:
    the weights from `np.fft.hfft`, one normals buffer, the complex weights
    and the out-of-place inverse transform."""
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")
    if stride < 1:
        raise ValueError(f"stride must be >= 1, got {stride}")
    if params.normalized_doppler >= 0.5:
        raise ValueError("normalized Doppler must be < 0.5")

    rng = np.random.default_rng(seed)
    rho0 = params.channel_variance

    if params.normalized_doppler == 0.0:
        re, im = rng.standard_normal(2)
        h0 = math.sqrt(rho0 / 2.0) * complex(re, im)
        samples = np.full(length, h0, dtype=complex)
    else:
        m = 1 << max(2, int(2 * length - 1).bit_length())
        lam = embedding_weights(params, m, stride)
        w = np.empty(m, dtype=complex)
        normal = np.empty(m)
        np.multiply(rng.standard_normal(out=normal), lam, out=w.real)
        np.multiply(rng.standard_normal(out=normal), lam, out=w.imag)
        samples = np.fft.ifft(w)[:length].copy()

    samples.flags.writeable = False
    return samples


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


def best_period_prefix_loop(curve: RewardCurve, p_max: int):
    """(period, average): the first strict maximum of cs[p-1] / p over the
    curve's own prefix sums, one period at a time, the loop that the array
    pass of `brute_force_optimal_period` must equal bit for bit."""
    cs = curve.cumulative.tolist()
    best_p, best_avg = 1, 0.0
    for p in range(1, p_max + 1):
        avg = cs[p - 1] / p
        if avg > best_avg:
            best_p, best_avg = p, avg
    return best_p, best_avg


@dataclass(frozen=True, eq=False)
class MdpSolution:
    gain: float
    relative_values: np.ndarray
    policy: tuple  # action per age 1..max_age


def relative_value_iteration(curve: RewardCurve, max_age: int, tol: float = 1e-9,
                             max_iter: int | None = None) -> MdpSolution:
    """Average-reward value iteration on the age MDP, as an optimality oracle.

    State is the age 1..max_age; a pilot earns 0 and resets to age 1, data
    earns r(age) and moves to min(age+1, max_age).  A damping factor keeps the
    iteration convergent despite the deterministic (periodic) transitions; it
    changes neither the gain nor the optimal policy.  On a pilot cycle of
    length p the span contracts in about 3 p^2 sweeps, so the default cap,
    8 max_age^2 (at least 200,000), covers every period the ages allow.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    if max_age < 2:
        raise ValueError(f"max_age must be >= 2, got {max_age}")
    if max_age > len(curve):
        raise ValueError(f"max_age {max_age} exceeds the tabulated curve length {len(curve)}")
    if max_iter is None:
        max_iter = max(200_000, 8 * max_age * max_age)
    r = curve.values[:max_age]
    damping = 0.5
    next_idx = np.minimum(np.arange(1, max_age + 1), max_age - 1)

    v = np.zeros(max_age)
    for _ in range(max_iter):
        pilot_q = v[0]
        data_q = r + v[next_idx]
        w = (1.0 - damping) * v + damping * np.maximum(pilot_q, data_q)
        diff = w - v
        span = float(diff.max() - diff.min())
        v = w - w[0]
        if span <= damping * tol:
            gain = float(diff.max() + diff.min()) / (2.0 * damping)
            greedy_pilot = v[0]
            greedy_data = r + v[next_idx]
            policy = tuple(PILOT if greedy_pilot >= dq else DATA for dq in greedy_data)
            return MdpSolution(gain=gain, relative_values=v.copy(), policy=policy)
    raise ConvergenceError(
        f"relative value iteration did not converge within {max_iter} iterations")


def solve_threshold_bisection(curve: RewardCurve, tol: float,
                              max_iter: int = 200) -> ThresholdSolution:
    """Bisection for the unique root of g(b) = sum(r(1..h(b)-1)) - b*h(b).

    g is nonincreasing in b, so ages where the hitting age does not exist yet
    (b too small) are treated as g > 0.  Bisection stops when |g| <= tol, or
    when g changes sign between two adjacent floats.  The returned beta is
    snapped to the exact cycle average of the hitting age it induces.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    vals = curve.values
    cs = curve.cumulative
    if not np.any(vals > 0):
        return ThresholdSolution(beta=0.0, period=1)
    gamma = index_gamma(curve)

    lo, hi = 0.0, float(vals.max())
    bracketed = False  # g(lo) > 0 at an age the index reaches
    h_mid = None
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        try:
            h_mid = hitting_age(mid, gamma)
        except HorizonExhaustedError:
            lo = mid
            continue
        g = float(cs[h_mid - 1]) - mid * h_mid
        if abs(g) <= tol or (bracketed and mid in (lo, hi)):
            # a bracketed root between two adjacent floats: no b gets |g|
            # closer to 0 (one ULP of a large cs[h-1] can exceed tol)
            break
        if g > 0:
            lo, bracketed = mid, True
        else:
            hi = mid
    else:
        raise ConvergenceError(
            f"threshold bisection did not reach |g| <= {tol} in {max_iter} iterations")

    # Snap to the exact fixed point and re-verify the hitting age it induces.
    h = h_mid
    for _ in range(5):
        beta = float(cs[h - 1]) / h
        h_next = hitting_age(beta, gamma)
        if h_next == h:
            return ThresholdSolution(beta=beta, period=h)
        h = h_next
    raise ConvergenceError("threshold fixed point failed to stabilize after snapping")


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

    Returns (goodput, chosen_index, chosen_bler), each shaped like `eta`;
    chosen_index is -1 and chosen_bler is 1.0 where no entry is feasible,
    and ties go to the first entry.  A linear SINR of 0 is -inf dB.  The
    points go through in slices of 2^16, so the matrices stay small however
    many points there are.
    """
    eta = np.asarray(eta, dtype=float)
    flat = eta.ravel()
    rates = np.array([e.rate for e in table.entries])
    best = np.empty(flat.size)
    chosen = np.empty(flat.size, np.int64)
    chosen_bler = np.empty(flat.size)
    for start in range(0, flat.size, 1 << 16):
        x = flat[start:start + (1 << 16)]
        snr_db = np.full(x.size, -np.inf)
        pos = x > 0
        snr_db[pos] = 10.0 * np.log10(x[pos])
        blers = np.empty((len(table.entries), x.size))
        for i, entry in enumerate(table.entries):
            blers[i] = entry.bler_curve(snr_db)
        goodput = rates[:, None] * (1.0 - blers)
        goodput[blers > table.e_max] = -1.0
        c = np.argmax(goodput, axis=0)
        g = goodput[c, np.arange(x.size)]
        b = blers[c, np.arange(x.size)]
        infeasible = g < 0
        g[infeasible], b[infeasible], c[infeasible] = 0.0, 1.0, -1
        sl = slice(start, start + x.size)
        best[sl], chosen[sl], chosen_bler[sl] = g, c, b
    return best.reshape(eta.shape), chosen.reshape(eta.shape), chosen_bler.reshape(eta.shape)


def mc_expected_goodput_full_outputs(age: int, params, table, n_samples: int,
                                     seed: int) -> tuple:
    """The Monte Carlo oracle with every selection output materialized: each
    chunk of 10^6 exponential draws goes through `max_goodput_matrix` at
    gain * x, and the goodput and its square are summed chunk by chunk;
    returns (mean, standard_error)."""
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
        g, _, _ = max_goodput_matrix(gain * x, table)
        total += float(g.sum())
        total_sq += float((g * g).sum())
        remaining -= m
    mean = total / n_samples
    var = max(total_sq / n_samples - mean * mean, 0.0)
    return mean, math.sqrt(var / n_samples)


def realized_rewards_per_slot(eta, uniforms, table) -> np.ndarray:
    """Realized data-slot rewards decided one slot at a time, in slot order,
    from the choice and BLER that `max_goodput_matrix` gives each slot."""
    _, chosen, chosen_bler = max_goodput_matrix(eta, table)
    rates = [entry.rate for entry in table.entries]
    return np.array([rates[c] if c >= 0 and u < 1.0 - b else 0.0
                     for c, b, u in zip(chosen.tolist(), chosen_bler.tolist(),
                                        np.asarray(uniforms).tolist())])


def reward_curve_panels(ages, params, table, nodes=64, exact_sums=False):
    """r(age) at each of `ages` by composite Gauss-Legendre quadrature of
    `nodes` nodes per panel, one age and one panel at a time.

    The rule is the package's (`_gauss_legendre`), which its own test pins to
    numpy's leggauss, so this checks the quadrature and not the rule.  The
    u-axis (|y|^2 in units of its mean) is cut at every feasibility
    threshold up to the package's tail (_QUAD_TAIL), each piece is split into
    panels no longer than its _MAX_PANEL, and each panel's weighted sum,
    `(w_ref * (g * exp(-u))).sum()`, is added to the age's total in order.
    With `exact_sums` each panel's terms and then the age's panel values are
    summed with math.fsum instead.
    """
    feasibility = bisect_thresholds(table)
    x_ref, w_ref = _gauss_legendre(nodes)
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
        u_end = min(max(_QUAD_TAIL, u_start + 30.0), 700.0)
        if u_start >= u_end:
            out.append(0.0)
            continue
        cuts = np.unique(np.concatenate(
            ([u_start, u_end], finite[(finite > u_start) & (finite < u_end)])))
        panel_values = []
        for a, b in zip(cuts[:-1], cuts[1:]):
            n_sub = max(1, int(math.ceil((b - a) / _MAX_PANEL)))
            edges = np.linspace(a, b, n_sub + 1)
            for lo, hi in zip(edges[:-1], edges[1:]):
                hw = 0.5 * (hi - lo)
                u = 0.5 * (lo + hi) + hw * x_ref
                g, _, _ = max_goodput_matrix(u * scale, table)
                terms = w_ref * (g * np.exp(-u))
                panel_values.append(hw * (math.fsum(terms) if exact_sums else float(terms.sum())))
        total = 0.0
        if exact_sums:
            total = math.fsum(panel_values)
        else:
            for value in panel_values:
                total += value
        out.append(total)
    return np.array(out)


@dataclass
class SchedulerState:
    """Slot-level state of the reference loop driven by `step`."""

    age: int
    last_pilot_value: complex | None
    slot: int


def slot_streams(params, horizon: int, period: int, seed: int):
    """A run's streams laid out by slot: (trace, pilot_noise, decode_uniforms),
    each of length `horizon`, NaN at every slot that must not be read.

    The trace and noise hold their draws at the pilot slots 0, period,
    2*period, ..., the noise scaled to the link's, and the decode draws fill
    the data slots in order.
    """
    trace, noise, uniforms = next(_seed_streams(params, horizon, period, [seed]))
    samples = np.full(horizon, complex(np.nan, np.nan))
    pilot_noise = np.full(horizon, complex(np.nan, np.nan))
    decode = np.full(horizon, np.nan)
    samples[::period] = trace
    pilot_noise[::period] = noise * math.sqrt(params.noise_variance / 2.0)
    data = np.ones(horizon, dtype=bool)
    data[::period] = False
    decode[data] = uniforms
    return samples, pilot_noise, decode


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
        y = math.sqrt(params.pilot_power) * trace[state.slot] + pilot_noise
        return SchedulerState(age=1, last_pilot_value=y, slot=state.slot + 1), 0.0

    if action != DATA:
        raise ValueError(f"unknown action {action!r}")
    if state.last_pilot_value is None:
        raise ValueError("data slot before the first pilot of the run; "
                         "every run must begin with a pilot")

    if mode == EXPECTED:
        if reward_curve is not None and state.age <= len(reward_curve):
            reward = float(reward_curve.values[state.age - 1])
        else:
            reward = float(expected_goodputs([state.age], params, table)[0])
    else:
        eta = sinr_gain(state.age, params) * abs(state.last_pilot_value) ** 2
        _, chosen, chosen_bler = max_goodput_matrix(eta, table)
        if chosen >= 0 and decode_uniform is None:
            raise ValueError("a realized data slot needs a decode draw")
        success = chosen >= 0 and decode_uniform < 1.0 - chosen_bler
        reward = table.entries[int(chosen)].rate if success else 0.0

    next_state = SchedulerState(age=state.age + 1,
                                last_pilot_value=state.last_pilot_value,
                                slot=state.slot + 1)
    return next_state, reward
