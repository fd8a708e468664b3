"""Optimal pilot scheduling: index function, threshold solver, and oracles.

The index gamma(d) is the best forward-window average of the reward curve
starting at age d.  The optimal policy sends a pilot exactly when gamma drops
to or below a threshold beta, and beta is simultaneously the optimal long-run
average goodput and the cycle average of the induced periodic orbit.  Two
independent oracles certify the solver: exhaustive search over periodic
policies, and relative value iteration on the age MDP.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass

import numpy as np

from .link_adaptation import RewardCurve

PILOT = "pilot"
DATA = "data"

DEFAULT_TAU_MAX = 512
_INDEX_BLOCK_ELEMENTS = 1 << 18


class HorizonExhaustedError(ValueError):
    """No age within the tabulated curve has index at or below the threshold."""


class ConvergenceError(RuntimeError):
    """An iterative solver hit its iteration cap before reaching tolerance."""


@dataclass(frozen=True)
class ThresholdSolution:
    """Threshold beta, the age at which the index first hits it, and the period.

    beta equals the cycle average sum(r(1..period-1)) / period exactly, and is
    the optimal long-run average goodput.  tau_max records the window bound
    used when the index was evaluated.
    """

    beta: float
    hitting_age: int
    period: int
    tau_max: int = DEFAULT_TAU_MAX


@dataclass(frozen=True, eq=False)
class MdpSolution:
    gain: float
    relative_values: np.ndarray
    policy: tuple  # action per age 1..max_age


def index_gamma(curve: RewardCurve, tau_max: int = DEFAULT_TAU_MAX) -> np.ndarray:
    """gamma(age) for ages 1 .. len(curve) - tau_max + 1, as gamma[age - 1].

    gamma(age) is the best average of r over a forward window of 1 .. tau_max
    slots starting at `age`.  Ages are evaluated in blocks of at most
    _INDEX_BLOCK_ELEMENTS window averages, so memory stays bounded on long
    curves.  One RuntimeWarning counts the ages whose best window is the
    longest allowed: there the truncated index may underestimate the supremum.
    """
    if tau_max < 1:
        raise ValueError(f"tau_max must be >= 1, got {tau_max}")
    n_ages = len(curve) - tau_max + 1
    if n_ages < 1:
        raise ValueError(f"index window of {tau_max} slots exceeds the tabulated "
                         f"curve of length {len(curve)}")
    cs = curve.cumulative
    taus = np.arange(1, tau_max + 1)
    gamma = np.empty(n_ages)
    at_bound = 0
    rows = max(1, _INDEX_BLOCK_ELEMENTS // tau_max)
    for start in range(0, n_ages, rows):
        base = np.arange(start, min(start + rows, n_ages))  # age - 1
        averages = (cs[base[:, None] + taus] - cs[base][:, None]) / taus
        best = np.argmax(averages, axis=1)
        gamma[base] = averages[np.arange(base.size), best]
        at_bound += int(np.count_nonzero(best == tau_max - 1))
    if at_bound and tau_max > 1:
        warnings.warn(
            f"index window argmax hit tau_max={tau_max} at {at_bound} of {n_ages} ages; "
            "the truncated index may underestimate the true supremum",
            RuntimeWarning, stacklevel=2)
    return gamma


def hitting_age(beta: float, gamma: np.ndarray) -> int:
    """Smallest age whose index gamma[age - 1] is at or below beta."""
    below = gamma <= beta
    first = int(np.argmax(below))
    if not below[first]:
        raise HorizonExhaustedError(
            f"horizon exhausted: no age in 1..{len(gamma)} has index <= {beta!r}")
    return first + 1


def solve_threshold(curve: RewardCurve, tol: float = 1e-12,
                    tau_max: int = DEFAULT_TAU_MAX,
                    max_iter: int = 200) -> ThresholdSolution:
    """Bisection for the unique root of g(b) = sum(r(1..h(b)-1)) - b*h(b).

    g is nonincreasing in b, so ages where the hitting age does not exist yet
    (b too small) are treated as g > 0.  The returned beta is snapped to the
    exact cycle average of the hitting age it induces.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    vals = curve.values
    cs = curve.cumulative
    if not np.any(vals > 0):
        return ThresholdSolution(beta=0.0, hitting_age=1, period=1, tau_max=tau_max)
    gamma = index_gamma(curve, tau_max)

    lo, hi = 0.0, float(vals.max())
    h_mid = None
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        try:
            h_mid = hitting_age(mid, gamma)
        except HorizonExhaustedError:
            lo = mid
            continue
        g = float(cs[h_mid - 1]) - mid * h_mid
        if abs(g) <= tol:
            break
        if g > 0:
            lo = mid
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
            return ThresholdSolution(beta=beta, hitting_age=h, period=h, tau_max=tau_max)
        h = h_next
    raise ConvergenceError("threshold fixed point failed to stabilize after snapping")


def brute_force_optimal_period(curve: RewardCurve, p_max: int) -> tuple:
    """Exhaustive search over periods: argmax_p sum(r(1..p-1)) / p, ties to small p."""
    if p_max < 1:
        raise ValueError(f"p_max must be >= 1, got {p_max}")
    if p_max > len(curve) + 1:
        raise ValueError(f"p_max {p_max} exceeds tabulated ages + 1 = {len(curve) + 1}")
    cs = curve.cumulative
    best_p, best_avg = 1, 0.0
    for p in range(1, p_max + 1):
        avg = float(cs[p - 1]) / p
        if avg > best_avg:
            best_p, best_avg = p, avg
    return best_p, best_avg


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


def load_reward_curve(path) -> RewardCurve:
    """Read an `age,reward` CSV with consecutive ages starting at 1."""
    values = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty reward curve")
        if [h.strip() for h in header] != ["age", "reward"]:
            raise ValueError(f"{path}: expected header 'age,reward', got {header}")
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
            try:
                age_text, reward_text = row
                age, reward = int(age_text), float(reward_text)
            except ValueError as exc:
                raise ValueError(f"{path} row {line_no}: malformed row {row}") from exc
            if age != len(values) + 1:
                raise ValueError(
                    f"{path} row {line_no}: ages must be consecutive from 1, got {age}")
            values.append(reward)
    if not values:
        raise ValueError(f"{path}: reward curve contains no data rows")
    try:
        return RewardCurve(values=np.array(values), fingerprint=f"csv:{path}")
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def save_reward_curve(curve: RewardCurve, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["age", "reward"])
        for age, reward in enumerate(curve.values, start=1):
            writer.writerow([age, repr(float(reward))])
