"""Optimal pilot scheduling: index function, threshold solver, and oracles.

The index gamma(d) is the best forward-window average of the reward curve
starting at age d.  The optimal policy sends a pilot exactly when gamma drops
to or below a threshold beta, and beta is simultaneously the optimal long-run
average goodput and the cycle average of the induced periodic orbit.  Two
independent oracles certify the solver: exhaustive search over periodic
policies, and Howard policy iteration on the age MDP.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np

from .config import read_csv_input
from .link_adaptation import RewardCurve


class HorizonExhaustedError(ValueError):
    """No age within the tabulated curve has index at or below the threshold."""


class ConvergenceError(RuntimeError):
    """An iterative solver reached its iteration cap without converging."""


@dataclass(frozen=True)
class ThresholdSolution:
    """Threshold beta, the age at which the index first hits it, and the period.

    beta equals the cycle average sum(r(1..period-1)) / period exactly, and is
    the optimal long-run average goodput.
    """

    beta: float
    hitting_age: int
    period: int


def index_gamma(curve: RewardCurve) -> np.ndarray:
    """gamma(age) for every age 1 .. len(curve), as gamma[age - 1].

    gamma(age) is the best average of r over a forward window of any length
    that starts at `age` and ends within the curve: the largest slope from
    the point (age - 1, cs[age - 1]) of the prefix sums cs to a later one.
    That slope is reached at the next vertex e of the upper convex hull of
    the points from age - 1 on, so one right-to-left pass with a stack of
    hull vertices gives every age in amortized O(L) (the length-unbounded
    maximum-density segment problem: Goldwasser, Kao & Lu, JCSS 2005).
    """
    cs = curve.cumulative.tolist()
    n_ages = len(cs) - 1
    gamma = np.empty(n_ages)
    hull = [n_ages]  # vertices right of i, nearest on top
    for i in range(n_ages - 1, -1, -1):
        ci = cs[i]
        # drop the top t while it lies on or below the chord from i to u
        while len(hull) > 1:
            t, u = hull[-1], hull[-2]
            if (cs[t] - ci) * (u - t) <= (cs[u] - cs[t]) * (t - i):
                hull.pop()
            else:
                break
        e = hull[-1]
        gamma[i] = (cs[e] - ci) / (e - i)
        hull.append(i)
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
        return ThresholdSolution(beta=0.0, hitting_age=1, period=1)
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
            return ThresholdSolution(beta=beta, hitting_age=h, period=h)
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


def policy_iteration(curve: RewardCurve) -> tuple:
    """Howard policy iteration on the age MDP: (period, gain, iterations).

    The state is the age 1 .. L+1, L = len(curve).  Data at age a <= L earns
    r(a) and moves to a+1; a pilot earns 0 and resets to age 1, and is forced
    at age L+1.  There is no "data forever at age L" self-loop, so every
    policy is unichain, and its recurrent cycle is one of the periods
    1 .. L+1 that brute_force_optimal_period(curve, L+1) searches.

    A policy whose chain from age 1 first pilots at age p has gain
    g = cs[p-1] / p.  With q(a) the first pilot age at or after a, its
    relative values are h(a) = cs[q-1] - cs[a-1] - g * (q - a + 1), one
    vectorised backward pass.  Improvement keeps the current action on ties,
    and the iteration stops when the policy repeats (Puterman, Markov
    Decision Processes, 1994, ch. 8-9).  `iterations` counts the policy
    evaluations, the last of which confirms the optimum; the start is the
    all-pilot policy.

    Termination guard: the gain never decreases and takes at most L+1
    values, and while it stays put the MDP is a stopping problem on the
    ages, acyclic, whose decisions settle from age L down in at most L+1
    improvements.  So more than (L+1)^2 evaluations means roundoff made the
    iteration cycle.
    """
    n_ages = len(curve) + 1
    r = curve.values
    cs = curve.cumulative
    ages = np.arange(1, n_ages + 1)
    pilot = np.ones(n_ages, dtype=bool)
    for iterations in range(1, n_ages * n_ages + 1):
        q = np.minimum.accumulate(np.where(pilot, ages, n_ages)[::-1])[::-1]
        period = int(q[0])
        gain = float(cs[period - 1]) / period
        h = cs[q - 1] - cs[ages - 1] - gain * (q - ages + 1)
        data_q = r + h[1:]
        improved = pilot.copy()
        improved[:-1] = (h[0] > data_q) | ((h[0] == data_q) & pilot[:-1])
        if np.array_equal(improved, pilot):
            return period, gain, iterations
        pilot = improved
    raise ConvergenceError(f"policy iteration cycled past {n_ages * n_ages} evaluations")


def load_reward_curve(path) -> RewardCurve:
    """Read an `age,reward` CSV with consecutive ages starting at 1."""
    values = []
    for line_no, row in read_csv_input(path, "reward curve", ["age", "reward"]):
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
        return RewardCurve(values=np.array(values))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def save_reward_curve(curve: RewardCurve, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["age", "reward"])
        for age, reward in enumerate(curve.values, start=1):
            writer.writerow([age, repr(float(reward))])
