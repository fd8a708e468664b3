"""Optimal pilot scheduling: index function, threshold solver, and oracles.

The index gamma(d) is the best forward-window average of the reward curve
starting at age d.  The optimal policy sends a pilot exactly when gamma drops
to or below a threshold beta, and beta is simultaneously the optimal long-run
average goodput and the cycle average of the induced periodic orbit.  The
solver reaches beta exactly by Dinkelbach's fixed-point iteration on the
index, with no tolerance.  Two independent oracles certify it: exhaustive
search over periodic policies, and Howard policy iteration on the age MDP.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .link_adaptation import RewardCurve


class HorizonExhaustedError(ValueError):
    """No tabulated age has index <= the threshold: the optimal period does not fit."""


@dataclass(frozen=True)
class ThresholdSolution:
    """Threshold beta and the pilot period, the age at which the index first hits it.

    beta equals the cycle average sum(r(1..period-1)) / period exactly, and is
    the optimal long-run average goodput.
    """

    beta: float
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


def solve_threshold(curve: RewardCurve) -> ThresholdSolution:
    """Dinkelbach's fixed point: the root of g(b) = sum(r(1..h(b)-1)) - b*h(b).

    h(b) is the hitting age of b, or the forced pilot at age L+1 (L =
    len(curve)) when no age has index <= b, as in policy_iteration's MDP.
    From b = 0 the iteration sets b to the cycle average cs[h-1]/h of the
    current hitting age and looks up the hitting age of that b, and it stops
    when the hitting age repeats.  On the convex, piecewise linear,
    decreasing g this is Newton's method (W. Dinkelbach, "On nonlinear
    fractional programming", Management Science 13(7), 1967), so it ends at
    the root exactly, with beta = cs[h-1]/h and h = h(beta).  A fixed point
    at L+1 means the optimal period does not fit the curve.

    Termination guard: in exact arithmetic g(b) >= 0 at every iterate, so b
    never decreases.  When b repeats (on a tie set h moves to the smaller
    hitting age with b unchanged), h repeats at the next lookup and the loop
    stops; otherwise b rises through the L+1 values cs[p-1]/p.  So the loop
    ends within L+2 lookups.  b falling can only be roundoff (on subnormal
    rewards a quotient can round by half its value, so the optimal period's
    rounded average can equal the index at an earlier age), and the
    iteration then stops at the larger average it holds.
    """
    cs = curve.cumulative
    # the forced pilot at L+1 is a hitting age every b reaches
    gamma = np.append(index_gamma(curve), -np.inf)
    forced = len(gamma)
    beta, h = 0.0, None
    while True:
        h_next = hitting_age(beta, gamma)
        beta_next = float(cs[h_next - 1]) / h_next
        if h_next == h or beta_next < beta:
            break
        beta, h = beta_next, h_next
    if h == forced:
        raise HorizonExhaustedError(
            f"horizon exhausted: the optimal pilot period exceeds the {len(curve)} "
            "tabulated ages")
    return ThresholdSolution(beta=beta, period=h)


def brute_force_optimal_period(curve: RewardCurve, p_max: int) -> tuple:
    """Exhaustive search over periods: argmax_p sum(r(1..p-1)) / p, ties to small p."""
    if p_max < 1:
        raise ValueError(f"p_max must be >= 1, got {p_max}")
    if p_max > len(curve) + 1:
        raise ValueError(f"p_max {p_max} exceeds tabulated ages + 1 = {len(curve) + 1}")
    avg = curve.cumulative[:p_max] / np.arange(1, p_max + 1)
    best = int(np.argmax(avg))  # the first maximum: ties to the smallest period
    return best + 1, float(avg[best])


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

    Roundoff stop: in exact arithmetic a change of period strictly raises
    the gain (the changed action lies on the new cycle, where it strictly
    improves), so the period never returns to one the iteration has left.
    An evaluation whose gain falls, or whose period was held before, can
    only be roundoff (on subnormal rewards a cycle average can round by half
    its value), and the iteration then returns the policy it held, as
    solve_threshold stops at the larger average it holds.  Termination: each
    period is then held for one run of evaluations.  Within a run the gain
    and h(1) are fixed, and the decision at age a depends only on them and
    on the decisions above a, so decisions settle from age L down, one per
    evaluation, and a run ends within L+1 evaluations.  The loop therefore
    ends within (L+1)^2 + 1 evaluations, in floats as in exact arithmetic.
    """
    n_ages = len(curve) + 1
    r = curve.values
    cs = curve.cumulative
    ages = np.arange(1, n_ages + 1)
    pilot = np.ones(n_ages, dtype=bool)
    period, gain, held = 0, 0.0, set()
    for iterations in itertools.count(1):
        q = np.minimum.accumulate(np.where(pilot, ages, n_ages)[::-1])[::-1]
        if q[0] != period:
            next_period = int(q[0])
            next_gain = float(cs[next_period - 1]) / next_period
            if next_period in held or next_gain < gain:
                return period, gain, iterations
            held.add(next_period)
            period, gain = next_period, next_gain
        h = cs[q - 1] - cs[ages - 1] - gain * (q - ages + 1)
        data_q = r + h[1:]
        improved = pilot.copy()
        improved[:-1] = (h[0] > data_q) | ((h[0] == data_q) & pilot[:-1])
        if np.array_equal(improved, pilot):
            return period, gain, iterations
        pilot = improved
