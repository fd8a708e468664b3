"""MCS selection under a block-error ceiling and the expected goodput curve.

For a data slot at CSI age d, the SINR is sinr_gain(d) * X where X = |y|^2 is
exponentially distributed.  The slot goodput is the best rate * (1 - BLER)
over all MCS entries whose BLER stays below e_max, and the age curve r(d) is
the exponential-measure integral of that maximum, evaluated by deterministic
composite Gauss-Legendre quadrature split at the MCS feasibility thresholds
(the integrand jumps there, so plain Gauss rules would stall at low accuracy).
All ages of a curve are integrated together.  MCS selection works on
cache-sized blocks (`_blocks`) of rows of nondecreasing points in two steps
of `_BlockSelector`: `bands` bands each row by its two end nodes and sorts
the rows by band, and `rows` runs each band's candidates on its range of
points, returning the results in band order, the choice of entry and its
BLER only when asked, so each caller scatters back or gathers only what it
reads.  Single points are one-node rows, selected by `__call__`.  The
quadrature's rows are its panels, whose nodes lie between two feasibility
cuts and so share one band: it bands each panel by its end nodes alone and
forms the nodes in band order (`_nodes`), and reduces each block with one
numpy row sum per panel, not a BLAS dot product.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property
from importlib import resources

import numpy as np

from .channel import LinkParams
from .config import MAX_TABULATED_AGES, read_csv_input, read_input_text
from .estimation import pilot_second_moment, sinr_gain

# Default per-CQI logistic BLER model: bler(snr) = 1/(1 + exp(a*(snr_dB - b))).
# Slopes a (per dB) and midpoints b (dB, the 50% BLER point) are model defaults
# spaced so that higher CQIs need higher SINR; they are not measurements.
DEFAULT_BLER_SLOPE_PER_DB = 1.5
DEFAULT_CQI_MIDPOINTS_DB = {
    1: -8.2, 2: -6.2, 3: -3.8, 4: -1.3, 5: 0.9,
    6: 2.8, 7: 4.4, 8: 6.6, 9: 8.8, 10: 10.2,
    11: 12.6, 12: 14.8, 13: 17.2, 14: 19.5, 15: 21.2,
}


class LogisticBlerCurve:
    """Logistic-in-dB block error curve, 0.5 at the midpoint."""

    def __init__(self, slope_per_db: float, midpoint_db: float):
        if slope_per_db <= 0:
            raise ValueError("slope must be positive for a decreasing BLER curve")
        self.slope_per_db = slope_per_db
        self.midpoint_db = midpoint_db

    def __call__(self, snr_db):
        # 1 / (1 + exp(clip(slope * (snr_db - midpoint), -700, 700))): an
        # array input is worked on in place in the one array the subtraction
        # makes, and a 0-d input stays a numpy scalar throughout
        z = np.subtract(snr_db, self.midpoint_db)
        out = z if isinstance(z, np.ndarray) else None
        z *= self.slope_per_db
        z = np.clip(z, -700.0, 700.0, out=out)
        z = np.exp(z, out=out)
        z += 1.0
        return np.divide(1.0, z, out=out)

    def threshold(self, e_max: float) -> float:
        """The exact threshold (McsTable.feasibility_thresholds), positive
        since the curve is 1 at -inf dB: the logistic inverted in closed
        form, then the float where this rounded curve crosses (`_crossing`).
        For the shipped table at e_max 0.3 to 1e-3 the closed form lies
        within `_WINDOW` floats of the crossing, so each threshold takes one
        curve call on one array of floats.

        Why the rounded curve crosses only there: near the crossing one input
        ULP moves the curve by 3 to 9 output ULPs (shipped table, e_max 0.3
        to 1e-3), so the test suite checks every float within 2^16 ULPs
        either side of t.  Farther out, x differs from t by a relative
        2^16 * 2^-53 > 7e-12 or more, which moves 10*log10(x) by more than
        3e-11 dB from its value at t.  The computed dB value is off by a few
        ULPs of |10*log10(x)| <= 3,083 dB, under 3e-12 dB, and the slope, exp
        and division that follow add a few ULPs of the BLER.  The exact gap
        dwarfs the rounding error, so the rounded curve lies on the same side
        of e_max as the exact one.
        """
        return _crossing(self, e_max,
                         self.midpoint_db + math.log(1.0 / e_max - 1.0) / self.slope_per_db)


class TabulatedBlerCurve:
    """Piecewise-linear interpolation of measured BLER points in dB.

    The grid must increase strictly and the BLER values must lie in [0, 1]
    and not increase along it.  Queries outside the grid clamp to the
    endpoint values.
    """

    def __init__(self, snr_db: np.ndarray, bler: np.ndarray):
        self.snr_db = np.asarray(snr_db, dtype=float)
        self.bler = np.asarray(bler, dtype=float)
        if len(self.snr_db) < 1 or len(self.snr_db) != len(self.bler):
            raise ValueError("grid and BLER arrays must be equal-length and nonempty")
        if not np.all(np.diff(self.snr_db) > 0):
            raise ValueError("snr_db grid must be strictly increasing")
        if not np.all((self.bler >= 0.0) & (self.bler <= 1.0)):
            raise ValueError("BLER values must lie in [0, 1]")
        rises = np.flatnonzero(np.diff(self.bler) > 0)
        if rises.size:
            raise ValueError(f"BLER is not nonincreasing at snr_db {self.snr_db[rises[0] + 1]}")

    def __call__(self, snr_db):
        return np.interp(snr_db, self.snr_db, self.bler)

    def threshold(self, e_max: float) -> float:
        """The exact threshold (McsTable.feasibility_thresholds): 0 when the
        first point, which holds down to -inf dB, meets e_max; +inf when the
        last does not; else the first segment reaching e_max inverted in dB,
        then the float where the rounded interpolation crosses (`_crossing`),
        in one curve call on an array of floats when the inversion lies
        within `_WINDOW` floats of it.
        """
        meets = self.bler <= e_max
        if meets[0]:
            return 0.0
        if not meets[-1]:
            return math.inf
        k = int(np.argmax(meets))
        (d0, d1), (b0, b1) = self.snr_db[k - 1:k + 1].tolist(), self.bler[k - 1:k + 1].tolist()
        return _crossing(self, e_max, d0 + (b0 - e_max) / (b0 - b1) * (d1 - d0))


@dataclass
class McsEntry:
    """One modulation-and-coding scheme: CQI index, rate, and its BLER curve."""

    index: int
    rate: float
    bler_curve: object  # SINR in dB (array) -> BLER in [0, 1], with threshold(e_max)

    def __post_init__(self):
        if not 1 <= self.index <= 15:
            raise ValueError(f"CQI index must lie in 1..15, got {self.index}")
        if self.rate <= 0:
            raise ValueError(f"rate must be positive, got {self.rate}")
        if not callable(getattr(self.bler_curve, "threshold", None)):
            raise ValueError(f"cqi {self.index}: the BLER curve has no threshold(e_max) method")


@dataclass
class McsTable:
    """MCS entries sorted by strictly increasing rate, plus the BLER ceiling."""

    entries: list
    e_max: float = 0.10

    def __post_init__(self):
        if not self.entries:
            raise ValueError("MCS table must contain at least one entry")
        if not (0 < self.e_max < 1):
            raise ValueError(f"e_max must lie in (0, 1), got {self.e_max}")
        rates = [e.rate for e in self.entries]
        for i in range(1, len(rates)):
            if rates[i] <= rates[i - 1]:
                raise ValueError(
                    f"entry rates must be strictly increasing; entry {i} "
                    f"(cqi {self.entries[i].index}) has rate {rates[i]} after {rates[i - 1]}")

    @cached_property
    def max_rate(self) -> float:
        return self.entries[-1].rate

    @cached_property
    def feasibility_thresholds(self) -> np.ndarray:
        """Each entry's exact feasibility threshold, `bler_curve.threshold(e_max)`.

        A curve's threshold is the t in [0, +inf] such that, for every
        finite float SINR x, x >= t exactly when curve(_to_db(x)) <= e_max:
        0 means feasible everywhere (x <= 0 included, which is -inf dB), and
        +inf feasible at no finite SINR.
        """
        return np.array([e.bler_curve.threshold(self.e_max) for e in self.entries])

    @cached_property
    def selection_groups(self) -> tuple:
        """(edges, candidates): the entries that can win, by SINR band.

        `edges` are the finite thresholds in ascending order, and a finite
        SINR x lies in band g, the number of edges that are 0 or <= x.
        `candidates[g]` lists in table order each entry j among the g lowest
        edges with rate_j >= fl(rate_k * fl(1 - e_max)), where k is the
        highest-rate entry among those g.  Any other entry is infeasible at
        x or cannot win: k is feasible there, so the best goodput is at
        least rate_k * (1 - e_max) in floats, and an entry's goodput is at
        most its rate.

        A SINR of +inf lies in band len(edges) + 1, the last, whose
        candidates are all entries: the thresholds speak of finite SINRs
        only, and at +inf a logistic curve meets the ceiling, while a
        tabulated curve whose last BLER exceeds it (threshold +inf) does not.
        """
        t = self.feasibility_thresholds
        by_edge = sorted(np.flatnonzero(np.isfinite(t)).tolist(), key=lambda j: t[j])
        candidates = [[]]
        for g in range(1, len(by_edge) + 1):
            below = by_edge[:g]
            floor = self.entries[max(below)].rate * (1.0 - self.e_max)  # rates rise with j
            candidates.append(sorted(j for j in below if self.entries[j].rate >= floor))
        candidates.append(list(range(len(self.entries))))
        return t[by_edge], candidates


def _to_db(snr_linear, out=None) -> np.ndarray:
    """10*log10 of a linear SINR; -inf where it is not positive.

    `out`, if given, receives the result; it may be the input itself.
    """
    x = np.asarray(snr_linear, dtype=float)
    if out is None:
        out = np.empty(x.shape)
    if x.size and x.min() > 0:  # NaN fails this test, as x > 0 does
        np.log10(x, out=out)
    else:
        positive = x > 0
        np.log10(x, out=out, where=positive)
        np.copyto(out, -np.inf, where=~positive)
    out *= 10.0
    return out


# Floats either side of the closed-form guess in the first window of `_crossing`
_WINDOW = 8


def _crossing(curve, e_max: float, guess_db: float) -> float:
    """The smallest positive float x with curve(_to_db(x)) <= e_max, or +inf;
    the caller has checked that x <= 0 misses the ceiling.

    Positive floats are ordered as their bit patterns, so the search runs on
    integers, one curve call on a window of n = 2 * _WINDOW + 1 of them at a
    time.  The first window is the consecutive floats around the float
    nearest 10^(guess_db / 10), so one call settles it when the crossing
    lies within _WINDOW floats of the guess.  A window the crossing lies
    beyond is followed by one past its far edge with 4 times the spacing;
    once the crossing is bracketed, the bracket is cut into n + 1 even parts
    per call.  Under 60 calls wherever it lies, down to 5e-324 and up to the
    largest float.
    """
    n = 2 * _WINDOW + 1
    # 0.0 misses; +inf stands for "no finite float meets it"
    lo, hi = 0, int(np.float64(np.inf).view(np.int64))
    # 10.0 ** 308.3 overflows; a guess of 0.0 or 1e308 only starts the search
    guess = int(np.float64(10.0 ** (min(guess_db, 3080.0) / 10.0)).view(np.int64))
    start, step = max(guess - _WINDOW, 1), 1
    while hi - lo > 1:
        if hi - lo <= step * (n + 1):  # a window this wide spans the bracket
            step = -(-(hi - lo) // (n + 1))
            start = lo + step
        bits = np.arange(start, min(start + n * step, hi), step, dtype=np.int64)
        met = curve(_to_db(bits.view(np.float64))) <= e_max
        k = int(np.argmax(met)) if met.any() else len(bits)
        if k < len(bits):
            hi = int(bits[k])
        if k > 0:
            lo = int(bits[k - 1])
        step *= 4
        start = lo + step if k == len(bits) else hi - n * step
    return float(np.int64(hi).view(np.float64))


# Points per block of MCS selection.  A block's working arrays (SINRs in dB,
# the goodputs, choices and BLERs in band order, a goodput and two masks of
# scratch, and each BLER evaluation) take about 50 bytes per point, plus
# about a dozen per row for its band codes and sort order.  A 2^16-point
# block is served mostly from a 4 MB L2 cache, and the per-band Python calls
# that every block costs are spread over enough points.
# On a 2-vCPU Xeon with 4 MB of L2 per core (numpy 2.4, Python 3.11), the
# point path took 20-36 ns per point on 10^6 spread SINRs of the shipped
# table in 2^16-point blocks as the machine's speed drifted (about 10% more
# with the choices); in the same runs 2^15-point blocks took 10-20% longer,
# 2^17 about the same, and one pass 1.6-2 times as long.  The quadrature,
# the Monte Carlo oracle and realized mode cut their inputs by the same rule
# (`_blocks`).
_BLOCK_POINTS = 1 << 16


def _blocks(n: int, points_per_item: int = 1) -> list:
    """Slices cutting range(n) into the fewest blocks of at most
    _BLOCK_POINTS points, each item holding `points_per_item` points.

    The block lengths differ by at most one, so no block is a sliver.
    """
    count = -(-n // max(1, _BLOCK_POINTS // points_per_item))
    return [slice(k * n // count, (k + 1) * n // count) for k in range(count)]


class _BlockSelector:
    """MCS selection for `table` on one block of at most `size` points per call.

    Selection has two steps.  `bands` bands rows of nondecreasing points by
    their first and last nodes and stable-sorts them by band; `rows` then
    selects rows given in that order, running each band's candidates on one
    contiguous range of points (`choose`).  The quadrature forms its panels'
    nodes directly in band order between the two; `__call__` selects single
    points, one-node rows that it takes into band order itself.
    Every array a block needs beyond its sort order and the BLER evaluations
    is allocated once, here, and reused by each call: the allocator hands
    freed block-sized arrays back to the system, so fresh ones would be
    paged in again for every block.
    """

    def __init__(self, table: McsTable, size: int):
        edges, self.candidates = table.selection_groups
        self.table = table
        # a zero threshold counts at every x, negative ones included, and
        # +inf is a band of its own
        self.zeros = int(np.count_nonzero(edges == 0.0))
        self.cuts = np.append(edges[self.zeros:], np.inf)
        self.band = np.empty(size, np.min_scalar_type(len(self.candidates)))
        self.mask = np.empty(size, bool)
        self.better = np.empty(size, bool)
        self.goodput = np.empty(size)
        self.snr_db = np.empty(size)
        # goodput, chosen index and its BLER in band order
        self.sorted = (np.empty(size), np.empty(size, np.int64), np.empty(size))

    def bands(self, ends: np.ndarray) -> tuple:
        """(order, counts) for the rows whose first and last nodes are the
        columns of `ends` (one column for single-node rows): `order` sorts
        the rows stably by band, and counts[g] is the number of rows in band
        g.  A row whose ends lie in different bands straddles a band edge;
        the straddling rows come last, counted in counts[-1].
        """
        band = self.band[:ends.size].reshape(ends.shape)
        band.fill(self.zeros)
        for cut in self.cuts:
            band += np.greater_equal(ends, cut, out=self.mask[:ends.size].reshape(ends.shape))
        # a straddling row gets the code past the last band, and the stable
        # sort of small unsigned codes (a radix sort) puts it last
        code = band[:, 0]
        if ends.shape[1] > 1:
            code[code != band[:, -1]] = len(self.candidates)
        return (np.argsort(code, kind="stable"),
                np.bincount(code, minlength=len(self.candidates) + 1))

    def choose(self, snr_db: np.ndarray, counts, choices: bool = False) -> list:
        """[goodput] or, with `choices`, [goodput, chosen_index, chosen_bler]
        at the dB SINRs `snr_db`, which hold counts[g] points of band g, band
        after band: views of the selector's arrays that the next call
        overwrites.

        At each point the goodput is the best rate * (1 - BLER) over the
        entries within the ceiling, ties to the first entry, and the choice
        is -1 with BLER 1.0 where no entry is feasible: what a scan over
        every entry gives there, bit for bit, +inf included.  Every candidate
        of a finite band meets the ceiling there
        (`McsTable.selection_groups`, whose thresholds are exact), so the
        first one's goodput starts the maximum and no BLER is checked; only
        the +inf band, whose candidates are all entries, checks it.
        """
        table, last = self.table, len(self.candidates) - 1
        results = [values[:snr_db.size] for values in self.sorted[:3 if choices else 1]]
        best = results[0]
        stop = 0
        for g, (members, count) in enumerate(zip(self.candidates, counts)):
            start, stop = stop, stop + count
            if count == 0:
                continue
            db, b = snr_db[start:stop], best[start:stop]
            chosen = [values[start:stop] for values in results[1:]]
            goodput, better = self.goodput[:count], self.better[:count]
            # every candidate of a finite band but band 0, which has none,
            # meets the ceiling
            feasible = 0 < g < last
            if feasible:
                first, *rest = members
                e = table.entries[first].bler_curve(db)
                np.subtract(1.0, e, out=b)
                b *= table.entries[first].rate
                for values, chosen_value in zip(chosen, (first, e)):
                    values[...] = chosen_value
            else:
                # a feasible entry's goodput is never below 0, and -1 lets a
                # scan choose even one whose goodput rounds to 0
                rest = members
                b.fill(-1.0 if choices else 0.0)
                for values, none in zip(chosen, (-1, 1.0)):
                    values.fill(none)
            for i in rest:
                entry = table.entries[i]
                e = entry.bler_curve(db)
                np.subtract(1.0, e, out=goodput)
                goodput *= entry.rate
                np.greater(goodput, b, out=better)
                if not feasible:
                    better &= np.less_equal(e, table.e_max, out=self.mask[:count])
                np.copyto(b, goodput, where=better)
                for values, chosen_value in zip(chosen, (i, e)):
                    np.copyto(values, chosen_value, where=better)
            if choices and not feasible:
                np.copyto(b, 0.0, where=np.less(chosen[0], 0, out=better))
        return results

    def rows(self, x: np.ndarray, counts, choices: bool = False) -> list:
        """[goodput] or, with `choices`, [goodput, chosen_index, chosen_bler]
        at the points of the C-ordered (rows, nodes) array `x`, shaped like
        it: views of the selector's arrays that the next call overwrites.
        Each row of x is nondecreasing, and the rows come in the order that
        `bands` gave with these `counts`, the straddling rows last.  x is
        overwritten (its SINRs become dB) and is none of the selector's own
        arrays.

        The rows of each band are selected as units (`choose`), and each
        node of a straddling row as a point (`__call__`).
        """
        rows, nodes = x.shape
        k = rows - counts[-1]
        # the point path fills the arrays that `choose` fills, so the
        # straddling rows go first, scattered back into node order
        tail = []
        if counts[-1]:
            order, *results = self(x[k:].ravel(), choices)
            for values in results[:3 if choices else 1]:
                tail.append(np.empty_like(values))
                tail[-1][order] = values
        self.choose(_to_db(x[:k], out=x[:k]).ravel(), counts[:-1] * nodes, choices)
        results = [values[:x.size].reshape(rows, nodes)
                   for values in self.sorted[:3 if choices else 1]]
        for values, tail_values in zip(results, tail):
            values[k:] = tail_values.reshape(-1, nodes)
        return results

    def __call__(self, x: np.ndarray, choices: bool = False) -> tuple:
        """(order, goodput, chosen_index, chosen_bler) at the 1-D points `x`:
        entry k of each result belongs to x[order[k]], the points taken in
        band order (`bands`, `choose`).  Without `choices` the last two are
        None.  The results are views of the selector's arrays that the next
        call overwrites.
        """
        order, counts = self.bands(x[:, None])
        # the indices are valid; mode "clip" writes straight into `out`,
        # where the default "raise" goes through a temporary
        snr_db = np.take(x, order, out=self.snr_db[:x.size], mode="clip")
        results = self.choose(_to_db(snr_db, out=snr_db), counts[:-1], choices)
        return order, *results, *[None] * (3 - len(results))


def _select_blocks(x: np.ndarray, table: McsTable, choices: bool):
    """Yield (slice, (order, goodput, chosen_index, chosen_bler)) for each
    block of the 1-D points `x`: `_BlockSelector.__call__` on x[slice], whose
    results are views that the next block overwrites."""
    blocks = _blocks(x.size)
    if blocks:
        select = _BlockSelector(table, -(-x.size // len(blocks)))  # the longest block
        for sl in blocks:
            yield sl, select(x[sl], choices)


@dataclass(frozen=True, eq=False)
class RewardCurve:
    """Tabulated expected goodput r(1..n)."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1 or vals.size < 1:
            raise ValueError("reward curve must be a nonempty 1-D sequence")
        if not np.all(np.isfinite(vals)) or np.any(vals < 0):
            raise ValueError("reward values must be finite and nonnegative")
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return len(self.values)

    @cached_property
    def cumulative(self) -> np.ndarray:
        """cumulative[k] = sum of r(1..k), with cumulative[0] = 0."""
        return np.concatenate(([0.0], np.cumsum(self.values)))


# The default rule, 64 nodes on [-1, 1], as data: the 32 positive nodes of
# numpy 2.4.6's leggauss(64), ascending, and their weights, in float literals
# that round-trip exactly.  leggauss's nodes are exactly antisymmetric and its
# weights exactly symmetric, so their mirror image is the whole rule, and a
# default curve solves no eigenproblem and imports no numpy.polynomial.
_GL64_NODES = (
    0.02435029266342443, 0.07299312178779904, 0.12146281929612054, 0.16964442042399283,
    0.21742364374000708, 0.2646871622087674, 0.31132287199021097, 0.3572201583376681,
    0.4022701579639916, 0.4463660172534641, 0.48940314570705296, 0.5312794640198946,
    0.571895646202634, 0.6111553551723933, 0.6489654712546573, 0.6852363130542333,
    0.7198818501716109, 0.7528199072605319, 0.7839723589433414, 0.8132653151227975,
    0.8406292962525803, 0.8659993981540928, 0.8893154459951141, 0.9105221370785028,
    0.9295691721319396, 0.9464113748584028, 0.9610087996520538, 0.973326827789911,
    0.983336253884626, 0.9910133714767443, 0.9963401167719552, 0.9993050417357722,
)
_GL64_WEIGHTS = (
    0.048690957009139814, 0.04857546744150351, 0.048344762234802996, 0.04799938859645842,
    0.04754016571483042, 0.046968182816210076, 0.04628479658131447, 0.045491627927418184,
    0.044590558163756566, 0.04358372452932355, 0.04247351512365361, 0.041262563242623576,
    0.039953741132720544, 0.03855015317861564, 0.03705512854024009, 0.0354722132568823,
    0.033805161837141794, 0.032057928354851495, 0.030234657072402554, 0.028339672614259535,
    0.02637746971505491, 0.0243527025687112, 0.02227017380838297, 0.020134823153530088,
    0.017951715775697284, 0.01572603047602503, 0.01346304789671786, 0.011168139460131028,
    0.008846759826363397, 0.006504457968978502, 0.004147033260564499, 0.00178328072169414,
)


def _frozen(*arrays) -> tuple:
    for a in arrays:  # a cached rule is shared by every caller
        a.flags.writeable = False
    return arrays


_GL_CACHE = {64: _frozen(np.concatenate((np.negative(_GL64_NODES[::-1]), _GL64_NODES)),
                         np.concatenate((_GL64_WEIGHTS[::-1], _GL64_WEIGHTS)))}


def _gauss_legendre(n: int) -> tuple:
    """The n-node Gauss-Legendre rule on [-1, 1], (nodes, weights), read-only
    and computed once per process: 64 nodes are stored, and any other count
    comes from numpy's leggauss."""
    if n not in _GL_CACHE:
        from numpy.polynomial.legendre import leggauss
        _GL_CACHE[n] = _frozen(*leggauss(n))
    return _GL_CACHE[n]


# The quadrature integrates u = X / mean over [0, >= _QUAD_TAIL], in panels
# no longer than _MAX_PANEL.
_QUAD_TAIL = 40.0
_MAX_PANEL = 5.0

# Ages whose panels are laid out at once: the panel arrays stay small
# whatever the curve length, and their panel x node points go to MCS
# selection in chunks of one selection block each (`_blocks`).
_AGE_BLOCK = 1 << 8


def _panels(scale: np.ndarray, thresholds: np.ndarray) -> tuple:
    """Quadrature panels on the u-axis for ages with SINR scales `scale`.

    u is |y|^2 in units of its mean, and `thresholds` are the sorted finite
    feasibility thresholds.  Each age's u-range runs from its lowest
    threshold to u_end; it is cut at every threshold inside, and each piece
    is split evenly into panels no longer than _MAX_PANEL.  Returns
    (owner, lo, hi): the index into `scale` of each panel's age and its
    u-interval, ages in order and panels in increasing u within an age.
    Ages with scale 0, or whose range is empty, get no panels.
    """
    live = np.flatnonzero(scale > 0)
    cuts = thresholds / scale[live, None]      # ascending along each row
    u_start = cuts[:, 0]
    # exp(-u) underflows past ~745
    u_end = np.minimum(np.maximum(_QUAD_TAIL, u_start + 30.0), 700.0)
    inner = (cuts > u_start[:, None]) & (cuts < u_end[:, None])
    inner[:, 1:] &= cuts[:, 1:] != cuts[:, :-1]
    nonempty = (u_start < u_end)[:, None]
    keep = np.hstack([nonempty, inner & nonempty, nonempty])
    row, _ = np.nonzero(keep)
    points = np.hstack([u_start[:, None], cuts, u_end[:, None]])[keep]
    same = row[:-1] == row[1:]
    a, b, owner = points[:-1][same], points[1:][same], live[row[:-1][same]]

    # numpy.linspace(a, b, n + 1) per piece: edge k is k * ((b - a) / n) + a,
    # and the last edge is b itself
    n = np.maximum(1, np.ceil((b - a) / _MAX_PANEL)).astype(np.int64)
    piece = np.repeat(np.arange(n.size), n)
    k = np.arange(piece.size) - np.repeat(np.cumsum(n) - n, n)
    step = (b - a) / n
    lo = k * step[piece] + a[piece]
    hi = np.where(k + 1 == n[piece], b[piece], (k + 1) * step[piece] + a[piece])
    return owner[piece], lo, hi


def _nodes(neg_hw, mid, neg_scale, x_ref, neg_u=None, x=None) -> tuple:
    """(-u, x) at the rule's nodes `x_ref` of panels with half-widths hw,
    midpoints mid and SINR scales: -u = -hw * x_ref - mid and x = -u * -scale,
    one panel per row, into `neg_u` and `x` if given.

    Round-to-nearest is symmetric in sign, so these are exactly -(hw * x_ref
    + mid) and (hw * x_ref + mid) * scale, and any subset of the nodes comes
    out bit for bit as in the full grid.
    """
    neg_u = np.multiply(neg_hw[:, None], x_ref, out=neg_u)
    neg_u -= mid[:, None]
    return neg_u, np.multiply(neg_u, neg_scale[:, None], out=x)


def expected_goodputs(ages, params: LinkParams, table: McsTable, nodes: int = 64) -> np.ndarray:
    """r(age), the expected slot goodput at CSI age `age`, for every age in
    `ages` (all >= 1), by composite Gauss-Legendre quadrature of `nodes`
    (at least 8) nodes per panel.

    E[G(sinr_gain(age) * X)] with X exponential of mean P_p*rho0 + noise_var.
    The region below the lowest feasibility threshold contributes exactly
    zero.  Panels of all ages are evaluated together in chunks: each chunk's
    panels are banded by their end nodes, their nodes formed in band order
    (`_nodes`), and each band's candidates run on them at once
    (`_BlockSelector.rows`); a panel that straddles a band edge takes the
    point path, node by node.  Each panel's
    weighted sum is one numpy row sum, whose pairwise order depends only on
    the node count, and it is added to its age in panel order, so an age's
    value does not depend on which other ages are tabulated with it.
    """
    ages = np.asarray(ages)
    if ages.size and ages.min() < 1:
        raise ValueError(f"age must be >= 1, got {ages.min()}")
    if nodes < 8:
        raise ValueError(f"quadrature needs at least 8 nodes, got {nodes}")
    scale = sinr_gain(ages, params) * pilot_second_moment(params)
    thresholds, _ = table.selection_groups  # the finite ones, ascending
    values = np.zeros(ages.size)
    if thresholds.size == 0:
        return values
    x_ref, w_ref = _gauss_legendre(nodes)
    panels = max(1, _BLOCK_POINTS // nodes)
    select = _BlockSelector(table, panels * nodes)
    # a chunk's -u and SINRs, reused like the selector's arrays
    neg_u_buf, x_buf = np.empty((panels, nodes)), np.empty((panels, nodes))
    for first in range(0, ages.size, _AGE_BLOCK):
        owner, lo, hi = _panels(scale[first:first + _AGE_BLOCK], thresholds)
        owner += first
        for sl in _blocks(owner.size, nodes):
            hw = 0.5 * (hi[sl] - lo[sl])
            neg_hw, mid, neg_scale = -hw, 0.5 * (lo[sl] + hi[sl]), -scale[owner[sl]]
            # each panel is banded by its end nodes, then its nodes are formed
            # in band order, the straddling panels last
            order, counts = select.bands(_nodes(neg_hw, mid, neg_scale, x_ref[[0, -1]])[1])
            neg_u, x = _nodes(neg_hw[order], mid[order], neg_scale[order], x_ref,
                              neg_u_buf[:hw.size], x_buf[:hw.size])
            # rows = w_ref * (g * exp(-u)); float multiplication commutes exactly
            rows = np.exp(neg_u, out=neg_u)
            rows *= select.rows(x, counts)[0]
            rows *= w_ref
            # one fixed-order (numpy pairwise) row sum per panel, put back in
            # panel order
            sums = np.empty(hw.size)
            sums[order] = rows.sum(axis=1)
            np.add.at(values, owner[sl], hw * sums)
    return values


def build_reward_curve(params: LinkParams, table: McsTable, max_age: int,
                       nodes: int = 64) -> RewardCurve:
    """Tabulate expected_goodputs for ages 1 .. max_age."""
    if max_age < 1:
        raise ValueError(f"max_age must be >= 1, got {max_age}")
    if max_age > MAX_TABULATED_AGES:
        raise ValueError(f"max_age {max_age} exceeds the configured bound {MAX_TABULATED_AGES}")
    return RewardCurve(values=expected_goodputs(np.arange(1, max_age + 1), params, table, nodes))


def parametric_mcs_table(rates: dict, e_max: float) -> McsTable:
    """Build a table from CQI -> rate with the default logistic BLER model."""
    entries = []
    for cqi in sorted(rates):
        if cqi not in DEFAULT_CQI_MIDPOINTS_DB:
            raise ValueError(
                f"no default BLER midpoint for cqi {cqi}; supply a measured BLER table")
        entries.append(McsEntry(
            index=cqi, rate=rates[cqi],
            bler_curve=LogisticBlerCurve(DEFAULT_BLER_SLOPE_PER_DB,
                                         DEFAULT_CQI_MIDPOINTS_DB[cqi])))
    return McsTable(entries=entries, e_max=e_max)


def default_mcs_table(e_max: float | None = None) -> McsTable:
    """The shipped 15-CQI table: LTE efficiency rates + logistic BLER model."""
    rates, default_e_max = _load_default_rates()
    return parametric_mcs_table(rates, default_e_max if e_max is None else e_max)


def _load_default_rates():
    text = resources.files("pilotsched.data").joinpath("lte_cqi_rates.json").read_text()
    return _parse_rate_config(json.loads(text), "built-in rate table")


def _parse_rate_config(doc: dict, source: str):
    try:
        e_max = float(doc["e_max"])
        raw = doc["rates"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"{source}: expected keys 'e_max' and 'rates'") from exc
    rates = {}
    for key, value in raw.items():
        cqi = int(key)
        rate = float(value)
        if rate <= 0:
            raise ValueError(f"{source}: cqi {cqi} has nonpositive rate {rate}")
        rates[cqi] = rate
    ordered = sorted(rates)
    for prev, cur in zip(ordered, ordered[1:]):
        if rates[cur] <= rates[prev]:
            raise ValueError(
                f"{source}: non-monotone rate ordering at cqi {cur} "
                f"(rate {rates[cur]} after cqi {prev} rate {rates[prev]})")
    return rates, e_max


def load_mcs_rates(path) -> tuple:
    """Read a CQI -> rate JSON config; returns (rates dict, e_max)."""
    text = read_input_text(path, "rate config")
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}: invalid JSON ({exc})") from exc
    return _parse_rate_config(doc, str(path))


def load_bler_table(path, rate_config=None) -> McsTable:
    """Build an McsTable from a measured BLER CSV (header cqi,snr_db,bler).

    Rows must be sorted by (cqi, snr_db); BLER values must lie in [0, 1] and
    be nonincreasing in SNR within each CQI.  Rates come from `rate_config`
    (a JSON path) or the shipped LTE defaults.
    """
    if rate_config is None:
        rates, e_max = _load_default_rates()
    else:
        rates, e_max = load_mcs_rates(rate_config)

    curves: dict[int, tuple[list, list]] = {}
    last_key = None
    for line_no, row in read_csv_input(path, "BLER table", ["cqi", "snr_db", "bler"]):
        try:
            cqi, snr_db, e = int(row[0]), float(row[1]), float(row[2])
        except (ValueError, IndexError) as exc:
            raise ValueError(f"{path} row {line_no}: malformed row {row}") from exc
        if not 0.0 <= e <= 1.0:
            raise ValueError(f"{path} row {line_no}: BLER {e} outside [0, 1]")
        key = (cqi, snr_db)
        if last_key is not None and key <= last_key:
            raise ValueError(
                f"{path} row {line_no}: rows not sorted by (cqi, snr_db); "
                f"{key} follows {last_key}")
        last_key = key
        grid = curves.setdefault(cqi, ([], []))
        grid[0].append(snr_db)
        grid[1].append(e)
    if not curves:
        raise ValueError(f"{path}: BLER table contains no data rows")

    entries = []
    for cqi in sorted(curves):
        try:
            curve = TabulatedBlerCurve(*curves[cqi])
        except ValueError as exc:
            raise ValueError(f"{path}: BLER curve for cqi {cqi}: {exc}") from exc
        if cqi not in rates:
            raise ValueError(f"{path}: no configured rate for cqi {cqi}")
        entries.append(McsEntry(index=cqi, rate=rates[cqi], bler_curve=curve))
    return McsTable(entries=entries, e_max=e_max)


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
