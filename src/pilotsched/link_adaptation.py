"""MCS selection under a block-error ceiling and the expected goodput curve.

For a data slot at CSI age d, the SINR is sinr_gain(d) * X where X = |y|^2 is
exponentially distributed.  The slot goodput is the best rate * (1 - BLER)
over all MCS entries whose BLER stays below e_max, and the age curve r(d) is
the exponential-measure integral of that maximum, evaluated by deterministic
composite Gauss-Legendre quadrature split at the MCS feasibility thresholds
(the integrand jumps there, so plain Gauss rules would stall at low accuracy).
All ages of a curve are integrated together, in fixed-size chunks of
panel x node points.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from importlib import resources

import numpy as np

from .channel import LinkParams
from .estimation import pilot_second_moment, sinr_gain

MAX_TABULATED_AGES = 1_000_000

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
        z = np.clip(self.slope_per_db * (snr_db - self.midpoint_db), -700, 700)
        return 1.0 / (1.0 + np.exp(z))

    def threshold(self, e_max: float) -> float:
        """Smallest linear SINR x with self(_to_db(x)) <= e_max.

        Inverts the logistic in closed form, then steps one float at a time
        to where this implementation's rounded curve crosses e_max.
        """
        x = 10.0 ** ((self.midpoint_db + math.log(1.0 / e_max - 1.0) / self.slope_per_db) / 10.0)
        while self(_to_db(x)) > e_max:
            x = math.nextafter(x, math.inf)
        while self(_to_db(math.nextafter(x, 0.0))) <= e_max:
            x = math.nextafter(x, 0.0)
        return x

    def fingerprint_key(self) -> str:
        return f"logistic({self.slope_per_db!r},{self.midpoint_db!r})"


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

    def fingerprint_key(self) -> str:
        return f"table({self.snr_db.tolist()!r},{self.bler.tolist()!r})"


@dataclass
class McsEntry:
    """One modulation-and-coding scheme: CQI index, rate, and its BLER curve."""

    index: int
    rate: float
    bler_curve: object  # callable: SINR in dB (array) -> BLER in [0, 1]

    def __post_init__(self):
        if not 1 <= self.index <= 15:
            raise ValueError(f"CQI index must lie in 1..15, got {self.index}")
        if self.rate <= 0:
            raise ValueError(f"rate must be positive, got {self.rate}")


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
        """Smallest linear SINR at which each entry meets the BLER ceiling.

        0 when the entry qualifies already at 1e-18 and +inf when it does not
        qualify at 1e18.  In between, a curve with a `threshold(e_max)` method
        answers itself; any other curve is bisected.
        """
        lo, hi = 1e-18, 1e18
        out = np.empty(len(self.entries))
        for i, entry in enumerate(self.entries):
            curve = entry.bler_curve
            if curve(_to_db(lo)) <= self.e_max:
                out[i] = 0.0
            elif curve(_to_db(hi)) > self.e_max:
                out[i] = np.inf
            else:
                threshold = getattr(curve, "threshold", None)
                out[i] = (threshold(self.e_max) if threshold is not None
                          else _bisect_threshold(curve, self.e_max, lo, hi))
        return out

    def fingerprint_key(self) -> str:
        parts = [f"{e.index}:{e.rate!r}:{_curve_key(e.bler_curve)}" for e in self.entries]
        return f"e_max={self.e_max!r};" + ";".join(parts)


def _to_db(snr_linear) -> np.ndarray:
    """10*log10 of a linear SINR; -inf where it is not positive."""
    x = np.asarray(snr_linear, dtype=float)
    out = np.full(x.shape, -np.inf)
    np.log10(x, out=out, where=x > 0)
    out *= 10.0
    return out


def _bisect_threshold(curve, e_max: float, lo: float, hi: float) -> float:
    """Geometric bisection for the smallest SINR in (lo, hi] meeting e_max."""
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        if curve(_to_db(mid)) <= e_max:
            hi = mid
        else:
            lo = mid
    return hi


def _curve_key(curve) -> str:
    key = getattr(curve, "fingerprint_key", None)
    return key() if key is not None else repr(curve)


def max_goodput_array(snr_linear, table: McsTable):
    """Best rate * (1 - BLER) over entries within the ceiling, per SINR.

    Returns (goodput, chosen_index, chosen_bler), each shaped like the input;
    chosen_index is -1 and chosen_bler is 1.0 where no entry is feasible.
    Ties go to the first entry.  Memory is a few arrays the size of the input.
    """
    eta = np.asarray(snr_linear, dtype=float)
    snr_db = _to_db(eta.ravel())
    best = np.full(snr_db.shape, -1.0)
    chosen = np.full(snr_db.shape, -1)
    chosen_bler = np.ones(snr_db.shape)
    for i, entry in enumerate(table.entries):
        e = entry.bler_curve(snr_db)
        goodput = entry.rate * (1.0 - e)
        better = (e <= table.e_max) & (goodput > best)
        np.copyto(best, goodput, where=better)
        np.copyto(chosen_bler, e, where=better)
        np.copyto(chosen, i, where=better)
    best[chosen < 0] = 0.0
    return best.reshape(eta.shape), chosen.reshape(eta.shape), chosen_bler.reshape(eta.shape)


@dataclass(frozen=True)
class QuadratureConfig:
    """Fixed-node quadrature settings for the exponential-measure integral."""

    nodes: int = 64
    tail: float = 40.0       # integrate u in [0, >= tail] (u = X / mean)
    max_panel: float = 5.0   # split panels longer than this in u

    def __post_init__(self):
        if self.nodes < 8:
            raise ValueError(f"quadrature needs at least 8 nodes, got {self.nodes}")
        if self.tail <= 0 or self.max_panel <= 0:
            raise ValueError("tail and max_panel must be positive")


@dataclass(frozen=True, eq=False)
class RewardCurve:
    """Tabulated expected goodput r(1..n) with a fingerprint of its inputs."""

    values: np.ndarray
    fingerprint: str = "synthetic"

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1 or vals.size < 1:
            raise ValueError("reward curve must be a nonempty 1-D sequence")
        if not np.all(np.isfinite(vals)) or np.any(vals < 0):
            raise ValueError("reward values must be finite and nonnegative")
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return len(self.values)

    def value(self, age: int) -> float:
        if not 1 <= age <= len(self.values):
            raise ValueError(f"age {age} outside tabulated range 1..{len(self.values)}")
        return float(self.values[age - 1])

    @cached_property
    def cumulative(self) -> np.ndarray:
        """cumulative[k] = sum of r(1..k), with cumulative[0] = 0."""
        return np.concatenate(([0.0], np.cumsum(self.values)))


_GL_CACHE: dict = {}


def _gauss_legendre(n: int):
    if n not in _GL_CACHE:
        _GL_CACHE[n] = np.polynomial.legendre.leggauss(n)
    return _GL_CACHE[n]


# Panel x node points handed to one max_goodput_array call, and ages whose
# panels are laid out at once.  They keep every working array near 32 KB
# whatever the curve length: with 2^14 points and 1,024 ages, the peak RSS of
# five 600-age curves and their solves in one process rose by 1.4 MB over
# the per-panel loop; at these sizes it stays level, at the same speed.
_CHUNK_POINTS = 1 << 12
_AGE_BLOCK = 1 << 8


def _panels(scale: np.ndarray, thresholds: np.ndarray, quad: QuadratureConfig) -> tuple:
    """Quadrature panels on the u-axis for ages with SINR scales `scale`.

    u is |y|^2 in units of its mean, and `thresholds` are the sorted finite
    feasibility thresholds.  Each age's u-range runs from its lowest
    threshold to u_end; it is cut at every threshold inside, and each piece
    is split evenly into panels no longer than quad.max_panel.  Returns
    (owner, lo, hi): the index into `scale` of each panel's age and its
    u-interval, ages in order and panels in increasing u within an age.
    Ages with scale 0, or whose range is empty, get no panels.
    """
    live = np.flatnonzero(scale > 0)
    cuts = thresholds / scale[live, None]      # ascending along each row
    u_start = cuts[:, 0]
    # exp(-u) underflows past ~745
    u_end = np.minimum(np.maximum(quad.tail, u_start + 30.0), 700.0)
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
    n = np.maximum(1, np.ceil((b - a) / quad.max_panel)).astype(np.int64)
    piece = np.repeat(np.arange(n.size), n)
    k = np.arange(piece.size) - np.repeat(np.cumsum(n) - n, n)
    step = (b - a) / n
    lo = k * step[piece] + a[piece]
    hi = np.where(k + 1 == n[piece], b[piece], (k + 1) * step[piece] + a[piece])
    return owner[piece], lo, hi


def _expected_goodputs(ages: np.ndarray, params: LinkParams, table: McsTable,
                       quad: QuadratureConfig) -> np.ndarray:
    """r(age) for every age in `ages` (all >= 1) by composite Gauss-Legendre quadrature.

    E[G(sinr_gain(age) * X)] with X exponential of mean P_p*rho0 + noise_var.
    The region below the lowest feasibility threshold contributes exactly
    zero.  Panels of all ages are evaluated together in chunks; each panel's
    weighted sum is added to its age in panel order, so an age's value does
    not depend on which other ages are tabulated with it.
    """
    scale = sinr_gain(ages, params) * pilot_second_moment(params)
    thresholds = table.feasibility_thresholds
    thresholds = np.sort(thresholds[np.isfinite(thresholds)])
    values = np.zeros(ages.size)
    if thresholds.size == 0:
        return values
    x_ref, w_ref = _gauss_legendre(quad.nodes)
    per_chunk = max(1, _CHUNK_POINTS // quad.nodes)
    for first in range(0, ages.size, _AGE_BLOCK):
        owner, lo, hi = _panels(scale[first:first + _AGE_BLOCK], thresholds, quad)
        owner += first
        for start in range(0, owner.size, per_chunk):
            sl = slice(start, start + per_chunk)
            hw = 0.5 * (hi[sl] - lo[sl])
            u = (0.5 * (lo[sl] + hi[sl]))[:, None] + hw[:, None] * x_ref
            g, _, _ = max_goodput_array(u * scale[owner[sl], None], table)
            rows = g * np.exp(-u)
            # one dot product per panel, as a single-panel sum would take it
            sums = np.array([np.dot(w_ref, row) for row in rows])
            np.add.at(values, owner[sl], hw * sums)
    return values


def expected_goodput(age: int, params: LinkParams, table: McsTable,
                     quad: QuadratureConfig = QuadratureConfig()) -> float:
    """Expected slot goodput at CSI age `age`, integrated over the pilot draw."""
    if age < 1:
        raise ValueError(f"age must be >= 1, got {age}")
    return float(_expected_goodputs(np.array([age]), params, table, quad)[0])


def build_reward_curve(params: LinkParams, table: McsTable, max_age: int,
                       quad: QuadratureConfig = QuadratureConfig()) -> RewardCurve:
    """Tabulate expected_goodput for ages 1 .. max_age."""
    if max_age < 1:
        raise ValueError(f"max_age must be >= 1, got {max_age}")
    if max_age > MAX_TABULATED_AGES:
        raise ValueError(f"max_age {max_age} exceeds the configured bound {MAX_TABULATED_AGES}")
    values = _expected_goodputs(np.arange(1, max_age + 1), params, table, quad)
    key = (f"params={params!r};table={table.fingerprint_key()};"
           f"quad=({quad.nodes},{quad.tail!r},{quad.max_panel!r});max_age={max_age}")
    digest = hashlib.sha256(key.encode()).hexdigest()[:16]
    return RewardCurve(values=values, fingerprint=f"physical:{digest}")


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
    with open(path) as fh:
        doc = json.load(fh)
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
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty BLER table")
        if [h.strip() for h in header] != ["cqi", "snr_db", "bler"]:
            raise ValueError(f"{path}: expected header 'cqi,snr_db,bler', got {header}")
        n_rows = 0
        for line_no, row in enumerate(reader, start=2):
            if not row:
                continue
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
            n_rows += 1
        if n_rows == 0:
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
