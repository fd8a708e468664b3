import math
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from oracles import bisect_thresholds, max_goodput_matrix, reward_curve_panels
from pilotsched import (LinkParams, LogisticBlerCurve, McsEntry, McsTable,
                        TabulatedBlerCurve, autocorrelation, build_reward_curve,
                        default_mcs_table, expected_goodputs, link_adaptation,
                        load_bler_table, load_mcs_rates)
from pilotsched.config import ExperimentConfig
from pilotsched.validation import mc_expected_goodput


def single_entry_table(rate: float, curve, e_max: float = 0.1) -> McsTable:
    return McsTable(entries=[McsEntry(index=1, rate=rate, bler_curve=curve)],
                    e_max=e_max)


def flat_curve(bler: float) -> TabulatedBlerCurve:
    """BLER `bler` at every SINR: a one-point table."""
    return TabulatedBlerCurve(np.array([0.0]), np.array([bler]))


def step_curve(step_db: float) -> TabulatedBlerCurve:
    """BLER 0.5 below step_db and 0 from it on: two adjacent-float knots."""
    return TabulatedBlerCurve(np.array([math.nextafter(step_db, -math.inf), step_db]),
                              np.array([0.5, 0.0]))


def tabulated_default_table(tmp_path) -> McsTable:
    """The default logistic curves sampled every 2 dB and loaded as a BLER CSV."""
    rows = ["cqi,snr_db,bler"]
    for entry in default_mcs_table().entries:
        for snr_db in range(-30, 42, 2):
            rows.append(f"{entry.index},{snr_db!r},{float(entry.bler_curve(snr_db))!r}")
    path = tmp_path / "bler.csv"
    path.write_text("\n".join(rows) + "\n")
    return load_bler_table(path)


def random_logistic_table(rng) -> McsTable:
    """2-8 logistic entries with unsorted midpoints, so thresholds need not
    rise with the rate; neighbouring rates are often within 10% of each other,
    and some entries repeat an earlier curve, so their thresholds tie."""
    n = int(rng.integers(2, 9))
    rates = np.cumprod(rng.choice([1.02, 1.05, 1.09, 1.3, 1.8], size=n))
    curves = []
    for _ in range(n):
        if curves and rng.random() < 0.25:
            curves.append(curves[int(rng.integers(len(curves)))])
        else:
            curves.append(LogisticBlerCurve(float(rng.uniform(0.3, 3.0)),
                                            float(rng.uniform(-20.0, 30.0))))
    e_max = float(rng.choice([0.3, 0.1, 0.01, 1e-3]))
    return McsTable(entries=[McsEntry(index=i + 1, rate=float(r), bler_curve=c)
                             for i, (r, c) in enumerate(zip(rates, curves))], e_max=e_max)


def probe_points(table, rng) -> np.ndarray:
    """Every feasibility threshold and its float neighbours, the extremes,
    +inf included, and a log-normal spread."""
    t = table.feasibility_thresholds
    t = t[np.isfinite(t) & (t > 0)]
    return np.concatenate([t, np.nextafter(t, 0.0), np.nextafter(t, np.inf),
                           [0.0, -1.0, 5e-324, 1e-300, 1e-19, 1e300, np.inf],
                           rng.lognormal(0.0, 5.0, 500)])


def select_points(eta, table):
    """(goodput, chosen_index, chosen_bler) shaped like `eta`, by the
    package's point path: `_select_blocks` over the raveled points, each
    block's band-order results scattered back into input order."""
    eta = np.asarray(eta, dtype=float)
    x = eta.ravel()
    out = (np.empty(x.shape), np.empty(x.shape, np.int64), np.empty(x.shape))
    for sl, (order, *results) in link_adaptation._select_blocks(x, table, choices=True):
        for values, block_values in zip(out, results):
            values[sl][order] = block_values
    return tuple(values.reshape(eta.shape) for values in out)


def assert_matches_full_scan(eta, table):
    for got, want in zip(select_points(eta, table), max_goodput_matrix(eta, table)):
        assert got.shape == np.shape(eta)
        assert np.array_equal(got, want)


class TestBler:
    def test_zero_sinr_is_one(self, default_table):
        # a linear SINR of 0 is -inf dB
        for entry in default_table.entries:
            assert entry.bler_curve(-np.inf) == 1.0

    def test_midpoint_is_half(self):
        assert LogisticBlerCurve(1.5, midpoint_db=3.0)(3.0) == 0.5

    def test_monotone_nonincreasing_grid(self, default_table):
        grid = np.linspace(-60.0, 60.0, 1000)
        for entry in default_table.entries:
            assert np.all(np.diff(entry.bler_curve(grid)) <= 1e-15)

    def test_limits(self, default_table):
        for entry in default_table.entries:
            assert entry.bler_curve(120.0) <= 1e-6
            assert entry.bler_curve(-120.0) >= 1.0 - 1e-6

    @staticmethod
    def logistic_with_temporaries(curve, snr_db):
        """The logistic formula with numpy's clip and a fresh array per step."""
        z = np.clip(curve.slope_per_db * (snr_db - curve.midpoint_db), -700, 700)
        return 1.0 / (1.0 + np.exp(z))

    def test_in_place_logistic_equals_the_temporaries(self, rng):
        # the clip bounds at +-700 are crossed at +-467 dB for slope 1.5
        for slope, midpoint in [(1.5, -8.2), (0.3, 21.2), (3.0, 0.0), (1e3, 4.4)]:
            curve = LogisticBlerCurve(slope, midpoint)
            grid = np.concatenate([rng.uniform(-900.0, 900.0, 9_993),
                                   [-np.inf, np.inf, 0.0, -0.0, midpoint, 466.0, 468.0]])
            want = self.logistic_with_temporaries(curve, grid)
            assert np.array_equal(curve(grid), want)
            assert np.array_equal(curve(grid.reshape(100, -1)), want.reshape(100, -1))
            for x in (-np.inf, -1e3, midpoint, 3.7, 1e3, np.inf):
                for arg in (x, np.float64(x), np.array(x)):
                    got = curve(arg)
                    assert type(got) is np.float64
                    assert got == self.logistic_with_temporaries(curve, x)
            assert np.isnan(curve(np.nan))

    @given(st.floats(min_value=-90.0, max_value=90.0))
    @settings(max_examples=60, deadline=None)
    def test_in_unit_interval(self, snr_db):
        curve = default_mcs_table().entries[7].bler_curve
        assert 0.0 <= curve(snr_db) <= 1.0


class TestTabulatedBlerCurve:
    @pytest.mark.parametrize("grid,values,match", [
        ([0.0, 10.0], [0.9, 1.5], r"\[0, 1\]"),
        ([0.0, 10.0], [-0.1, 0.0], r"\[0, 1\]"),
        ([0.0, 5.0, 10.0], [0.9, 0.5, 0.6], "nonincreasing at snr_db 10.0"),
        ([0.0, 0.0], [0.9, 0.5], "strictly increasing"),
    ])
    def test_bad_points_rejected_at_construction(self, grid, values, match):
        with pytest.raises(ValueError, match=match):
            TabulatedBlerCurve(np.array(grid), np.array(values))


class TestMaxGoodput:
    def test_zero_sinr_infeasible(self, default_table):
        goodput, chosen, chosen_bler = select_points(0.0, default_table)
        assert goodput == 0.0 and chosen == -1 and chosen_bler == 1.0

    def test_single_entry_hand_value(self):
        # rate 2, bler 0.05 at the probe point, e_max 0.1 -> 2 * 0.95 = 1.9
        curve = LogisticBlerCurve(1.5, midpoint_db=0.0)
        table = single_entry_table(2.0, curve)
        # invert: bler = 0.05 at z where 1/(1+e^z) = 0.05 -> z = ln(19)
        eta_db = math.log(19.0) / 1.5
        eta = 10 ** (eta_db / 10.0)
        goodput, chosen, _ = select_points(eta, table)
        assert chosen == 0
        assert goodput == pytest.approx(1.9, rel=1e-9)

    def test_constraint_excludes_high_rate(self):
        # (R=1, bler 0) and (R=4, bler 0.5): the 4*0.5=2 entry is infeasible
        table = McsTable(entries=[
            McsEntry(index=1, rate=1.0, bler_curve=flat_curve(0.0)),
            McsEntry(index=2, rate=4.0, bler_curve=flat_curve(0.5)),
        ], e_max=0.1)
        goodput, chosen, _ = select_points(5.0, table)
        assert goodput == 1.0
        assert chosen == 0

    def test_nondecreasing_in_eta(self, default_table):
        goodput, _, _ = select_points(np.geomspace(1e-4, 1e4, 400), default_table)
        assert np.all(np.diff(goodput) >= -1e-12)

    def test_bounded_by_max_rate(self, default_table):
        goodput, _, _ = select_points(np.geomspace(1e-3, 1e9, 100), default_table)
        assert np.all(goodput <= default_table.max_rate)


class TestMaxGoodputArray:
    def test_matches_argmax_over_all_entries(self, default_table, rng):
        eta = np.concatenate([[0.0, 1e-300, 1e300],
                              rng.lognormal(0.0, 4.0, 4997)]).reshape(50, 100)
        for got, want in zip(select_points(eta, default_table),
                             max_goodput_matrix(eta, default_table)):
            assert got.shape == eta.shape
            assert np.array_equal(got, want)

    def test_random_logistic_tables_match_full_scan(self, rng):
        for _ in range(60):
            table = random_logistic_table(rng)
            assert_matches_full_scan(probe_points(table, rng), table)

    def test_default_table_at_every_threshold_and_e_max(self, rng):
        for e_max in (0.3, 0.1, 0.01, 1e-3):
            table = default_mcs_table(e_max=e_max)
            assert_matches_full_scan(probe_points(table, rng), table)

    def test_exact_goodput_tie_goes_first(self):
        # at 0 dB entry 0 has BLER ~1e-65, so goodput 1 * (1 - e) == 1.0, and
        # entry 1 sits at its midpoint and threshold, 2 * (1 - 0.5) == 1.0:
        # entry 0's rate equals the candidate floor 2 * (1 - e_max) exactly
        table = McsTable(entries=[
            McsEntry(index=1, rate=1.0, bler_curve=LogisticBlerCurve(1.5, -100.0)),
            McsEntry(index=2, rate=2.0, bler_curve=LogisticBlerCurve(1.5, 0.0)),
        ], e_max=0.5)
        assert table.feasibility_thresholds[1] == 1.0
        assert_matches_full_scan(np.array([1.0, 0.5, 2.0]), table)
        goodput, chosen, _ = select_points(1.0, table)
        assert goodput == 1.0 and chosen == 0

    def test_far_left_thresholds_are_exact(self):
        # thresholds near -298.5 and -183.5 dB: at 1e-19 (-190 dB) only
        # entry 0 meets the ceiling, so it must be a candidate there
        table = McsTable(entries=[
            McsEntry(index=1, rate=1.0, bler_curve=LogisticBlerCurve(1.5, -300.0)),
            McsEntry(index=2, rate=2.0, bler_curve=LogisticBlerCurve(1.5, -185.0)),
        ])
        t = table.feasibility_thresholds
        assert 0.0 < t[0] < 1e-29 and 1e-19 < t[1] < 1e-18
        goodput, chosen, _ = select_points(1e-19, table)
        assert chosen == 0 and goodput == 1.0
        assert_matches_full_scan(np.geomspace(1e-25, 1e5, 301), table)

    def test_logistic_and_tabulated_entries_mixed(self, rng):
        # the constant entry is feasible everywhere, so its zero threshold
        # puts every SINR, negative ones included, in band 1 or above
        step_db = 10.0 * math.log10(7.0)
        table = McsTable(entries=[
            McsEntry(index=1, rate=1.0, bler_curve=LogisticBlerCurve(1.5, -2.0)),
            McsEntry(index=2, rate=1.05, bler_curve=step_curve(step_db)),
            McsEntry(index=3, rate=1.1, bler_curve=LogisticBlerCurve(0.9, 6.0)),
            McsEntry(index=4, rate=3.0, bler_curve=flat_curve(0.02)),
            McsEntry(index=5, rate=4.0, bler_curve=LogisticBlerCurve(1.5, 15.0)),
        ])
        assert table.feasibility_thresholds[3] == 0.0
        assert_matches_full_scan(probe_points(table, rng), table)
        goodput, chosen, _ = select_points(-1.0, table)
        assert chosen == 3 and goodput == 3.0 * (1.0 - 0.02)

    def test_loaded_bler_table_matches_full_scan(self, tmp_path, rng):
        table = tabulated_default_table(tmp_path)
        edges, _ = table.selection_groups
        assert edges.size == len(table.entries)  # every entry bounds a band
        assert_matches_full_scan(probe_points(table, rng), table)

    def test_scalar_bler_callables_broadcast_and_ties_go_first(self):
        # goodput 1 * (1 - 0) == 2 * (1 - 0.5): the first entry wins the tie
        table = McsTable(entries=[
            McsEntry(index=1, rate=1.0, bler_curve=flat_curve(0.0)),
            McsEntry(index=2, rate=2.0, bler_curve=flat_curve(0.5)),
        ], e_max=0.6)
        eta = np.linspace(0.0, 10.0, 12).reshape(3, 4)
        for got, want in zip(select_points(eta, table), max_goodput_matrix(eta, table)):
            assert got.shape == (3, 4)
            assert np.array_equal(got, want)
        assert np.all(select_points(eta, table)[1] == 0)

    def test_infinite_sinr_scans_every_entry(self):
        # a 5000 dB midpoint is out of the floats' reach, so entry 1's
        # threshold is +inf, yet the logistic meets the ceiling at +inf dB
        table = McsTable(entries=[
            McsEntry(index=1, rate=1.0, bler_curve=LogisticBlerCurve(1.5, 0.0)),
            McsEntry(index=2, rate=2.0, bler_curve=LogisticBlerCurve(1.5, 5000.0)),
        ])
        assert table.feasibility_thresholds[1] == math.inf
        goodput, chosen, _ = select_points(math.inf, table)
        assert goodput == 2.0 and chosen == 1
        assert_matches_full_scan(np.array([1e300, np.inf, 1.0, np.inf]), table)

    def test_infinite_sinr_keeps_the_bler_check(self):
        # a tabulated curve above the ceiling at its last point (threshold
        # +inf) stays infeasible at +inf
        table = McsTable(entries=[
            McsEntry(index=1, rate=1.0, bler_curve=LogisticBlerCurve(1.5, 0.0)),
            McsEntry(index=2, rate=2.0, bler_curve=flat_curve(0.5)),
        ])
        assert table.feasibility_thresholds[1] == math.inf
        goodput, chosen, _ = select_points(math.inf, table)
        assert goodput == 1.0 and chosen == 0
        assert_matches_full_scan(np.array([1e300, np.inf, 1.0, np.inf]), table)


class TestSelectionBlocks:
    @pytest.mark.parametrize("n", [0, 1, 4096, 62_500, 83_333, 1_000_000])
    def test_blocks_are_near_equal_and_cover_the_input(self, n):
        blocks = link_adaptation._blocks(n)
        lengths = [sl.stop - sl.start for sl in blocks]
        assert len(blocks) == -(-n // link_adaptation._BLOCK_POINTS)
        assert [sl.start for sl in blocks] == np.cumsum([0, *lengths])[:-1].tolist()
        assert sum(lengths) == n
        if n:
            assert max(lengths) <= link_adaptation._BLOCK_POINTS
            assert max(lengths) - min(lengths) <= 1

    def test_blocks_count_items_of_many_points(self):
        blocks = link_adaptation._blocks(5_000, 64)
        assert max(sl.stop - sl.start for sl in blocks) * 64 <= link_adaptation._BLOCK_POINTS

    @pytest.mark.parametrize("block", [1, 7, link_adaptation._BLOCK_POINTS])
    def test_every_block_size_matches_the_full_scan(self, monkeypatch, tmp_path, rng, block):
        # zero, negative and infinite SINRs and every threshold and its float
        # neighbours, shuffled so each block mixes bands; at the default
        # size the input spans three blocks
        tables = [default_mcs_table(), tabulated_default_table(tmp_path)]
        monkeypatch.setattr(link_adaptation, "_BLOCK_POINTS", block)
        for table in tables:
            probes = np.concatenate([probe_points(table, rng), -rng.lognormal(0.0, 5.0, 50)])
            spread = rng.lognormal(0.0, 5.0, max(0, 2 * block + 5 - probes.size))
            eta = np.concatenate([probes, spread])
            rng.shuffle(eta)
            assert_matches_full_scan(eta, table)
            assert_matches_full_scan(eta[:6].reshape(2, 3), table)


class TestFeasibilityThresholds:
    @pytest.mark.parametrize("e_max", [0.3, 0.1, 0.01, 1e-3])
    def test_logistic_closed_form_matches_bisection(self, e_max):
        table = default_mcs_table(e_max=e_max)
        assert np.array_equal(table.feasibility_thresholds, bisect_thresholds(table))

    def test_tabulated_matches_bisection(self, tmp_path):
        table = tabulated_default_table(tmp_path)
        assert np.array_equal(table.feasibility_thresholds, bisect_thresholds(table))

    def test_out_of_range_and_bare_callables(self):
        # feasible at every SINR -> 0; feasible at no finite SINR (the
        # crossing lies past the largest float, 3,082.5 dB) -> inf; a step
        # at 7.0, once a bare callable, is a two-knot table
        step_db = 10.0 * math.log10(7.0)
        table = McsTable(entries=[
            McsEntry(index=1, rate=1.0, bler_curve=flat_curve(0.0)),
            McsEntry(index=2, rate=2.0, bler_curve=step_curve(step_db)),
            McsEntry(index=3, rate=3.0, bler_curve=LogisticBlerCurve(0.7, 12.3)),
            McsEntry(index=4, rate=4.0, bler_curve=LogisticBlerCurve(1.5, 5000.0)),
        ])
        thresholds = table.feasibility_thresholds
        assert thresholds[0] == 0.0 and thresholds[3] == np.inf
        assert thresholds[1] == pytest.approx(7.0, rel=1e-15)
        assert np.array_equal(thresholds, bisect_thresholds(table))

    @pytest.mark.parametrize("e_max", [0.3, 0.1, 0.01, 1e-3])
    def test_logistic_threshold_exact_within_2_16_ulps(self, e_max):
        # every float within 2^16 ULPs of t meets the ceiling iff it is >= t;
        # the LogisticBlerCurve.threshold docstring covers floats farther out
        steps = np.arange(-2 ** 16, 2 ** 16 + 1)
        for entry in default_mcs_table(e_max=e_max).entries:
            t = entry.bler_curve.threshold(e_max)
            x = (np.float64(t).view(np.int64) + steps).view(np.float64)
            assert np.array_equal(x >= t, entry.bler_curve(link_adaptation._to_db(x)) <= e_max)

    @pytest.mark.parametrize("e_max", [0.3, 0.1, 0.01, 1e-3])
    def test_default_thresholds_take_one_curve_call_per_entry(self, e_max):
        # the closed form lands within the first window of floats, so each
        # entry's search ends with the one array call on that window
        calls = []

        class Counted(LogisticBlerCurve):
            def __call__(self, snr_db):
                calls.append(snr_db)
                return super().__call__(snr_db)

        default = default_mcs_table(e_max=e_max)
        table = McsTable(entries=[
            McsEntry(index=e.index, rate=e.rate,
                     bler_curve=Counted(e.bler_curve.slope_per_db, e.bler_curve.midpoint_db))
            for e in default.entries], e_max=e_max)
        assert np.array_equal(table.feasibility_thresholds, default.feasibility_thresholds)
        assert len(calls) == len(table.entries)

    def test_threshold_is_the_crossing_float(self):
        curve = LogisticBlerCurve(1.5, 4.4)
        x = curve.threshold(0.1)
        below = math.nextafter(x, 0.0)
        assert curve(10.0 * np.log10(x)) <= 0.1 < curve(10.0 * np.log10(below))

    @pytest.mark.parametrize("midpoint_db,want", [
        (-5000.0, 5e-324), (-3000.0, None), (-300.0, None), (300.0, None),
        (3000.0, None), (3080.0, None), (3083.0, math.inf), (5000.0, math.inf)])
    def test_extreme_logistic_midpoints(self, midpoint_db, want):
        # the closed form starts past the float range, or at 10^308 for a
        # crossing at 1.4e308, and the search still ends within 130 calls
        calls = []

        class Counted(LogisticBlerCurve):
            def __call__(self, snr_db):
                calls.append(snr_db)
                return super().__call__(snr_db)

        curve = Counted(1.5, midpoint_db)
        t = curve.threshold(0.1)
        assert len(calls) <= 130
        if want is not None:
            assert t == want
        else:
            assert_threshold_exact(curve, 0.1, t)


def assert_threshold_exact(curve, e_max, t):
    """x >= t (any x when t is 0) exactly when curve(_to_db(x)) <= e_max, for
    every float within 2^12 ULPs of t and at a few extreme SINRs."""
    x = np.array([-1.0, 0.0, 5e-324, 1e-300, 1e300])
    if 0.0 < t < math.inf:
        near = (np.float64(t).view(np.int64) + np.arange(-2 ** 12, 2 ** 12 + 1)).view(np.float64)
        x = np.concatenate([x, near[np.isfinite(near)]])
    assert np.array_equal((x >= t) | (t == 0.0), curve(link_adaptation._to_db(x)) <= e_max)


@st.composite
def tabulated_tables(draw):
    """1-4 random nonincreasing tables: single-point grids, flat runs, and
    knots at exactly e_max, with BLER levels far apart in ULPs."""
    e_max = draw(st.sampled_from([0.3, 0.1, 0.01, 1e-3]))
    levels = st.sampled_from([1.0, 0.9, 0.5, 0.3, 0.1, 0.05, 0.01, 2e-3, 1e-3, 1e-4, 0.0, e_max])
    entries = []
    for cqi in range(1, draw(st.integers(1, 4)) + 1):
        n = draw(st.integers(1, 6))
        steps = draw(st.lists(st.floats(0.01, 30.0), min_size=n - 1, max_size=n - 1))
        grid = draw(st.floats(-200.0, 200.0)) + np.cumsum([0.0] + steps)
        bler = sorted(draw(st.lists(levels, min_size=n, max_size=n)), reverse=True)
        entries.append(McsEntry(index=cqi, rate=float(cqi),
                                bler_curve=TabulatedBlerCurve(grid, np.array(bler))))
    return McsTable(entries=entries, e_max=e_max)


@given(tabulated_tables())
@settings(max_examples=150, deadline=None)
def test_tabulated_thresholds_exact_and_selection_matches_full_scan(table):
    for entry, t in zip(table.entries, table.feasibility_thresholds):
        assert_threshold_exact(entry.bler_curve, table.e_max, t)
    assert_matches_full_scan(probe_points(table, np.random.default_rng(0)), table)


class TestMcsTableValidation:
    def test_non_increasing_rates_rejected(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            McsTable(entries=[
                McsEntry(index=1, rate=2.0, bler_curve=flat_curve(0.5)),
                McsEntry(index=2, rate=1.0, bler_curve=flat_curve(0.5)),
            ])

    def test_bad_e_max_rejected(self):
        entry = McsEntry(index=1, rate=1.0, bler_curve=flat_curve(0.5))
        with pytest.raises(ValueError):
            McsTable(entries=[entry], e_max=0.0)
        with pytest.raises(ValueError):
            McsTable(entries=[entry], e_max=1.0)

    def test_curve_without_threshold_rejected(self):
        with pytest.raises(ValueError, match="cqi 3: the BLER curve has no threshold"):
            McsEntry(index=3, rate=1.0, bler_curve=lambda snr_db: 0.0)

    def test_default_table_shape(self, default_table):
        assert len(default_table.entries) == 15
        assert default_table.e_max == 0.1
        assert [e.index for e in default_table.entries] == list(range(1, 16))


class TestExpectedGoodput:
    def test_decorrelated_age_zero(self):
        # first Bessel zero at fd*Ts*age ~ 0.3828: engineered rho(age) ~ 0
        p = LinkParams(1.0, 1.0, 0.01, doppler_hz=2.404825557695773 / (2 * math.pi * 7) * 1000,
                       sample_period=1e-3)
        assert autocorrelation(7, p) == pytest.approx(0.0, abs=1e-12)
        assert expected_goodputs([7], p, default_mcs_table())[0] == 0.0

    def test_always_feasible_single_entry(self, reference_params):
        # bler 0 at every SINR: r(age) = R for any age with rho != 0
        table = single_entry_table(3.0, flat_curve(0.0))
        val = expected_goodputs([1], reference_params, table)[0]
        assert val == pytest.approx(3.0, rel=1e-12)

    def test_dip_near_first_bessel_zero(self, reference_params, default_table):
        r = expected_goodputs(np.arange(1, 21), reference_params, default_table)
        argmin = int(np.argmin(r)) + 1
        assert argmin in (6, 7, 8)
        assert r[argmin + 3 - 1] > r[argmin - 1]

    def test_quadrature_matches_monte_carlo(self, default_table):
        # module invariant: rel <= 1e-3 at 1e6 samples for 10 random points
        rng = np.random.default_rng(59)
        checked = 0
        while checked < 10:
            snr_db = rng.uniform(0.0, 20.0)
            fd_ts = rng.uniform(0.02, 0.08)
            age = int(rng.integers(1, 6))
            p = LinkParams(1.0, 1.0, 10 ** (-snr_db / 10.0),
                           doppler_hz=fd_ts * 1000.0, sample_period=1e-3)
            quad_val = float(expected_goodputs([age], p, default_table)[0])
            if quad_val < 0.05 * default_table.max_rate:
                continue
            mc_val, _ = mc_expected_goodput(age, p, default_table, 1_000_000,
                                            seed=int(rng.integers(0, 2 ** 63)))
            assert abs(quad_val - mc_val) / mc_val <= 1e-3
            checked += 1

    def test_node_count_floor(self, reference_params, default_table):
        with pytest.raises(ValueError, match="at least 8 nodes, got 4"):
            expected_goodputs([1], reference_params, default_table, nodes=4)

    def test_age_floor(self, reference_params, default_table):
        with pytest.raises(ValueError, match="age must be >= 1, got 0"):
            expected_goodputs([3, 0], reference_params, default_table)

    def test_node_doubling_converged(self, reference_params, default_table):
        # rate crossings inside a panel cap convergence around 1e-11; the
        # contract is 1e-4, so 1e-9 leaves a wide regression margin
        ages = np.array([1, 3, 5, 10])
        a = expected_goodputs(ages, reference_params, default_table, nodes=64)
        b = expected_goodputs(ages, reference_params, default_table, nodes=128)
        assert a == pytest.approx(b, rel=1e-9, abs=1e-300)

    def test_age_depends_only_on_rho_magnitude(self, default_table):
        # rho(10) < 0 at fd*Ts = 0.05; flipping the sign of rho leaves r unchanged
        # (structurally: the SINR gain uses rho^2), so equal |rho| gives equal r.
        p0 = LinkParams(1.0, 1.0, 0.1, doppler_hz=0.0)
        vals = expected_goodputs([1, 5, 20], p0, default_table)
        assert vals[0] == vals[1] == vals[2]


class TestBuildRewardCurve:
    def test_single_age(self, reference_params, default_table):
        c = build_reward_curve(reference_params, default_table, 1)
        assert len(c) == 1
        assert c.values[0] == expected_goodputs([1], reference_params, default_table)[0]

    def test_bit_identical_recomputation(self, reference_params, default_table):
        a = build_reward_curve(reference_params, default_table, 30)
        b = build_reward_curve(reference_params, default_table, 30)
        assert np.array_equal(a.values, b.values)

    def test_argmax_at_age_one_before_first_zero(self, reference_params, default_table):
        c = build_reward_curve(reference_params, default_table, 6)
        assert int(np.argmax(c.values)) == 0

    def test_overflow_bound_rejected(self, reference_params, default_table):
        with pytest.raises(ValueError):
            build_reward_curve(reference_params, default_table, 10_000_001)

    def test_values_within_range(self, reference_params, default_table):
        c = build_reward_curve(reference_params, default_table, 40)
        assert np.all(c.values >= 0)
        assert np.all(c.values <= default_table.max_rate)


# The banding step itself, before any test patches it
_BANDS = link_adaptation._BlockSelector.bands


def select_rows(select, x, choices=False):
    """(order, goodput[, chosen_index, chosen_bler]) at the rows of `x` by
    the quadrature's two steps: `bands` on their end nodes, then `rows` on
    a copy of x in that order; row k of each result is row order[k] of x."""
    order, counts = select.bands(x[:, ::max(1, x.shape[1] - 1)])  # the end nodes
    return order, *select.rows(x[order], counts, choices)


@given(st.one_of(tabulated_tables(), st.integers(0, 2 ** 32 - 1).map(
           lambda seed: random_logistic_table(np.random.default_rng(seed)))),
       st.lists(st.one_of(st.just(0.0), st.floats(1e-6, 1e6)), min_size=1, max_size=12),
       st.sampled_from([8, 9, 15, 64, 100, 127, 128, 1023, 1024]))
@settings(max_examples=100, deadline=None)
def test_quadrature_rows_are_nondecreasing(table, scale, nodes):
    # the selector bands each row by its end nodes, which bound the bands of
    # the nodes between only when the row is monotone: form the panel nodes
    # and SINRs as expected_goodputs does (at a sample of node counts from 8
    # to 1024, since each new count costs a Gauss-Legendre eigenproblem), and
    # the end nodes alone, which must equal the grid's bit for bit
    thresholds, _ = table.selection_groups
    assume(thresholds.size)
    scale = np.array(scale)
    owner, lo, hi = link_adaptation._panels(scale, thresholds)
    x_ref, _ = link_adaptation._gauss_legendre(nodes)
    for sl in link_adaptation._blocks(owner.size, nodes):
        args = -0.5 * (hi[sl] - lo[sl]), 0.5 * (lo[sl] + hi[sl]), -scale[owner[sl]]
        x = link_adaptation._nodes(*args, x_ref)[1]
        assert np.all(np.diff(x, axis=1) >= 0.0)
        ends = link_adaptation._nodes(*args, x_ref[[0, -1]])[1]
        assert ends.tobytes() == x[:, [0, -1]].tobytes()


def test_stored_gauss_legendre_rule_is_numpys():
    # the default rule is numpy 2.4.6's leggauss(64), stored: bit for bit on
    # numpy 2.4.  Another numpy may round legval or the eigenvalues
    # differently: a copy of leggauss with legval's older form,
    # (c1 * (nd - 1)) / nd for c1 * ((nd - 1) / nd), moved the nodes by up to
    # 5 ulp and the weights by up to 1.04e-9 relative over 8-1024 nodes
    # (1817 ulp at 64 nodes), hence 8 ulp and 1e-8
    x, w = link_adaptation._gauss_legendre(64)
    x_np, w_np = np.polynomial.legendre.leggauss(64)
    assert not (x.flags.writeable or w.flags.writeable)
    if np.__version__.split(".")[:2] == ["2", "4"]:
        assert x.tobytes() == x_np.tobytes() and w.tobytes() == w_np.tobytes()
    else:
        assert np.all(np.abs(x - x_np) <= 8 * np.spacing(np.abs(x_np)))
        np.testing.assert_allclose(w, w_np, rtol=1e-8, atol=0)


# Operating points spanning the SNR axis at 15 mph and the speed axis at 20 dB,
# down to a slow 0.155 mph point
CURVE_POINTS = [(-4.5, 15.0), (24.5, 15.0), (20.0, 2.1), (20.0, 59.0), (20.0, 0.155)]


class TestBatchedQuadrature:
    @pytest.mark.parametrize("snr_db,speed_mph", CURVE_POINTS)
    def test_matches_per_panel_oracle(self, snr_db, speed_mph, default_table):
        params = ExperimentConfig(snr_db=snr_db, speed=speed_mph).link_params()
        curve = build_reward_curve(params, default_table, 600)
        ages = np.arange(1, 601, 3)
        want = reward_curve_panels(ages, params, default_table)
        assert np.array_equal(curve.values[ages - 1], want)

    def test_matches_oracle_for_loaded_bler_table(self, tmp_path, reference_params):
        table = tabulated_default_table(tmp_path)
        curve = build_reward_curve(reference_params, table, 60)
        want = reward_curve_panels(range(1, 61), reference_params, table)
        assert np.array_equal(curve.values, want)

    def test_matches_oracle_with_finer_panels(self, reference_params, default_table):
        curve = build_reward_curve(reference_params, default_table, 60, nodes=128)
        want = reward_curve_panels(range(1, 61), reference_params, default_table, nodes=128)
        assert np.array_equal(curve.values, want)

    @pytest.mark.parametrize("snr_db,speed_mph", CURVE_POINTS)
    def test_panel_sums_within_1e_15_of_exact_sums(self, snr_db, speed_mph, default_table):
        # the kernel's row sums and the oracle's per-panel sums against
        # math.fsum over each panel's terms and then over the age's panels
        params = ExperimentConfig(snr_db=snr_db, speed=speed_mph).link_params()
        ages = np.arange(1, 601, 3)
        exact = reward_curve_panels(ages, params, default_table, exact_sums=True)
        assert np.count_nonzero(exact) > 0
        for got in (build_reward_curve(params, default_table, 600).values[ages - 1],
                    reward_curve_panels(ages, params, default_table)):
            assert np.all(np.abs(got - exact) <= 1e-15 * exact)

    def test_straddling_panel_takes_the_point_path(self, default_table):
        # rows 0 and 2 lie inside one band each; row 1 runs across the 5th
        # threshold with its float neighbours on the row, row 3 from band 0
        # (no entry feasible) across the lowest threshold, so the straddling
        # points are not in band order and must be scattered back
        t = default_table.selection_groups[0]
        x = np.stack([np.geomspace(t[3], t[4], 66)[1:-1],
                      np.sort(np.concatenate([np.linspace(0.9 * t[5], 1.1 * t[5], 61),
                                              [np.nextafter(t[5], 0.0), t[5],
                                               np.nextafter(t[5], np.inf)]])),
                      np.linspace(t[1], np.nextafter(t[2], 0.0), 64),
                      np.linspace(0.5 * t[0], 2.0 * t[0], 64)])
        select = link_adaptation._BlockSelector(default_table, x.size)
        order, goodput = select_rows(select, x)
        assert order.tolist() == [2, 0, 1, 3]  # by band, then the straddling rows
        want = max_goodput_matrix(x, default_table)[0]
        assert np.array_equal(goodput, want[order])
        assert want[3, 0] == 0.0 < want[3, -1]

    @given(st.one_of(tabulated_tables(), st.integers(0, 2 ** 32 - 1).map(
               lambda seed: random_logistic_table(np.random.default_rng(seed)))),
           st.integers(1, 6), st.data())
    @settings(max_examples=150, deadline=None)
    def test_rows_ending_around_thresholds_match_the_oracle(self, table, nodes, data):
        # each row runs from a float within 2 ulps of one feasibility
        # threshold to one within 2 ulps of the same or a higher one, so its
        # end nodes share a band or straddle one or more edges; positive
        # floats order as their bit patterns, so a row is nondecreasing
        edges = table.selection_groups[0]
        bits = edges[edges > 0].view(np.int64)
        assume(bits.size)
        ulps = st.integers(-2, 2)
        x = np.empty((data.draw(st.integers(1, 8)), nodes), np.int64)
        for row in x:
            i, j = sorted(data.draw(st.lists(st.integers(0, bits.size - 1),
                                             min_size=2, max_size=2)))
            first, last = sorted([max(bits[i] + data.draw(ulps), 0), bits[j] + data.draw(ulps)])
            row[:] = sorted(data.draw(st.lists(st.integers(first, last),
                                               min_size=nodes, max_size=nodes)))
            row[0], row[-1] = first, last
        x = x.view(float)
        select = link_adaptation._BlockSelector(table, x.size)
        order, *got = select_rows(select, x, choices=True)
        for values, want in zip(got, max_goodput_matrix(x, table)):
            assert np.array_equal(values, want[order])

    @staticmethod
    def _every_panel_straddles(select, ends):
        """`_BlockSelector.bands` with every panel counted as straddling, so
        that the quadrature selects each of its nodes alone, as a point."""
        if ends.shape[1] == 1:
            return _BANDS(select, ends)
        counts = np.zeros(len(select.candidates) + 1, np.int64)
        counts[-1] = ends.shape[0]
        return np.arange(ends.shape[0]), counts

    def assert_panel_selection_matches_point_selection(self, table, params, ages):
        got = expected_goodputs(ages, params, table)
        with mock.patch.object(link_adaptation._BlockSelector, "bands",
                               self._every_panel_straddles):
            want = expected_goodputs(ages, params, table)
        assert np.array_equal(got, want)

    def test_random_logistic_tables_select_by_panel_exactly(self, rng):
        for _ in range(20):
            params = ExperimentConfig(snr_db=float(rng.uniform(-10.0, 35.0)),
                                      speed=float(rng.uniform(0.1, 60.0))).link_params()
            self.assert_panel_selection_matches_point_selection(
                random_logistic_table(rng), params, np.arange(1, 121))

    @given(tabulated_tables(), st.floats(-40.0, 60.0))
    @settings(max_examples=40, deadline=None)
    def test_tabulated_tables_select_by_panel_exactly(self, table, snr_db):
        params = ExperimentConfig(snr_db=snr_db, speed=15.0).link_params()
        self.assert_panel_selection_matches_point_selection(table, params, np.arange(1, 41))

    def test_age_value_independent_of_curve_length(self, reference_params, default_table):
        full = build_reward_curve(reference_params, default_table, 600).values
        for k in (1, 2, 37, 255, 599):
            assert np.array_equal(full[:k],
                                  build_reward_curve(reference_params, default_table, k).values)
        for age in (1, 17, 600):
            assert expected_goodputs([age], reference_params, default_table)[0] == full[age - 1]

    def test_curve_peak_memory(self, default_table):
        # a 600-age curve at the low-speed curve-solve point: one selection
        # block of panel x node points and its working arrays at a time
        params = ExperimentConfig(snr_db=20.0, speed=0.155).link_params()
        build_reward_curve(params, default_table, 600)  # warm caches
        tracemalloc.start()
        try:
            build_reward_curve(params, default_table, 600)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 10e6

    def test_age_value_independent_of_chunking(self, monkeypatch, reference_params,
                                               default_table):
        want = build_reward_curve(reference_params, default_table, 300).values
        monkeypatch.setattr(link_adaptation, "_BLOCK_POINTS", 3 * 64 + 5)
        monkeypatch.setattr(link_adaptation, "_AGE_BLOCK", 7)
        got = build_reward_curve(reference_params, default_table, 300).values
        assert np.array_equal(got, want)


class _CeilingCounted(np.ndarray):
    """A BLER array that records the size of each ceiling test it enters."""

    tests: list = []

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.less_equal:
            self.tests.append(self.size)
        inputs = [a.view(np.ndarray) if isinstance(a, _CeilingCounted) else a for a in inputs]
        return getattr(ufunc, method)(*inputs, **kwargs)


class _PointCounted(LogisticBlerCurve):
    """The logistic curve, recording how many points each call evaluates and
    returning BLERs that record their ceiling tests."""

    points: list = []

    def __call__(self, snr_db):
        self.points.append(np.size(snr_db))
        return np.asarray(super().__call__(snr_db)).view(_CeilingCounted)


def counted_default_table(e_max=None) -> McsTable:
    default = default_mcs_table(e_max)
    table = McsTable(entries=[
        McsEntry(index=e.index, rate=e.rate,
                 bler_curve=_PointCounted(e.bler_curve.slope_per_db, e.bler_curve.midpoint_db))
        for e in default.entries], e_max=default.e_max)
    table.selection_groups  # the threshold search, before anything is counted
    _PointCounted.points.clear()
    _CeilingCounted.tests.clear()
    return table


def band_of(x, table) -> np.ndarray:
    """The selection band of each SINR: the number of edges that are 0 or
    <= x, and the last band at +inf."""
    edges, candidates = table.selection_groups
    band = np.where(x > 0, np.searchsorted(edges, x, side="right"), np.count_nonzero(edges == 0.0))
    return np.where(x == np.inf, len(candidates) - 1, band)


class TestSelectionWork:
    """Work counters for the cost claims of `_BlockSelector`: a point is
    evaluated once for each candidate of its band, and the BLER ceiling is
    tested only in the +inf band."""

    @pytest.mark.parametrize("choices", [False, True])
    def test_point_path_evaluates_each_band_candidate_once(self, choices, rng):
        table = counted_default_table()
        edges, candidates = table.selection_groups
        x = np.concatenate([edges, np.nextafter(edges, 0.0), [0.0, -1.0, 5e-324, np.inf, np.inf],
                            rng.lognormal(0.0, 4.0, 3000)])
        got = select_points(x, table)
        sizes = np.array([len(c) for c in candidates])
        band = band_of(x, table)
        assert sum(_PointCounted.points) == sizes[band].sum()
        assert _CeilingCounted.tests == [2] * len(table.entries)  # the two +inf points
        for values, want in zip(got, max_goodput_matrix(x, default_mcs_table())):
            assert np.array_equal(values, want)

    def test_quadrature_evaluates_each_node_once_per_candidate(self, reference_params):
        # every node of a panel lies in its panel's band, and a straddling
        # panel's nodes are banded one by one: either way a node costs the
        # candidates of its own band, and no node is at +inf
        table = counted_default_table()
        ages = np.arange(1, 41)
        expected_goodputs(ages, reference_params, table)
        scale = (link_adaptation.sinr_gain(ages, reference_params)
                 * link_adaptation.pilot_second_moment(reference_params))
        owner, lo, hi = link_adaptation._panels(scale, table.selection_groups[0])
        x_ref, _ = link_adaptation._gauss_legendre(64)
        x = link_adaptation._nodes(-0.5 * (hi - lo), 0.5 * (lo + hi), -scale[owner], x_ref)[1]
        sizes = np.array([len(c) for c in table.selection_groups[1]])
        assert sum(_PointCounted.points) == sizes[band_of(x, table)].sum()
        assert _CeilingCounted.tests == []


@pytest.mark.parametrize("e_max", [0.3, 0.1, 0.01, 1e-3])
def test_default_band_candidates_meet_the_ceiling_across_the_band(e_max):
    assert_band_candidates_feasible(default_mcs_table(e_max))


@given(st.one_of(tabulated_tables(), st.integers(0, 2 ** 32 - 1).map(
           lambda seed: random_logistic_table(np.random.default_rng(seed)))))
@settings(max_examples=150, deadline=None)
def test_band_candidates_meet_the_ceiling_across_the_band(table):
    assert_band_candidates_feasible(table)


def assert_band_candidates_feasible(table):
    """Every candidate of each finite band meets the ceiling at the band's
    lower edge (0, -inf dB, for a zero edge) and at the float just below the
    next edge (the largest float in the last finite band): `choose` skips
    the BLER check there."""
    edges, candidates = table.selection_groups
    upper = np.append(np.nextafter(edges[1:], 0.0), np.finfo(float).max)
    for g, (lower, top) in enumerate(zip(edges, upper), start=1):
        if lower > top:  # tied edges leave this band empty
            continue
        x = link_adaptation._to_db(np.array([lower, top]))
        for j in candidates[g]:
            assert np.all(table.entries[j].bler_curve(x) <= table.e_max), (g, j)


def test_to_db_exact_without_warnings():
    x = [-1.0, -0.0, 0.0, 5e-324, 1.0, np.inf]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = link_adaptation._to_db(x)
        positive = link_adaptation._to_db(x[3:])  # the unmasked path
        empty = link_adaptation._to_db([])
    want = [-np.inf, -np.inf, -np.inf, 10.0 * np.log10(5e-324), 0.0, np.inf]
    assert got.tobytes() == np.array(want).tobytes()
    assert positive.tobytes() == got[3:].tobytes()
    assert empty.shape == (0,)


class TestLoadBlerTable:
    def _write(self, tmp_path, text, name="bler.csv"):
        path = tmp_path / name
        path.write_text(text)
        return path

    def test_interpolation_in_db(self, tmp_path):
        path = self._write(tmp_path, "cqi,snr_db,bler\n1,0.0,0.9\n1,10.0,0.01\n")
        table = load_bler_table(path)
        entry = next(e for e in table.entries if e.index == 1)
        assert entry.bler_curve(5.0) == pytest.approx(0.455, abs=1e-12)

    def test_clamped_extrapolation(self, tmp_path):
        path = self._write(tmp_path, "cqi,snr_db,bler\n1,0.0,0.9\n1,10.0,0.01\n")
        entry = load_bler_table(path).entries[0]
        assert entry.bler_curve(-10.0) == 0.9       # below the grid
        assert entry.bler_curve(-np.inf) == 0.9     # a linear SINR of 0
        assert entry.bler_curve(30.0) == 0.01       # above the grid

    def test_empty_file_rejected(self, tmp_path):
        path = self._write(tmp_path, "")
        with pytest.raises(ValueError, match="empty"):
            load_bler_table(path)

    def test_header_only_rejected(self, tmp_path):
        path = self._write(tmp_path, "cqi,snr_db,bler\n")
        with pytest.raises(ValueError, match="no data rows"):
            load_bler_table(path)

    def test_bler_outside_unit_interval_rejected(self, tmp_path):
        path = self._write(tmp_path, "cqi,snr_db,bler\n1,0.0,1.5\n")
        with pytest.raises(ValueError, match="row 2"):
            load_bler_table(path)

    def test_unsorted_grid_rejected(self, tmp_path):
        path = self._write(tmp_path, "cqi,snr_db,bler\n1,10.0,0.1\n1,0.0,0.9\n")
        with pytest.raises(ValueError, match="sorted"):
            load_bler_table(path)

    def test_non_monotone_curve_names_cqi(self, tmp_path):
        path = self._write(tmp_path,
                           "cqi,snr_db,bler\n3,0.0,0.5\n3,5.0,0.8\n")
        with pytest.raises(ValueError, match="cqi 3"):
            load_bler_table(path)

    def test_non_monotone_rates_rejected(self, tmp_path):
        bler_csv = self._write(tmp_path, "cqi,snr_db,bler\n1,0.0,0.9\n1,10.0,0.0\n"
                                         "2,0.0,0.9\n2,10.0,0.0\n")
        rates = self._write(tmp_path,
                            '{"e_max": 0.1, "rates": {"1": 2.0, "2": 1.0}}',
                            name="rates.json")
        with pytest.raises(ValueError, match="non-monotone rate ordering"):
            load_bler_table(bler_csv, rate_config=rates)

    def test_rate_config_round_trip(self, tmp_path):
        rates = self._write(tmp_path,
                            '{"e_max": 0.05, "rates": {"1": 0.5, "2": 1.0}}',
                            name="rates.json")
        loaded, e_max = load_mcs_rates(rates)
        assert loaded == {1: 0.5, 2: 1.0}
        assert e_max == 0.05

    def test_loaded_table_usable_for_goodput(self, tmp_path, reference_params):
        rows = ["cqi,snr_db,bler"]
        for cqi, mid in ((1, -5.0), (2, 5.0)):
            for snr in np.linspace(-20, 30, 26):
                val = 1.0 / (1.0 + math.exp(1.5 * (snr - mid)))
                rows.append(f"{cqi},{snr},{val}")
        path = self._write(tmp_path, "\n".join(rows) + "\n")
        rates = self._write(tmp_path, '{"e_max": 0.1, "rates": {"1": 1.0, "2": 2.0}}',
                            name="rates.json")
        table = load_bler_table(path, rate_config=rates)
        val = expected_goodputs([1], reference_params, table)[0]
        assert 0.0 < val <= 2.0
