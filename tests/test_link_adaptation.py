import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import bisect_thresholds, max_goodput_matrix, reward_curve_panels
from pilotsched import (LinkParams, LogisticBlerCurve, McsEntry, McsTable,
                        QuadratureConfig, RewardCurve, TabulatedBlerCurve,
                        autocorrelation, build_reward_curve, default_mcs_table,
                        expected_goodput, link_adaptation, load_bler_table,
                        load_mcs_rates, max_goodput_array)
from pilotsched.config import ExperimentConfig
from pilotsched.validation import mc_expected_goodput


def single_entry_table(rate: float, curve, e_max: float = 0.1) -> McsTable:
    return McsTable(entries=[McsEntry(index=1, rate=rate, bler_curve=curve)],
                    e_max=e_max)


def tabulated_default_table(tmp_path) -> McsTable:
    """The default logistic curves sampled every 2 dB and loaded as a BLER CSV."""
    rows = ["cqi,snr_db,bler"]
    for entry in default_mcs_table().entries:
        for snr_db in range(-30, 42, 2):
            rows.append(f"{entry.index},{snr_db!r},{float(entry.bler_curve(snr_db))!r}")
    path = tmp_path / "bler.csv"
    path.write_text("\n".join(rows) + "\n")
    return load_bler_table(path)


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
        goodput, chosen, chosen_bler = max_goodput_array(0.0, default_table)
        assert goodput == 0.0 and chosen == -1 and chosen_bler == 1.0

    def test_single_entry_hand_value(self):
        # rate 2, bler 0.05 at the probe point, e_max 0.1 -> 2 * 0.95 = 1.9
        curve = LogisticBlerCurve(1.5, midpoint_db=0.0)
        table = single_entry_table(2.0, curve)
        # invert: bler = 0.05 at z where 1/(1+e^z) = 0.05 -> z = ln(19)
        eta_db = math.log(19.0) / 1.5
        eta = 10 ** (eta_db / 10.0)
        goodput, chosen, _ = max_goodput_array(eta, table)
        assert chosen == 0
        assert goodput == pytest.approx(1.9, rel=1e-9)

    def test_constraint_excludes_high_rate(self):
        # (R=1, bler 0) and (R=4, bler 0.5): the 4*0.5=2 entry is infeasible
        table = McsTable(entries=[
            McsEntry(index=1, rate=1.0, bler_curve=lambda snr_db: 0.0),
            McsEntry(index=2, rate=4.0, bler_curve=lambda snr_db: 0.5),
        ], e_max=0.1)
        goodput, chosen, _ = max_goodput_array(5.0, table)
        assert goodput == 1.0
        assert chosen == 0

    def test_nondecreasing_in_eta(self, default_table):
        goodput, _, _ = max_goodput_array(np.geomspace(1e-4, 1e4, 400), default_table)
        assert np.all(np.diff(goodput) >= -1e-12)

    def test_bounded_by_max_rate(self, default_table):
        goodput, _, _ = max_goodput_array(np.geomspace(1e-3, 1e9, 100), default_table)
        assert np.all(goodput <= default_table.max_rate)


class TestMaxGoodputArray:
    def test_matches_argmax_over_all_entries(self, default_table, rng):
        eta = np.concatenate([[0.0, 1e-300, 1e300],
                              rng.lognormal(0.0, 4.0, 4997)]).reshape(50, 100)
        for got, want in zip(max_goodput_array(eta, default_table),
                             max_goodput_matrix(eta, default_table)):
            assert got.shape == eta.shape
            assert np.array_equal(got, want)

    def test_scalar_bler_callables_broadcast_and_ties_go_first(self):
        # goodput 1 * (1 - 0) == 2 * (1 - 0.5): the first entry wins the tie
        table = McsTable(entries=[
            McsEntry(index=1, rate=1.0, bler_curve=lambda snr_db: 0.0),
            McsEntry(index=2, rate=2.0, bler_curve=lambda snr_db: 0.5),
        ], e_max=0.6)
        eta = np.linspace(0.0, 10.0, 12).reshape(3, 4)
        for got, want in zip(max_goodput_array(eta, table), max_goodput_matrix(eta, table)):
            assert got.shape == (3, 4)
            assert np.array_equal(got, want)
        assert np.all(max_goodput_array(eta, table)[1] == 0)


class TestFeasibilityThresholds:
    @pytest.mark.parametrize("e_max", [0.3, 0.1, 0.01, 1e-3])
    def test_logistic_closed_form_matches_bisection(self, e_max):
        table = default_mcs_table(e_max=e_max)
        assert np.array_equal(table.feasibility_thresholds, bisect_thresholds(table))

    def test_tabulated_matches_bisection(self, tmp_path):
        table = tabulated_default_table(tmp_path)
        assert np.array_equal(table.feasibility_thresholds, bisect_thresholds(table))

    def test_out_of_range_and_bare_callables(self):
        # never feasible below 1e18 -> inf; feasible already at 1e-18 -> 0;
        # a callable without a threshold method is bisected
        step_db = 10.0 * math.log10(7.0)
        table = McsTable(entries=[
            McsEntry(index=1, rate=1.0, bler_curve=LogisticBlerCurve(1.5, -500.0)),
            McsEntry(index=2, rate=2.0,
                     bler_curve=lambda snr_db: 0.5 if snr_db < step_db else 0.0),
            McsEntry(index=3, rate=3.0, bler_curve=LogisticBlerCurve(0.7, 12.3)),
            McsEntry(index=4, rate=4.0, bler_curve=LogisticBlerCurve(1.5, 500.0)),
        ])
        thresholds = table.feasibility_thresholds
        assert thresholds[0] == 0.0 and thresholds[3] == np.inf
        assert thresholds[1] == pytest.approx(7.0, rel=1e-15)
        assert np.array_equal(thresholds, bisect_thresholds(table))

    def test_threshold_is_the_crossing_float(self):
        curve = LogisticBlerCurve(1.5, 4.4)
        x = curve.threshold(0.1)
        below = math.nextafter(x, 0.0)
        assert curve(10.0 * np.log10(x)) <= 0.1 < curve(10.0 * np.log10(below))


class TestMcsTableValidation:
    def test_non_increasing_rates_rejected(self):
        with pytest.raises(ValueError, match="strictly increasing"):
            McsTable(entries=[
                McsEntry(index=1, rate=2.0, bler_curve=lambda snr_db: 0.5),
                McsEntry(index=2, rate=1.0, bler_curve=lambda snr_db: 0.5),
            ])

    def test_bad_e_max_rejected(self):
        entry = McsEntry(index=1, rate=1.0, bler_curve=lambda snr_db: 0.5)
        with pytest.raises(ValueError):
            McsTable(entries=[entry], e_max=0.0)
        with pytest.raises(ValueError):
            McsTable(entries=[entry], e_max=1.0)

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
        assert expected_goodput(7, p, default_mcs_table()) == 0.0

    def test_always_feasible_single_entry(self, reference_params):
        # bler 0 at every SINR: r(age) = R for any age with rho != 0
        table = single_entry_table(3.0, lambda snr_db: np.zeros_like(snr_db))
        val = expected_goodput(1, reference_params, table)
        assert val == pytest.approx(3.0, rel=1e-12)

    def test_dip_near_first_bessel_zero(self, reference_params, default_table):
        r = [expected_goodput(d, reference_params, default_table) for d in range(1, 21)]
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
            quad_val = expected_goodput(age, p, default_table)
            if quad_val < 0.05 * default_table.max_rate:
                continue
            mc_val, _ = mc_expected_goodput(age, p, default_table, 1_000_000,
                                            seed=int(rng.integers(0, 2 ** 63)))
            assert abs(quad_val - mc_val) / mc_val <= 1e-3
            checked += 1

    def test_node_count_floor(self):
        with pytest.raises(ValueError):
            QuadratureConfig(nodes=4)

    def test_node_doubling_converged(self, reference_params, default_table):
        # rate crossings inside a panel cap convergence around 1e-11; the
        # contract is 1e-4, so 1e-9 leaves a wide regression margin
        for age in (1, 3, 5, 10):
            a = expected_goodput(age, reference_params, default_table, QuadratureConfig(nodes=64))
            b = expected_goodput(age, reference_params, default_table,
                                 QuadratureConfig(nodes=128, max_panel=2.0))
            assert a == pytest.approx(b, rel=1e-9, abs=1e-300)

    def test_age_depends_only_on_rho_magnitude(self, default_table):
        # rho(10) < 0 at fd*Ts = 0.05; flipping the sign of rho leaves r unchanged
        # (structurally: the SINR gain uses rho^2), so equal |rho| gives equal r.
        p0 = LinkParams(1.0, 1.0, 0.1, doppler_hz=0.0)
        vals = [expected_goodput(d, p0, default_table) for d in (1, 5, 20)]
        assert vals[0] == vals[1] == vals[2]


class TestBuildRewardCurve:
    def test_single_age(self, reference_params, default_table):
        c = build_reward_curve(reference_params, default_table, 1)
        assert len(c) == 1
        assert c.value(1) == expected_goodput(1, reference_params, default_table)

    def test_bit_identical_recomputation(self, reference_params, default_table):
        a = build_reward_curve(reference_params, default_table, 30)
        b = build_reward_curve(reference_params, default_table, 30)
        assert np.array_equal(a.values, b.values)
        assert a.fingerprint == b.fingerprint

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


# Operating points spanning the SNR axis at 15 mph and the speed axis at 20 dB,
# down to a slow 0.155 mph point
CURVE_POINTS = [(-4.5, 15.0), (24.5, 15.0), (20.0, 2.1), (20.0, 59.0), (20.0, 0.155)]


class TestBatchedQuadrature:
    @pytest.mark.parametrize("snr_db,speed_mph", CURVE_POINTS)
    def test_matches_per_panel_oracle(self, snr_db, speed_mph, default_table):
        params = ExperimentConfig(snr_db=snr_db, speed=speed_mph).link_params()
        curve = build_reward_curve(params, default_table, 600)
        ages = np.arange(1, 601, 3)
        want = reward_curve_panels(ages, params, default_table, QuadratureConfig())
        assert np.array_equal(curve.values[ages - 1], want)

    def test_matches_oracle_for_loaded_bler_table(self, tmp_path, reference_params):
        table = tabulated_default_table(tmp_path)
        curve = build_reward_curve(reference_params, table, 60)
        want = reward_curve_panels(range(1, 61), reference_params, table, QuadratureConfig())
        assert np.array_equal(curve.values, want)

    def test_matches_oracle_with_finer_panels(self, reference_params, default_table):
        quad = QuadratureConfig(nodes=128, max_panel=2.0)
        curve = build_reward_curve(reference_params, default_table, 60, quad)
        want = reward_curve_panels(range(1, 61), reference_params, default_table, quad)
        assert np.array_equal(curve.values, want)

    def test_age_value_independent_of_curve_length(self, reference_params, default_table):
        full = build_reward_curve(reference_params, default_table, 600).values
        for k in (1, 2, 37, 255, 599):
            assert np.array_equal(full[:k],
                                  build_reward_curve(reference_params, default_table, k).values)
        for age in (1, 17, 600):
            assert expected_goodput(age, reference_params, default_table) == full[age - 1]

    def test_age_value_independent_of_chunking(self, monkeypatch, reference_params,
                                               default_table):
        want = build_reward_curve(reference_params, default_table, 300).values
        monkeypatch.setattr(link_adaptation, "_CHUNK_POINTS", 3 * 64 + 5)
        monkeypatch.setattr(link_adaptation, "_AGE_BLOCK", 7)
        got = build_reward_curve(reference_params, default_table, 300).values
        assert np.array_equal(got, want)


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
        val = expected_goodput(1, reference_params, table)
        assert 0.0 < val <= 2.0
