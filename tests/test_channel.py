import math

import numpy as np
import pytest
import scipy.special

from oracles import j0_series
from pilotsched import (FadingTrace, LinkParams, MobilityParams, MPH_TO_MPS,
                        SPEED_OF_LIGHT, autocorrelation, bessel_j0,
                        doppler_frequency, empirical_autocorrelation,
                        generate_fading_trace)

J0_FIRST_ZEROS = [2.404825557695773, 5.520078110286311, 8.653727912911012,
                  11.791534439014281, 14.930917708487786]


class TestDopplerFrequency:
    def test_zero_speed(self):
        assert doppler_frequency(MobilityParams(speed_mps=0.0, carrier_hz=5e9)) == 0.0

    def test_reference_point_15mph(self):
        # 15 mph at 2.4 GHz: (15 * 0.44704) * 2.4e9 / 299792458
        mob = MobilityParams(speed_mps=15 * MPH_TO_MPS, carrier_hz=2.4e9)
        fd = doppler_frequency(mob)
        assert fd == pytest.approx(53.6819375, abs=1e-4)
        assert fd == (15 * 0.44704) * 2.4e9 / 299792458.0

    def test_linear_in_speed(self):
        f15 = doppler_frequency(MobilityParams(15 * MPH_TO_MPS, 2.4e9))
        f30 = doppler_frequency(MobilityParams(30 * MPH_TO_MPS, 2.4e9))
        assert f30 == pytest.approx(2 * f15, rel=1e-15)

    def test_exact_speed_of_light(self):
        assert SPEED_OF_LIGHT == 299_792_458.0

    def test_superluminal_rejected(self):
        with pytest.raises(ValueError):
            MobilityParams(speed_mps=SPEED_OF_LIGHT, carrier_hz=1e9)


class TestBesselJ0:
    def test_at_zero(self):
        assert bessel_j0(0.0) == 1.0

    def test_first_zero(self):
        assert abs(bessel_j0(2.404825557695773)) <= 1e-8

    def test_even_function(self):
        for x in (0.3, 1.7, 4.2, 9.9, 123.4):
            assert bessel_j0(-x) == bessel_j0(x)

    def test_bounded_by_one(self):
        xs = np.linspace(0, 80, 4001)
        assert np.all(np.abs(bessel_j0(xs)) <= 1.0 + 1e-15)

    def test_against_series_oracle_small_args(self):
        for x in np.linspace(0.0, 30.0, 121):
            assert bessel_j0(float(x)) == pytest.approx(j0_series(x), abs=1e-10)

    def test_against_scipy_large_args(self):
        # independent mature implementation for the asymptotic branch
        xs = np.concatenate([np.linspace(5, 100, 191), np.geomspace(100, 1e4, 50)])
        assert np.max(np.abs(bessel_j0(xs) - scipy.special.j0(xs))) <= 1e-8

    def test_sign_changes_bracket_first_five_zeros(self):
        for zero in J0_FIRST_ZEROS:
            lo, hi = zero - 1e-3, zero + 1e-3
            assert bessel_j0(lo) * bessel_j0(hi) < 0
            assert j0_series(lo) * j0_series(hi) < 0

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            bessel_j0(float("nan"))
        with pytest.raises(ValueError):
            bessel_j0(float("inf"))

    def test_array_shape_preserved(self):
        out = bessel_j0(np.zeros((3, 2)))
        assert out.shape == (3, 2)
        assert np.all(out == 1.0)


class TestAutocorrelation:
    def test_lag_zero_is_channel_variance(self):
        p = LinkParams(1.0, 1.0, 1.0, channel_variance=2.5, doppler_hz=30.0)
        assert autocorrelation(0, p) == 2.5

    def test_static_channel_constant(self):
        p = LinkParams(1.0, 1.0, 1.0, channel_variance=1.2, doppler_hz=0.0)
        for d in (0, 1, 5, 1000):
            assert autocorrelation(d, p) == 1.2

    def test_bounded_by_rho0(self):
        p = LinkParams(1.0, 1.0, 1.0, channel_variance=0.8, doppler_hz=80.0)
        vals = autocorrelation(np.arange(500), p)
        assert np.all(np.abs(vals) <= 0.8 + 1e-15)

    def test_near_first_bessel_zero(self):
        # fd*Ts = 0.053682, lag 7: argument 2*pi*0.053682*7 = 2.3614
        p = LinkParams(1.0, 1.0, 1.0, doppler_hz=53.682, sample_period=1e-3)
        expected = j0_series(2 * math.pi * 0.053682 * 7)
        assert autocorrelation(7, p) == pytest.approx(expected, abs=1e-10)
        assert 0 < autocorrelation(7, p) < 0.03

    def test_negative_lag_rejected(self):
        p = LinkParams(1.0, 1.0, 1.0, doppler_hz=10.0)
        with pytest.raises(ValueError):
            autocorrelation(-1, p)
        with pytest.raises(ValueError):
            autocorrelation(np.array([3, -1]), p)

    def test_lag_array_matches_scalar_lags(self):
        p = LinkParams(1.0, 1.0, 1.0, channel_variance=0.9, doppler_hz=37.0)
        lags = np.arange(0, 700, 7).reshape(10, 10)
        got = autocorrelation(lags, p)
        assert got.shape == lags.shape
        assert np.array_equal(got, [[autocorrelation(int(d), p) for d in row] for row in lags])


class TestLinkParamsValidation:
    def test_nonpositive_fields_rejected(self):
        with pytest.raises(ValueError):
            LinkParams(pilot_power=0.0, data_power=1.0, noise_variance=1.0)
        with pytest.raises(ValueError):
            LinkParams(pilot_power=1.0, data_power=1.0, noise_variance=-1.0)

    def test_negative_doppler_rejected(self):
        with pytest.raises(ValueError):
            LinkParams(1.0, 1.0, 1.0, doppler_hz=-5.0)

    def test_undersampled_doppler_rejected(self):
        with pytest.raises(ValueError):
            LinkParams(1.0, 1.0, 1.0, doppler_hz=600.0, sample_period=1e-3)


class TestGenerateFadingTrace:
    def test_deterministic_in_seed(self, flat_params):
        a = generate_fading_trace(flat_params, 5000, seed=99)
        b = generate_fading_trace(flat_params, 5000, seed=99)
        assert np.array_equal(a.samples, b.samples)

    def test_different_seeds_differ(self, flat_params):
        a = generate_fading_trace(flat_params, 1000, seed=1)
        b = generate_fading_trace(flat_params, 1000, seed=2)
        assert not np.array_equal(a.samples, b.samples)

    def test_static_channel_constant_trace(self):
        p = LinkParams(1.0, 1.0, 1.0, doppler_hz=0.0)
        t = generate_fading_trace(p, 200, seed=5)
        assert np.all(t.samples == t.samples[0])

    def test_zero_length_rejected(self, flat_params):
        with pytest.raises(ValueError):
            generate_fading_trace(flat_params, 0, seed=1)

    def test_immutable_samples(self, flat_params):
        t = generate_fading_trace(flat_params, 100, seed=3)
        with pytest.raises(ValueError):
            t.samples[0] = 0.0

    def test_lag0_within_one_percent_at_1e6(self):
        p = LinkParams(1.0, 1.0, 1.0, doppler_hz=50.0, sample_period=1e-3)
        t = generate_fading_trace(p, 1_000_000, seed=7)
        lag0 = empirical_autocorrelation(t, 1)[0]
        assert abs(lag0 - 1.0) <= 0.01

    def test_autocovariance_matches_jakes(self):
        # fd*Ts = 0.05, length 1e6: RMSE over lags 0..100 within 2% of rho0
        p = LinkParams(1.0, 1.0, 1.0, doppler_hz=50.0, sample_period=1e-3)
        t = generate_fading_trace(p, 1_000_000, seed=7)
        emp = empirical_autocorrelation(t, 100)
        theory = autocorrelation(np.arange(101), p)
        rmse = math.sqrt(float(np.mean((emp - theory) ** 2)))
        assert rmse <= 0.02 * p.channel_variance

    def test_mean_near_zero(self, flat_params):
        t = generate_fading_trace(flat_params, 500_000, seed=13)
        assert abs(t.samples.mean()) <= 0.02


class TestEmpiricalAutocorrelation:
    def _trace(self, samples):
        p = LinkParams(1.0, 1.0, 1.0, doppler_hz=0.0)
        return FadingTrace(samples=np.asarray(samples, dtype=complex), params=p, seed=0)

    def test_constant_trace(self):
        c = 0.7 - 0.4j
        t = self._trace(np.full(1000, c))
        out = empirical_autocorrelation(t, 10)
        assert np.allclose(out, abs(c) ** 2, rtol=1e-12)

    def test_lag0_equals_second_moment(self, flat_params):
        t = generate_fading_trace(flat_params, 20_000, seed=21)
        out = empirical_autocorrelation(t, 5)
        assert out[0] == pytest.approx(float(np.mean(np.abs(t.samples) ** 2)), rel=1e-12)

    def test_white_noise_decorrelated(self):
        gen = np.random.default_rng(17)
        n = 200_000
        samples = (gen.standard_normal(n) + 1j * gen.standard_normal(n)) / math.sqrt(2)
        t = self._trace(samples)
        out = empirical_autocorrelation(t, 10)
        assert out[0] == pytest.approx(1.0, abs=3 / math.sqrt(n))
        se = 1.0 / math.sqrt(2 * n)  # SE of Re of a complex lag estimate
        assert np.all(np.abs(out[1:]) <= 3 * se)

    def test_short_trace_rejected(self, flat_params):
        t = generate_fading_trace(flat_params, 1000, seed=1)
        with pytest.raises(ValueError):
            empirical_autocorrelation(t, 100)
