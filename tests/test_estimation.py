import math

import numpy as np
import pytest

from pilotsched import (LinkParams, autocorrelation, error_variance, mmse_gain,
                        pilot_second_moment, sinr_gain)
from pilotsched.simulation import _realized_rewards
from pilotsched.validation import draw_joint_channel_pair


@pytest.fixture
def unit_params():
    # rho(d) = J0(2*pi*0.05*d); chosen so values are generic, nonzero
    return LinkParams(pilot_power=1.0, data_power=1.0, noise_variance=1.0,
                      channel_variance=1.0, doppler_hz=50.0, sample_period=1e-3)


def find_age_with_rho(target: float, tol: float = 5e-3):
    """Search (doppler, age) grids for an operating point with rho(age) ~ target."""
    for fd in np.linspace(5.0, 120.0, 300):
        p = LinkParams(1.0, 1.0, 1.0, doppler_hz=float(fd), sample_period=1e-3)
        for age in range(1, 30):
            if abs(autocorrelation(age, p) - target) < tol:
                return p, age
    raise AssertionError(f"no grid point with rho ~ {target}")


class TestMmseGain:
    def test_hand_example_rho_half(self):
        # P_p = 1, noise = 1, rho0 = 1, rho = 0.5 -> gain = 0.5 / 2 = 0.25
        p, age = find_age_with_rho(0.5, tol=2e-3)
        rho = autocorrelation(age, p)
        assert mmse_gain(age, p) == pytest.approx(rho / 2.0, rel=1e-12)
        assert mmse_gain(age, p) == pytest.approx(0.25, abs=1.5e-3)

    def test_zero_correlation_zero_gain(self):
        # a fully decorrelated pilot (rho at a Bessel zero) carries no information
        p, age = find_age_with_rho(0.0, tol=5e-3)
        assert abs(mmse_gain(age, p)) <= 5e-3 / 2

    def test_linear_in_rho(self, unit_params):
        g = [mmse_gain(d, unit_params) / autocorrelation(d, unit_params)
             for d in range(1, 6)]
        assert np.allclose(g, g[0], rtol=1e-12)

    def test_fresh_pilot_age_zero_allowed(self, unit_params):
        assert mmse_gain(0, unit_params) == 0.5

    def test_negative_age_rejected(self, unit_params):
        with pytest.raises(ValueError):
            mmse_gain(-1, unit_params)


class TestEstimateChannel:
    """The MMSE estimate mmse_gain(age) * y and its error variance."""

    def test_zero_observation(self, unit_params, default_table):
        # a zero pilot observation gives SINR 0: no MCS is feasible, so the
        # realized slot earns nothing even with a decode draw of 0
        eta = np.full(3, sinr_gain(2, unit_params) * abs(0.0) ** 2)
        assert np.array_equal(_realized_rewards(eta, np.zeros(3), default_table), np.zeros(3))

    def test_hand_example_full_substitution(self):
        # P_p = noise = rho0 = 1, rho ~ 0.5, y = 2:
        #   estimate = 0.5, estimate_variance = 0.0625 * 4 = 0.25,
        #   error_variance = 1 - 0.25/2 = 0.875
        p, age = find_age_with_rho(0.5, tol=2e-3)
        gain = mmse_gain(age, p)
        assert gain * 2.0 == pytest.approx(0.5, abs=3e-3)
        assert gain * gain * 2.0 ** 2 == pytest.approx(0.25, abs=3e-3)
        assert error_variance(age, p) == pytest.approx(0.875, abs=2e-3)

    def test_error_variance_age_only(self, unit_params):
        # the residual variance is a function of rho(age) alone
        for age in range(1, 20):
            rho = autocorrelation(age, unit_params)
            assert error_variance(age, unit_params) == pytest.approx(
                unit_params.channel_variance
                - unit_params.pilot_power * rho * rho / pilot_second_moment(unit_params),
                rel=1e-12, abs=1e-15)

    def test_error_variance_within_bounds(self, unit_params):
        for age in range(1, 60):
            ev = error_variance(age, unit_params)
            assert 0.0 <= ev <= unit_params.channel_variance + 1e-15

    def test_error_variance_nonincreasing_in_rho_magnitude(self):
        base = dict(pilot_power=1.0, data_power=1.0, noise_variance=0.5,
                    channel_variance=1.0, sample_period=1e-3)
        points = []
        for fd in np.linspace(1.0, 100.0, 60):
            p = LinkParams(doppler_hz=float(fd), **base)
            points.append((abs(autocorrelation(4, p)), error_variance(4, p)))
        points.sort()
        errs = [e for _, e in points]
        assert all(b <= a + 1e-15 for a, b in zip(errs, errs[1:]))

    def test_negative_age_rejected(self, unit_params):
        with pytest.raises(ValueError):
            error_variance(-1, unit_params)
        with pytest.raises(ValueError):
            error_variance(np.array([0, -1]), unit_params)


class TestSinr:
    """The data-slot SINR sinr_gain(age) * |y|^2 that realized mode evaluates."""

    def test_hand_example(self):
        # P_p = P_d = noise = rho0 = 1, rho ~ 0.5, |y|^2 = 2 -> 0.125/1.875 = 1/15
        p, age = find_age_with_rho(0.5, tol=2e-3)
        y = math.sqrt(2.0)
        assert sinr_gain(age, p) * abs(y) ** 2 == pytest.approx(1.0 / 15.0, abs=1e-3)

    def test_zero_correlation_zero_sinr(self):
        p, age = find_age_with_rho(0.0, tol=5e-3)
        assert sinr_gain(age, p) * abs(3.0 + 4.0j) ** 2 <= 1e-3

    def test_nondecreasing_in_y_magnitude(self, unit_params):
        vals = sinr_gain(2, unit_params) * np.abs(np.linspace(0, 10, 50) + 0j) ** 2
        assert np.all(np.diff(vals) >= 0)

    def test_age_zero_rejected(self, unit_params):
        with pytest.raises(ValueError):
            sinr_gain(0, unit_params)


class TestSinrGain:
    def test_hand_example_value(self):
        # previous example / |y|^2 = (1/15)/2 = 1/30
        p, age = find_age_with_rho(0.5, tol=2e-3)
        assert sinr_gain(age, p) == pytest.approx(1.0 / 30.0, abs=1e-3)

    def test_factorization_exact(self, rng):
        # sinr_gain == P_d * gain^2 / (P_d * error_variance + noise) bitwise,
        # for random operating points
        for _ in range(100):
            fd = float(rng.uniform(1.0, 400.0))
            p = LinkParams(pilot_power=float(rng.uniform(0.1, 5.0)),
                           data_power=float(rng.uniform(0.1, 5.0)),
                           noise_variance=float(rng.uniform(0.01, 2.0)),
                           channel_variance=float(rng.uniform(0.2, 3.0)),
                           doppler_hz=fd, sample_period=1e-3)
            age = int(rng.integers(1, 40))
            gain = mmse_gain(age, p)
            assert sinr_gain(age, p) == p.data_power * gain * gain / (
                p.data_power * error_variance(age, p) + p.noise_variance)

    def test_monotone_in_rho_magnitude(self):
        # at fixed powers, larger |rho| means larger sinr_gain
        base = dict(pilot_power=1.0, data_power=1.0, noise_variance=0.5,
                    channel_variance=1.0, sample_period=1e-3)
        points = []
        for fd in np.linspace(1.0, 100.0, 60):
            p = LinkParams(doppler_hz=float(fd), **base)
            points.append((abs(autocorrelation(3, p)), sinr_gain(3, p)))
        points.sort()
        gains = [g for _, g in points]
        assert all(b >= a - 1e-15 for a, b in zip(gains, gains[1:]))

    def test_sign_of_rho_irrelevant(self):
        # rho(10) < 0 at fd*Ts = 0.05; sinr_gain must depend on rho^2 only
        p = LinkParams(1.0, 1.0, 0.3, doppler_hz=50.0, sample_period=1e-3)
        rho = autocorrelation(10, p)
        assert rho < 0
        gain = mmse_gain(10, p)
        expected = p.data_power * gain * gain / (
            p.data_power * error_variance(10, p) + p.noise_variance)
        assert sinr_gain(10, p) == expected


class TestAgeArrays:
    def test_array_matches_scalar_ages(self, reference_params):
        ages = np.arange(0, 800)
        for fn, lowest in ((mmse_gain, 0), (error_variance, 0), (sinr_gain, 1)):
            valid = ages[ages >= lowest]
            got = fn(valid, reference_params)
            assert np.array_equal(got, [fn(int(a), reference_params) for a in valid])

    def test_invalid_age_in_array_rejected(self, unit_params):
        with pytest.raises(ValueError, match="data slot"):
            sinr_gain(np.array([1, 2, 0]), unit_params)
        with pytest.raises(ValueError):
            mmse_gain(np.array([0, -1]), unit_params)


class TestStatisticalProperties:
    def test_orthogonality_monte_carlo(self, reference_params):
        rng = np.random.default_rng(11)
        n = 1_000_000
        age = 3
        h_past, h_now = draw_joint_channel_pair(reference_params, age, n, rng)
        noise = math.sqrt(reference_params.noise_variance / 2.0) * (
            rng.standard_normal(n) + 1j * rng.standard_normal(n))
        y = math.sqrt(reference_params.pilot_power) * h_past + noise
        est = mmse_gain(age, reference_params) * y
        err = h_now - est
        cross = est * np.conj(err)
        se = math.sqrt((cross.real.var(ddof=1) + cross.imag.var(ddof=1)) / n)
        assert abs(complex(cross.mean())) <= 3 * se

    def test_variance_decomposition(self, reference_params):
        # E[estimate_variance] + error_variance = rho0, over the pilot draw
        rng = np.random.default_rng(19)
        n = 400_000
        age = 2
        h_past, _ = draw_joint_channel_pair(reference_params, age, n, rng)
        noise = math.sqrt(reference_params.noise_variance / 2.0) * (
            rng.standard_normal(n) + 1j * rng.standard_normal(n))
        y = math.sqrt(reference_params.pilot_power) * h_past + noise
        g = mmse_gain(age, reference_params)
        est_var = g * g * np.abs(y) ** 2
        total = est_var.mean() + error_variance(age, reference_params)
        se = est_var.std(ddof=1) / math.sqrt(n)
        assert total == pytest.approx(reference_params.channel_variance, abs=4 * se)

    def test_pilot_second_moment(self, reference_params):
        assert pilot_second_moment(reference_params) == (
            reference_params.pilot_power * reference_params.channel_variance
            + reference_params.noise_variance)
