import math
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings, strategies as st

import pilotsched.channel as channel
from oracles import (bessel_j0_unblocked, embedding_weights, fading_trace_strided,
                     fading_trace_unstrided, j0_series)
from pilotsched import (FadingTrace, LinkParams, autocorrelation, bessel_j0,
                        empirical_autocorrelation, generate_fading_trace)

J0_FIRST_ZEROS = [2.404825557695773, 5.520078110286311, 8.653727912911012,
                  11.791534439014281, 14.930917708487786]


# The synthesis splits the oracles' one m-point inverse transform in two of
# m/2 points, so its samples differ from theirs by rounding only: at most
# 2e-15 of the rms in these tests, bounded here with room to spare.
ROUNDING = 1e-13


def assert_within_rounding(got, want):
    assert got.shape == want.shape
    rms = math.sqrt(float(np.mean(np.abs(want) ** 2)))
    assert np.max(np.abs(got - want)) <= ROUNDING * rms


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

    def test_blocks_equal_the_unblocked_evaluation(self):
        # more than three blocks, all three branches with their boundaries
        # 1e-5 and 5.0 and the floats next to them, negative arguments
        rng = np.random.default_rng(23)
        edges = [0.0, -0.0, 1e-5, -1e-5, 5.0, -5.0]
        edges += [np.nextafter(e, s) for e in (1e-5, 5.0) for s in (0.0, np.inf)]
        x = np.concatenate([rng.uniform(-1e-4, 1e-4, 5000), rng.uniform(-6.0, 6.0, 20000),
                            rng.uniform(-1e4, 1e4, 10000), edges])
        rng.shuffle(x)
        assert x.size > 3 * channel._J0_BLOCK
        assert np.array_equal(bessel_j0(x), bessel_j0_unblocked(x))
        grid = x[:4 * channel._J0_BLOCK].reshape(64, -1)
        assert np.array_equal(bessel_j0(grid), bessel_j0_unblocked(grid))
        for scalar in (0.0, 3e-6, -2.5, 5.0, 40.0):
            assert bessel_j0(scalar) == bessel_j0_unblocked(scalar)


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

    def test_shared_weights_computed_once_per_key(self, flat_params, monkeypatch):
        # traces that differ only in seed read one stored weight set, and
        # their samples are those of unshared calls bit for bit
        want = {(seed, stride): generate_fading_trace(flat_params, 3000, seed, stride).samples
                for seed in (1, 2) for stride in (1, 3)}
        computed = []
        spectral_weights = channel._spectral_weights

        def counting_weights(params, stride, out):
            computed.append((stride, out.size))
            spectral_weights(params, stride, out)

        monkeypatch.setattr(channel, "_spectral_weights", counting_weights)
        shared = {}
        for (seed, stride), samples in want.items():
            got = generate_fading_trace(flat_params, 3000, seed, stride, shared_weights=shared)
            assert got.samples.tobytes() == samples.tobytes()
        assert computed == [(1, 8192), (3, 8192)]
        assert set(shared) == {(flat_params, 1, 8192), (flat_params, 3, 8192)}

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

    @pytest.mark.parametrize("doppler_hz", [0.0, 50.0, 450.0])
    @pytest.mark.parametrize("length", [1, 3, 1000, 4097])
    def test_unit_stride_is_the_unstrided_synthesis(self, doppler_hz, length):
        p = LinkParams(1.0, 1.0, 1.0, channel_variance=2.5, doppler_hz=doppler_hz,
                       sample_period=1e-3)
        for seed in (0, 11):
            want = fading_trace_unstrided(p, length, seed).samples
            got = generate_fading_trace(p, length, seed).samples
            assert_within_rounding(got, want)
            assert generate_fading_trace(p, length, seed, stride=1).samples.tobytes() == \
                got.tobytes()

    @pytest.mark.parametrize("doppler_hz, stride", [(5.0, 1), (50.0, 1), (450.0, 1),
                                                    (50.0, 3), (50.0, 12), (450.0, 3)])
    @pytest.mark.parametrize("m", [1 << 3, 1 << 17])
    def test_real_transform_within_1e_15_of_the_complex_fft(self, doppler_hz, stride, m):
        # the spectral weights come from the real transform of the half
        # covariance; the complex FFT of the whole even circle is the textbook
        # form.  At 50 Hz x 12 and 450 Hz x 3 the lattice aliases.
        p = LinkParams(1.0, 1.0, 1.0, doppler_hz=doppler_hz, sample_period=1e-3)
        r = autocorrelation(stride * np.arange(m // 2 + 1), p)
        cov = np.concatenate([r, r[-2:0:-1]])
        want = np.fft.fft(cov).real
        assert np.max(np.abs(np.fft.hfft(r, m) - want)) <= 1e-15 * np.max(np.abs(want))
        # the synthesis writes it with irfft, which can take an output array
        assert np.array_equal(np.fft.irfft(r, m, norm="forward"), np.fft.hfft(r, m))

    @pytest.mark.parametrize("doppler_hz, stride", [(50.0, 2), (50.0, 3), (50.0, 12),
                                                    (450.0, 3)])
    def test_strided_autocovariance_matches_jakes_at_multiples(self, doppler_hz, stride):
        # the trace read every `stride` slots has autocovariance rho(stride * d);
        # at 50 Hz x 12 and 450 Hz x 3 the lattice's normalized Doppler is
        # 0.6 and 1.35, beyond 0.5, so its spectrum aliases
        p = LinkParams(1.0, 1.0, 1.0, doppler_hz=doppler_hz, sample_period=1e-3)
        t = generate_fading_trace(p, 500_000, seed=7, stride=stride)
        emp = empirical_autocorrelation(t, 20)
        theory = autocorrelation(stride * np.arange(21), p)
        rmse = math.sqrt(float(np.mean((emp - theory) ** 2)))
        assert rmse <= 0.02 * p.channel_variance

    def test_strided_static_channel_constant_trace(self):
        p = LinkParams(1.0, 1.0, 1.0, doppler_hz=0.0)
        t = generate_fading_trace(p, 200, seed=5, stride=7)
        assert np.array_equal(t.samples, generate_fading_trace(p, 200, seed=5).samples)

    def test_zero_stride_rejected(self, flat_params):
        with pytest.raises(ValueError, match="stride"):
            generate_fading_trace(flat_params, 100, seed=1, stride=0)

    @pytest.mark.parametrize("doppler_hz", [0.0, 50.0, 450.0])
    @pytest.mark.parametrize("stride", [1, 2, 3, 12])
    def test_one_array_synthesis_equals_the_strided_oracle(self, doppler_hz, stride):
        # 40,000 samples embed in 2^17 points, eight draw blocks per part;
        # at 50 Hz x 12 and 450 Hz x 2, 3 and 12 the lattice aliases
        p = LinkParams(1.0, 1.0, 1.0, channel_variance=2.5, doppler_hz=doppler_hz,
                       sample_period=1e-3)
        for length in (1, 3, 1000, 40_000):
            for seed in (0, 11):
                want = fading_trace_strided(p, length, seed, stride).samples
                got = generate_fading_trace(p, length, seed, stride=stride).samples
                assert_within_rounding(got, want)

    @pytest.mark.parametrize("doppler_hz, stride", [(5.0, 1), (50.0, 1), (450.0, 1),
                                                    (50.0, 3), (50.0, 12), (450.0, 3)])
    @pytest.mark.parametrize("m", [1 << 2, 1 << 3, 1 << 14, 1 << 15, 1 << 17])
    def test_spectral_weights_equal_the_oracle(self, monkeypatch, doppler_hz, stride, m):
        # the half covariance is computed block by block (m/2 + 1 lags: one
        # point past a block edge at 2^15), each lag as `autocorrelation` does
        p = LinkParams(1.0, 1.0, 1.0, channel_variance=2.5, doppler_hz=doppler_hz,
                       sample_period=1e-3)
        want = embedding_weights(p, m, stride)
        for block in (channel._J0_BLOCK, 37):
            monkeypatch.setattr(channel, "_J0_BLOCK", block)
            got = np.empty(m)
            channel._spectral_weights(p, stride, got)
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("stride", [1, 2, 3, 12])
    def test_split_transform_equals_the_whole_inverse_fft(self, flat_params, stride):
        # every embedding size from 4 to 2^18, each at the shortest and the
        # longest trace it holds (m/4 + 1 and m/2 samples; 1 at m = 4); at
        # stride 12 the 50 Hz lattice aliases (P * f_d * T_s = 0.6)
        rng = np.random.default_rng(stride)
        for bits in range(2, 19):
            m = 1 << bits
            weights = np.empty(m)
            channel._spectral_weights(flat_params, stride, weights)
            w = weights * (rng.standard_normal(m) + 1j * rng.standard_normal(m))
            want = np.fft.ifft(w)
            for length in {m // 4 + 1, m // 2} if m > 4 else {1, 2}:
                assert_within_rounding(channel._ifft_head(w.copy(), length), want[:length])

    @pytest.mark.parametrize("block", [4, 64, 1 << 11])
    @pytest.mark.parametrize("stride", [1, 3])
    def test_samples_do_not_depend_on_the_split_block(self, monkeypatch, flat_params,
                                                       block, stride):
        # blocks shorter than the small twiddle table's rows, and longer;
        # m/2 from 2 to 2^16, so also a single block shorter than the patch
        lengths = (1, 3, 700, 40_000, 1 << 15)
        want = [generate_fading_trace(flat_params, n, 5, stride=stride).samples
                for n in lengths]
        monkeypatch.setattr(channel, "_SPLIT_BLOCK", block)
        for n, samples in zip(lengths, want):
            assert generate_fading_trace(flat_params, n, 5, stride=stride).samples.tobytes() \
                == samples.tobytes()

    @given(st.floats(0.0, 0.5, exclude_max=True), st.integers(1, 12), st.integers(1, 5_000),
           st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_any_admitted_doppler_is_finite_deterministic_and_near_the_oracle(
            self, doppler, stride, length, seed):
        # normalized Doppler doppler_hz * sample_period, exactly `doppler`
        p = LinkParams(1.0, 1.0, 1.0, doppler_hz=doppler, sample_period=1.0)
        got = generate_fading_trace(p, length, seed, stride=stride).samples
        assert np.all(np.isfinite(got))
        assert generate_fading_trace(p, length, seed, stride=stride).samples.tobytes() == \
            got.tobytes()
        assert_within_rounding(got, fading_trace_strided(p, length, seed, stride).samples)

    @pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
    def test_rss_rise_per_embedding_point(self, run_python):
        # a fresh process, so the high-water mark is this trace's, about 32 B
        # per point, reached both by the weights phase (half covariance,
        # weights, the m-point irfft's buffers) and by the transform (w and
        # pocketfft's buffers for an m/2-point transform); ROADMAP item 7
        # holds the measurements
        probe = """
import numpy as np
from pilotsched import LinkParams, generate_fading_trace

def status(key):
    with open("/proc/self/status") as fh:
        return next(int(line.split()[1]) for line in fh if line.startswith(key))

p = LinkParams(1.0, 1.0, 1.0, doppler_hz=50.0)
generate_fading_trace(p, 1000, seed=1)
before = status("VmRSS:")
generate_fading_trace(p, 1 << 17, seed=2)
print((status("VmHWM:") - before) * 1024)
"""
        assert int(run_python(probe)) <= 34 * (1 << 18)

    @pytest.mark.parametrize("stride", [1, 3])
    def test_peak_memory_per_embedding_point(self, flat_params, stride):
        # the weights (8 bytes per point) and the embedding-size array w (16)
        # are allocated once each, and the trace copied out of w: 25.0 bytes
        # per point at the peak, while both are live; the split pass's block
        # arrays are gone before the trace is (`tracemalloc` does not see
        # pocketfft's own working buffers)
        length = 1 << 17
        points = 1 << (2 * length - 1).bit_length()
        generate_fading_trace(flat_params, length, seed=1, stride=stride)  # warm caches
        tracemalloc.start()
        try:
            generate_fading_trace(flat_params, length, seed=2, stride=stride)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 26 * points

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
