import tracemalloc

import pytest

from oracles import mc_expected_goodput_full_outputs, orthogonality_metrics
from pilotsched import ExperimentConfig, LinkParams, build_reward_curve, default_mcs_table
from pilotsched.validation import (check_orthogonality, check_scheduler_triangle,
                                  mc_expected_goodput, solve_curve)


class TestCheckOrthogonality:
    @pytest.mark.parametrize("age, seed", [(3, 11), (1, 4), (40, 9)])
    def test_in_place_buffers_equal_the_temporaries(self, age, seed):
        params = LinkParams(pilot_power=2.0, data_power=1.0, noise_variance=0.05,
                            channel_variance=1.5, doppler_hz=30.0)
        result = check_orthogonality(params, age=age, n=100_003, seed=seed)
        want = orthogonality_metrics(params, age, 100_003, seed)
        assert result.metrics["stat"] == want["stat"]
        assert result.metrics["three_se"] == want["three_se"]


class TestSolveCurve:
    def test_period_99_on_250_ages(self):
        cfg = ExperimentConfig(snr_db=20.0, speed=0.02, delta_max=250)
        curve = build_reward_curve(cfg.link_params(), default_mcs_table(), cfg.delta_max)
        assert solve_curve(curve).period == 99
        result = check_scheduler_triangle(curve, count=0)
        assert result.passed

    def test_curve_too_short_names_delta_max(self):
        # the optimal period at 0.005 mph is 247, beyond the 100 tabulated ages
        cfg = ExperimentConfig(snr_db=20.0, speed=0.005, delta_max=100)
        curve = build_reward_curve(cfg.link_params(), default_mcs_table(), cfg.delta_max)
        with pytest.raises(ValueError, match="delta_max"):
            check_scheduler_triangle(curve, count=0)

    def test_static_channel_names_speed(self):
        # a static channel's curve is flat, so no length of it would hold an
        # optimal period
        cfg = ExperimentConfig(snr_db=20.0, speed=0.0, delta_max=100)
        curve = build_reward_curve(cfg.link_params(), default_mcs_table(), cfg.delta_max)
        with pytest.raises(ValueError, match=r"static channel \(speed 0\)") as info:
            check_scheduler_triangle(curve, count=0)
        assert "delta_max" not in str(info.value)


class TestMonteCarloOracle:
    @pytest.mark.parametrize("n_samples", [1, 65_537, 2_000_003])
    def test_goodput_only_selection_equals_the_full_outputs(self, n_samples):
        # three chunks at 2_000_003 draws, the last of three points
        table = default_mcs_table()
        for snr_db, speed, age in [(20.0, 15.0, 5), (3.0, 40.0, 1), (35.0, 2.0, 30)]:
            params = ExperimentConfig(snr_db=snr_db, speed=speed).link_params()
            assert (mc_expected_goodput(age, params, table, n_samples, seed=age)
                    == mc_expected_goodput_full_outputs(age, params, table, n_samples, age))

    def test_peak_memory_at_a_million_samples(self):
        # the draws, turned into their SINRs and then the squared goodputs in
        # place, and the goodputs are 16 MB; selection adds one block's
        # working arrays (19.6 MB measured, 44.6 MB with all three selection
        # outputs and a fresh array per step)
        params = ExperimentConfig(snr_db=20.0, speed=15.0).link_params()
        table = default_mcs_table()
        mc_expected_goodput(5, params, table, 1_000, seed=1)  # warm caches
        tracemalloc.start()
        try:
            mc_expected_goodput(5, params, table, 1_000_000, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 24e6
