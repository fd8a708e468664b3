import pytest

from pilotsched import ExperimentConfig, build_reward_curve, default_mcs_table
from pilotsched.validation import check_scheduler_triangle, solve_clamped


class TestSolveClamped:
    def test_index_window_clamped_to_half_the_curve(self):
        # optimal period 99 at 0.02 mph: tau_max 200 on 250 ages would leave
        # only ages 1..51 to scan; clamped to 125 the scan reaches 99
        cfg = ExperimentConfig(snr_db=20.0, speed=0.02, delta_max=250, tau_max=200)
        curve = build_reward_curve(cfg.link_params(), default_mcs_table(), cfg.delta_max)
        assert solve_clamped(curve, cfg.tau_max).period == 99
        result = check_scheduler_triangle(curve, physical_tau_max=cfg.tau_max, count=0)
        assert result.passed

    def test_curve_too_short_names_delta_max(self):
        cfg = ExperimentConfig(snr_db=20.0, speed=0.0, delta_max=100, tau_max=50)
        curve = build_reward_curve(cfg.link_params(), default_mcs_table(), cfg.delta_max)
        # rounding in the constant curve's prefix sums sends some window
        # argmaxes to tau_max; the index reports them in one warning
        with pytest.warns(RuntimeWarning, match="argmax hit tau_max"), \
                pytest.raises(ValueError, match="delta_max"):
            check_scheduler_triangle(curve, physical_tau_max=cfg.tau_max, count=0)
