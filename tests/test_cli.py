import csv
import json
import math

import numpy as np
import pytest

from pilotsched import ExperimentConfig, load_config
from pilotsched.cli import main


def write_config(tmp_path, name="config.json", **overrides):
    doc = {
        "snr_db": 20.0,
        "speed": 15,
        "speed_unit": "mph",
        "delta_max": 120,
        "tau_max": 64,
        "horizon": 5000,
        "seeds": [1],
        "snr_grid_db": [0.0, 20.0],
        "speed_grid_mph": [10.0, 30.0],
    }
    doc.update(overrides)
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def read_csv(path):
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        rows = list(reader)
    return header, rows


class TestConfig:
    def test_defaults_apply(self, tmp_path):
        path = tmp_path / "min.json"
        path.write_text("{}")
        cfg = load_config(path)
        assert cfg.snr_db == 20.0
        assert cfg.noise_variance is None
        assert cfg.link_params().noise_variance == pytest.approx(0.01)

    def test_both_snr_and_noise_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"snr_db": 10.0, "noise_variance": 0.5}')
        with pytest.raises(ValueError, match="exactly one"):
            load_config(path)

    def test_unknown_key_named(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"snr_dbx": 10.0}')
        with pytest.raises(ValueError, match="snr_dbx"):
            load_config(path)

    def test_bad_speed_unit_named(self, tmp_path):
        path = write_config(tmp_path, speed_unit="kph")
        with pytest.raises(ValueError, match="speed_unit"):
            load_config(path)

    @pytest.mark.parametrize("overrides,command,field", [
        ({"seeds": 3}, ["simulate"], "seeds"),
        ({"seeds": [1.5]}, ["simulate", "--mode", "realized"], "seeds"),
        ({"seeds": [-1]}, ["simulate", "--mode", "realized"], "seeds"),
        ({"snr_db": "20"}, ["simulate"], "snr_db"),
        ({"snr_grid_db": ["x"]}, ["sweep-snr"], "snr_grid_db"),
        ({"delta_max": 20.5, "tau_max": 10}, ["goodput-curve"], "delta_max"),
    ])
    def test_mistyped_value_names_field(self, tmp_path, capsys, overrides, command, field):
        cfg = write_config(tmp_path, **overrides)
        out = tmp_path / "out"
        assert main(command + ["--config", str(cfg), "--out", str(out)]) == 2
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["goodput-curve", "solve", "sweep-snr",
                                         "sweep-mobility", "simulate", "validate"])
    def test_seed_override_validated(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out), "--seed", "-1"]) == 2
        assert "seeds" in capsys.readouterr().err

    def test_mph_conversion(self):
        cfg = ExperimentConfig(snr_db=20.0, speed=10.0, speed_unit="mph")
        assert cfg.speed_mps == 10 * 0.44704

    def test_snr_to_noise_conversion(self):
        cfg = ExperimentConfig(snr_db=10.0)
        assert cfg.noise_variance_linear() == pytest.approx(0.1)

    def test_explicit_noise_used(self):
        cfg = ExperimentConfig(noise_variance=0.25)
        assert cfg.link_params().noise_variance == 0.25


class TestGoodputCurveCommand:
    def test_row_count_and_schema(self, tmp_path):
        cfg = write_config(tmp_path, delta_max=25, tau_max=10)
        out = tmp_path / "out"
        assert main(["goodput-curve", "--config", str(cfg), "--out", str(out)]) == 0
        header, rows = read_csv(out / "goodput_curve.csv")
        assert header == ["age", "reward"]
        assert len(rows) == 25
        assert [int(r[0]) for r in rows] == list(range(1, 26))

    def test_static_channel_constant_curve(self, tmp_path):
        cfg = write_config(tmp_path, speed=0, delta_max=10, tau_max=4)
        out = tmp_path / "out"
        assert main(["goodput-curve", "--config", str(cfg), "--out", str(out)]) == 0
        _, rows = read_csv(out / "goodput_curve.csv")
        vals = {r[1] for r in rows}
        assert len(vals) == 1

    def test_round_trips_through_loader(self, tmp_path):
        from pilotsched import load_reward_curve
        cfg = write_config(tmp_path, delta_max=15, tau_max=6)
        out = tmp_path / "out"
        main(["goodput-curve", "--config", str(cfg), "--out", str(out)])
        curve = load_reward_curve(out / "goodput_curve.csv")
        assert len(curve) == 15


class TestSolveCommand:
    def test_synthetic_hand_curve(self, tmp_path):
        reward = tmp_path / "r.csv"
        lines = ["age,reward"] + [f"{a},{1.0 if a <= 3 else 0.0}" for a in range(1, 21)]
        reward.write_text("\n".join(lines) + "\n")
        cfg = write_config(tmp_path, reward_csv=str(reward))
        out = tmp_path / "out"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "solve.json").read_text())
        assert report["beta"] == 0.75
        assert report["period"] == 4
        assert report["consistent"] is True

    def test_all_zero_curve(self, tmp_path):
        reward = tmp_path / "r.csv"
        lines = ["age,reward"] + [f"{a},0.0" for a in range(1, 21)]
        reward.write_text("\n".join(lines) + "\n")
        cfg = write_config(tmp_path, reward_csv=str(reward))
        out = tmp_path / "out"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "solve.json").read_text())
        assert report["beta"] == 0.0
        assert report["period"] == 1

    @pytest.mark.parametrize("row", ["2", "2,abc", "2,1.0,9"])
    def test_malformed_reward_row_named(self, tmp_path, capsys, row):
        reward = tmp_path / "r.csv"
        reward.write_text(f"age,reward\n1,1.0\n{row}\n")
        cfg = write_config(tmp_path, reward_csv=str(reward))
        out = tmp_path / "out"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 2
        assert f"{reward} row 3: malformed row" in capsys.readouterr().err

    def test_rejected_reward_value_names_file(self, tmp_path, capsys):
        reward = tmp_path / "r.csv"
        reward.write_text("age,reward\n1,1.0\n2,nan\n")
        cfg = write_config(tmp_path, reward_csv=str(reward))
        out = tmp_path / "out"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 2
        assert f"{reward}: reward values must be finite" in capsys.readouterr().err

    def test_physical_point_consistent(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "solve.json").read_text())
        assert report["max_deviation"] <= 1e-6

    def test_slow_fading_period_beyond_200_ages_consistent(self, tmp_path):
        # both oracles must reach period 247, past the 200 ages they once stopped at
        cfg = write_config(tmp_path, speed=0.005, delta_max=600, tau_max=512)
        out = tmp_path / "out"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "solve.json").read_text())
        assert report["period"] == 247
        assert report["consistent"] is True

    def test_long_period_curve_consistent(self, tmp_path):
        # r(a) = 1 - (a/9129)^2 peaks its cycle average at period 500, where value
        # iteration over 1200 ages needs about 600,000 sweeps to converge
        reward = tmp_path / "r.csv"
        lines = ["age,reward"] + [f"{a},{1.0 - (a / 9129) ** 2!r}" for a in range(1, 1201)]
        reward.write_text("\n".join(lines) + "\n")
        cfg = write_config(tmp_path, reward_csv=str(reward), delta_max=1200, tau_max=512)
        out = tmp_path / "out"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "solve.json").read_text())
        assert report["period"] == 500
        assert report["oracles"]["brute_force_period"] == 500
        assert report["consistent"] is True

    def test_static_channel_names_delta_max(self, tmp_path, capsys):
        # on a constant curve no pilot period pays off, so the bisection has no root
        cfg = write_config(tmp_path, speed=0)
        out = tmp_path / "out"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 2
        assert "delta_max" in capsys.readouterr().err

    def test_rerun_bit_identical(self, tmp_path):
        cfg = write_config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["solve", "--config", str(cfg), "--out", str(out1)])
        main(["solve", "--config", str(cfg), "--out", str(out2)])
        assert (out1 / "solve.json").read_bytes() == (out2 / "solve.json").read_bytes()


class TestSweepCommands:
    def test_snr_sweep_schema_and_ordering(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["sweep-snr", "--config", str(cfg), "--out", str(out)]) == 0
        header, rows = read_csv(out / "sweep_snr.csv")
        assert header == ["snr_db", "policy", "avg_goodput", "pilot_fraction"]
        assert len(rows) == 4  # 2 grid points x 2 policies
        snrs = [float(r[0]) for r in rows]
        assert snrs == sorted(snrs)

    def test_snr_sweep_dominance_and_monotonicity(self, tmp_path):
        cfg = write_config(tmp_path, snr_grid_db=[-5.0, 10.0, 25.0], horizon=20000)
        out = tmp_path / "out"
        main(["sweep-snr", "--config", str(cfg), "--out", str(out)])
        _, rows = read_csv(out / "sweep_snr.csv")
        by_policy = {}
        for snr, policy, goodput, frac in rows:
            by_policy.setdefault(policy, []).append((float(snr), float(goodput)))
        for policy, pts in by_policy.items():
            vals = [g for _, g in sorted(pts)]
            assert all(b >= a - 1e-3 for a, b in zip(vals, vals[1:])), policy
        for (s1, g_thr), (s2, g_per) in zip(sorted(by_policy["threshold"]),
                                            sorted(by_policy["periodic-2"])):
            assert g_thr >= g_per - 1e-3

    def test_mobility_sweep_schema(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["sweep-mobility", "--config", str(cfg), "--out", str(out)]) == 0
        header, rows = read_csv(out / "sweep_mobility.csv")
        assert header == ["speed_mph", "policy", "avg_goodput", "period"]
        assert len(rows) == 4
        thr_rows = sorted((float(r[0]), int(r[3])) for r in rows if r[1] == "threshold")
        assert all(p >= 1 for _, p in thr_rows)
        # faster fading refreshes pilots at least as often
        periods = [p for _, p in thr_rows]
        assert all(b <= a for a, b in zip(periods, periods[1:]))

    def test_mobility_excessive_speed_names_point(self, tmp_path):
        # 15000 mph at 2.4 GHz pushes fd*Ts past 0.5
        cfg = write_config(tmp_path, speed_grid_mph=[10.0, 15000.0])
        out = tmp_path / "out"
        code = main(["sweep-mobility", "--config", str(cfg), "--out", str(out)])
        assert code == 2

    def test_empty_grid_rejected(self, tmp_path):
        cfg = write_config(tmp_path, snr_grid_db=[])
        out = tmp_path / "out"
        assert main(["sweep-snr", "--config", str(cfg), "--out", str(out)]) == 2

    def test_rerun_bit_identical(self, tmp_path):
        cfg = write_config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["sweep-snr", "--config", str(cfg), "--out", str(out1)])
        main(["sweep-snr", "--config", str(cfg), "--out", str(out2)])
        assert (out1 / "sweep_snr.csv").read_bytes() == (out2 / "sweep_snr.csv").read_bytes()

    def test_parallel_workers_same_output(self, tmp_path):
        cfg = write_config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["sweep-snr", "--config", str(cfg), "--out", str(out1)])
        main(["sweep-snr", "--config", str(cfg), "--out", str(out2), "--workers", "2"])
        assert (out1 / "sweep_snr.csv").read_bytes() == (out2 / "sweep_snr.csv").read_bytes()


class TestSimulateCommand:
    def test_threshold_simulation(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out),
                     "--seed", "5"]) == 0
        doc = json.loads((out / "simulate.json").read_text())
        assert doc["policy"] == "threshold"
        assert doc["seed"] == 5
        assert doc["horizon"] == 5000
        assert sum(doc["age_histogram"].values()) == 5000
        assert abs(doc["avg_goodput"] - doc["beta"]) <= 10 * doc["period"] / 5000

    def test_periodic_simulation_realized(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out),
                     "--policy", "periodic:4", "--mode", "realized", "--seed", "2"]) == 0
        doc = json.loads((out / "simulate.json").read_text())
        assert doc["period"] == 4
        assert doc["mode"] == "realized"
        assert doc["pilot_fraction"] == pytest.approx(0.25, abs=1e-3)

    def test_threshold_index_window_clamped(self, tmp_path):
        # tau_max 200 would leave only ages 1..51 to scan; clamped to 125 it reaches 99
        cfg = write_config(tmp_path, speed=0.02, delta_max=250, tau_max=200)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        doc = json.loads((out / "simulate.json").read_text())
        assert doc["period"] == 99

    def test_unknown_policy_rejected(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        for policy in ("greedy", "periodic:0"):
            assert main(["simulate", "--config", str(cfg), "--out", str(out),
                         "--policy", policy]) == 2


class TestValidateCommand:
    def test_default_point_all_checks_pass(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["validate", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "validate.json").read_text())
        assert report["all_passed"] is True
        assert len(report["checks"]) == 4
        assert capsys.readouterr().out.count("PASS") == 4

    def test_rerun_bit_identical(self, tmp_path):
        cfg = write_config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["validate", "--config", str(cfg), "--out", str(out1)])
        main(["validate", "--config", str(cfg), "--out", str(out2)])
        assert (out1 / "validate.json").read_bytes() == \
            (out2 / "validate.json").read_bytes()

    def test_corrupted_bler_table_names_cqi(self, tmp_path, capsys):
        bad = tmp_path / "bad_bler.csv"
        bad.write_text("cqi,snr_db,bler\n4,0.0,0.5\n4,5.0,0.9\n")
        cfg = write_config(tmp_path, bler_table=str(bad))
        out = tmp_path / "out"
        code = main(["validate", "--config", str(cfg), "--out", str(out)])
        assert code == 1
        report = json.loads((out / "validate.json").read_text())
        assert report["all_passed"] is False
        assert any("cqi 4" in c["detail"] for c in report["checks"])
        assert "FAIL" in capsys.readouterr().out
