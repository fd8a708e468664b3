import concurrent.futures
import csv
import dataclasses
import importlib.util
import json
import os
import re
from pathlib import Path

import numpy as np
import pytest

import pilotsched.channel as channel
import pilotsched.cli as cli
import pilotsched.link_adaptation as link_adaptation
import pilotsched.simulation as simulation
from pilotsched import SPEED_OF_LIGHT, ExperimentConfig, load_config, run_policy
from pilotsched.cli import main


def write_config(tmp_path, name="config.json", **overrides):
    doc = {
        "snr_db": 20.0,
        "speed": 15,
        "speed_unit": "mph",
        "delta_max": 120,
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
        ({"delta_max": 20.5}, ["goodput-curve"], "delta_max"),
    ])
    def test_mistyped_value_names_field(self, tmp_path, capsys, overrides, command, field):
        cfg = write_config(tmp_path, **overrides)
        out = tmp_path / "out"
        assert main(command + ["--config", str(cfg), "--out", str(out)]) == 2
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("overrides,argv,named", [
        ({"reward_csv": 7}, ["solve"], "reward_csv"),
        ({"mcs_config": 9}, ["goodput-curve"], "mcs_config"),
        ({"bler_table": None}, ["goodput-curve"], "bler_table"),
        ({"output_dir": 5}, ["goodput-curve"], "output_dir"),
        ({"speed_unit": 1}, ["goodput-curve"], "speed_unit"),
        ({}, ["goodput-curve", "--config", "{tmp}/absent_config.json"], "absent_config.json"),
        ({}, ["solve", "--config", "{tmp}/a_dir"], "a_dir"),
        ({"mcs_config": "{tmp}/absent_rates.json"}, ["goodput-curve"], "absent_rates.json"),
        # the rate config is read first, so its fault is the one named
        ({"mcs_config": "{tmp}/absent_rates.json", "bler_table": "{tmp}/a_dir"},
         ["goodput-curve"], "absent_rates.json"),
        ({"bler_table": "{tmp}/a_dir"}, ["goodput-curve"], "a_dir"),
        ({"reward_csv": "{tmp}/absent_reward.csv"}, ["solve"], "absent_reward.csv"),
        ({}, ["simulate", "--policy", "periodic:abc"],
         "--policy 'periodic:abc': use 'threshold' or 'periodic:<p>' with an integer p >= 1"),
        ({}, ["goodput-curve", "--config", "{tmp}/utf16.json"],
         "utf16.json: cannot read config as UTF-8"),
        ({"mcs_config": "{tmp}/utf16.json"}, ["goodput-curve"],
         "utf16.json: cannot read rate config as UTF-8"),
        ({"bler_table": "{tmp}/utf16.csv"}, ["goodput-curve"],
         "utf16.csv: cannot read BLER table as UTF-8"),
        ({"reward_csv": "{tmp}/utf16.csv"}, ["solve"],
         "utf16.csv: cannot read reward curve as UTF-8"),
        ({"snr_db": 1e300}, ["solve"], "snr_db 1e+300 gives no finite positive noise variance"),
        ({"snr_db": -1e300}, ["solve"], "snr_db -1e+300 gives no finite positive noise"),
        ({"snr_db": -3300}, ["simulate"], "snr_db -3300 gives no finite positive noise"),
        ({"snr_grid_db": [0.0, 1e300]}, ["sweep-snr"], "error: snr_db 1e+300: snr_db 1e+300"),
        ({}, ["sweep-snr", "--workers", "0"], "--workers must be >= 1, got 0"),
        ({"quad_nodes": 4}, ["solve"], "quad_nodes must be from 8 to 1024, got 4"),
        ({"quad_nodes": 4}, ["validate"], "quad_nodes must be from 8 to 1024, got 4"),
        ({"reward_csv": "{tmp}/huge_field.csv"}, ["solve"],
         "huge_field.csv row 2: cannot parse reward curve (field larger than field limit"),
        ({"bler_table": "{tmp}/huge_field.csv"}, ["goodput-curve"],
         "huge_field.csv row 2: cannot parse BLER table (field larger than field limit"),
        ({"speed": 0}, ["validate"], "as on a static channel (speed 0)"),
        ({"delta_max": 5, "speed": 0.15}, ["validate"],
         "no pilot period found within the 5 tabulated ages (delta_max)"),
        # one age is flat by itself, and says nothing of the channel
        ({"delta_max": 1}, ["solve"],
         "no pilot period found within the 1 tabulated ages (delta_max)"),
        ({"delta_max": 1}, ["simulate"], "no pilot period found within the 1 tabulated ages"),
        ({"pilot_power": 0}, ["goodput-curve"], "pilot_power must be positive, got 0"),
        ({"data_power": 0}, ["solve"], "data_power must be positive, got 0"),
        ({"channel_variance": 0}, ["simulate"], "channel_variance must be positive, got 0"),
        ({"sample_period_s": 0}, ["validate"], "sample_period_s must be positive, got 0"),
        ({"carrier_hz": -1.0}, ["sweep-mobility"], "carrier_hz must be positive, got -1.0"),
        # rejected at load, before the reward curve is read
        ({"data_power": 0, "reward_csv": "{tmp}/absent_reward.csv"}, ["solve"],
         "data_power must be positive, got 0"),
        ({"delta_max": 1_000_001}, ["goodput-curve"],
         "delta_max must be at most 1000000, got 1000001"),
        ({"carrier_hz": 1e300}, ["solve"],
         "speed 15 mph, carrier_hz 1e+300 and sample_period_s 0.001: normalized Doppler"),
        ({"sample_period_s": 1}, ["simulate"],
         "speed 15 mph, carrier_hz 2400000000.0 and sample_period_s 1: normalized Doppler"),
        # positive powers whose product underflows: every field of the
        # noise variance is named
        ({"data_power": 1e-300, "channel_variance": 1e-300}, ["solve"],
         "snr_db 20.0 gives no finite positive noise variance with data_power 1e-300 "
         "and channel_variance 1e-300"),
        # rho0^2 overflows: the error variance would be -inf, and the curve 0
        ({"channel_variance": 1e300}, ["goodput-curve"],
         "channel_variance 1e+300 and pilot_power 1.0: P_p * rho0^2"),
        ({"channel_variance": 1e160}, ["solve"], "channel_variance 1e+160 and pilot_power 1.0"),
        ({"pilot_power": 1e300, "channel_variance": 1e10}, ["simulate"],
         "channel_variance 10000000000.0 and pilot_power 1e+300"),
        # P_p * rho0^2 is finite, but P_p * rho0 + noise_variance is not
        ({"pilot_power": 1.7e308, "channel_variance": 0.99, "data_power": 1e300,
          "snr_db": -71.0}, ["goodput-curve"],
         "channel_variance 0.99 and pilot_power 1.7e+308: P_p * rho0^2 or P_p * rho0 "
         "+ noise_variance overflows"),
    ])
    def test_bad_input_exits_2_naming_it(self, tmp_path, capsys, overrides, argv, named):
        # {tmp} is the test's directory, which holds a subdirectory a_dir, two
        # files that open with a UTF-16 byte-order mark, not UTF-8, and a CSV
        # whose second row has a field past the csv module's 131,072-character
        # limit; a --config in argv comes last and overrides the written one
        (tmp_path / "a_dir").mkdir()
        (tmp_path / "utf16.json").write_text("{}", encoding="utf-16")
        (tmp_path / "utf16.csv").write_text("age,reward\n1,0.5\n", encoding="utf-16")
        (tmp_path / "huge_field.csv").write_text("age,reward\n1," + "9" * 131_073 + "\n")

        def fill(value):
            return value.format(tmp=tmp_path) if isinstance(value, str) else value

        cfg = write_config(tmp_path, **{k: fill(v) for k, v in overrides.items()})
        args = [argv[0], "--config", str(cfg), "--out", str(tmp_path / "out")]
        assert main(args + [fill(a) for a in argv[1:]]) == 2
        assert named in capsys.readouterr().err

    def test_config_naming_every_field_loads(self, tmp_path):
        # the known keys are the dataclass fields, so a new field is one too
        doc = {f.name: getattr(ExperimentConfig(snr_db=20.0), f.name)
               for f in dataclasses.fields(ExperimentConfig)}
        doc.update(snr_db=None, noise_variance=0.01, reward_csv="r.csv")
        path = tmp_path / "every.json"
        path.write_text(json.dumps(doc))
        assert dataclasses.asdict(load_config(path)) == doc

    def test_retired_tau_max_key_loads(self, tmp_path):
        # tau_max once bounded the index window; configs that set it still load
        cfg = load_config(write_config(tmp_path, tau_max=512))
        assert not hasattr(cfg, "tau_max")
        assert cfg == load_config(write_config(tmp_path, name="plain.json"))

    def test_quad_nodes_ceiling_checked_before_allocation(self, tmp_path, capsys, monkeypatch):
        # Gauss-Legendre nodes at 10^5 would build a 74.5 GiB companion matrix
        def refuse(n):
            raise AssertionError(f"reached the {n}-node rule")

        monkeypatch.setattr("numpy.polynomial.legendre.leggauss", refuse)
        cfg = write_config(tmp_path, quad_nodes=100_000)
        assert main(["goodput-curve", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "quad_nodes must be from 8 to 1024, got 100000" in capsys.readouterr().err
        assert ExperimentConfig(snr_db=20.0, quad_nodes=1024).quad_nodes == 1024

    @pytest.mark.parametrize("command", ["sweep-snr", "sweep-mobility", "simulate"])
    def test_seed_override_validated(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out), "--seed", "-1"]) == 2
        assert "seeds" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["goodput-curve", "solve", "validate"])
    def test_seed_rejected_where_no_seed_is_read(self, tmp_path, capsys, command):
        # these commands draw nothing at random, so they take no --seed
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(cfg), "--out", str(out), "--seed", "1"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --seed 1" in capsys.readouterr().err
        assert not out.exists()

    def test_flags_exist_only_where_the_table_declares_them(self, tmp_path, capsys):
        declared = {name: {flag for flag, _ in flags} for name, _, flags in cli.COMMANDS}
        assert declared == {
            "goodput-curve": set(), "solve": set(), "validate": set(),
            "sweep-snr": {"--seed", "--mode", "--workers"},
            "sweep-mobility": {"--seed", "--mode", "--workers"},
            "simulate": {"--seed", "--mode", "--policy"},
        }
        values = {"--mode": "expected", "--workers": "1", "--policy": "threshold"}
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        for name, flags in declared.items():
            for flag, value in values.items():
                if flag in flags:
                    continue
                with pytest.raises(SystemExit) as exc:
                    main([name, "--config", str(cfg), "--out", str(out), flag, value])
                assert exc.value.code == 2
                assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
        assert not out.exists()

    def test_mph_conversion(self):
        cfg = ExperimentConfig(snr_db=20.0, speed=10.0, speed_unit="mph")
        assert cfg.speed_mps == 10 * 0.44704

    def test_snr_to_noise_conversion(self):
        cfg = ExperimentConfig(snr_db=10.0)
        assert cfg.noise_variance_linear() == pytest.approx(0.1)

    def test_explicit_noise_used(self):
        cfg = ExperimentConfig(noise_variance=0.25)
        assert cfg.link_params().noise_variance == 0.25


def exit_and_output(parse, argv, capsys) -> tuple:
    """(exit code, stdout, stderr) of `parse(argv)`, which must exit."""
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        parse(argv)
    return (exc.value.code, *capsys.readouterr())


class TestParser:
    """`main` builds only the subcommand its first argument names, yet every
    help, usage and error text equals that of the parser with all of them."""

    @pytest.mark.parametrize("argv", [["--help"], [], ["bogus"]]
                             + [[name, "--help"] for name, _, _ in cli.COMMANDS]
                             + [[name, "--bogus"] for name, _, _ in cli.COMMANDS])
    def test_texts_match_the_parser_of_every_command(self, capsys, argv):
        full = cli._parser(cli.COMMANDS)
        assert exit_and_output(main, argv, capsys) == exit_and_output(full.parse_args, argv,
                                                                      capsys)

    def test_help_lists_every_command(self, capsys):
        code, out, err = exit_and_output(main, ["--help"], capsys)
        assert code == 0 and err == ""
        for name, help_text, _ in cli.COMMANDS:
            assert re.search(rf"^ +{name} +{re.escape(help_text)}$", out, re.MULTILINE)

    def test_console_entry_reads_sys_argv(self, run_python, tmp_path):
        # the console script calls main() with no arguments
        cfg, out = write_config(tmp_path), tmp_path / "out"
        argv = ["pilotsched", "goodput-curve", "--config", str(cfg), "--out", str(out)]
        probe = f"import sys\nfrom pilotsched.cli import main\nsys.argv = {argv!r}\nmain()"
        assert run_python(probe) == f"wrote {out / 'goodput_curve.csv'}\n"


class TestDopplerFrequency:
    """The Doppler shift v * f_c / c that ExperimentConfig.link_params computes."""

    def test_zero_speed(self):
        cfg = ExperimentConfig(snr_db=20.0, speed=0.0, carrier_hz=5e9)
        assert cfg.link_params().doppler_hz == 0.0

    def test_reference_point_15mph(self):
        # 15 mph at 2.4 GHz: (15 * 0.44704) * 2.4e9 / 299792458
        cfg = ExperimentConfig(snr_db=20.0, speed=15, speed_unit="mph", carrier_hz=2.4e9)
        fd = cfg.link_params().doppler_hz
        assert fd == pytest.approx(53.6819375, abs=1e-4)
        assert fd == (15 * 0.44704) * 2.4e9 / 299792458.0

    def test_linear_in_speed(self):
        cfg = ExperimentConfig(snr_db=20.0, carrier_hz=2.4e9)
        f15 = cfg.link_params(speed_mph=15).doppler_hz
        f30 = cfg.link_params(speed_mph=30).doppler_hz
        assert f30 == pytest.approx(2 * f15, rel=1e-15)

    def test_exact_speed_of_light(self):
        assert SPEED_OF_LIGHT == 299_792_458.0

    def test_superluminal_rejected(self):
        cfg = ExperimentConfig(snr_db=20.0, speed=SPEED_OF_LIGHT, speed_unit="mps",
                               carrier_hz=1e9)
        with pytest.raises(ValueError, match=r"speed must be in \[0, c\)"):
            cfg.link_params()

    def test_negative_grid_speed_exits_2(self, tmp_path, capsys):
        cfg = write_config(tmp_path, speed_grid_mph=[10.0, -1.0])
        assert main(["sweep-mobility", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "speed_mph -1.0: speed must be in [0, c), got -1.0 mph" in capsys.readouterr().err


class TestGoodputCurveCommand:
    def test_row_count_and_schema(self, tmp_path):
        cfg = write_config(tmp_path, delta_max=25)
        out = tmp_path / "out"
        assert main(["goodput-curve", "--config", str(cfg), "--out", str(out)]) == 0
        header, rows = read_csv(out / "goodput_curve.csv")
        assert header == ["age", "reward"]
        assert len(rows) == 25
        assert [int(r[0]) for r in rows] == list(range(1, 26))

    def test_static_channel_constant_curve(self, tmp_path):
        cfg = write_config(tmp_path, speed=0, delta_max=10)
        out = tmp_path / "out"
        assert main(["goodput-curve", "--config", str(cfg), "--out", str(out)]) == 0
        _, rows = read_csv(out / "goodput_curve.csv")
        vals = {r[1] for r in rows}
        assert len(vals) == 1

    def test_round_trips_through_loader(self, tmp_path):
        from pilotsched import load_reward_curve
        cfg = write_config(tmp_path, delta_max=15)
        out = tmp_path / "out"
        main(["goodput-curve", "--config", str(cfg), "--out", str(out)])
        curve = load_reward_curve(out / "goodput_curve.csv")
        assert len(curve) == 15

    def test_write_csv_bytes_equal_csv_writer(self, tmp_path):
        header = ["snr_db", "policy", "avg_goodput", "period"]
        rows = [(0.0, "threshold", 1.25, 7), (-4.5, "periodic-2", float("inf"), 2),
                (1e-300, "threshold", 0.1 + 0.2, 600), (20.0, "periodic-2", 5e-324, 1),
                (np.float64(2.5), "threshold", np.float64(1 / 3), np.int64(12))]
        cli._write_csv(tmp_path / "one_write.csv", header, rows)
        with open(tmp_path / "writer.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(header)
            writer.writerows([repr(float(v)) if isinstance(v, float) else v for v in row]
                             for row in rows)
        assert ((tmp_path / "one_write.csv").read_bytes()
                == (tmp_path / "writer.csv").read_bytes())

    def test_goodput_curve_leaves_numpy_polynomial_unloaded(self, run_python, tmp_path):
        # the Gauss-Legendre rule is the package's own: importing
        # numpy.polynomial for it cost each process about 3 ms
        probe = ("import sys; from pilotsched.cli import main; "
                 f"main(['goodput-curve', '--out', {str(tmp_path)!r}]); "
                 "print('numpy.polynomial' in sys.modules)")
        assert run_python(probe).split()[-1] == "False"

    def test_goodput_curve_solves_no_eigenproblem(self, run_python, tmp_path):
        # the default 64-node rule is stored, so no eigvalsh runs for it; the
        # 63-node rule, from leggauss, shows that the count sees eigvalsh
        probe = ("import numpy.linalg; calls = []; real = numpy.linalg.eigvalsh\n"
                 "numpy.linalg.eigvalsh = lambda *a: calls.append(1) or real(*a)\n"
                 "from pilotsched.cli import main; from pilotsched import link_adaptation\n"
                 f"main(['goodput-curve', '--out', {str(tmp_path)!r}]); print(len(calls))\n"
                 "link_adaptation._gauss_legendre(63); print(len(calls))")
        assert run_python(probe).split()[-2:] == ["0", "1"]


class TestSolveCommand:
    def test_synthetic_hand_curve(self, tmp_path, capsys):
        reward = tmp_path / "r.csv"
        lines = ["age,reward"] + [f"{a},{1.0 if a <= 3 else 0.0}" for a in range(1, 21)]
        reward.write_text("\n".join(lines) + "\n")
        cfg = write_config(tmp_path, reward_csv=str(reward))
        out = tmp_path / "out"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        # the report is printed as written
        assert capsys.readouterr().out == (out / "solve.json").read_text()
        report = json.loads((out / "solve.json").read_text())
        assert report["beta"] == 0.75
        assert report["period"] == 4
        assert report["consistent"] is True

    def test_report_keys_are_the_readme_list(self, tmp_path):
        # the README's "`solve.json` keys" bullet names every key of the
        # report, those of its two objects as oracles.<key> and deviations.<key>
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        bullet = readme.split("- `solve.json` keys:", 1)[1].split("\n\n", 1)[0]
        out = tmp_path / "out"
        assert main(["solve", "--config", str(write_config(tmp_path)), "--out", str(out)]) == 0
        report = json.loads((out / "solve.json").read_text())
        keys = set()
        for key, value in report.items():
            keys |= {f"{key}.{sub}" for sub in value} if isinstance(value, dict) else {key}
        assert keys == set(re.findall(r"`([a-z_.]+)`", bullet))
        assert {"oracles", "deviations"} <= report.keys()

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

    @pytest.mark.parametrize("snr_db,period", [(-5.0, 396), (0.0, 542), (5.0, 510),
                                               (10.0, 421), (15.0, 327), (20.0, 247)])
    def test_slow_fading_long_period_equals_brute_force(self, tmp_path, snr_db, period):
        # periods up to 542 of the 600 tabulated ages: the index window spans
        # the whole curve, and both oracles search every period it can hold
        cfg = write_config(tmp_path, snr_db=snr_db, speed=0.005, delta_max=600)
        out = tmp_path / "out"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "solve.json").read_text())
        assert report["period"] == report["oracles"]["brute_force_period"] == period
        assert report["beta"] == report["oracles"]["brute_force_average"]
        assert report["consistent"] is True

    def test_period_195_where_one_ulp_of_the_cycle_sum_exceeds_1e_13(self, tmp_path):
        # cs[194] = 825.3 has a ULP of 1.14e-13, so no b gets |g| below 1e-13;
        # the fixed point needs no tolerance and lands on the exact average
        cfg = write_config(tmp_path, snr_db=25.0, speed=0.005, delta_max=600)
        out = tmp_path / "out"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "solve.json").read_text())
        assert report["period"] == report["oracles"]["brute_force_period"] == 195
        assert report["consistent"] is True

    def test_long_period_curve_consistent(self, tmp_path):
        # r(a) = 1 - (a/9129)^2 peaks its cycle average at period 500, where value
        # iteration over 1200 ages needs about 600,000 sweeps to converge
        reward = tmp_path / "r.csv"
        lines = ["age,reward"] + [f"{a},{1.0 - (a / 9129) ** 2!r}" for a in range(1, 1201)]
        reward.write_text("\n".join(lines) + "\n")
        cfg = write_config(tmp_path, reward_csv=str(reward), delta_max=1200)
        out = tmp_path / "out"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "solve.json").read_text())
        assert report["period"] == 500
        assert report["oracles"]["brute_force_period"] == 500
        assert report["consistent"] is True

    @pytest.mark.parametrize("rows", [[f"{a},{float(a)}" for a in range(1, 11)],
                                      ["1,1.0"], ["1,1.0", "2,1.0"]])
    def test_optimum_past_a_reward_csv_names_the_file(self, tmp_path, capsys, rows):
        # r(a) = a, one age, or a flat curve: the best period is the forced
        # pilot after the last row, and the file, not delta_max or speed,
        # sets the curve
        reward = tmp_path / "r.csv"
        reward.write_text("\n".join(["age,reward"] + rows) + "\n")
        cfg = write_config(tmp_path, reward_csv=str(reward))
        assert main(["solve", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert f"{reward}: no pilot period found within the {len(rows)} ages" in err
        assert "delta_max" not in err and "speed" not in err

    def test_three_age_reward_csv_solves(self, tmp_path):
        reward = tmp_path / "r.csv"
        reward.write_text("age,reward\n1,1.0\n2,0.0\n3,0.0\n")
        cfg = write_config(tmp_path, reward_csv=str(reward))
        out = tmp_path / "out"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "solve.json").read_text())
        assert (report["period"], report["beta"]) == (2, 0.5)
        assert report["consistent"] is True

    def test_subnormal_reward_csv_solves(self, tmp_path):
        # rounding of these cycle averages made policy iteration cycle
        reward = tmp_path / "r.csv"
        values = ["2e-323", "2.5e-323", "2.5e-323", "1.5e-323", "0.0", "5e-324"]
        reward.write_text("age,reward\n" + "".join(f"{a},{v}\n"
                                                    for a, v in enumerate(values, 1)))
        cfg = write_config(tmp_path, reward_csv=str(reward))
        out = tmp_path / "out"
        assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        report = json.loads((out / "solve.json").read_text())
        assert (report["period"], report["beta"]) == (4, 2e-323)
        assert report["oracles"]["mdp_gain"] == report["oracles"]["brute_force_average"]
        assert report["consistent"] is True

    @pytest.mark.parametrize("argv", [["solve"], ["simulate"], ["sweep-snr"],
                                      ["sweep-mobility"]])
    def test_static_channel_names_speed(self, tmp_path, capsys, argv):
        # on a constant curve no pilot period pays off at any curve length, so
        # the message names speed rather than delta_max
        cfg = write_config(tmp_path, speed=0, speed_grid_mph=[0.0, 10.0])
        out = tmp_path / "out"
        assert main(argv + ["--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "speed 0" in err and "delta_max" not in err

    @pytest.mark.parametrize("argv", [["goodput-curve"],
                                      ["simulate", "--policy", "periodic:3"],
                                      ["simulate", "--policy", "periodic:3",
                                       "--mode", "realized"]])
    def test_static_channel_curve_and_fixed_period_run(self, tmp_path, argv):
        cfg = write_config(tmp_path, speed=0)
        out = tmp_path / "out"
        assert main(argv + ["--config", str(cfg), "--out", str(out)]) == 0

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

    def test_unsolvable_grid_point_named(self, tmp_path, capsys):
        # at 0.005 mph the optimal periods at -5 .. 25 dB (195 .. 542 slots)
        # lie beyond 100 tabulated ages
        path = tmp_path / "config.json"
        path.write_text('{"speed": 0.005, "delta_max": 100}')
        out = tmp_path / "out"
        assert main(["sweep-snr", "--config", str(path), "--out", str(out)]) == 2
        assert "error: snr_db -5: no pilot period found" in capsys.readouterr().err

    def test_slow_fading_sweep_solves_every_point(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text('{"speed": 0.005, "horizon": 5000, "seeds": [1]}')
        out = tmp_path / "out"
        assert main(["sweep-snr", "--config", str(path), "--out", str(out)]) == 0
        _, rows = read_csv(out / "sweep_snr.csv")
        assert len(rows) == 14

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

    def test_pool_never_larger_than_the_grid(self, tmp_path, monkeypatch):
        # a fork-started pool starts all of its workers at once, so a stand-in
        # records the size asked for and the tasks given, and runs each task
        # in this process; the points, then the (channel, period) groups, each
        # get a pool no larger than their task list
        pools = []

        class RecordingPool:
            def __init__(self, max_workers):
                pools.append([max_workers, 0])

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                tasks = list(zip(*iterables))
                pools[-1][1] += len(tasks)
                return [fn(*args) for args in tasks]

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)), raising=False)
        cfg = write_config(tmp_path)
        serial, pooled = tmp_path / "a", tmp_path / "b"
        main(["sweep-snr", "--config", str(cfg), "--out", str(serial)])
        assert main(["sweep-snr", "--config", str(cfg), "--out", str(pooled),
                     "--workers", "64"]) == 0
        # two SNR points, then one group per period: 2 and the threshold's 3
        assert pools == [[2, 2], [2, 2]]
        assert (serial / "sweep_snr.csv").read_bytes() == (pooled / "sweep_snr.csv").read_bytes()
        pools.clear()
        one_point = write_config(tmp_path, name="one.json", speed_grid_mph=[30.0])
        assert main(["sweep-mobility", "--config", str(one_point), "--out", str(pooled),
                     "--workers", "8"]) == 0
        # one point, whose threshold runs at the baseline period: one group
        assert pools == []

    def test_importing_the_cli_leaves_the_pool_module_unloaded(self, run_python):
        # the process pool is imported only when a sweep runs on workers > 1
        probe = ("import sys; import pilotsched.cli; "
                 "print('concurrent.futures.process' in sys.modules, "
                 "'multiprocessing' in sys.modules)")
        assert run_python(probe).split() == ["False", "False"]

    @pytest.mark.parametrize("affinity", [True, False])
    @pytest.mark.parametrize("command", ["sweep-snr", "sweep-mobility"])
    def test_workers_above_the_cpu_count_exit_2(self, tmp_path, monkeypatch, capsys, command,
                                                affinity):
        # the cap is the CPUs this process may run on where the platform
        # tells them (one here, of 64), else the CPU count; the stand-in fails
        # if a pool is built, so no process is ever started
        class NoPool:
            def __init__(self, *args, **kwargs):
                raise AssertionError("a process pool was started")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", NoPool)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        if affinity:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        else:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        cpus = 1 if affinity else 64
        cfg = write_config(tmp_path)
        for workers in (cpus + 1, 5_000, 10 ** 9):
            assert main([command, "--config", str(cfg), "--out", str(tmp_path / "out"),
                         "--workers", str(workers)]) == 2
            err = capsys.readouterr().err
            assert f"--workers must be at most the {cpus} CPUs, got {workers}" in err
        assert not (tmp_path / "out" / f"{command.replace('-', '_')}.csv").exists()

    def test_build_table_reads_each_file_once(self, tmp_path, monkeypatch):
        import pilotsched.config as config
        reads = []
        read = config.read_input_text

        def counting_read(path, what):
            reads.append(str(path))
            return read(path, what)

        monkeypatch.setattr(config, "read_input_text", counting_read)
        monkeypatch.setattr(link_adaptation, "read_input_text", counting_read)
        rates, bler = tmp_path / "rates.json", tmp_path / "bler.csv"
        rates.write_text('{"e_max": 0.1, "rates": {"1": 0.5, "2": 1.0}}')
        bler.write_text("cqi,snr_db,bler\n1,0.0,0.9\n1,10.0,0.0\n2,0.0,0.9\n2,10.0,0.0\n")
        cfg = ExperimentConfig(snr_db=20.0, mcs_config=str(rates), bler_table=str(bler))
        table = cli.build_table(cfg)
        assert sorted(reads) == sorted([str(rates), str(bler)])
        assert [(e.index, e.rate) for e in table.entries] == [(1, 0.5), (2, 1.0)]

    def test_one_mcs_table_per_sweep(self, tmp_path, monkeypatch):
        built = []

        def counting_build_table(cfg):
            built.append(cfg)
            return build_table(cfg)

        build_table = cli.build_table
        monkeypatch.setattr(cli, "build_table", counting_build_table)
        cfg = write_config(tmp_path, snr_grid_db=[0.0, 10.0, 20.0])
        assert main(["sweep-snr", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        assert len(built) == 1

    @pytest.mark.parametrize("command,grid_key,value", [("sweep-snr", "snr_grid_db", 25.0),
                                                        ("sweep-mobility", "speed_grid_mph", 30.0)])
    def test_threshold_at_the_baseline_period_runs_once(self, tmp_path, monkeypatch, command,
                                                        grid_key, value):
        # the grid point solves to period 2, the baseline's, so the period
        # runs once and the two rows agree; an expected run reads no seed, so
        # one run stands for all three
        calls = []

        def counting_run_policy(period, *args, **kwargs):
            calls.append(period)
            return run_policy(period, *args, **kwargs)

        monkeypatch.setattr(cli, "run_policy", counting_run_policy)
        cfg = write_config(tmp_path, seeds=[1, 2, 3], **{grid_key: [value]})
        out = tmp_path / "out"
        assert main([command, "--config", str(cfg), "--out", str(out)]) == 0
        _, ((_, threshold, *a), (_, baseline, *b)) = read_csv(
            out / f"{command.replace('-', '_')}.csv")
        assert (threshold, baseline) == ("threshold", f"periodic-{cli.BASELINE_PERIOD}")
        assert calls == [cli.BASELINE_PERIOD]
        assert a == b

    @staticmethod
    def counted_draws(monkeypatch):
        """Record each weight set computed and each trace drawn, as
        ((doppler_hz, stride, m), ...) and (stride, fade seed) lists."""
        weights, traces = [], []
        spectral_weights, fading_traces = channel._spectral_weights, simulation.fading_traces

        def counting_weights(params, stride, out):
            weights.append((params.doppler_hz, stride, out.size))
            spectral_weights(params, stride, out)

        def counting_traces(params, length, seeds, stride=1):
            for seed, trace in zip(seeds, fading_traces(params, length, seeds, stride)):
                traces.append((stride, seed))
                yield trace

        monkeypatch.setattr(channel, "_spectral_weights", counting_weights)
        monkeypatch.setattr(simulation, "fading_traces", counting_traces)
        return weights, traces

    def assert_rows_are_seed_means(self, path, cfg, axis):
        # each row is the seed-order mean of the runs made one at a time
        table = cli.build_table(cfg)
        _, rows = read_csv(path)
        for i, (value, _, goodput, last) in enumerate(rows):
            params = cfg.link_params(**{axis: float(value)})
            period = (cli.solve_curve(cli.build_reward_curve(params, table, cfg.delta_max,
                                                             cfg.quad_nodes)).period
                      if i % 2 == 0 else cli.BASELINE_PERIOD)
            runs = [run_policy(period, params, table, cfg.horizon, seed, "realized")
                    for seed in cfg.seeds]
            assert float(goodput) == sum(r.avg_goodput for r in runs) / len(runs)
            assert float(last) == (sum(r.pilot_fraction for r in runs) / len(runs)
                                   if axis == "snr_db" else period)

    def test_realized_sweep_snr_draws_each_period_and_seed_once(self, tmp_path, monkeypatch):
        # 0 and 20 dB solve to period 3, and 25 dB to the baseline's 2: the
        # three points share one channel, so each period computes one weight
        # set and draws one trace per seed for all of its points
        weights, traces = self.counted_draws(monkeypatch)
        path = write_config(tmp_path, seeds=[1, 2, 3], snr_grid_db=[0.0, 20.0, 25.0])
        out = tmp_path / "out"
        assert main(["sweep-snr", "--config", str(path), "--out", str(out),
                     "--mode", "realized"]) == 0
        cfg = load_config(path)
        _, rows = read_csv(out / "sweep_snr.csv")
        assert [row[1] for row in rows[0::2]] == ["threshold"] * 3
        assert len(weights) == len(set(weights)) == 2
        assert sorted(stride for _, stride, _ in weights) == [2, 3]
        assert len(traces) == len(set(traces)) == 6
        monkeypatch.undo()
        self.assert_rows_are_seed_means(out / "sweep_snr.csv", cfg, "snr_db")

    def test_realized_sweep_mobility_one_weight_set_per_speed_and_period(self, tmp_path,
                                                                         monkeypatch):
        # 5, 10 and 30 mph solve to periods 4, 3 and 2: five (speed, period)
        # pairs, each with its own channel
        weights, traces = self.counted_draws(monkeypatch)
        path = write_config(tmp_path, seeds=[1, 2], speed_grid_mph=[5.0, 10.0, 30.0])
        out = tmp_path / "out"
        assert main(["sweep-mobility", "--config", str(path), "--out", str(out),
                     "--mode", "realized"]) == 0
        cfg = load_config(path)
        assert len(weights) == len(set(weights)) == 5
        assert sorted(stride for _, stride, _ in weights) == [2, 2, 2, 3, 4]
        assert len(traces) == 10
        monkeypatch.undo()
        self.assert_rows_are_seed_means(out / "sweep_mobility.csv", cfg, "speed_mph")

    @pytest.mark.parametrize("mode", ["expected", "realized"])
    @pytest.mark.parametrize("command", ["sweep-snr", "sweep-mobility"])
    def test_parallel_workers_same_output(self, tmp_path, monkeypatch, command, mode):
        # the pool runs the grid points, then the (channel, period) groups; two
        # allowed CPUs, whatever this machine grants, so the cap never refuses
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        cfg = write_config(tmp_path, seeds=[1, 2])
        out1, out2 = tmp_path / "a", tmp_path / "b"
        name = f"{command.replace('-', '_')}.csv"
        assert main([command, "--config", str(cfg), "--out", str(out1), "--mode", mode]) == 0
        assert main([command, "--config", str(cfg), "--out", str(out2), "--mode", mode,
                     "--workers", "2"]) == 0
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


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

    @pytest.mark.parametrize("mode", ["expected", "realized"])
    def test_fixed_period_builds_no_reward_curve(self, tmp_path, monkeypatch, mode):
        # periodic:p reads r(age) at ages 1 .. p-1 only, and r(age) does not
        # depend on the ages tabulated with it, so the run over the whole
        # tabulated curve gives the same result
        path = write_config(tmp_path)
        cfg = load_config(path)
        params, table = cfg.link_params(), cli.build_table(cfg)
        curve = cli.build_reward_curve(params, table, cfg.delta_max, cfg.quad_nodes)
        want = run_policy(2, params, table, cfg.horizon, cfg.seeds[0], mode,
                          reward_curve=curve, nodes=cfg.quad_nodes)

        def refuse(*args, **kwargs):
            raise AssertionError("periodic:2 must not tabulate the reward curve")

        monkeypatch.setattr(cli, "build_reward_curve", refuse)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(path), "--policy", "periodic:2",
                     "--mode", mode, "--out", str(out)]) == 0
        doc = json.loads((out / "simulate.json").read_text())
        assert (doc["avg_goodput"], doc["pilot_fraction"]) == (want.avg_goodput,
                                                               want.pilot_fraction)

    def test_threshold_period_99_on_250_ages(self, tmp_path):
        cfg = write_config(tmp_path, speed=0.02, delta_max=250)
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
        # a config fault exits 2 before any check runs, as in every command
        bad = tmp_path / "bad_bler.csv"
        bad.write_text("cqi,snr_db,bler\n4,0.0,0.5\n4,5.0,0.9\n")
        cfg = write_config(tmp_path, bler_table=str(bad))
        out = tmp_path / "out"
        assert main(["validate", "--config", str(cfg), "--out", str(out)]) == 2
        assert "cqi 4" in capsys.readouterr().err
        assert not (out / "validate.json").exists()

    def test_top_rate_unreachable_at_finite_sinr_ends(self, tmp_path, run_python):
        # CQI 15 has the top rate but meets the ceiling at no finite SINR:
        # the Monte Carlo check once redrew its points without end, waiting
        # for 5% of that rate
        rows = ["cqi,snr_db,bler"]
        for entry in link_adaptation.default_mcs_table().entries:
            for snr_db in range(-30, 42, 2):
                bler = 0.5 if entry.index == 15 else float(entry.bler_curve(snr_db))
                rows.append(f"{entry.index},{snr_db!r},{bler!r}")
        (tmp_path / "bler.csv").write_text("\n".join(rows) + "\n")
        rates, e_max = link_adaptation._load_default_rates()
        rates[15] = 1000.0
        (tmp_path / "rates.json").write_text(json.dumps(
            {"e_max": e_max, "rates": {str(cqi): rate for cqi, rate in rates.items()}}))
        cfg = write_config(tmp_path, bler_table=str(tmp_path / "bler.csv"),
                           mcs_config=str(tmp_path / "rates.json"))
        out = tmp_path / "out"
        # in a fresh interpreter, under run_python's timeout
        probe = ("from pilotsched.cli import main; "
                 f"print(main(['validate', '--config', {str(cfg)!r}, '--out', {str(out)!r}]))")
        assert run_python(probe).split()[-1] == "0"
        assert json.loads((out / "validate.json").read_text())["all_passed"] is True


def load_cli_outputs():
    path = Path(__file__).resolve().parents[1] / "tools" / "cli_outputs.py"
    spec = importlib.util.spec_from_file_location("cli_outputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestCliOutputsCompare:
    def test_lists_identical_and_changed_files(self, tmp_path, capsys):
        a, b = tmp_path / "a", tmp_path / "b"
        for root, avg in ((a, "0.5"), (b, "0.5000000000000001")):
            (root / "sweep").mkdir(parents=True)
            (root / "sweep" / "s.csv").write_text(
                f"snr_db,policy,avg_goodput,period\n0.0,periodic-2,{avg},3\n")
            (root / "exit_codes.txt").write_text("default solve 0\n")
        (b / "extra.json").write_text("{}\n")
        assert load_cli_outputs().compare_outputs(a, b) == 1
        out = capsys.readouterr().out.splitlines()
        assert out == ["identical  exit_codes.txt",
                       f"only in {b}  extra.json",
                       "changed, max relative change 2.2e-16 (1 of 3 numbers moved, "
                       "0 of 1 integers)  sweep/s.csv",
                       "1 of 3 files identical, 0 integers moved"]

    def test_moved_integers_are_counted(self, tmp_path, capsys):
        # a period, a histogram count and an exit code move; the float does not
        a, b = tmp_path / "a", tmp_path / "b"
        for root, period, count, code in ((a, 3, 10, 0), (b, 4, 12, 1)):
            root.mkdir()
            (root / "solve.json").write_text(
                f'{{"period": {period}, "gain": 0.25, "counts": [1, {count}]}}\n')
            (root / "exit_codes.txt").write_text(f"default solve {code}\n")
        assert load_cli_outputs().compare_outputs(a, b) == 1
        out = capsys.readouterr().out.splitlines()
        assert out == ["changed, max relative change 1 (1 of 1 numbers moved, "
                       "1 of 1 integers)  exit_codes.txt",
                       "changed, max relative change 0.25 (2 of 4 numbers moved, "
                       "2 of 3 integers)  solve.json",
                       "0 of 2 files identical, 3 integers moved"]

    def test_text_change_is_not_a_numeric_change(self):
        numeric_change = load_cli_outputs().numeric_change
        assert numeric_change('{"period": 3}', '{"period": 3.0, "x": 1}') is None
        assert numeric_change("periodic-2,1e-05", "periodic-2,2e-05") == (0.5, 1, 1, 0, 0)
        # an integer printed as a float on one side still counts as one
        assert numeric_change("a,3,0.5", "a,3.0,0.5") == (0.0, 0, 2, 0, 1)
        assert numeric_change("a,-3", "a,-4") == (0.25, 1, 1, 1, 1)
