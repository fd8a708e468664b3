"""Tests of the benchmark's own output checks.

usage: python3 perfbench/selftest.py      (from the root of a source checkout)

Each workload runs once on reduced inputs against the current tree; its
checker must pass those outputs and reject each perturbed copy.
"""

from __future__ import annotations

import csv
import io
import json
import math
import shutil
import statistics
import sys
import unittest
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402
import workloads as W  # noqa: E402


class SmallCurveSolve(W.CurveSolve):
    DELTA_MAX = 80  # solve's window of 40 still covers the low-speed period of ~27
    TAU_MAX = 40


class SmallSweep(W.SweepExpected):
    HORIZON = 20_000
    SEEDS = 1


class SmallRealized(W.SimulateRealized):
    HORIZON = 20_000


WORK = HERE / "_work" / "selftest"


def run_round(workload) -> Path:
    """Run one round in-process; returns the round directory."""
    from pilotsched.cli import main
    work = WORK / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload.write_configs(work)
    round_dir = work / "round"
    codes = []
    with redirect_stdout(io.StringIO()):
        for argv in workload.round_argv(work, round_dir):
            codes.append(main(argv))
    workload.codes = codes
    return round_dir


def edit_json(path: Path, edit) -> None:
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))


def failures(workload, round_dir: Path) -> list:
    return [e for errs in workload.check(round_dir, workload.codes) for e in errs]


class CheckerCases:
    """Shared cases; each subclass names its workload and adds perturbations."""

    workload_cls = None

    @classmethod
    def setUpClass(cls):
        cls.workload = cls.workload_cls(seed=3)
        cls.round_dir = run_round(cls.workload)

    def setUp(self):
        self.copy = self.round_dir.parent / "perturbed"
        shutil.rmtree(self.copy, ignore_errors=True)
        shutil.copytree(self.round_dir, self.copy)

    def assert_rejected(self, pattern: str):
        errs = failures(self.workload, self.copy)
        self.assertTrue(any(pattern in e for e in errs), f"{pattern!r} not in {errs}")

    def test_current_tree_passes(self):
        self.assertEqual(failures(self.workload, self.round_dir), [])


class CurveSolveTest(CheckerCases, unittest.TestCase):
    workload_cls = SmallCurveSolve

    def test_r_off_by_1e5_relative(self):
        age = 2  # sampled at every point; r(2) at 20 dB and 2 mph is far above the floor
        path = self.copy / "4" / "goodput_curve.csv"
        rows = list(csv.reader(path.read_text().splitlines()))
        rows[age][1] = repr(float(rows[age][1]) * (1 + 1e-5))
        with path.open("w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        self.assert_rejected(f"r({age})")

    def test_wrong_period(self):
        edit_json(self.copy / "1" / "solve.json", lambda d: d.update(period=d["period"] + 1))
        self.assert_rejected("period")

    def test_wrong_beta(self):
        edit_json(self.copy / "1" / "solve.json", lambda d: d.update(beta=d["beta"] * (1 + 1e-9)))
        self.assert_rejected("beta")

    def test_inconsistent(self):
        edit_json(self.copy / "1" / "solve.json", lambda d: d.update(consistent=False))
        self.assert_rejected("consistent")


class SweepTest(CheckerCases, unittest.TestCase):
    workload_cls = SmallSweep

    def _edit_row(self, k, name, col, edit):
        path = self.copy / str(k) / name
        rows = list(csv.reader(path.read_text().splitlines()))
        rows[1][col] = edit(rows[1][col])
        with path.open("w", newline="") as fh:
            csv.writer(fh).writerows(rows)

    def test_avg_goodput_off_by_1e5_relative(self):
        self._edit_row(0, "sweep_snr.csv", 2, lambda v: repr(float(v) * (1 + 1e-5)))
        self.assert_rejected("avg_goodput")

    def test_wrong_pilot_fraction(self):
        self._edit_row(0, "sweep_snr.csv", 3, lambda v: repr(float(v) * 1.01))
        self.assert_rejected("pilot_fraction")

    def test_wrong_period(self):
        self._edit_row(1, "sweep_mobility.csv", 3, lambda v: str(int(v) + 1))
        self.assert_rejected("period")

    def test_threshold_below_baseline(self):
        errors = []
        header = ["speed_mph", "policy", "avg_goodput", "period"]
        ref = self.workload.speed_refs[0]
        r = ref.rewards(self.workload.DELTA_MAX)
        _, near = W.reference.best_periods(r, W.R_REL_TOL)
        # only the ordering is under test; the made-up averages are flagged too
        rows = [[repr(ref.speed_mph), "threshold", repr(-1.0), str(near[0])],
                [repr(ref.speed_mph), "periodic-2", repr(0.0), "2"]]
        self.workload.check_sweep(header, rows, [ref], errors)
        self.assertTrue(any("below periodic-2" in e for e in errors), errors)


class RealizedTest(CheckerCases, unittest.TestCase):
    workload_cls = SmallRealized

    def _docs(self, policy_index):
        n = self.workload.SEEDS
        return [self.copy / str(k) / "simulate.json"
                for k in range(policy_index * n, (policy_index + 1) * n)]

    def test_mean_shifted_by_5_se(self):
        paths = self._docs(0)
        values = [json.loads(p.read_text())["avg_goodput"] for p in paths]
        mean = statistics.fmean(values)
        se = statistics.stdev(values) / math.sqrt(len(values))
        period = json.loads(paths[0].read_text())["period"]
        r = self.workload.ref.rewards(self.workload.DELTA_MAX)
        target = W.reference.cycle_average(r, period, self.workload.HORIZON) + 5 * se
        for p, v in zip(paths, values):
            edit_json(p, lambda d, v=v: d.update(avg_goodput=v - mean + target))
        self.assert_rejected("SE from the exact expectation")

    def test_check_mean_bounds(self):
        values = [1.0, 1.1, 0.9, 1.05, 0.95, 1.0]
        se = statistics.stdev(values) / math.sqrt(len(values))
        self.assertEqual(W.SimulateRealized.check_mean(values, 1.0 + 4 * se), "")
        self.assertNotEqual(W.SimulateRealized.check_mean(values, 1.0 + 5 * se), "")

    def test_age_histogram_bin_moved(self):
        def move(d):
            d["age_histogram"]["1"] -= 1
            d["age_histogram"]["2"] += 1
        edit_json(self._docs(1)[0], move)
        self.assert_rejected("age_histogram")

    def test_wrong_pilot_fraction(self):
        edit_json(self._docs(0)[0], lambda d: d.update(pilot_fraction=d["pilot_fraction"] + 1e-6))
        self.assert_rejected("pilot_fraction")

    def test_wrong_period(self):
        edit_json(self._docs(0)[0], lambda d: d.update(period=d["period"] + 1))
        self.assert_rejected("period")


class ValidateTest(CheckerCases, unittest.TestCase):
    workload_cls = W.Validate

    def test_all_passed_false(self):
        edit_json(self.copy / "0" / "validate.json", lambda d: d.update(all_passed=False))
        self.assert_rejected("all_passed")

    def test_check_missing(self):
        edit_json(self.copy / "0" / "validate.json", lambda d: d["checks"].pop())
        self.assert_rejected("missing or failed")

    def test_nonzero_exit(self):
        errs = self.workload.check(self.round_dir, [1])
        self.assertIn("exit code 1", errs[0])


class AgeHistogramTest(unittest.TestCase):
    def test_matches_slot_enumeration(self):
        for period, horizon in [(1, 10), (2, 9), (3, 10), (5, 1000), (7, 1003)]:
            hist = {}
            for t in range(horizon):
                age = 1 if t == 0 else (t - 1) % period + 1
                hist[age] = hist.get(age, 0) + 1
            self.assertEqual(W.age_histogram(period, horizon), hist, (period, horizon))


class BenchmarkFileTest(unittest.TestCase):
    def test_metric_names_match(self):
        bench = json.loads((ROOT / "BENCHMARK.json").read_text())
        per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
        self.assertEqual(per_layer, tracing.metric_units())
        self.assertEqual({m["name"] for m in bench["end_to_end"]},
                         {"wall_s", "setup_s", "peak_rss_mb"})
        self.assertEqual({w["name"] for w in bench["workloads"]}, set(W.WORKLOADS))


if __name__ == "__main__":
    try:
        unittest.main()
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
