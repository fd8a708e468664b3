"""The benchmark's workloads: seeded inputs and independent output checks.

Each workload turns a seed into config files and a list of CLI calls (one
round), and checks every call's output against `reference` or against a
property the method must have, never against stored program output.
`check` returns one list of failure messages per call; an empty list passes.
"""

from __future__ import annotations

import csv
import json
import math
import statistics
from pathlib import Path

import numpy as np

import reference

# r(age) tolerance against the adaptive reference.  The program's fixed
# 64-node panels miss the kinks where the best CQI changes inside a panel; on
# the workloads' operating points that costs at most ~3e-7 relative, and a
# perturbation of 1e-5 must still be caught.
R_REL_TOL = 2e-6
R_ABS_TOL = 1e-12
# Exact-arithmetic identities (brute force over the program's own curve).
EXACT_REL_TOL = 1e-12
# Realized-mode mean vs. exact expectation, in standard errors estimated from
# the spread across simulation seeds.  With 24 seeds (t, 23 dof) a correct
# program exceeds 4.75 SE with probability 9e-5 per policy; a 5 SE shift fails.
REALIZED_Z = 4.75

VALIDATE_CHECKS = ("autocorrelation-fidelity", "mmse-orthogonality",
                   "quadrature-vs-monte-carlo", "scheduler-oracle-triangle")


def r_close(got: float, want: float) -> bool:
    return abs(got - want) <= R_REL_TOL * abs(want) + R_ABS_TOL


def pilot_fraction(period: int, horizon: int) -> float:
    return math.ceil(horizon / period) / horizon


def age_histogram(period: int, horizon: int) -> dict:
    """Slots per age for a pilot every `period` slots from slot 0.

    The forced first pilot sees age 1; after it slot t >= 1 has age
    ((t - 1) mod period) + 1, the pilot slots being those of age `period`.
    """
    hist = {1: 1}
    for age in range(1, min(period, horizon - 1) + 1):
        hist[age] = hist.get(age, 0) + (horizon - 1 - age) // period + 1
    return hist


def read_csv_rows(path: Path) -> tuple:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _load_json(path: Path, errors: list):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        errors.append(f"{path.name}: unreadable ({exc})")
        return None


class Workload:
    name = ""

    def __init__(self, seed: int):
        self.rng = np.random.default_rng([seed, sum(map(ord, self.name))])
        self.configs: dict = {}

    def write_configs(self, work_dir: Path) -> None:
        for name, doc in self.configs.items():
            (work_dir / name).write_text(json.dumps(doc, indent=1))

    def round_argv(self, work_dir: Path, round_dir: Path) -> list:
        """One argv per call; call k writes into round_dir/k."""
        return [[cmd, "--config", str(work_dir / cfg), "--out", str(round_dir / str(k)), *extra]
                for k, (cmd, cfg, extra) in enumerate(self.ops)]

    def check(self, round_dir: Path, codes: list) -> list:
        errors = [[] if code == 0 else [f"exit code {code}"] for code in codes]
        try:
            self._check_outputs(round_dir, errors)
        except (ValueError, TypeError, KeyError, IndexError) as exc:
            for errs in errors:
                errs.append(f"malformed output ({exc!r})")
        return errors


class CurveSolve(Workload):
    """goodput-curve then solve at both sweep axes' ends and one low speed."""

    name = "curve-solve"
    DELTA_MAX = 600
    TAU_MAX = 512
    SAMPLED_AGES = 8

    def __init__(self, seed: int):
        super().__init__(seed)
        u = self.rng.uniform(size=5).tolist()
        self.points = [
            (-5.0 + u[0], 15.0),          # SNR axis, low end
            (25.0 - u[1], 15.0),          # SNR axis, high end
            (20.0, 2.0 + 0.2 * u[2]),     # speed axis, low end
            (20.0, 60.0 - 2.0 * u[3]),    # speed axis, high end
            (20.0, 0.15 + 0.01 * u[4]),   # low speed: period ~27, long hitting-age scan
        ]
        self.ages = [sorted({1, 2, 3, *map(int, self.rng.integers(4, self.DELTA_MAX + 1,
                                                                 self.SAMPLED_AGES - 3))})
                     for _ in self.points]
        self.refs = [reference.OperatingPoint(snr, speed) for snr, speed in self.points]
        self.ops = []
        for i, (snr, speed) in enumerate(self.points):
            self.configs[f"point{i}.json"] = {"snr_db": snr, "speed": speed,
                                              "delta_max": self.DELTA_MAX,
                                              "tau_max": self.TAU_MAX}
            self.ops.append(("goodput-curve", f"point{i}.json", []))
            self.ops.append(("solve", f"point{i}.json", []))

    def _check_outputs(self, round_dir: Path, errors: list) -> None:
        for i, ref in enumerate(self.refs):
            curve_err, solve_err = errors[2 * i], errors[2 * i + 1]
            try:
                header, rows = read_csv_rows(round_dir / str(2 * i) / "goodput_curve.csv")
                rows = [(int(a), float(r)) for a, r in rows]
            except (OSError, ValueError, IndexError) as exc:
                curve_err.append(f"goodput_curve.csv unreadable ({exc})")
                solve_err.append("no curve to brute-force against")
                continue
            self.check_curve(ref, self.ages[i], header, rows, curve_err)
            doc = _load_json(round_dir / str(2 * i + 1) / "solve.json", solve_err)
            if doc is not None:
                values = np.array([r for _, r in rows])
                self.check_solve(ref, values, doc, solve_err)

    def check_curve(self, ref, ages, header, rows, errors: list) -> None:
        if header != ["age", "reward"]:
            errors.append(f"header {header}")
        if [a for a, _ in rows] != list(range(1, self.DELTA_MAX + 1)):
            errors.append(f"ages are not 1..{self.DELTA_MAX}")
            return
        for age in ages:
            got, want = rows[age - 1][1], ref.reward(age)
            if not r_close(got, want):
                errors.append(f"r({age}) = {got!r}, reference {want!r}")

    def check_solve(self, ref, values, doc, errors: list) -> None:
        best, near = reference.best_periods(values, EXACT_REL_TOL)
        period, beta = doc.get("period"), doc.get("beta")
        if doc.get("consistent") is not True:
            errors.append("consistent is not true")
        if period not in near:
            errors.append(f"period {period}, brute force over p <= {len(values) + 1} gives {near}")
            return
        if abs(beta - best) > EXACT_REL_TOL * best:
            errors.append(f"beta {beta!r}, brute-force optimum {best!r}")
        want = math.fsum(ref.reward(a) for a in range(1, period)) / period
        if not r_close(beta, want):
            errors.append(f"beta {beta!r}, reference cycle average {want!r}")


class SweepExpected(Workload):
    """sweep-snr and sweep-mobility in expected mode at the full horizon."""

    name = "sweep-expected"
    DELTA_MAX = 30
    TAU_MAX = 15
    HORIZON = 1_000_000
    SEEDS = 2

    def __init__(self, seed: int):
        super().__init__(seed)
        u = self.rng.uniform(size=4).tolist()
        self.snrs = [0.0 + u[0], 20.0 + u[1]]
        self.speeds = [4.0 + u[2], 40.0 + 5.0 * u[3]]
        self.configs["sweep.json"] = {
            "delta_max": self.DELTA_MAX, "tau_max": self.TAU_MAX, "horizon": self.HORIZON,
            "seeds": [int(s) for s in self.rng.integers(0, 2 ** 31, self.SEEDS)],
            "snr_grid_db": self.snrs, "speed_grid_mph": self.speeds,
        }
        self.snr_refs = [reference.OperatingPoint(s, 15.0) for s in self.snrs]
        self.speed_refs = [reference.OperatingPoint(20.0, v) for v in self.speeds]
        self.ops = [("sweep-snr", "sweep.json", ["--mode", "expected"]),
                    ("sweep-mobility", "sweep.json", ["--mode", "expected"])]

    def _check_outputs(self, round_dir: Path, errors: list) -> None:
        for k, (fname, refs) in enumerate((("sweep_snr.csv", self.snr_refs),
                                           ("sweep_mobility.csv", self.speed_refs))):
            try:
                header, rows = read_csv_rows(round_dir / str(k) / fname)
            except (OSError, IndexError) as exc:
                errors[k].append(f"{fname} unreadable ({exc})")
                continue
            self.check_sweep(header, rows, refs, errors[k])

    def check_sweep(self, header, rows, refs, errors: list) -> None:
        by_snr = header[0] == "snr_db"
        want_header = ["snr_db" if by_snr else "speed_mph", "policy", "avg_goodput",
                       "pilot_fraction" if by_snr else "period"]
        if header != want_header:
            errors.append(f"header {header}")
            return
        if len(rows) != 2 * len(refs):
            errors.append(f"{len(rows)} rows for {len(refs)} points")
            return
        for i, ref in enumerate(refs):
            point = ref.snr_db if by_snr else ref.speed_mph
            r = ref.rewards(self.DELTA_MAX)
            _, near = reference.best_periods(r, R_REL_TOL)
            avgs = {}
            for row in rows[2 * i:2 * i + 2]:
                if float(row[0]) != point:
                    errors.append(f"row {row}: point {point!r} expected")
                    continue
                policy, avg = row[1], float(row[2])
                allowed = near if policy == "threshold" else [2] if policy == "periodic-2" else []
                if by_snr:
                    fraction = float(row[3])
                    matching = [p for p in allowed
                                if math.isclose(fraction, pilot_fraction(p, self.HORIZON),
                                                rel_tol=EXACT_REL_TOL)]
                else:
                    matching = [p for p in allowed if int(row[3]) == p]
                if not matching:
                    errors.append(f"{point} {policy}: {header[3]} {row[3]} matches no "
                                  f"optimal period in {allowed}")
                    continue
                want = reference.cycle_average(r, matching[0], self.HORIZON)
                if not r_close(avg, want):
                    errors.append(f"{point} {policy}: avg_goodput {avg!r}, exact {want!r}")
                avgs[policy] = avg
            if len(avgs) == 2 and avgs["threshold"] < avgs["periodic-2"]:
                errors.append(f"{point}: threshold below periodic-2")


class SimulateRealized(Workload):
    """simulate --mode realized, threshold and periodic:2, over many seeds."""

    name = "simulate-realized"
    DELTA_MAX = 12
    TAU_MAX = 6
    HORIZON = 125_000
    SEEDS = 24
    POLICIES = ("threshold", "periodic:2")

    def __init__(self, seed: int):
        super().__init__(seed)
        self.sim_seeds = [int(s) for s in self.rng.choice(2 ** 31, self.SEEDS, replace=False)]
        self.configs["simulate.json"] = {"delta_max": self.DELTA_MAX, "tau_max": self.TAU_MAX,
                                         "horizon": self.HORIZON}
        self.ref = reference.OperatingPoint(20.0, 15.0)
        self.ops = [("simulate", "simulate.json",
                     ["--mode", "realized", "--policy", policy, "--seed", str(s)])
                    for policy in self.POLICIES for s in self.sim_seeds]

    def _check_outputs(self, round_dir: Path, errors: list) -> None:
        docs = [_load_json(round_dir / str(k) / "simulate.json", errors[k])
                for k in range(len(self.ops))]
        r = self.ref.rewards(self.DELTA_MAX)
        _, near = reference.best_periods(r, R_REL_TOL)
        for j, policy in enumerate(self.POLICIES):
            ks = range(j * self.SEEDS, (j + 1) * self.SEEDS)
            allowed = near if policy == "threshold" else [int(policy.split(":")[1])]
            periods = set()
            for k in ks:
                if docs[k] is not None:
                    self.check_run(docs[k], policy, self.sim_seeds[k % self.SEEDS],
                                   allowed, errors[k])
                    periods.add(docs[k].get("period"))
            if any(docs[k] is None for k in ks) or len(periods) != 1 or periods - set(allowed):
                continue
            period = periods.pop()
            exact = reference.cycle_average(r, period, self.HORIZON)
            verdict = self.check_mean([docs[k]["avg_goodput"] for k in ks], exact)
            if verdict:
                for k in ks:
                    errors[k].append(f"{policy}: {verdict}")

    def check_run(self, doc, policy, seed, allowed, errors: list) -> None:
        want = {"policy": policy, "mode": "realized", "seed": seed, "horizon": self.HORIZON}
        for key, value in want.items():
            if doc.get(key) != value:
                errors.append(f"{key} {doc.get(key)!r}, expected {value!r}")
        period = doc.get("period")
        if period not in allowed:
            errors.append(f"period {period}, optimal {allowed}")
            return
        if not math.isclose(doc.get("pilot_fraction", -1.0),
                            pilot_fraction(period, self.HORIZON), rel_tol=EXACT_REL_TOL):
            errors.append(f"pilot_fraction {doc.get('pilot_fraction')!r} for period {period}")
        want_hist = {str(a): c for a, c in age_histogram(period, self.HORIZON).items()}
        if doc.get("age_histogram") != want_hist:
            errors.append(f"age_histogram differs from the period-{period} pattern")

    @staticmethod
    def check_mean(values: list, exact: float) -> str:
        """Empty when the seed mean lies within REALIZED_Z standard errors of `exact`."""
        mean = statistics.fmean(values)
        se = statistics.stdev(values) / math.sqrt(len(values))
        gap = abs(mean - exact)
        if gap > REALIZED_Z * se + R_REL_TOL * abs(exact):
            in_se = gap / se if se else math.inf
            return (f"mean {mean!r} is {in_se:.2f} SE from the exact expectation "
                    f"{exact!r} (bound {REALIZED_Z} SE)")
        return ""


class Validate(Workload):
    """validate at the default operating point."""

    name = "validate"

    def __init__(self, seed: int):
        # The battery's Monte Carlo checks pin their own seeds at a fixed point;
        # moving the point with the seed would turn its 3-SE orthogonality
        # check into a per-seed coin flip, so the input is the same for all seeds.
        super().__init__(seed)
        self.configs["validate.json"] = {}
        self.ops = [("validate", "validate.json", [])]

    def _check_outputs(self, round_dir: Path, errors: list) -> None:
        doc = _load_json(round_dir / "0" / "validate.json", errors[0])
        if doc is not None:
            self.check_report(doc, errors[0])

    @staticmethod
    def check_report(doc, errors: list) -> None:
        if doc.get("all_passed") is not True:
            errors.append("all_passed is not true")
        passed = {c.get("name"): c.get("passed") for c in doc.get("checks", [])}
        for name in VALIDATE_CHECKS:
            if passed.get(name) is not True:
                errors.append(f"check {name} missing or failed")


WORKLOADS = {cls.name: cls for cls in (CurveSolve, SweepExpected, SimulateRealized, Validate)}
