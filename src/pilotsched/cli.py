"""Command line front end: curve tabulation, solving, sweeps, validation.

Subcommands: goodput-curve, solve, sweep-snr, sweep-mobility, simulate,
validate.  All outputs are plain CSV/JSON, deterministic for a given config
and seed, and round-trip through the package loaders.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

from .config import ExperimentConfig, default_config, load_config
from .link_adaptation import (DEFAULT_CQI_MIDPOINTS_DB, QuadratureConfig,
                              default_mcs_table, load_bler_table, load_mcs_rates,
                              parametric_mcs_table, build_reward_curve)
from .scheduler import load_reward_curve, save_reward_curve
from .simulation import EXPECTED, run_policy
from .validation import oracle_deviations, run_all_checks, solve_clamped

ORACLE_TOLERANCE = 1e-6
BASELINE_PERIOD = 2


def build_table(cfg: ExperimentConfig):
    """Materialize the MCS table selected by the config."""
    rates = e_max = None
    if cfg.mcs_config != "default":
        rates, e_max = load_mcs_rates(cfg.mcs_config)
    if cfg.bler_table == "default":
        if rates is None:
            return default_mcs_table()
        return parametric_mcs_table(rates, e_max)
    rate_config = None if cfg.mcs_config == "default" else cfg.mcs_config
    return load_bler_table(cfg.bler_table, rate_config=rate_config)


def _quad(cfg: ExperimentConfig) -> QuadratureConfig:
    return QuadratureConfig(nodes=cfg.quad_nodes)


def _write_csv(path: Path, header: list, rows: list) -> None:
    # repr of a plain float is the shortest exact round-trip form
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v)) if isinstance(v, float) else v for v in row])


def _write_json(path: Path, doc: dict) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def cmd_goodput_curve(cfg: ExperimentConfig, out_dir: Path) -> Path:
    """Tabulate r(age) for ages 1..delta_max at the configured operating point."""
    params = cfg.link_params()
    table = build_table(cfg)
    curve = build_reward_curve(params, table, cfg.delta_max, _quad(cfg))
    path = out_dir / "goodput_curve.csv"
    save_reward_curve(curve, path)
    return path


def _solve_report(curve, tau_max: int) -> dict:
    sol = solve_clamped(curve, tau_max)
    dev = oracle_deviations(curve, sol)
    return {
        "beta": sol.beta,
        "hitting_age": sol.hitting_age,
        "period": sol.period,
        "tau_max": sol.tau_max,
        "oracles": {
            "brute_force_average": dev["brute_force"],
            "brute_force_period": dev["brute_force_period"],
            "rvi_gain": dev["rvi_gain"],
        },
        "deviations": dev["deviations"],
        "max_deviation": dev["max_pairwise"],
        "tolerance": ORACLE_TOLERANCE,
        "consistent": dev["max_pairwise"] <= ORACLE_TOLERANCE,
    }


def cmd_solve(cfg: ExperimentConfig, out_dir: Path) -> tuple:
    """Solve the threshold and cross-check it against both oracles."""
    if cfg.reward_csv is not None:
        curve = load_reward_curve(cfg.reward_csv)
        if len(curve) < 4:
            raise ValueError(f"{cfg.reward_csv}: reward curve too short to solve (need >= 4 ages)")
    else:
        params = cfg.link_params()
        table = build_table(cfg)
        curve = build_reward_curve(params, table, cfg.delta_max, _quad(cfg))
    report = _solve_report(curve, cfg.tau_max)
    path = out_dir / "solve.json"
    _write_json(path, report)
    return report, 0 if report["consistent"] else 1


def _sweep_point(cfg: ExperimentConfig, axis: str, value: float, mode: str) -> list:
    """Both policies at one grid point of `axis` ('snr_db' or 'speed_mph').

    The fourth column is the mean pilot fraction on the SNR axis and the pilot
    period on the speed axis.
    """
    try:
        params = cfg.link_params(**{axis: value})
    except ValueError as exc:
        raise ValueError(f"{axis} {value}: {exc}") from exc
    table = build_table(cfg)
    quad = _quad(cfg)
    curve = build_reward_curve(params, table, cfg.delta_max, quad)
    sol = solve_clamped(curve, cfg.tau_max)
    rows = []
    for name, period in (("threshold", sol.period),
                         (f"periodic-{BASELINE_PERIOD}", BASELINE_PERIOD)):
        goodputs, fractions = [], []
        for seed in cfg.seeds:
            result = run_policy(period, params, table, cfg.horizon, seed, mode,
                                reward_curve=curve, quad=quad)
            goodputs.append(result.avg_goodput)
            fractions.append(result.pilot_fraction)
        last = sum(fractions) / len(fractions) if axis == "snr_db" else period
        rows.append((float(value), name, sum(goodputs) / len(goodputs), last))
    return rows


def _fan_out(cfg: ExperimentConfig, axis: str, grid, mode: str, workers: int) -> list:
    points = sorted(grid)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [pool.submit(_sweep_point, cfg, axis, p, mode) for p in points]
            results = [f.result() for f in futures]
    else:
        results = [_sweep_point(cfg, axis, p, mode) for p in points]
    return [row for rows in results for row in rows]


def cmd_sweep_snr(cfg: ExperimentConfig, out_dir: Path, mode: str = EXPECTED,
                  workers: int = 1) -> Path:
    if not cfg.snr_grid_db:
        raise ValueError("snr_grid_db must be nonempty for sweep-snr")
    rows = _fan_out(cfg, "snr_db", cfg.snr_grid_db, mode, workers)
    path = out_dir / "sweep_snr.csv"
    _write_csv(path, ["snr_db", "policy", "avg_goodput", "pilot_fraction"], rows)
    return path


def cmd_sweep_mobility(cfg: ExperimentConfig, out_dir: Path, mode: str = EXPECTED,
                       workers: int = 1) -> Path:
    if not cfg.speed_grid_mph:
        raise ValueError("speed_grid_mph must be nonempty for sweep-mobility")
    rows = _fan_out(cfg, "speed_mph", cfg.speed_grid_mph, mode, workers)
    path = out_dir / "sweep_mobility.csv"
    _write_csv(path, ["speed_mph", "policy", "avg_goodput", "period"], rows)
    return path


def cmd_simulate(cfg: ExperimentConfig, out_dir: Path, mode: str,
                 policy_arg: str = "threshold") -> Path:
    """Run one policy at the configured point with the first configured seed."""
    seed = cfg.seeds[0]
    params = cfg.link_params()
    table = build_table(cfg)
    quad = _quad(cfg)
    curve = build_reward_curve(params, table, cfg.delta_max, quad)
    doc: dict = {"policy": policy_arg, "mode": mode, "seed": seed}
    if policy_arg == "threshold":
        sol = solve_clamped(curve, cfg.tau_max)
        period = sol.period
        doc["beta"] = sol.beta
    elif policy_arg.startswith("periodic:"):
        period = int(policy_arg.split(":", 1)[1])
    else:
        raise ValueError(f"unknown policy {policy_arg!r}; use 'threshold' or 'periodic:<p>'")
    doc["period"] = period
    result = run_policy(period, params, table, cfg.horizon, seed, mode,
                        reward_curve=curve, quad=quad)
    doc.update({
        "horizon": result.horizon,
        "avg_goodput": result.avg_goodput,
        "pilot_fraction": result.pilot_fraction,
        "age_histogram": {str(k): v for k, v in sorted(result.age_histogram.items())},
    })
    path = out_dir / "simulate.json"
    _write_json(path, doc)
    return path


def cmd_validate(cfg: ExperimentConfig, out_dir: Path) -> int:
    """Run the oracle battery; nonzero exit when any check fails."""
    checks = []
    try:
        params = cfg.link_params()
        table = build_table(cfg)
        curve = build_reward_curve(params, table, cfg.delta_max, _quad(cfg))
        checks = run_all_checks(params, table, physical_curve=curve,
                                physical_tau_max=cfg.tau_max)
    except ValueError as exc:
        from .validation import CheckResult
        checks.append(CheckResult(name="configuration", passed=False, detail=str(exc)))
    report = {
        "checks": [{"name": c.name, "passed": c.passed, "detail": c.detail}
                   for c in checks],
        "all_passed": all(c.passed for c in checks),
    }
    _write_json(out_dir / "validate.json", report)
    for c in checks:
        print(f"{'PASS' if c.passed else 'FAIL'} {c.name}: {c.detail}")
    return 0 if report["all_passed"] else 1


def _add_common(sub, mode_flag=True):
    sub.add_argument("--config", help="experiment config JSON (defaults apply if omitted)")
    sub.add_argument("--out", help="output directory (default: config output_dir)")
    sub.add_argument("--seed", type=int, help="override the config seed list with one seed")
    if mode_flag:
        sub.add_argument("--mode", choices=["expected", "realized"], default="expected")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="pilotsched",
        description="Pilot/data scheduling over a time-correlated fading link: "
                    "goodput curves, optimal thresholds, policy sweeps, validation.")
    sub = parser.add_subparsers(dest="command", required=True)

    _add_common(sub.add_parser("goodput-curve", help="tabulate r(age) as CSV"),
                mode_flag=False)
    _add_common(sub.add_parser("solve", help="solve the threshold and cross-check oracles"),
                mode_flag=False)
    p_snr = sub.add_parser("sweep-snr", help="policy comparison over the SNR grid")
    _add_common(p_snr)
    p_snr.add_argument("--workers", type=int, default=1)
    p_mob = sub.add_parser("sweep-mobility", help="policy comparison over the speed grid")
    _add_common(p_mob)
    p_mob.add_argument("--workers", type=int, default=1)
    p_sim = sub.add_parser("simulate", help="run one policy and dump the result")
    _add_common(p_sim)
    p_sim.add_argument("--policy", default="threshold",
                       help="'threshold' or 'periodic:<period>'")
    _add_common(sub.add_parser("validate", help="run the oracle/property battery"),
                mode_flag=False)

    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else default_config()
        if args.seed is not None:
            # replace() reruns the config checks on the overridden seeds
            cfg = dataclasses.replace(cfg, seeds=[args.seed])
        out_dir = Path(args.out if args.out else cfg.output_dir)
        out_dir.mkdir(parents=True, exist_ok=True)

        if args.command == "goodput-curve":
            path = cmd_goodput_curve(cfg, out_dir)
            print(f"wrote {path}")
            return 0
        if args.command == "solve":
            report, code = cmd_solve(cfg, out_dir)
            print(json.dumps(report, indent=2, sort_keys=True))
            return code
        if args.command == "sweep-snr":
            path = cmd_sweep_snr(cfg, out_dir, mode=args.mode, workers=args.workers)
            print(f"wrote {path}")
            return 0
        if args.command == "sweep-mobility":
            path = cmd_sweep_mobility(cfg, out_dir, mode=args.mode, workers=args.workers)
            print(f"wrote {path}")
            return 0
        if args.command == "simulate":
            path = cmd_simulate(cfg, out_dir, args.mode, args.policy)
            print(f"wrote {path}")
            return 0
        if args.command == "validate":
            return cmd_validate(cfg, out_dir)
        raise AssertionError(f"unhandled command {args.command}")
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
