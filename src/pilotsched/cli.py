"""Command line front end: curve tabulation, solving, sweeps, validation.

Subcommands: goodput-curve, solve, sweep-snr, sweep-mobility, simulate,
validate.  All outputs are plain CSV/JSON, deterministic for a given config
and seed, and round-trip through the package loaders.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

from .config import ExperimentConfig, default_config, load_config
from .link_adaptation import (McsTable, default_mcs_table, load_bler_table, load_mcs_rates,
                              load_reward_curve, parametric_mcs_table, build_reward_curve)
from .scheduler import HorizonExhaustedError
from .simulation import EXPECTED, MODES, realized_runs, run_policy
from .validation import oracle_deviations, run_all_checks, solve_curve

ORACLE_TOLERANCE = 1e-6
BASELINE_PERIOD = 2


def build_table(cfg: ExperimentConfig):
    """Materialize the MCS table selected by the config, reading each file once.

    The rate config is read before the BLER table, so its faults come first.
    """
    rate_config = None if cfg.mcs_config == "default" else cfg.mcs_config
    if cfg.bler_table != "default":
        return load_bler_table(cfg.bler_table, rate_config=rate_config)
    if rate_config is None:
        return default_mcs_table()
    return parametric_mcs_table(*load_mcs_rates(rate_config))


def _write_csv(path: Path, header: list, rows) -> None:
    # in one write, what csv.writer's excel dialect writes row by row: no
    # field here needs quoting, and repr of a plain float is the shortest
    # exact round-trip form
    lines = [",".join(header)]
    lines.extend(",".join([repr(float(v)) if isinstance(v, float) else str(v) for v in row])
                 for row in rows)
    lines.append("")
    with open(path, "w", newline="") as fh:
        fh.write("\r\n".join(lines))


def _write_json(path: Path, doc: dict) -> str:
    text = json.dumps(doc, indent=2, sort_keys=True)
    with open(path, "w") as fh:
        fh.write(text + "\n")
    return text


def _link(cfg: ExperimentConfig, tabulate: bool = True) -> tuple:
    """The config's link parameters, MCS table and, if `tabulate`, r(1 .. delta_max)."""
    params = cfg.link_params()
    table = build_table(cfg)
    curve = build_reward_curve(params, table, cfg.delta_max, cfg.quad_nodes) if tabulate else None
    return params, table, curve


def cmd_goodput_curve(cfg: ExperimentConfig, out_dir: Path) -> int:
    """Tabulate r(age) for ages 1..delta_max at the configured operating point."""
    curve = _link(cfg)[2]
    path = out_dir / "goodput_curve.csv"
    _write_csv(path, ["age", "reward"], enumerate(curve.values.tolist(), start=1))
    print(f"wrote {path}")
    return 0


def cmd_solve(cfg: ExperimentConfig, out_dir: Path) -> int:
    """Solve the threshold and cross-check it against both oracles."""
    if cfg.reward_csv is None:
        report = oracle_deviations(_link(cfg)[2])
    else:
        curve = load_reward_curve(cfg.reward_csv)
        try:
            report = oracle_deviations(curve)
        except HorizonExhaustedError as exc:
            # the file, not delta_max or speed, sets this curve
            raise ValueError(f"{cfg.reward_csv}: no pilot period found within the "
                             f"{len(curve)} ages of the reward curve") from exc
    report["tolerance"] = ORACLE_TOLERANCE
    report["consistent"] = report["max_deviation"] <= ORACLE_TOLERANCE
    print(_write_json(out_dir / "solve.json", report))
    return 0 if report["consistent"] else 1


def _solve_point(cfg: ExperimentConfig, table: McsTable, axis: str, value: float) -> tuple:
    """(link parameters, reward curve, threshold period) at one grid point of `axis`."""
    try:
        params = cfg.link_params(**{axis: value})
        curve = build_reward_curve(params, table, cfg.delta_max, cfg.quad_nodes)
        return params, curve, solve_curve(curve).period
    except ValueError as exc:
        raise ValueError(f"{axis} {value}: {exc}") from exc


def _run_group(cfg: ExperimentConfig, table: McsTable, mode: str, period: int,
               points: list) -> list:
    """The runs of the period-`period` schedule at each of `points`, (link,
    curve) pairs that share their channel, one per seed in seed order.  An
    expected run reads no seed, so it runs once per point and stands for each."""
    if mode == EXPECTED:
        return [[run_policy(period, params, table, cfg.horizon, cfg.seeds[0], mode,
                            reward_curve=curve, nodes=cfg.quad_nodes)] * len(cfg.seeds)
                for params, curve in points]
    return realized_runs(period, [params for params, _ in points], table, cfg.horizon, cfg.seeds)


def _map(fn, tasks: list, workers: int) -> list:
    """[fn(*task) for task in tasks], on a pool of at most `workers` processes
    and never more than the tasks, since a fork-started pool starts them all."""
    workers = min(workers, len(tasks))
    if workers < 2:
        return [fn(*task) for task in tasks]
    # imported here: it pulls in multiprocessing, which a serial run never needs
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, *zip(*tasks)))


def _sweep(cfg: ExperimentConfig, out_dir: Path, command: str, axis: str, grid_key: str,
           mode: str, workers: int) -> int:
    """Both policies at every point of the config's `grid_key` grid, as one CSV.

    Every point is solved first; its runs then go into groups by the channel
    and the period, so each runs once and a realized group draws each seed's
    streams once.  The fourth column is the mean pilot fraction on the SNR
    axis and the pilot period on the speed axis.
    """
    grid = getattr(cfg, grid_key)
    if not grid:
        raise ValueError(f"{grid_key} must be nonempty for {command}")
    if workers < 1:
        raise ValueError(f"--workers must be >= 1, got {workers}")
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    if workers > cpus:
        raise ValueError(f"--workers must be at most the {cpus} CPUs, got {workers}")
    points = sorted(grid)
    table = build_table(cfg)
    solved = _map(_solve_point, [(cfg, table, axis, p) for p in points], workers)
    groups: dict = {}
    for i, (params, _, period) in enumerate(solved):
        for p in dict.fromkeys((period, BASELINE_PERIOD)):
            key = (params.channel_variance, params.doppler_hz, params.sample_period, p)
            groups.setdefault(key, []).append(i)
    tasks = [(cfg, table, mode, key[-1], [solved[i][:2] for i in members])
             for key, members in groups.items()]
    results = {}
    for (key, members), group in zip(groups.items(), _map(_run_group, tasks, workers)):
        results.update(((i, key[-1]), runs) for i, runs in zip(members, group))
    rows = []
    for i, (value, (_, _, period)) in enumerate(zip(points, solved)):
        for name, p in (("threshold", period), (f"periodic-{BASELINE_PERIOD}", BASELINE_PERIOD)):
            runs = results[i, p]
            goodput = sum(r.avg_goodput for r in runs) / len(runs)
            last = sum(r.pilot_fraction for r in runs) / len(runs) if axis == "snr_db" else p
            rows.append((float(value), name, goodput, last))
    path = out_dir / f"{command.replace('-', '_')}.csv"
    last = "pilot_fraction" if axis == "snr_db" else "period"
    _write_csv(path, [axis, "policy", "avg_goodput", last], rows)
    print(f"wrote {path}")
    return 0


def cmd_sweep_snr(cfg: ExperimentConfig, out_dir: Path, mode: str, workers: int) -> int:
    return _sweep(cfg, out_dir, "sweep-snr", "snr_db", "snr_grid_db", mode, workers)


def cmd_sweep_mobility(cfg: ExperimentConfig, out_dir: Path, mode: str, workers: int) -> int:
    return _sweep(cfg, out_dir, "sweep-mobility", "speed_mph", "speed_grid_mph", mode, workers)


def cmd_simulate(cfg: ExperimentConfig, out_dir: Path, mode: str, policy: str) -> int:
    """Run one policy at the configured point with the first configured seed."""
    period = 0  # rejected below unless the policy names one
    if policy.startswith("periodic:"):
        try:
            period = int(policy.split(":", 1)[1])
        except ValueError:
            pass
    if policy != "threshold" and period < 1:
        raise ValueError(f"--policy {policy!r}: use 'threshold' or 'periodic:<p>' "
                         "with an integer p >= 1")
    seed = cfg.seeds[0]
    # a fixed period reads r(age) only at the ages it visits
    params, table, curve = _link(cfg, tabulate=policy == "threshold")
    doc: dict = {"policy": policy, "mode": mode, "seed": seed}
    if curve is not None:
        sol = solve_curve(curve)
        period = sol.period
        doc["beta"] = sol.beta
    doc["period"] = period
    result = run_policy(period, params, table, cfg.horizon, seed, mode,
                        reward_curve=curve, nodes=cfg.quad_nodes)
    doc.update({
        "horizon": result.horizon,
        "avg_goodput": result.avg_goodput,
        "pilot_fraction": result.pilot_fraction,
        "age_histogram": {str(k): v for k, v in sorted(result.age_histogram.items())},
    })
    path = out_dir / "simulate.json"
    _write_json(path, doc)
    print(f"wrote {path}")
    return 0


def cmd_validate(cfg: ExperimentConfig, out_dir: Path) -> int:
    """Run the oracle battery; nonzero exit when any check fails."""
    params, table, curve = _link(cfg)
    solve_curve(curve)  # no optimal period: exit 2 before the Monte Carlo checks
    checks = run_all_checks(params, table, physical_curve=curve)
    report = {
        "checks": [{"name": c.name, "passed": c.passed, "detail": c.detail}
                   for c in checks],
        "all_passed": all(c.passed for c in checks),
    }
    _write_json(out_dir / "validate.json", report)
    for c in checks:
        print(f"{'PASS' if c.passed else 'FAIL'} {c.name}: {c.detail}")
    return 0 if report["all_passed"] else 1


_SEED = ("--seed", {"type": int, "help": "override the config seed list with one seed"})
_MODE = ("--mode", {"choices": MODES, "default": EXPECTED})
_WORKERS = ("--workers", {"type": int, "default": 1})
_POLICY = ("--policy", {"default": "threshold", "help": "'threshold' or 'periodic:<period>'"})

# Each subcommand: its name, its help and the flags it reads beyond --config
# and --out.  `main` calls the handler cmd_<name> with the flags other than
# --seed as keyword arguments.
COMMANDS = (
    ("goodput-curve", "tabulate r(age) as CSV", ()),
    ("solve", "solve the threshold and cross-check oracles", ()),
    ("sweep-snr", "policy comparison over the SNR grid", (_SEED, _MODE, _WORKERS)),
    ("sweep-mobility", "policy comparison over the speed grid", (_SEED, _MODE, _WORKERS)),
    ("simulate", "run one policy and dump the result", (_SEED, _MODE, _POLICY)),
    ("validate", "run the oracle/property battery", ()),
)


def _parser(commands) -> argparse.ArgumentParser:
    """The command line parser with the subcommands of `commands`, entries of
    COMMANDS; its usage line names every command either way."""
    parser = argparse.ArgumentParser(
        prog="pilotsched",
        description="Pilot/data scheduling over a time-correlated fading link: "
                    "goodput curves, optimal thresholds, policy sweeps, validation.")
    # left unset for the full table, since a metavar would also rename the
    # subcommand in the "required" and "invalid choice" errors
    metavar = (None if len(commands) == len(COMMANDS)
               else "{" + ",".join(name for name, _, _ in COMMANDS) + "}")
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, help_text, flags in commands:
        command = sub.add_parser(name, help=help_text)
        command.add_argument("--config",
                             help="experiment config JSON (defaults apply if omitted)")
        command.add_argument("--out", help="output directory (default: config output_dir)")
        for flag, kwargs in flags:
            command.add_argument(flag, **kwargs)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # only the named subcommand is built; with none named (no argument, -h or
    # an unknown name) all are, for the help and the error that lists them
    named = [c for c in COMMANDS if argv and c[0] == argv[0]]
    parser = _parser(named or COMMANDS)
    flags = vars(parser.parse_args(argv))
    name, config, out = flags.pop("command"), flags.pop("config"), flags.pop("out")
    seed = flags.pop("seed", None)
    try:
        cfg = load_config(config) if config else default_config()
        if seed is not None:
            # replace() reruns the config checks on the overridden seeds
            cfg = dataclasses.replace(cfg, seeds=[seed])
        out_dir = Path(out if out else cfg.output_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        # looked up at call time, so a handler rebound on the module is the one run
        return globals()["cmd_" + name.replace("-", "_")](cfg, out_dir, **flags)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
