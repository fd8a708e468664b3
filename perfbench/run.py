"""Run one benchmark workload and print its metrics as the last stdout line.

usage: python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from `src`.
Every round is a fresh worker process that runs the workload's CLI calls one
after another (a closed loop with one client); rounds repeat until the next
one would end well past --seconds.  Set-up is also measured in SETUP_PROBES
extra processes that only import the CLI.  Outputs are checked here, after
each round, against the independent reference; checking is not timed.

--trace 0 reports the end-to-end metrics (medians over rounds / processes);
--trace 1 runs traced workers and reports the per-layer metrics instead.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()

SETUP_PROBES = 11
WORKER_TIMEOUT_S = 170
# One thread per BLAS / OpenMP pool: the machine the reference figures come
# from has 2 cores, and the CLI runs with --workers 1.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
              "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1"}


def spawn(result: Path, log: Path, plan: Path | None = None, trace: bool = False) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--result", str(result)]
    if plan is not None:
        cmd += ["--plan", str(plan)]
    if trace:
        cmd.append("--trace")
    env = dict(os.environ, **THREAD_ENV)
    with open(log, "ab") as out:
        start = time.monotonic_ns()
        proc = subprocess.run(cmd + ["--start", str(start)], cwd=ROOT, env=env,
                              stdout=out, stderr=out, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0 or not result.exists():
        sys.stderr.write(log.read_text(errors="replace")[-4000:])
        raise SystemExit(f"worker exited with {proc.returncode}; log above")
    return json.loads(result.read_text())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "pilotsched" / "cli.py").is_file():
        print(f"no src/pilotsched/cli.py under {ROOT}; run from a source checkout",
              file=sys.stderr)
        return 2

    work = HERE / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        return run(args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run(args, work: Path) -> int:
    workload = workloads.WORKLOADS[args.workload](args.seed)
    workload.write_configs(work)
    log = work / "worker.log"

    setups = [spawn(work / f"probe{i}.json", log)["setup_s"] for i in range(SETUP_PROBES)]
    walls, rss, layers = [], [], []
    attempted = failed = 0
    begin = time.monotonic()
    while True:
        round_dir = work / f"round{len(walls)}"
        round_dir.mkdir()
        plan = round_dir / "plan.json"
        plan.write_text(json.dumps(workload.round_argv(work, round_dir)))
        result = spawn(round_dir / "result.json", log, plan, trace=bool(args.trace))
        setups.append(result["setup_s"])
        walls.append(result["wall_s"])
        rss.append(result["peak_rss_mb"])
        if args.trace:
            layers.append(result["layers"])
        errors = workload.check(round_dir, result["exit_codes"])
        attempted += len(errors)
        for argv, errs in zip(json.loads(plan.read_text()), errors):
            if errs:
                failed += 1
                print(f"FAILED {' '.join(argv)}: {'; '.join(errs)}", file=sys.stderr)
        shutil.rmtree(round_dir)
        elapsed = time.monotonic() - begin
        if elapsed + 0.5 * statistics.fmean(walls) >= args.seconds:
            break

    if args.trace:
        units = tracing.metric_units()
        metrics = {name: {"value": statistics.median(l[name] for l in layers), "unit": unit}
                   for name, unit in units.items()}
        print(f"traced wall_s median {statistics.median(walls)!r} over {len(walls)} rounds",
              file=sys.stderr)
    else:
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(rss), "unit": "MB"},
        }
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
