"""Run the benchmark over several seeds and report each metric's spread.

usage: python3 perfbench/spread.py [--workloads a,b] [--seeds 1-10] [--trace 0|1]
                                   [--label NAME]

Runs `perfbench/run.py` once per (workload, seed), one at a time, from the
current directory with BENCHMARK.json's run_seconds.  Appends every result
line to perfbench/results/<label>.jsonl and prints, per workload and metric,
the median, the quartiles and the interquartile range as a share of the
median, next to the metric's bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list:
    if "-" in text:
        lo, hi = map(int, text.split("-"))
        return list(range(lo, hi + 1))
    return [int(s) for s in text.split(",")]


def main() -> int:
    bench = json.loads(Path("BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--label", default="spread")
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    out = HERE / "results" / f"{args.label}.jsonl"
    out.parent.mkdir(exist_ok=True)
    for workload in args.workloads.split(","):
        runs = []
        for seed in parse_seeds(args.seeds):
            cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                return proc.returncode
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.append(result)
            record = {"workload": workload, "seed": seed, **result}
            traced = [l for l in proc.stderr.splitlines() if l.startswith("traced wall_s")]
            if traced:
                record["traced_wall_s"] = float(traced[-1].split()[3])
            with out.open("a") as fh:
                fh.write(json.dumps(record) + "\n")
        shares = {f"{r['failed']}/{r['attempted']}" for r in runs}
        print(f"{workload}: {len(runs)} runs, failed/attempted {sorted(shares)}, "
              f"all correct {all(r['correct'] for r in runs)}")
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            spread = (q3 - q1) / med if med else float("nan")
            bound = bounds.get(name)
            print(f"  {name:48s} median {med:.6g}  q1 {q1:.6g}  q3 {q3:.6g}  "
                  f"iqr/median {spread:.4f}" + (f"  bound {bound}" if bound else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
