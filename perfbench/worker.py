"""One workload process: import the CLI, run a plan of CLI calls, report timings.

usage: python3 perfbench/worker.py --start NS --result PATH [--plan PATH] [--trace]

--start is the parent's time.monotonic_ns() taken just before it started this
process; CLOCK_MONOTONIC is system-wide, so the difference to the same clock
after `import pilotsched.cli` is the set-up time of a fresh process.  Without
--plan the process only measures set-up.  Each entry of the plan is one argv
for `pilotsched.cli.main`; the next call starts when the previous returns.
"""

import argparse
import json
import os
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_op(main, argv) -> int:
    """Exit code of one CLI call, as the console entry point would report it."""
    try:
        return int(main(argv) or 0)
    except SystemExit as exc:  # argparse errors
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:  # an uncaught traceback exits 1 from the console script
        traceback.print_exc()
        return 1


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--start", type=int, required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--plan")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, str(ROOT / "src"))
    import pilotsched.cli as cli
    setup_s = (time.monotonic_ns() - args.start) / 1e9
    result = {"setup_s": setup_s}

    if args.plan:
        plan = json.loads(Path(args.plan).read_text())
        tracer = None
        if args.trace:
            import tracing  # beside this script, so already on sys.path
            tracer = tracing.install()
        codes = []
        t0 = time.perf_counter()
        for argv in plan:
            codes.append(run_op(cli.main, argv))
        result["wall_s"] = time.perf_counter() - t0
        result["exit_codes"] = codes
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            result["layers"] = tracer.metrics()

    sys.stdout.flush()
    tmp = args.result + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(result, fh)
    os.replace(tmp, args.result)


if __name__ == "__main__":
    main()
