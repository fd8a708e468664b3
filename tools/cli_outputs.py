"""Write the outputs of every CLI command at four operating points, or compare two runs.

    python tools/cli_outputs.py OUTDIR
    python tools/cli_outputs.py --compare A B

The first form runs the package in this checkout's `src/` at the default
config, at 20 dB / 0.15 mph and at 0.005 mph, whose optimal period of 247
slots over the default 600 ages makes `solve` and `validate` exercise a
long-period oracle run: `goodput-curve`, `solve`, `sweep-snr` and
`sweep-mobility` in both modes, `simulate` with `threshold` and
`periodic:2` in both modes, and `validate`.  A fourth point,
`tabulated-bler`, reads the default logistic curves sampled every 2 dB
from a measured-style BLER table (`tabulated-bler/bler.csv`, written
first) and runs `goodput-curve`, `solve` and the four `simulate`
commands.  That is 39 commands, one directory per point and command, run
from OUTDIR so that every config names its files relatively, plus
`exit_codes.txt`; all 39 exit 0 and write one output file each, so there
are 39 output files besides the configs and the BLER table.  Run it in two
checkouts and compare them with `--compare A B` (or `diff -r`): it lists
every file under either directory as identical or changed, and for a file
changed only in its numbers the largest relative change among them, how
many of them moved, and how many of its integers (periods, hitting ages,
counts and exit codes, printed without a point or exponent) moved; the last
line totals the integers moved.  It exits 1 when any file differs.  Both
realized sweeps run 10^6 slots at 5 seeds and 7 grid points, so a run
takes several minutes.  Each command's wall time goes to
stderr, never into the output files, so the same run times the commands.
With it go the minor page faults the command took (the change in
`ru_minflt`: pages touched for the first time since the allocator got them
from the system) and the process's peak resident set so far (`ru_maxrss`):
the command after which it rises is the one that raised the memory peak.
"""

import argparse
import json
import os
import re
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
from pilotsched import default_mcs_table  # noqa: E402
from pilotsched.cli import main  # noqa: E402

TABULATED = "tabulated-bler"
POINTS = {"default": None, "20dB-0.15mph": {"snr_db": 20.0, "speed": 0.15},
          "0.005mph": {"speed": 0.005}, TABULATED: {"bler_table": f"{TABULATED}/bler.csv"}}
SIMULATE = [["simulate", "--mode", mode, "--policy", policy]
            for policy in ("threshold", "periodic:2") for mode in ("expected", "realized")]
COMMANDS = [["goodput-curve"], ["solve"]]
COMMANDS += [[sweep, "--mode", mode] for sweep in ("sweep-snr", "sweep-mobility")
             for mode in ("expected", "realized")]
COMMANDS += SIMULATE + [["validate"]]
TABULATED_COMMANDS = [["goodput-curve"], ["solve"]] + SIMULATE


def write_tabulated_bler(path: Path) -> None:
    """The default logistic BLER curves sampled every 2 dB from -30 to 40 dB."""
    rows = ["cqi,snr_db,bler"]
    for entry in default_mcs_table().entries:
        for snr_db in range(-30, 42, 2):
            rows.append(f"{entry.index},{snr_db!r},{float(entry.bler_curve(snr_db))!r}")
    path.write_text("\n".join(rows) + "\n")


def write_outputs(out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    cwd = os.getcwd()
    os.chdir(out_dir)
    try:
        codes = []
        for point, overrides in POINTS.items():
            point_dir = Path(point)
            point_dir.mkdir(exist_ok=True)
            config = []
            if overrides is not None:
                path = point_dir / "config.json"
                path.write_text(json.dumps(overrides, sort_keys=True) + "\n")
                config = ["--config", str(path)]
            if point == TABULATED:
                write_tabulated_bler(point_dir / "bler.csv")
            for command in TABULATED_COMMANDS if point == TABULATED else COMMANDS:
                name = "_".join(w.replace(":", "") for w in command if not w.startswith("--"))
                faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
                start = time.perf_counter()
                code = main(command + config + ["--out", str(point_dir / name)])
                elapsed = time.perf_counter() - start
                usage = resource.getrusage(resource.RUSAGE_SELF)
                codes.append(f"{point} {' '.join(command)} {code}\n")
                print(f"{point} {' '.join(command)}: {elapsed:.2f} s, "
                      f"{usage.ru_minflt - faults} minor page faults, "
                      f"peak RSS {usage.ru_maxrss / 1024:.1f} MB",  # KiB
                      file=sys.stderr)
        Path("exit_codes.txt").write_text("".join(codes))
    finally:
        os.chdir(cwd)


# a decimal number as the CSV and JSON writers print it (repr of a float, or an
# int), not the digits inside a name such as "periodic-2"
NUMBER = re.compile(r"(?<![\w-])-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")
# an integer as the writers print it (periods, hitting ages, counts, exit codes);
# a float's repr always has a point or an exponent
INTEGER = re.compile(r"-?\d+")


def numeric_change(a: str, b: str):
    """(largest relative change, numbers moved, numbers, integers moved,
    integers) between two texts that differ only in their numbers; None when
    the text between the numbers differs.  A pair counts as an integer when
    either side is printed as one."""
    if NUMBER.split(a) != NUMBER.split(b):
        return None
    tokens = list(zip(NUMBER.findall(a), NUMBER.findall(b)))
    pairs = [(float(x), float(y)) for x, y in tokens]
    changes = [abs(x - y) / max(abs(x), abs(y)) for x, y in pairs if x != y]
    integers = [x != y for (x, y), (s, t) in zip(pairs, tokens)
                if INTEGER.fullmatch(s) or INTEGER.fullmatch(t)]
    return max(changes, default=0.0), len(changes), len(pairs), sum(integers), len(integers)


def compare_outputs(a_dir: Path, b_dir: Path) -> int:
    files = sorted({p.relative_to(d) for d in (a_dir, b_dir) for p in d.rglob("*")
                    if p.is_file()})
    differ = integers_moved = 0
    for rel in files:
        a, b = a_dir / rel, b_dir / rel
        if not (a.is_file() and b.is_file()):
            line = f"only in {a_dir if a.is_file() else b_dir}"
        elif a.read_bytes() == b.read_bytes():
            print(f"identical  {rel}")
            continue
        else:
            change = numeric_change(a.read_text(), b.read_text())
            if change is not None:
                integers_moved += change[3]
            line = ("changed, not only in its numbers" if change is None else
                    "changed, max relative change {:.2g} ({} of {} numbers moved, "
                    "{} of {} integers)".format(*change))
        differ += 1
        print(f"{line}  {rel}")
    print(f"{len(files) - differ} of {len(files)} files identical, "
          f"{integers_moved} integers moved")
    return 1 if differ else 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out_dir", type=Path, nargs="?", help="directory for the outputs")
    parser.add_argument("--compare", type=Path, nargs=2, metavar=("A", "B"),
                        help="compare two output directories instead")
    args = parser.parse_args()
    if (args.compare is None) == (args.out_dir is None):
        parser.error("give either OUTDIR or --compare A B")
    if args.compare is not None:
        sys.exit(compare_outputs(*args.compare))
    write_outputs(args.out_dir)
