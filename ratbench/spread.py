#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics on one workload.

    python3 ratbench/spread.py --workload explore --seeds 1-10 --seconds 20

Runs run.py once per seed with --trace 0 and prints, for each end-to-end
metric, its values, their median and their spread: the distance between
the first and third quartile as a share of the median. The bound from
BENCHMARK.json is printed beside it; a benchmark is steady when every
spread except setup_s's is below its bound (the aim is a third of it).
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True
import metrics as M  # noqa: E402

BENCH = Path(__file__).resolve().parent


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="first-last, inclusive")
    ap.add_argument("--seconds", type=float, default=20)
    args = ap.parse_args()
    first, last = (int(x) for x in args.seeds.split("-"))
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    values = {m["name"]: [] for m in spec["end_to_end"]}
    for seed in range(first, last + 1):
        run = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, cwd=BENCH.parent)
        result = json.loads(run.stdout.splitlines()[-1]) if run.returncode in (0, 1) else None
        if not result or not result["correct"]:
            print(f"seed {seed}: exit {run.returncode}\n{run.stdout[-2000:]}")
            return 1
        for name in values:
            values[name].append(result["metrics"][name]["value"])
        print(f"seed {seed}: " + "  ".join(f"{n}={v[-1]:.6g}" for n, v in values.items()),
              flush=True)
    for m in spec["end_to_end"]:
        v = values[m["name"]]
        print(f"{m['name']:15} median {statistics.median(v):.6g} {m['unit']}  "
              f"spread {M.spread(v):.3f}  bound {m['bound']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
