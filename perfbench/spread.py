#!/usr/bin/env python3
"""Run the benchmark on several seeds and report each metric's spread.

Runs the command from BENCHMARK.json once per (workload, seed) from the
repository root, then prints, per workload and end-to-end metric, the median
over the seeds and the spread: the distance between the first and third
quartile (statistics.quantiles(values, n=4)) as a share of the median. A
spread must stay within the metric's bound to be resolvable; aim for a third
of it. Every metric is flagged against its bound, setup_s included. With
--against, also prints how far each median moved from an earlier --out file,
as a share of that earlier median.

    python3 perfbench/spread.py --seeds 10 --out perfbench/out/a.json
    python3 perfbench/spread.py --workloads gnp-sim --seeds 5
    python3 perfbench/spread.py --seeds 10 --against perfbench/out/a.json
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(command, workload, seed, seconds, trace):
    args = command + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    done = subprocess.run(args, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if done.returncode != 0:
        sys.exit(f"{workload} seed {seed}: exit {done.returncode}\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload} seed {seed}: incorrect\n{done.stderr}")
    return {name: m["value"] for name, m in result["metrics"].items()}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return median, (q3 - q1) / median if median else 0.0


def main():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="*",
                        default=[w["name"] for w in bench["workloads"]])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--out", help="write every measured value to this JSON file")
    parser.add_argument("--against", help="an earlier --out file to compare medians with")
    opts = parser.parse_args()

    earlier = json.loads(Path(opts.against).read_text()) if opts.against else {}
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    values = {}
    for workload in opts.workloads:
        runs = [run_once(bench["command"], workload, seed, opts.seconds, 0)
                for seed in range(opts.first_seed, opts.first_seed + opts.seeds)]
        values[workload] = {name: [r[name] for r in runs] for name in bounds}
        print(f"\n{workload}: {opts.seeds} seeds")
        print(f"  {'metric':24} {'median':>12} {'spread':>8} {'bound':>6} {'moved':>8}")
        for name, meta in bounds.items():
            median, share = spread(values[workload][name])
            if share > meta["bound"]:
                flag = "  <-- above bound"
            elif share > meta["bound"] / 3:
                flag = "  <-- above a third of bound"
            else:
                flag = ""
            moved = ""
            if workload in earlier:
                before = statistics.median(earlier[workload][name])
                worse = (median - before) if meta["better"] == "lower" else (before - median)
                moved = f"{worse / before:+8.2%}" if before else ""
                if before and worse / before > meta["bound"]:
                    flag += "  <-- median worse than bound"
            print(f"  {name:24} {median:12.5g} {share:8.2%} {meta['bound']:6.2f} {moved:>8}{flag}")
    if opts.out:
        Path(opts.out).write_text(json.dumps(values, indent=1))


if __name__ == "__main__":
    main()
