"""A/A noise report: two sets of benchmark runs of the same code.

Usage (from the repository root)::

    python3 yardstick/aa.py --workload cold-chase --runs 10 --seconds 20

Runs ``yardstick/run.py`` sequentially, one process at a time: set A
with seeds 1..runs, then set B with seeds runs+1..2*runs.  For every
end-to-end metric it prints each set's median and quartiles, the
spread (interquartile distance over the median) and the set-to-set
difference of the medians, signed so that positive means B is worse.
Those are the figures the bounds in ``BENCHMARK.json`` are set from.
Each run's host diagnostics (steal ticks, load average) are echoed so
an outlier can be traced to the machine.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def one_run(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"run failed ({workload}, seed {seed}):\n{proc.stdout}\n{proc.stderr}")
    host = next((line for line in lines if line.startswith("host:")), "host: ?")
    phases = next((line for line in lines if line.startswith("phases:")), "")
    result = json.loads(lines[-1])
    print(f"  seed {seed:3d}: correct={result['correct']} {host[6:]} {phases[8:]}", flush=True)
    return result


def spread(values) -> tuple:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=20)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    metrics = {m["name"]: m for m in spec["end_to_end"]}

    report = {}
    for workload in args.workload:
        sets = []
        for index, label in enumerate("AB"):
            print(f"{workload} set {label}:", flush=True)
            seeds = range(1 + index * args.runs, 1 + (index + 1) * args.runs)
            sets.append([one_run(workload, seed, args.seconds) for seed in seeds])
        print(f"{workload}: metric, set A median [q1, q3] spread | set B ... | B vs A (bound)")
        report[workload] = {}
        for name, meta in metrics.items():
            columns = []
            medians = []
            for runs in sets:
                values = [run["metrics"][name]["value"] for run in runs]
                median, q1, q3, share = spread(values)
                medians.append(median)
                columns.append(f"{median:.6g} [{q1:.6g}, {q3:.6g}] {share:.3f}")
                report[workload].setdefault(name, []).append(values)
            sign = 1 if meta["better"] == "lower" else -1
            worse = sign * (medians[1] - medians[0]) / medians[0]
            print(f"  {name:18s} {columns[0]} | {columns[1]} | {worse:+.3f} ({meta['bound']})")
    out = os.path.join(ROOT, ".yardstick-work", "aa-report.json")
    os.makedirs(os.path.dirname(out), exist_ok=True)
    with open(out, "w") as handle:
        json.dump(report, handle, indent=1)
    print(f"raw values: {os.path.relpath(out, ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
