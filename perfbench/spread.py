"""Run the benchmark over several workloads and seeds and summarize it.

    python3 perfbench/spread.py --seeds 1              # every workload once
    python3 perfbench/spread.py --workloads run-c --seeds 1 2 3 4 5
    python3 perfbench/spread.py --trace 1 --seeds 7 7  # counts must repeat

Each (workload, seed) pair is one `run.py` process, run one after another.
For every workload and metric this prints the values, their median and
their spread: the distance between the first and third quartile
(`statistics.quantiles(values, n=4)`) as a share of the median. A plain
run (--trace 0) flags an end-to-end metric other than setup_s whose spread
is not below a third of its bound in BENCHMARK.json. When a seed is
given more than once, every count metric (unit `count` or `computed_*`)
and, in plain runs, accuracy must read exactly the same on each run of
that seed. Exits 1 if any run fails, any check fails, or a flag is raised.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_one(workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        return None
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return (q3 - q1) / abs(med) if med else 0.0


def _repeats(runs, metric_names):
    """Metrics that read differently on two runs of one seed."""
    by_seed = {}
    for seed, result in runs:
        by_seed.setdefault(seed, []).append(result["metrics"])
    bad = []
    for seed, results in by_seed.items():
        for name in metric_names:
            if len({r[name]["value"] for r in results}) > 1:
                bad.append(f"seed {seed}: {name} differs between runs")
    return bad


def main(argv=None):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workloads", nargs="+",
                   default=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seeds", nargs="+", type=int, default=[1])
    p.add_argument("--seconds", type=float, default=spec["run_seconds"])
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    problems = []
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            result = run_one(workload, seed, args.seconds, args.trace)
            if result is None or not result["correct"]:
                problems.append(f"{workload} seed {seed}: run failed")
                if result is None:
                    continue
            runs.append((seed, result))
        if not runs:
            continue
        print(f"== {workload}: {len(runs)} run(s), seeds "
              f"{' '.join(str(s) for s, _ in runs)}")
        for m in declared:
            values = [r["metrics"][m["name"]]["value"] for _, r in runs]
            share = spread(values)
            flag = ""
            if (not args.trace and m["name"] != "setup_s"
                    and share >= m["bound"] / 3):
                flag = f"  SPREAD >= bound/3 ({m['bound'] / 3:.4f})"
                problems.append(f"{workload} {m['name']}: spread {share:.4f}")
            print(f"{m['name']:40s} median {statistics.median(values):12.6g} "
                  f"{m['unit']:15s} spread {share:7.4f}{flag}")
            print(f"{'':40s} values {' '.join(f'{v:.6g}' for v in values)}")
        counted = [m["name"] for m in declared
                   if m["unit"] == "count" or m["unit"].startswith("computed_")
                   or m["name"] == "accuracy_pct"]
        problems += [f"{workload} {b}" for b in _repeats(runs, counted)]
    for line in problems:
        print(f"FLAG {line}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
