"""Benchmark entry point for aecfeat.

    python3 perfbench/run.py --workload run-c --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from its
`src/` directory. The workload's inputs are generated from --seed. A plain
run (--trace 0) sets the inputs up several times and reports the median
set-up time, then repeats the timed operation until --seconds have passed
(at least once) and reports end-to-end metrics as medians over the
operations. A traced run (--trace 1) sets up once and runs the operation
once, both under the tracer, and reports the per-layer metrics. Every
operation's outputs are checked; an operation that raises or fails a
check counts as failed.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. The line before it records
the environment. Results, and in traced runs every span, are also written
to `.perfbench/results/` in the checkout.
"""

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
STATE = os.path.join(ROOT, ".perfbench")
N_SETUPS = 3
BLAS_THREADS = 1

END_TO_END = [
    ("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
    ("accuracy_pct", "%"), ("success_pct", "%"),
]


def _nproc():
    return len(os.sched_getaffinity(0))


def _pin_blas_threads():
    """One BLAS thread (at most nproc): on a shared two-core machine, two
    threads ran about 10% faster but varied several times more from run
    to run. Must run before numpy loads."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def _import_program():
    """Import aecfeat from this checkout's src/ and nowhere else."""
    sys.path.insert(0, SRC)
    try:
        import aecfeat
    except ImportError as e:
        sys.exit(f"perfbench: cannot import aecfeat from {SRC}: {e}")
    if not os.path.abspath(aecfeat.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: aecfeat was imported from {aecfeat.__file__}, "
                 f"not from {SRC}")


def _blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None."""
    import ctypes
    with open("/proc/self/maps", encoding="utf-8") as f:
        libs = {line.split()[-1] for line in f if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def environment():
    import platform

    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": _nproc(),
        "cpu_count": os.cpu_count(),
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_threads": _blas_threads(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def _check_declared(trace):
    """The metrics this file emits are exactly those BENCHMARK.json lists."""
    from spans import PER_LAYER
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    key, ours = (("per_layer", [m[:2] for m in PER_LAYER]) if trace
                 else ("end_to_end", END_TO_END))
    declared = [(m["name"], m["unit"]) for m in spec[key]]
    if declared != ours:
        sys.exit(f"perfbench: BENCHMARK.json {key} does not match the metrics "
                 f"this benchmark emits")


class Operations:
    """Runs and checks the timed operations of one workload."""

    def __init__(self, workload, inputs, work):
        self.workload, self.inputs, self.work = workload, inputs, work
        self.attempted = self.failed = 0
        self.walls, self.accuracies, self.problems = [], [], []

    def run_one(self, tracer=None):
        """Time one operation (under `tracer` if given), then check it."""
        out = os.path.join(self.work, f"op{self.attempted}")
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            with tracer or contextlib.nullcontext():
                result = self.workload.run(self.inputs, out)
        except Exception:  # an operation that raises is a failed operation
            self.walls.append(time.perf_counter() - t0)
            traceback.print_exc()
            self.failed += 1
            self.problems.append(f"op {self.attempted - 1} raised")
            return
        self.walls.append(time.perf_counter() - t0)
        problems, accuracy = self.workload.check(self.inputs, out, result)
        self.accuracies.append(accuracy)
        if problems:
            self.failed += 1
            self.problems += problems
            for p in problems:
                print(f"check failed: {p}", file=sys.stderr)
        shutil.rmtree(out, ignore_errors=True)


def _timed_setup(workload, root, seed):
    t0 = time.perf_counter()
    inputs = workload.setup(root, seed)
    return inputs, time.perf_counter() - t0


def run_plain(workload, seed, seconds, work):
    setup_times = []
    for i in range(N_SETUPS):
        root = os.path.join(work, f"setup{i}")
        inputs, dt = _timed_setup(workload, root, seed)
        setup_times.append(dt)
        if i < N_SETUPS - 1:
            shutil.rmtree(root)
    ops = Operations(workload, inputs, work)
    start = time.perf_counter()
    while True:
        ops.run_one()
        if time.perf_counter() - start >= seconds:
            break
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "wall_s": statistics.median(ops.walls),
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_kb / 1024.0,
        "accuracy_pct": (statistics.median(ops.accuracies)
                         if ops.accuracies else 0.0),
        "success_pct": 100.0 * (ops.attempted - ops.failed) / ops.attempted,
    }
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in END_TO_END}
    details = {"setup_times_s": setup_times, "walls_s": ops.walls,
               "accuracies_pct": ops.accuracies}
    return ops, metrics, details, None


def run_traced(workload, seed, work):
    from spans import Tracer, per_layer_metrics
    tracer = Tracer()
    tracer.phase = "setup"
    with tracer:
        inputs, setup_s = _timed_setup(workload, os.path.join(work, "setup0"),
                                       seed)
    ops = Operations(workload, inputs, work)
    tracer.phase = "op"
    ops.run_one(tracer)
    details = {"setup_s": setup_s, "traced_wall_s": ops.walls[0]}
    return ops, per_layer_metrics(tracer), details, tracer.span_records()


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    _pin_blas_threads()
    _import_program()
    _check_declared(args.trace)
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    env = environment()

    work = os.path.join(STATE, f"work-{workload.name}-{args.seed}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    try:
        if args.trace:
            ops, metrics, details, spans = run_traced(workload, args.seed, work)
        else:
            ops, metrics, details, spans = run_plain(workload, args.seed,
                                                     args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    result = {"correct": ops.failed == 0, "attempted": ops.attempted,
              "failed": ops.failed, "metrics": metrics}
    record = {"workload": workload.name, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": env, "result": result, "details": details,
              "failed_checks": ops.problems}
    if spans is not None:
        record["spans"] = spans
    os.makedirs(os.path.join(STATE, "results"), exist_ok=True)
    out = os.path.join(STATE, "results",
                       f"{workload.name}-seed{args.seed}-trace{args.trace}.json")
    with open(out, "w", encoding="utf-8") as f:
        json.dump(record, f)

    for name, m in metrics.items():
        print(f"{workload.name} {name} {m['value']:.6g} {m['unit']}")
    print("environment " + json.dumps(env, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
