"""Span tracing from outside the program.

`Tracer.install()` rebinds every public module-level function of the traced
aecfeat modules as a timing wrapper, in every aecfeat module that binds it
(`train`, for example, is bound in `network`, `pipeline`, `transfer`,
`classifiers` and `cli`), so calls made through any of those names are
recorded. Private functions (leading underscore) are never wrapped and no
file of the program changes. `uninstall()` puts the originals back.

Each span records its name, start, end and parent span. Spans stay in
memory until the run ends. A few wrappers also add up counts at the same
boundary; the counts marked "computed" below are derived from argument
shapes, not measured.
"""

import functools
import importlib
import inspect
import os
import statistics
import sys
import time
from collections import defaultdict

TRACED_MODULES = ("audio", "frontend", "network", "transfer", "transforms",
                  "classifiers", "serialize", "pipeline", "prepare",
                  "synthetic", "cli")


def _span_name(module, attr):
    # cli subcommand handlers are named after their subcommand
    if module == "cli" and attr.startswith("cmd_"):
        return "cli." + attr[4:].replace("_", "-")
    return f"{module}.{attr}"


def _layer_gflop(net, rows):
    """(total, frozen) GFLOP of one `grad` call, computed from shapes.

    Per layer: 2*rows*in*out multiply-adds for the forward product, the
    same again for the weight gradient unless the layer is frozen, and the
    same again to back-propagate the error below it unless it is the
    first layer.
    """
    total = frozen = 0.0
    for k, layer in enumerate(net.layers):
        one = 2.0 * rows * layer.w.shape[0] * layer.w.shape[1]
        flops = one * (1 + (not layer.frozen) + (k > 0))
        total += flops
        if layer.frozen:
            frozen += flops
    return total / 1e9, frozen / 1e9


def _count_train(counts, a, result):
    counts["network.train.epochs"] += result[1].final_epoch


def _count_grad(counts, a, result):
    rows = len(a["x"])
    total, frozen = _layer_gflop(a["net"], rows)
    counts["network.grad.rows"] += rows
    counts["network.grad.gflop"] += total
    counts["network.grad.frozen_gflop"] += frozen


def _count_predict(counts, a, result):
    counts["network.predict.rows"] += len(result)


def _count_extract(counts, a, result):
    counts["transfer.extract.rows"] += result.rows


def _count_frontend(counts, a, result):
    counts["frontend.make_frontend_features.rows"] += result.rows


def _count_svm_fit(counts, a, result):
    rows = len(a["features"])
    counts["classifiers.svm_fit.rows"] += rows
    counts["classifiers.svm.sv"] += sum(len(m.dual_coef)
                                        for m in result.machines.values())
    counts["classifiers.svm.sv_base"] += rows * len(result.machines)


def _count_rbf(counts, a, result):
    counts["classifiers.rbf_kernel.melem"] += result.size / 1e6


def _count_save(counts, a, result):
    counts["serialize.save_model.bytes"] += os.path.getsize(a["path"])


# span name -> hook(counts, bound arguments, return value)
COUNTERS = {
    "network.train": _count_train,
    "network.grad": _count_grad,
    "network.predict": _count_predict,
    "transfer.extract": _count_extract,
    "frontend.make_frontend_features": _count_frontend,
    "classifiers.svm_fit": _count_svm_fit,
    "classifiers.rbf_kernel": _count_rbf,
    "serialize.save_model": _count_save,
}


class Tracer:
    def __init__(self):
        self.spans = []    # [name, start, end, parent index or -1, phase]
        self.counts = defaultdict(float)
        self.phase = ""
        self.hook_s = 0.0  # time spent adding up counts
        self._stack = []
        self._restore = []  # (module, attribute, original)

    def _wrap(self, name, fn):
        spans, stack, counts = self.spans, self._stack, self.counts
        hook = COUNTERS.get(name)
        sig = inspect.signature(fn) if hook else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1,
                          self.phase])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[idx][2] = clock()
                stack.pop()
            if hook is not None:
                t = clock()
                hook(counts, sig.bind(*args, **kwargs).arguments, result)
                self.hook_s += clock() - t
            return result

        return wrapper

    def install(self):
        wrappers = {}
        for short in TRACED_MODULES:
            mod = importlib.import_module(f"aecfeat.{short}")
            for attr, fn in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == mod.__name__):
                    wrappers[fn] = self._wrap(_span_name(short, attr), fn)
        binders = [m for n, m in list(sys.modules.items())
                   if n == "aecfeat" or n.startswith("aecfeat.")]
        for mod in binders:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(mod, attr, wrappers[value])
                    self._restore.append((mod, attr, value))

    def uninstall(self):
        for mod, attr, value in reversed(self._restore):
            setattr(mod, attr, value)
        self._restore.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def summary(self):
        """Per span name: calls, inclusive seconds, self seconds and the
        list of single-call durations. A span nested inside a span of the
        same name adds nothing to the inclusive time, so no interval is
        counted twice there."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out = {}
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            s = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0,
                                      "durations": []})
            s["calls"] += 1
            s["self_s"] += (end - start) - child_time[i]
            s["durations"].append(end - start)
            p = parent
            while p >= 0 and self.spans[p][0] != name:
                p = self.spans[p][3]
            if p < 0:
                s["s"] += end - start
        return out

    def overhead_s(self, reps=5, calls=20000):
        """Estimated time the tracing added: the span count times the cost
        of one traced call (median over `reps` timings of `calls` calls to
        a traced and a bare no-op), plus the measured time in counters."""
        def noop():
            return None

        traced = Tracer()._wrap("noop", noop)
        clock = time.perf_counter
        costs = []
        for _ in range(reps):
            t0 = clock()
            for _ in range(calls):
                noop()
            t1 = clock()
            for _ in range(calls):
                traced()
            costs.append(((clock() - t1) - (t1 - t0)) / calls)
        return len(self.spans) * max(0.0, statistics.median(costs)) + self.hook_s

    def span_records(self):
        return [{"name": n, "start": s, "end": e, "parent": p, "phase": ph}
                for n, s, e, p, ph in self.spans]


# Per-layer metrics of a traced run: (name, unit, kind, key). kind "s" is
# the inclusive time of the span named by key, "self_s" its self time,
# "calls" its call count, "count" a counter added up by a wrapper. Units
# starting with "computed_" are operation counts derived from shapes.
PER_LAYER = [
    ("network.train.s", "s", "s", "network.train"),
    ("network.train.self_s", "s", "self_s", "network.train"),
    ("network.train.calls", "count", "calls", "network.train"),
    ("network.train.epochs", "count", "count", "network.train.epochs"),
    ("network.grad.s", "s", "s", "network.grad"),
    ("network.grad.self_s", "s", "self_s", "network.grad"),
    ("network.grad.calls", "count", "calls", "network.grad"),
    ("network.grad.rows", "count", "count", "network.grad.rows"),
    ("network.grad.gflop", "computed_GFLOP", "count", "network.grad.gflop"),
    ("network.grad.frozen_gflop", "computed_GFLOP", "count",
     "network.grad.frozen_gflop"),
    ("network.predict.s", "s", "s", "network.predict"),
    ("network.predict.rows", "count", "count", "network.predict.rows"),
    ("network.forward.s", "s", "s", "network.forward"),
    ("network.sgd_step.s", "s", "s", "network.sgd_step"),
    ("network.sgd_step.calls", "count", "calls", "network.sgd_step"),
    ("transfer.adapt.s", "s", "s", "transfer.adapt"),
    ("transfer.extract.s", "s", "s", "transfer.extract"),
    ("transfer.extract.calls", "count", "calls", "transfer.extract"),
    ("transfer.extract.rows", "count", "count", "transfer.extract.rows"),
    ("transfer.extract.p50_ms", "ms", "p50_ms", "transfer.extract"),
    ("transfer.extract.p98_ms", "ms", "p98_ms", "transfer.extract"),
    ("frontend.make_frontend_features.s", "s", "s",
     "frontend.make_frontend_features"),
    ("frontend.make_frontend_features.rows", "count", "count",
     "frontend.make_frontend_features.rows"),
    ("frontend.apply_norm.s", "s", "s", "frontend.apply_norm"),
    ("frontend.splice.s", "s", "s", "frontend.splice"),
    ("audio.read_wav.s", "s", "s", "audio.read_wav"),
    ("transforms.dct_apply.s", "s", "s", "transforms.dct_apply"),
    ("classifiers.svm_fit.s", "s", "s", "classifiers.svm_fit"),
    ("classifiers.svm_fit.self_s", "s", "self_s", "classifiers.svm_fit"),
    ("classifiers.svm_fit.rows", "count", "count", "classifiers.svm_fit.rows"),
    ("classifiers.rbf_kernel.s", "s", "s", "classifiers.rbf_kernel"),
    ("classifiers.rbf_kernel.melem", "computed_Melem", "count",
     "classifiers.rbf_kernel.melem"),
    ("classifiers.smo_solve.s", "s", "s", "classifiers.smo_solve"),
    ("classifiers.smo_solve.calls", "count", "calls", "classifiers.smo_solve"),
    ("classifiers.svm.sv_share", "ratio", "sv_share", ""),
    ("classifiers.svm_score_matrix.s", "s", "s", "classifiers.svm_score_matrix"),
    ("classifiers.classify_segment.s", "s", "s", "classifiers.classify_segment"),
    ("serialize.save_model.s", "s", "s", "serialize.save_model"),
    ("serialize.save_model.calls", "count", "calls", "serialize.save_model"),
    ("serialize.save_model.bytes", "computed_bytes", "count",
     "serialize.save_model.bytes"),
    ("serialize.load_model.s", "s", "s", "serialize.load_model"),
    ("serialize.load_model.calls", "count", "calls", "serialize.load_model"),
    ("pipeline.run_pipeline.s", "s", "s", "pipeline.run_pipeline"),
    ("pipeline.run_pipeline.self_s", "s", "self_s", "pipeline.run_pipeline"),
    ("pipeline.cross_validate.s", "s", "s", "pipeline.cross_validate"),
    ("pipeline.cross_validate.self_s", "s", "self_s", "pipeline.cross_validate"),
    ("cli.train-source.s", "s", "s", "cli.train-source"),
    ("cli.adapt.s", "s", "s", "cli.adapt"),
    ("cli.extract.s", "s", "s", "cli.extract"),
    ("cli.fit-transform.s", "s", "s", "cli.fit-transform"),
    ("cli.fit-classifier.s", "s", "s", "cli.fit-classifier"),
    ("cli.evaluate.s", "s", "s", "cli.evaluate"),
    ("cli.cross-validate.s", "s", "s", "cli.cross-validate"),
    ("prepare.prepare_conditions.s", "s", "s", "prepare.prepare_conditions"),
    ("synthetic.generate_dataset.s", "s", "s", "synthetic.generate_dataset"),
    ("trace.overhead_s", "s", "overhead", ""),
]


def _percentile_ms(durations, q):
    """Nearest-rank percentile of single-call durations, in ms."""
    if not durations:
        return 0.0
    ranked = sorted(durations)
    return 1e3 * ranked[max(0, -(-len(ranked) * q // 100) - 1)]


def per_layer_metrics(tracer):
    """Every PER_LAYER metric as {name: {"value", "unit"}}. A span that
    never ran on this workload reads 0."""
    summary = tracer.summary()
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0, "durations": []}
    counts = tracer.counts
    out = {}
    for name, unit, kind, key in PER_LAYER:
        span = summary.get(key, empty)
        if kind in ("s", "self_s", "calls"):
            value = span[kind]
        elif kind == "count":
            value = counts[key]
        elif kind == "p50_ms":
            value = _percentile_ms(span["durations"], 50)
        elif kind == "p98_ms":
            value = _percentile_ms(span["durations"], 98)
        elif kind == "sv_share":
            base = counts["classifiers.svm.sv_base"]
            value = counts["classifiers.svm.sv"] / base if base else 0.0
        else:
            value = tracer.overhead_s()
        out[name] = {"value": value, "unit": unit}
    return out
