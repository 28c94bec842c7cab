"""The three benchmark workloads.

Each workload builds its inputs from the seed in `setup` (untimed by the
operation, timed as set-up), runs one timed operation in `run`, and
checks the operation's outputs in `check`, which returns the list of
failed checks (empty when every check passed) and the report's
grand-average segment accuracy.

The network and back-end settings mirror `e2e_config` in
`tests/test_acceptance.py`, the repository's acceptance config; they are
copied rather than imported so that a change to the tests cannot change
the benchmark. Program functions are called through their modules, so
that the tracer's rebinding reaches these calls too.
"""

import contextlib
import glob
import io
import json
import os
from dataclasses import replace

from aecfeat import cli, pipeline, prepare, serialize, synthetic
from aecfeat.frontend import FrontendConfig
from aecfeat.network import TrainConfig
from aecfeat.pipeline import RunConfig, default_svm_grid

CLEAN_GATE_PCT = 95.0  # the acceptance gate on clean segment accuracy


def e2e_config(out_dir, variant, source_epochs=8, target_epochs=10):
    """The acceptance config, whose SVM trains on every 8th frame. The
    network seed is fixed; only the corpus depends on the run seed."""
    return RunConfig(
        frontend=FrontendConfig(input_mode="dft_mag", splice_context=3),
        sl_widths=(256, 256, 256), tl1_dim=128, tl2_dim=150,
        source_train=TrainConfig(lr0=0.05, max_epochs_per_stage=source_epochs,
                                 batch_size=128, seed=0),
        target_train=TrainConfig(lr0=0.05, max_epochs_per_stage=target_epochs,
                                 batch_size=128, seed=0),
        transform="dct", transform_dim=50,
        classifier="svm", svm_c=10.0, svm_frame_step=8,
        variant=variant, seed=0, out_dir=str(out_dir))


def _check_artifacts(out_dir):
    """Every .aecf file the operation wrote reloads with its CRC verified."""
    paths = sorted(glob.glob(os.path.join(out_dir, "*.aecf")))
    if not paths:
        return ["no .aecf artifact was written"]
    failed = []
    for path in paths:
        try:
            serialize.load_model(path)
        except Exception as e:  # any failure to reload is a failed check
            failed.append(f"{os.path.basename(path)} does not reload: {e!r}")
    return failed


def _check_report(report_dict):
    clean = report_dict["condition_accuracy"].get("clean")
    if clean is None:
        return ["report has no clean condition"]
    if clean < CLEAN_GATE_PCT:
        return [f"clean accuracy {clean:.2f}% < {CLEAN_GATE_PCT}%"]
    return []


class RunC:
    name = "run-c"
    why = ("one run_pipeline call on the acceptance config, variant C: the "
           "headline figure; frozen-trunk training dominates")

    def setup(self, root, seed):
        data = os.path.join(root, "data")
        return {"manifest": synthetic.generate_dataset(data, seed=seed)}

    def run(self, inputs, out_dir):
        report, _ = pipeline.run_pipeline(e2e_config(out_dir, "C"),
                                          inputs["manifest"])
        return report.to_dict()

    def check(self, inputs, out_dir, result):
        return (_check_report(result) + _check_artifacts(out_dir),
                result["grand_average"])


class NoisyEvalB:
    name = "noisy-eval-b"
    why = ("variant B with the dense SVM over 4 noise conditions: "
           "extraction, frontend and scoring dominate; no frozen layers")
    SNRS = (5, 10, 15)
    EVAL_PER_CLASS = 30

    def setup(self, root, seed):
        data = os.path.join(root, "data")
        manifest = synthetic.generate_dataset(
            data, target_eval_per_class=self.EVAL_PER_CLASS, seed=seed)
        noise = synthetic.generate_noise_wav(data, seed=seed + 1)
        manifest = prepare.prepare_conditions(
            manifest, [noise], os.path.join(root, "cond"), snrs=self.SNRS,
            seed=seed)
        return {"manifest": manifest}

    def run(self, inputs, out_dir):
        # 5 epochs per stage instead of 10 keeps the run inside the
        # benchmark's time budget; this workload is about extraction,
        # frontend and scoring, and still trains all five layers
        cfg = replace(e2e_config(out_dir, "B", target_epochs=5),
                      svm_frame_step=1)
        report, _ = pipeline.run_pipeline(cfg, inputs["manifest"])
        return report.to_dict()

    def check(self, inputs, out_dir, result):
        failed = _check_report(result) + _check_artifacts(out_dir)
        n_conditions = 1 + len(self.SNRS)
        if len(result["conditions"]) != n_conditions:
            failed.append(f"{len(result['conditions'])} conditions, "
                          f"expected {n_conditions}")
        n_classes = len(result["classes"])
        for cond, per_class in result["per_condition_class"].items():
            segs = sum(n for _, n in per_class.values())
            if segs != n_classes * self.EVAL_PER_CLASS:
                failed.append(f"condition {cond} has {segs} segments, "
                              f"expected {n_classes * self.EVAL_PER_CLASS}")
        return failed, result["grand_average"]


class StagedCv:
    name = "staged-cv"
    why = ("the staged CLI chain in-process, ending in 2-fold SVM grid "
           "cross-validation: artifact files between stages, SMO solver")
    STAGES = (
        ("train-source", True), ("adapt", True),
        ("extract", True, "--split", "train"), ("extract", True, "--split", "eval"),
        ("fit-transform", False), ("fit-classifier", False),
        ("evaluate", False), ("cross-validate", False, "--k", "2"),
    )

    def setup(self, root, seed):
        manifest = os.path.join(root, "data", "manifest.csv")
        synthetic.generate_dataset(os.path.dirname(manifest), seed=seed)
        config = os.path.join(root, "config.json")
        cfg = e2e_config(os.path.join(root, "unused"), "C",
                         source_epochs=4, target_epochs=5)
        with open(config, "w", encoding="utf-8") as f:
            json.dump(cfg.to_dict(), f)
        return {"manifest": manifest, "config": config}

    def run(self, inputs, out_dir):
        """Run every stage through `aecfeat.cli.main`; returns one
        (stage, exit code, stdout) triple per stage."""
        results = []
        for command, takes_manifest, *extra in self.STAGES:
            argv = ["--config", inputs["config"], "--out", out_dir, command]
            argv += [inputs["manifest"]] if takes_manifest else []
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                rc = cli.main(argv + list(extra))
            results.append((command, rc, buf.getvalue()))
        return results

    def check(self, inputs, out_dir, result):
        failed = [f"{cmd} exited {rc}" for cmd, rc, _ in result if rc != 0]
        if failed:
            return failed, 0.0
        try:
            best = json.loads(result[-1][2])["best"]
        except (ValueError, KeyError) as e:
            best = None
            failed.append(f"cross-validate printed no best grid point: {e!r}")
        # the grid is defined over the DCT output dimension
        dim = e2e_config("", "C").transform_dim
        if best is not None and best not in default_svm_grid(dim):
            failed.append(f"cross-validate best {best} is not a grid point")
        with open(os.path.join(out_dir, "report.json"), encoding="utf-8") as f:
            report = json.load(f)
        failed += _check_report(report) + _check_artifacts(out_dir)
        return failed, report["grand_average"]


WORKLOADS = {w.name: w for w in (RunC(), NoisyEvalB(), StagedCv())}
