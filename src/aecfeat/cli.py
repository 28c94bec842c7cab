"""Command-line entry points.

Every subcommand reads a JSON config mirroring RunConfig (--config), takes
--seed and --out overrides, and exits with code 2 and a stage-named message
on failure. Each staged subcommand loads its inputs from the output
directory (*.aecf models, features_*.npz), calls the pipeline stage that
`run` calls, and saves what the stage returns there.
"""

import argparse
import json
import os
import sys

import numpy as np

from . import pipeline as pl
from .audio import read_wav, synth_rir
from .errors import StageError
from .frontend import FeatureMatrix
from .manifest import load_manifest, save_manifest
from .pipeline import RunConfig
from .prepare import prepare_conditions, prepare_source
from .report import render_report, render_table
from .serialize import load_model
from .synthetic import generate_dataset, generate_noise_wav


def _load_cfg(args):
    cfg = RunConfig.from_json(args.config) if args.config else RunConfig()
    if args.seed is not None:
        cfg.seed = args.seed
        cfg.source_train.seed = args.seed
        cfg.target_train.seed = args.seed
    if args.out is not None:
        cfg.out_dir = args.out
    os.makedirs(cfg.out_dir, exist_ok=True)
    return cfg


def _load(cfg, name):
    return load_model(pl.artifact_path(cfg, name + ".aecf"))


def _load_transform(cfg):
    return None if cfg.transform == "none" else _load(cfg, "transform")


def _save_features(cfg, split, entries, taps):
    path = pl.artifact_path(cfg, f"features_{split}.npz")
    np.savez(path, __labels__=np.array([e.label for e in entries]),
             __conditions__=np.array([e.condition for e in entries]),
             __splits__=np.array([e.split for e in entries]),
             **{f"seg{i:05d}": t.values for i, t in enumerate(taps)})
    return path


def _load_features(cfg, split):
    """(taps, labels, conditions) from features_<split>.npz. Features enter
    the program here, so this is where non-finite values are rejected."""
    path = pl.artifact_path(cfg, f"features_{split}.npz")
    with np.load(path, allow_pickle=False) as data:
        taps = [FeatureMatrix(data[f"seg{i:05d}"], split=s)
                for i, s in enumerate(data["__splits__"].tolist())]
        if not all(np.isfinite(t.values).all() for t in taps):
            raise ValueError(f"{path} contains non-finite feature values")
        return (taps, data["__labels__"].tolist(),
                data["__conditions__"].tolist())


def cmd_synth_data(args, cfg):
    manifest = generate_dataset(os.path.join(cfg.out_dir, "data"), seed=cfg.seed)
    noise = generate_noise_wav(os.path.join(cfg.out_dir, "data"), seed=cfg.seed + 1)
    print(os.path.join(cfg.out_dir, "data", "manifest.csv"))
    print(noise)


def cmd_prepare_source(args, cfg):
    manifest = load_manifest(args.manifest)
    rir = None
    if args.rir_wav:
        rir = read_wav(args.rir_wav).samples
    elif args.rt60 is not None:
        rir = synth_rir(rt60_s=args.rt60, length_s=args.rir_length,
                        seed=cfg.seed)
    out = prepare_source(manifest, os.path.join(cfg.out_dir, "source_prep"),
                         target_seconds=args.target_seconds, rir=rir,
                         seed=cfg.seed)
    path = os.path.join(cfg.out_dir, "manifest_source_prep.csv")
    save_manifest(out, path)
    print(path)


def cmd_prepare_conditions(args, cfg):
    manifest = load_manifest(args.manifest)
    out = prepare_conditions(manifest, args.noise, os.path.join(cfg.out_dir, "cond"),
                             snrs=tuple(args.snr), seed=cfg.seed)
    path = os.path.join(cfg.out_dir, "manifest_conditions.csv")
    save_manifest(out, path)
    print(path)


def cmd_run(args, cfg):
    report, paths = pl.run_pipeline(cfg, load_manifest(args.manifest))
    print(render_report(report))
    print(paths["report_json"])


def cmd_train_source(args, cfg):
    manifest = load_manifest(args.manifest)
    source_entries = pl.select(manifest, "source")
    source_mats = pl.frontend_features(cfg, source_entries)
    train_mats = pl.frontend_features(cfg, pl.select(manifest, "target", "train"))
    stats = pl.store(cfg, "norm_stats", pl.fit_norm(source_mats, train_mats))
    if cfg.variant == "B":  # the source network is a variant A/C artifact
        print(pl.artifact_path(cfg, "norm_stats.aecf"))
        return
    pl.store(cfg, "source_model",
             pl.train_source(cfg, source_entries, source_mats, stats))
    print(pl.artifact_path(cfg, "source_model.aecf"))


def cmd_adapt(args, cfg):
    entries = pl.select(load_manifest(args.manifest), "target", "train")
    source_model = None if cfg.variant == "B" else _load(cfg, "source_model")
    composite, filt = pl.adapt_filter(cfg, entries,
                                      pl.frontend_features(cfg, entries),
                                      _load(cfg, "norm_stats"), source_model)
    pl.store(cfg, "composite", composite)
    pl.store(cfg, "filter", filt)
    print(pl.artifact_path(cfg, "filter.aecf"))


def cmd_extract(args, cfg):
    entries = pl.select(load_manifest(args.manifest), "target", args.split)
    taps = pl.extract_taps(cfg, pl.frontend_features(cfg, entries),
                           _load(cfg, "norm_stats"), _load(cfg, "filter"))
    print(_save_features(cfg, args.split, entries, taps))


def cmd_fit_transform(args, cfg):
    transform = pl.fit_transform(cfg, _load_features(cfg, "train")[0])
    if transform is None:
        print("no transform configured")
        return
    pl.store(cfg, "transform", transform)
    print(pl.artifact_path(cfg, "transform.aecf"))


def cmd_fit_classifier(args, cfg):
    taps, labels, _ = _load_features(cfg, "train")
    pl.store(cfg, "classifier",
             pl.fit_classifier(cfg, _load_transform(cfg), taps, labels))
    print(pl.artifact_path(cfg, "classifier.aecf"))


def cmd_evaluate(args, cfg):
    taps, labels, conditions = _load_features(cfg, "eval")
    with np.load(pl.artifact_path(cfg, "features_train.npz")) as data:
        classes = sorted(set(data["__labels__"].tolist()))
    report = pl.evaluate(cfg, _load_transform(cfg), _load(cfg, "classifier"),
                         taps, labels, conditions, classes)
    pl.write_report(cfg, report)
    print(render_report(report))


def cmd_report(args, cfg):
    path = args.report or os.path.join(cfg.out_dir, "report.json")
    with open(path, encoding="utf-8") as f:
        d = json.load(f)
    rows = {d.get("variant") or "result":
            [d["condition_accuracy"][c] for c in d["conditions"]]}
    print(render_table(rows, d["conditions"]))


def cmd_cross_validate(args, cfg):
    taps, labels, _ = _load_features(cfg, "train")
    best, table = pl.select_svm_params(cfg, _load_transform(cfg), taps, labels,
                                       k=args.k)
    print(json.dumps({"best": best, "fold_accuracies": table}, indent=2))


def build_parser():
    p = argparse.ArgumentParser(prog="aecfeat",
                                description="transfer-learned DNN features "
                                            "for acoustic event classification")
    p.add_argument("--config", help="JSON config mirroring RunConfig")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", default=None, help="output directory")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, help, manifest=True):
        s = sub.add_parser(name, help=help)
        if manifest:
            s.add_argument("manifest")
        s.set_defaults(fn=fn)
        return s

    add("synth-data", cmd_synth_data, "generate the synthetic benchmark corpus",
        manifest=False)
    s = add("prepare-source", cmd_prepare_source,
            "normalize source classes to a length budget")
    s.add_argument("--target-seconds", type=float, default=800.0)
    s.add_argument("--rir-wav", default=None)
    s.add_argument("--rt60", type=float, default=0.7)
    s.add_argument("--rir-length", type=float, default=0.5,
                   help="synthetic impulse-response length [s]")
    s = add("prepare-conditions", cmd_prepare_conditions,
            "create noisy eval conditions")
    s.add_argument("--noise", nargs="+", required=True)
    s.add_argument("--snr", nargs="+", type=float, default=[5, 10, 15])
    add("run", cmd_run, "run every stage end to end")
    add("train-source", cmd_train_source,
        "fit norm stats and, for variants A/C, the source network")
    add("adapt", cmd_adapt, "surgery + target adaptation, builds the filter")
    s = add("extract", cmd_extract, "tap filter features for a manifest split")
    s.add_argument("--split", choices=["train", "eval"], default="train")
    add("fit-transform", cmd_fit_transform, "fit DCT/PCA on training features",
        manifest=False)
    add("fit-classifier", cmd_fit_classifier, "fit the back-end classifier",
        manifest=False)
    add("evaluate", cmd_evaluate, "score eval features per condition",
        manifest=False)
    s = add("report", cmd_report, "render a saved report.json", manifest=False)
    s.add_argument("--report", default=None)
    s = add("cross-validate", cmd_cross_validate,
            "5-fold SVM hyperparameter search", manifest=False)
    s.add_argument("--k", type=int, default=5)
    return p


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        with pl._stage(args.command):
            args.fn(args, _load_cfg(args))
    except StageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
