"""Command-line entry points.

Every subcommand reads a JSON config mirroring RunConfig (--config), takes
--seed and --out overrides, and exits with code 2 and a stage-named message
on failure. Each staged subcommand calls one stage function of `pipeline`,
which loads its inputs from the output directory (*.aecf models,
features_*.npz) and stores its outputs there, and prints what it wrote;
`run` runs every stage in order through `pipeline.run_pipeline`. `report`
prints a saved report.json as `evaluate` printed it.
"""

import argparse
import json
import os
import sys

from . import pipeline as pl
from .audio import read_wav, synth_rir
from .errors import StageError
from .manifest import load_manifest, save_manifest
from .pipeline import RunConfig
from .prepare import prepare_conditions, prepare_source
from .report import EvalReport, render_report
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


def _print_paths(paths):
    for path in paths.values():
        print(path)


def cmd_synth_data(args, cfg):
    generate_dataset(os.path.join(cfg.out_dir, "data"), seed=cfg.seed)
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
    _print_paths(pl.stage_train_source(cfg, load_manifest(args.manifest)))


def cmd_adapt(args, cfg):
    _print_paths(pl.stage_adapt(cfg, load_manifest(args.manifest)))


def cmd_extract(args, cfg):
    _print_paths(pl.stage_extract(cfg, load_manifest(args.manifest),
                                  args.split))


def cmd_fit_transform(args, cfg):
    paths = pl.stage_fit_transform(cfg)
    if not paths:
        print("no transform configured")
    _print_paths(paths)


def cmd_fit_classifier(args, cfg):
    _print_paths(pl.stage_fit_classifier(cfg))


def cmd_evaluate(args, cfg):
    print(render_report(pl.stage_evaluate(cfg)))


def cmd_report(args, cfg):
    path = args.report or os.path.join(cfg.out_dir, "report.json")
    with open(path, encoding="utf-8") as f:
        d = json.load(f)
    print(render_report(EvalReport(conditions=d["conditions"],
                                   classes=d["classes"],
                                   confusion=d["confusion"],
                                   variant=d["variant"])))


def cmd_cross_validate(args, cfg):
    best, table = pl.stage_cross_validate(cfg, k=args.k)
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
