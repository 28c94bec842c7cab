"""Command-line entry points.

Every subcommand reads a JSON config mirroring RunConfig (--config), takes
--seed and --out overrides, and exits with code 2 and a stage-named message
on failure. The staged subcommands are the rows of `pipeline.stages()`,
each run by one handler that prints the paths its stage wrote; `run` runs
every row through `pipeline.run_pipeline`. `report` prints a saved
report.json as `evaluate` printed it."""

import argparse
import json
import os
import sys
from functools import partial

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
    return cfg


def cmd_synth_data(args, cfg):
    generate_dataset(os.path.join(cfg.out_dir, "data"), seed=cfg.seed)
    noise = generate_noise_wav(os.path.join(cfg.out_dir, "data"), seed=cfg.seed + 1)
    print(os.path.join(cfg.out_dir, "data", "manifest.csv"))
    print(noise)


def cmd_prepare_source(args, cfg):
    manifest = load_manifest(args.manifest)
    rir = (read_wav(args.rir_wav).samples if args.rir_wav else
           synth_rir(rt60_s=args.rt60, length_s=args.rir_length, seed=cfg.seed))
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


def _cmd_stage(stage, args, cfg):
    """Run one row of `pipeline.stages()` and print what it wrote."""
    manifest = load_manifest(args.manifest) if stage.reads_manifest else None
    paths = stage.call(cfg, manifest, args.split if stage.splits else None)
    if "report_json" in paths:
        print(render_report(EvalReport.from_json(paths["report_json"])))
    else:
        print("\n".join(paths.values()) or stage.if_none)


def cmd_report(args, cfg):
    path = args.report or os.path.join(cfg.out_dir, "report.json")
    print(render_report(EvalReport.from_json(path)))


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
    for stage in pl.stages():
        s = add(stage.command, partial(_cmd_stage, stage), stage.help,
                manifest=stage.reads_manifest)
        if stage.splits:
            s.add_argument("--split", choices=list(stage.splits),
                           default=stage.splits[0])
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
