"""The pipeline as one chain of stages, listed once, in order, by the
stage table `stages()`. Each stage function loads its inputs from the
output directory, stores its outputs there, stamped by the config
fingerprint and seed, and returns {artifact name: path} for what it
wrote. `run_pipeline` runs every row of the table and the staged CLI one
row per subcommand, so both go through the same stored artifacts. `store`
only writes; `_load` is the one `.aecf` reader, and checks each model's
type and the source network's and filter's input fingerprint; models and
features alike go through `serialize`'s one writer and one reader.
`_training_frames` builds the frames a network trained from scratch
reads, and `_taps` streams them through a fixed one, the source trunk or
the filter. A split's taps are stored as one matrix plus per-segment
frame counts; the back end, `cross_validate` included, gets them as
per-segment views, projected once at load."""

import ctypes
import hashlib
import json
import os
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, fields, replace
from itertools import chain
from typing import Callable, Dict, NamedTuple, Optional, Tuple

import numpy as np

from .audio import read_wav, wav_samples
from .classifiers import (GmmModel, SvmModel, classify_segment,
                          dnn_score_matrix, gmm_fit, gmm_score_matrix,
                          svm_fit, svm_score_matrix)
from .errors import AecError, StageError, check_field_types, read_json
from .frontend import (FrontendConfig, NormStats, apply_norm, fit_norm_stats,
                       frame_count, make_frontend_features, splice,
                       splice_index)
from .manifest import Manifest
from .network import Network, TrainConfig, _one_blas_thread, init_mlp, train
from .report import EvalReport, render_report
from .serialize import load_model, open_npz, save_model, write_npz
from .transfer import adapt, build_filter, extract, strip_output
from .transforms import DctSpec, PcaModel, dct_apply, pca_apply, pca_fit


@dataclass
class RunConfig:
    frontend: FrontendConfig = field(default_factory=FrontendConfig)
    sl_widths: Tuple[int, ...] = (1024, 1024, 1024)
    tl1_dim: int = 512
    tl2_dim: int = 150
    source_train: TrainConfig = field(default_factory=TrainConfig)
    target_train: TrainConfig = field(default_factory=TrainConfig)
    transform: str = "dct"        # none | dct | pca
    transform_dim: int = 50
    classifier: str = "svm"       # gmm | svm | dnn
    gmm_k: int = 512
    svm_c: float = 10.0
    svm_gamma: Optional[float] = None  # None -> 1/feature_dim
    svm_frame_step: int = 1       # train the SVM on every n-th frame
    dnn_hidden: Tuple[int, ...] = (300, 300, 100)
    variant: str = "C"            # A | B | C
    seed: int = 0
    out_dir: str = "run_out"

    def __post_init__(self):
        if isinstance(self.frontend, dict):
            self.frontend = FrontendConfig(**self.frontend)
        if isinstance(self.source_train, dict):
            self.source_train = TrainConfig(**self.source_train)
        if isinstance(self.target_train, dict):
            self.target_train = TrainConfig(**self.target_train)
        check_field_types(self)
        self.sl_widths = tuple(self.sl_widths)
        self.dnn_hidden = tuple(self.dnn_hidden)
        if self.transform not in ("none", "dct", "pca"):
            raise AecError(f"unknown transform {self.transform!r}")
        if self.classifier not in ("gmm", "svm", "dnn"):
            raise AecError(f"unknown classifier {self.classifier!r}")
        if self.variant not in ("A", "B", "C"):
            raise AecError(f"unknown variant {self.variant!r}")
        if self.variant in ("A", "C") and not self.sl_widths:
            raise AecError(f"variant {self.variant} needs at least one "
                           f"sl_widths layer to keep once the source head "
                           f"is cut off")
        sizes = {"tl1_dim": self.tl1_dim, "tl2_dim": self.tl2_dim,
                 "gmm_k": self.gmm_k, "svm_c": self.svm_c,
                 "svm_gamma": self.svm_gamma,
                 **{f"sl_widths[{i}]": w for i, w in enumerate(self.sl_widths)},
                 **{f"dnn_hidden[{i}]": w for i, w in enumerate(self.dnn_hidden)}}
        bad = [name for name, v in sizes.items() if v is not None and v <= 0]
        if bad:
            raise AecError(f"{', '.join(bad)} must be positive")
        if self.svm_frame_step < 1 or self.transform_dim < 1:
            raise AecError("svm_frame_step and transform_dim must be >= 1")
        if self.transform != "none" and self.transform_dim > self.tl2_dim:
            raise AecError(f"transform_dim {self.transform_dim} exceeds the "
                           f"filter tap dimension tl2_dim {self.tl2_dim}")

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_json(cls, path):
        """The config in the JSON object at `path`; a file that is not
        JSON or holds another JSON value, unknown fields or a bad value
        raises an AecError naming the file."""
        d = read_json(path)
        if not isinstance(d, dict):
            raise AecError(f"{path} must hold a JSON object of config fields")
        unknown = sorted(set(d) - {f.name for f in fields(cls)})
        if unknown:
            raise AecError(f"{path} has unknown RunConfig fields: "
                           f"{', '.join(unknown)}")
        try:
            return cls(**d)
        except (TypeError, AecError) as e:  # a nested config's too
            raise AecError(f"{path}: {e}") from e

    def fingerprint(self):
        d = self.to_dict()
        d.pop("out_dir", None)
        text = json.dumps(d, sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()[:16]


def _malloc_trim():
    """glibc's malloc_trim, typed, or None on another C library."""
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (OSError, TypeError, AttributeError):
        return None
    trim.argtypes, trim.restype = [ctypes.c_size_t], ctypes.c_int
    return trim


_MALLOC_TRIM = _malloc_trim()


@contextmanager
def _stage(name):
    """Run one stage, raising its failures as a StageError that names it.
    When the stage ends, the heap memory it freed goes back to the OS.
    glibc raises its mmap threshold to the largest array freed so far (up
    to 32 MB), so later arrays below it come from the heap, and the free
    memory they leave there may stay resident; how much depends on the
    heap's layout, which differs from run to run. Without the trim, the
    next stage started on top of that memory and the process's resident
    peak moved by about 22 MB between runs of the same operation."""
    try:
        yield
    except StageError:
        raise
    except Exception as e:
        raise StageError(name, e) from e
    finally:
        if _MALLOC_TRIM is not None:
            _MALLOC_TRIM(0)


def artifact_path(cfg, name):
    return os.path.join(cfg.out_dir, name)


def store(cfg, name, model, stats=None):
    """Save `model` as <out_dir>/<name>.aecf, stamped with the config
    fingerprint, the seed and, given `stats`, the input fingerprint, and
    return {name: its path}. Stages read models only through `_load`, so
    they consume the float32 parameters the file holds, never the in-memory
    ones, and the `.aecf` files reproduce the run that wrote them."""
    path = artifact_path(cfg, name + ".aecf")
    stamp = {"config_fingerprint": cfg.fingerprint(), "seed": cfg.seed}
    if stats is not None:
        stamp["input_fingerprint"] = _input_fingerprint(cfg, stats)
    save_model(path, model, stamp)
    return {name: path}


def _load(cfg, name, kind, stats=None):
    """The model in <out_dir>/<name>.aecf, which must be a `kind`; given
    `stats`, the file must be stamped with the current input fingerprint."""
    model, stamp = load_model(artifact_path(cfg, name + ".aecf"),
                              with_meta=True)
    if not isinstance(model, kind):
        raise AecError(f"{name}.aecf holds a {type(model).__name__}, not the "
                       f"{kind.__name__} this config needs")
    if (stats is not None and stamp.get("input_fingerprint")
            != _input_fingerprint(cfg, stats)):
        raise AecError(f"{name}.aecf was built with different "
                       f"frontend/normalization")
    return model


def _read_features(cfg, split, *keys):
    """The arrays under `keys` in features_<split>.npz; `open_npz`
    decodes only the keys read."""
    path = artifact_path(cfg, f"features_{split}.npz")
    with open_npz(path) as data:
        missing = [k for k in keys if k not in data.files]
        if missing:
            raise AecError(f"{path} has no {', '.join(missing)}: it was not "
                           f"written by this version; rerun `extract --split "
                           f"{split}`")
        return [data[k] for k in keys]


def _load_features(cfg, split):
    """(taps, lengths, labels, conditions) from features_<split>.npz: the
    split's tap matrix in manifest order and each segment's frame count,
    label and condition. Features enter the program here, so this rejects
    a file of another split or an earlier layout, taps that are not
    tl2_dim wide, counts that disagree and non-finite values."""
    path = artifact_path(cfg, f"features_{split}.npz")
    taps, lengths, labels, conditions, file_split = _read_features(
        cfg, split, "taps", "lengths", "labels", "conditions", "split")
    if str(file_split) != split:
        raise AecError(f"{path} holds split {str(file_split)!r}, not {split!r}")
    if taps.ndim != 2 or taps.shape[1] != cfg.tl2_dim:
        raise AecError(f"{path} holds taps of shape {taps.shape}, not tl2_dim "
                       f"{cfg.tl2_dim} wide; rerun `extract --split {split}`")
    if not len(labels) == len(conditions) == len(lengths):
        raise AecError(f"{path} holds {len(lengths)} segments but "
                       f"{len(labels)} labels and {len(conditions)} conditions")
    if (lengths < 1).any() or lengths.sum() != len(taps):
        raise AecError(f"{path} frame counts must be >= 1 and sum to its "
                       f"{len(taps)} tap rows; they sum to {lengths.sum()}, "
                       f"the smallest is {min(lengths, default=0)}")
    if not np.isfinite(taps).all():
        raise AecError(f"{path} contains non-finite feature values")
    return taps, lengths, labels.tolist(), conditions.tolist()


def _reduced_features(cfg, split):
    """`_load_features`'s matrix projected by the stored transform that
    cfg.transform names, as one array per segment, with labels and
    conditions."""
    taps, lengths, labels, conditions = _load_features(cfg, split)
    if cfg.transform != "none":
        # built per call, so a function rebound on this module is the one used
        kind, apply = {"dct": (DctSpec, dct_apply),
                       "pca": (PcaModel, pca_apply)}[cfg.transform]
        taps = apply(_load(cfg, "transform", kind), taps)
        if taps.shape[1] != cfg.transform_dim:
            raise AecError(f"transform.aecf projects to {taps.shape[1]} dims, "
                           f"not transform_dim {cfg.transform_dim}")
    return np.split(taps, np.cumsum(lengths))[:-1], labels, conditions


def _frame_count(path, n_samples, cfg):
    """`frame_count` of the wav at `path`, which a too-short error names."""
    try:
        return frame_count(n_samples, cfg.frontend)
    except AecError as e:
        raise AecError(f"{path}: {e}") from None


def frontend_features(cfg, entries):
    """The unspliced frontend frames x dims array of each manifest entry,
    computed one at a time as they are read, in order."""
    for e in entries:
        segment = read_wav(e.wav_path)
        _frame_count(e.wav_path, len(segment), cfg)
        yield make_frontend_features(segment, cfg.frontend).values


def _input_fingerprint(cfg, stats):
    return cfg.frontend.fingerprint() + ":" + stats.fingerprint()


def _frame_labels(lengths, labels):
    """The index of each frame's label in the sorted label set, for one
    label per run of `lengths` frames, and that set."""
    classes = sorted(set(labels))
    y = np.repeat([classes.index(l) for l in labels], lengths)
    return y, classes


def _training_frames(cfg, mats, labels, stats):
    """(x, index, y, classes) for a network trained from scratch on the
    frontend arrays `mats`, one per segment, labelled `labels`: x holds
    their rows in order, unspliced, z-scored in float64 and rounded once
    into one float32 matrix allocated once; `train` splices it through
    `index`, their `splice_index`; y and classes are `_frame_labels`'. An
    empty list gives 0 rows."""
    lengths = [len(m) for m in mats]
    x = np.empty((sum(lengths), len(stats.mean)), dtype=np.float32)
    lo = 0
    for m in mats:
        x[lo:lo + len(m)] = apply_norm(m, stats)
        lo += len(m)
    y, classes = _frame_labels(lengths, labels)
    return x, splice_index(lengths, cfg.frontend.splice_context), y, classes


def _taps(cfg, entries, stats, net):
    """(taps, lengths): `net`'s float32 outputs, the filter's or the source
    trunk's, for every frame of `entries` in order, and their frame counts,
    read from the wav headers, so one `extract` call writes every row once
    into one matrix. Each entry streams through frontend, z-score, float32
    rounding and splicing on the calling thread inside `extract`, under its
    BLAS pin, one at a time; one whose frames differ from its header count
    raises an AecError naming its wav. A row's output depends only on that
    row, so the matrix does not depend on the CPU count or segment packing."""
    lengths = [_frame_count(e.wav_path, wav_samples(e.wav_path), cfg)
               for e in entries]

    def segments():
        for e, n, m in zip(entries, lengths, frontend_features(cfg, entries)):
            if len(m) != n:
                raise AecError(f"{e.wav_path}: {len(m)} frames, but its "
                               f"header gives {n}")
            yield splice(apply_norm(m, stats).astype(np.float32),
                         cfg.frontend.splice_context)

    return extract(net, segments(), sum(lengths)).values, lengths


def fit_classifier(cfg, taps, labels):
    """The back-end classifier on the training segments' tap arrays."""
    x = np.vstack(taps)
    y, classes = _frame_labels([len(t) for t in taps], labels)
    if cfg.classifier == "gmm":
        per_class = {label: x[y == idx] for idx, label in enumerate(classes)}
        return gmm_fit(per_class, k=cfg.gmm_k, seed=cfg.seed)
    if cfg.classifier == "svm":
        step = cfg.svm_frame_step
        gamma = cfg.svm_gamma if cfg.svm_gamma is not None else 1.0 / x.shape[1]
        return svm_fit(x[::step], y[::step], c=cfg.svm_c, gamma=gamma)
    net = init_mlp(x.shape[1], cfg.dnn_hidden, len(classes),
                   seed=cfg.target_train.seed)
    return train(net, x, y, cfg.target_train)[0]


def evaluate(cfg, clf, taps, labels, conditions, classes):
    """Per-condition confusion counts of the segment decisions, one per
    tap array. `classes` is the sorted training label set, the classifier's
    classes: column i of every score matrix scores classes[i]."""
    # built per call, so a scorer rebound on this module is the one used
    score_frames = {"gmm": gmm_score_matrix, "svm": svm_score_matrix,
                    "dnn": dnn_score_matrix}[cfg.classifier]
    unknown = sorted(set(labels) - set(classes))
    if unknown:
        raise AecError(f"eval labels {unknown} are not training classes "
                       f"{list(classes)}")
    if not taps:
        raise AecError("no segments to evaluate")
    cond_names = sorted(set(conditions))
    confusion = {c: [[0] * len(classes) for _ in classes] for c in cond_names}
    for label, condition, values in zip(labels, conditions, taps):
        scores = score_frames(clf, values)
        if scores.shape[1] != len(classes):
            raise AecError(f"classifier scores {scores.shape[1]} classes, "
                           f"but there are {len(classes)} training classes")
        confusion[condition][classes.index(label)][classify_segment(scores)] += 1
    return EvalReport(conditions=cond_names, classes=list(classes),
                      confusion=confusion,
                      config_fingerprint=cfg.fingerprint(), variant=cfg.variant)


def stage_train_source(cfg, manifest):
    """The z-score statistics pooled over source and target-train
    frames only, never eval; for variants A/C also the source network,
    stamped with their input fingerprint. The frontend arrays stream into
    the statistics one at a time; A/C keep only the source arrays, which
    they train on through `_training_frames`."""
    target_entries = manifest.select("target", "train")
    if not target_entries:
        raise AecError("no target training entries")
    source_entries = manifest.select("source")
    if any(e.split == "eval" for e in source_entries):
        raise AecError("refusing to fit normalization on evaluation frames")
    if cfg.variant != "B" and not source_entries:
        raise AecError("variants A/C require source-domain entries")
    source = frontend_features(cfg, source_entries)
    if cfg.variant != "B":  # the source network is a variant A/C artifact
        source = list(source)
    paths = store(cfg, "norm_stats", fit_norm_stats(chain(
        source, frontend_features(cfg, target_entries))))
    if cfg.variant == "B":
        return paths
    stats = _load(cfg, "norm_stats", NormStats)
    x, index, y, classes = _training_frames(
        cfg, source, [e.label for e in source_entries], stats)
    del source
    net = init_mlp(cfg.frontend.dims, cfg.sl_widths, len(classes), seed=cfg.seed)
    net, _ = train(net, x, y, cfg.source_train, index)
    return {**paths, **store(cfg, "source_model", net, stats)}


def stage_adapt(cfg, manifest):
    """The filter, from one `adapt` call for every variant. Variants A/C
    train TL#1, TL#2 and a head over the source network's fixed trunk, on
    the trunk's outputs for the target-train frames, `_taps`; variant B
    trains the whole five-layer stack on the target-train frames alone,
    `_training_frames`."""
    entries = manifest.select("target", "train")
    if not entries:
        raise AecError("no target training entries")
    stats = _load(cfg, "norm_stats", NormStats)
    labels = [e.label for e in entries]
    if cfg.variant == "B":
        trunk, widths = None, (*cfg.sl_widths, cfg.tl1_dim, cfg.tl2_dim)
        # the float64 list is dropped as soon as the matrix is built
        x, index, y, classes = _training_frames(
            cfg, list(frontend_features(cfg, entries)), labels, stats)
    else:
        trunk = strip_output(_load(cfg, "source_model", Network, stats))
        widths = (cfg.tl1_dim, cfg.tl2_dim)
        x, lengths = _taps(cfg, entries, stats, trunk)
        index, (y, classes) = None, _frame_labels(lengths, labels)
    composite, _ = adapt(trunk, x, y, widths, len(classes), cfg.target_train,
                         seed=cfg.seed, index=index)
    return store(cfg, "filter", build_filter(composite, cfg.variant), stats)


def stage_extract(cfg, manifest, split):
    """The filter's `_taps` for every target segment of `split`, saved
    losslessly to features_<split>.npz by `write_npz`, without a copy:
    the tap matrix in manifest order, each segment's frame count, label
    and condition, and the split."""
    entries = manifest.select("target", split)
    if not entries:
        raise AecError(f"no target {split} entries")
    stats = _load(cfg, "norm_stats", NormStats)
    taps, lengths = _taps(cfg, entries, stats,
                          _load(cfg, "filter", Network, stats))
    path = artifact_path(cfg, f"features_{split}.npz")
    write_npz(path, taps=taps, lengths=np.array(lengths),
              labels=np.array([e.label for e in entries]),
              conditions=np.array([e.condition for e in entries]),
              split=np.array(split))
    return {f"features_{split}": path}


def stage_fit_transform(cfg):
    """The DCT of the tl2_dim-wide taps or the PCA fit to the training
    taps, the only transform that reads them; nothing for 'none'."""
    if cfg.transform == "none":
        return {}
    if cfg.transform == "dct":
        transform = DctSpec(n_points=cfg.tl2_dim, n_keep=cfg.transform_dim)
    else:
        taps = _load_features(cfg, "train")[0]
        with _one_blas_thread():  # a fixed summation order, so a fixed fit
            transform = pca_fit(taps, out_dim=cfg.transform_dim)
    return store(cfg, "transform", transform)


def stage_fit_classifier(cfg):
    """The back-end classifier."""
    taps, labels, _ = _reduced_features(cfg, "train")
    return store(cfg, "classifier", fit_classifier(cfg, taps, labels))


def stage_evaluate(cfg):
    """The per-condition report, written to report.json and, as
    `render_report` draws it, report.txt."""
    taps, labels, conditions = _reduced_features(cfg, "eval")
    # the training class list is all it reads of the training features
    classes = sorted(set(_read_features(cfg, "train", "labels")[0].tolist()))
    clf = _load(cfg, "classifier", {"gmm": GmmModel, "svm": SvmModel,
                                    "dnn": Network}[cfg.classifier])
    report = evaluate(cfg, clf, taps, labels, conditions, classes)
    paths = {"report_json": artifact_path(cfg, "report.json"),
             "report_txt": artifact_path(cfg, "report.txt")}
    with open(paths["report_json"], "w", encoding="utf-8") as f:
        f.write(report.to_json())
    with open(paths["report_txt"], "w", encoding="utf-8") as f:
        f.write(render_report(report) + "\n")
    return paths


class Stage(NamedTuple):
    """A row of the stage table. `run_pipeline` runs the stage for each of
    its splits in turn, the CLI for the one `--split` names; the CLI then
    prints the report it wrote, else the paths, else `if_none`."""
    command: str
    run: Callable[..., Dict[str, str]]
    reads_manifest: bool
    splits: Tuple[str, ...]
    help: str
    if_none: str = ""

    def call(self, cfg, manifest, split):
        """Run the stage with `manifest` and `split` if it reads them, into
        cfg.out_dir, which it creates."""
        os.makedirs(cfg.out_dir, exist_ok=True)
        args = [manifest] if self.reads_manifest else []
        if self.splits:
            args.append(split)
        return self.run(cfg, *args)


def stages():
    """The stage table: the staged subcommands in chain order. It is built
    per call, so a stage function rebound on this module is the one run."""
    return (
        Stage("train-source", stage_train_source, True, (),
              "fit norm stats and, for variants A/C, the source network"),
        Stage("adapt", stage_adapt, True, (),
              "surgery + target adaptation, builds the filter"),
        Stage("extract", stage_extract, True, ("train", "eval"),
              "tap filter features for a manifest split"),
        Stage("fit-transform", stage_fit_transform, False, (),
              "fit DCT/PCA on training features", "no transform configured"),
        Stage("fit-classifier", stage_fit_classifier, False, (),
              "fit the back-end classifier"),
        Stage("evaluate", stage_evaluate, False, (),
              "score eval features per condition"),
    )


def stage_cross_validate(cfg, k=5):
    """`cross_validate` over features_train.npz."""
    taps, labels, _ = _reduced_features(cfg, "train")
    return cross_validate(cfg, taps, labels, k=k)


def run_pipeline(cfg, manifest):
    """Run the staged chain on one manifest (source + target entries):
    `stages()` in order, each under its subcommand's name. Returns the
    report as report.json holds it, and {artifact name: path}."""
    if not isinstance(manifest, Manifest):
        raise AecError(f"run_pipeline takes a Manifest, not a "
                       f"{type(manifest).__name__} ({manifest!r:.80}); load a "
                       f"manifest file with manifest.load_manifest")
    paths = {}
    for stage in stages():
        for split in stage.splits or (None,):
            with _stage(stage.command):
                paths.update(stage.call(cfg, manifest, split))
    return EvalReport.from_json(paths["report_json"]), paths


def default_svm_grid(feature_dim):
    """C in {1, 10, 100} x gamma in {0.1, 1, 10}/dim."""
    return [{"c": c, "gamma": g / feature_dim}
            for c in (1.0, 10.0, 100.0) for g in (0.1, 1.0, 10.0)]


def cross_validate(cfg, taps, labels, k=5):
    """Stratified seeded k-fold search of the default SVM grid over the
    training segments; returns (best params, fold_table), fold_table[i]
    holding grid point i's fold accuracies. Best is the highest mean, ties
    to the first point. Each fold fits with `fit_classifier` and scores with
    `evaluate`, so it rates the SVM `run` would fit, `svm_frame_step` too."""
    if k < 2:
        raise AecError(f"cross-validation needs k >= 2 folds, got k={k}")
    labels = np.asarray(labels)
    rng = np.random.default_rng(cfg.seed)
    fold_of = np.empty(len(labels), dtype=int)
    for c in np.unique(labels):  # sorted classes, one shuffle each
        idx = np.flatnonzero(labels == c)
        if len(idx) < k:
            raise AecError(f"class {c} has {len(idx)} segments, need >= {k}")
        rng.shuffle(idx)
        fold_of[idx] = np.arange(len(idx)) % k
    grid = default_svm_grid(taps[0].shape[1])
    fold_table = []
    for params in grid:
        fold_cfg = replace(cfg, classifier="svm", svm_c=params["c"],
                           svm_gamma=params["gamma"])
        accs = []
        for f in range(k):
            fit, val = np.flatnonzero(fold_of != f), np.flatnonzero(fold_of == f)
            clf = fit_classifier(fold_cfg, [taps[i] for i in fit], labels[fit])
            report = evaluate(fold_cfg, clf, [taps[i] for i in val], labels[val],
                              ["fold"] * len(val), sorted(set(labels[fit])))
            confusion = np.array(report.confusion["fold"])
            accs.append(float(np.trace(confusion) / confusion.sum()))
        fold_table.append(accs)
    best = int(np.argmax([np.mean(accs) for accs in fold_table]))
    return grid[best], fold_table
