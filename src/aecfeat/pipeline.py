"""Pipeline stages, one function each: frontend -> normalization -> source
training -> surgery and adaptation -> filter tap -> transform ->
classifier -> per-condition evaluation. `run_pipeline` chains them and the
staged CLI calls them one at a time; every artifact is stamped by the
config fingerprint and seed."""

import hashlib
import json
import logging
import os
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field, replace
from typing import Optional

import numpy as np

from .audio import read_wav
from .classifiers import (classify_segment, dnn_classifier_fit,
                          dnn_score_matrix, gmm_fit, gmm_score_matrix,
                          svm_fit, svm_score_matrix)
from .errors import FingerprintMismatch, StageError, TooFewSamples
from .frontend import (FrontendConfig, apply_norm, fit_norm_stats,
                       make_frontend_features, splice)
from .network import TrainConfig, init_mlp, train
from .report import EvalReport, render_report
from .serialize import load_model, save_model
from .transfer import (SourceModel, adapt, append_adaptation, build_filter,
                       extract, strip_output)
from .transforms import DctSpec, dct_apply, pca_apply, pca_fit

logger = logging.getLogger(__name__)


@dataclass
class RunConfig:
    frontend: FrontendConfig = field(default_factory=FrontendConfig)
    sl_widths: tuple = (1024, 1024, 1024)
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
    dnn_hidden: tuple = (300, 300, 100)
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
        self.sl_widths = tuple(self.sl_widths)
        self.dnn_hidden = tuple(self.dnn_hidden)
        if self.transform not in ("none", "dct", "pca"):
            raise ValueError(f"unknown transform {self.transform!r}")
        if self.classifier not in ("gmm", "svm", "dnn"):
            raise ValueError(f"unknown classifier {self.classifier!r}")
        if self.variant not in ("A", "B", "C"):
            raise ValueError(f"unknown variant {self.variant!r}")
        if self.svm_frame_step < 1 or self.transform_dim < 1:
            raise ValueError("svm_frame_step and transform_dim must be >= 1")
        if self.transform != "none" and self.transform_dim > self.tl2_dim:
            raise ValueError(f"transform_dim {self.transform_dim} exceeds the "
                             f"filter tap dimension tl2_dim {self.tl2_dim}")

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, d):
        return cls(**d)

    @classmethod
    def from_json(cls, path):
        with open(path, encoding="utf-8") as f:
            return cls.from_dict(json.load(f))

    def fingerprint(self):
        d = self.to_dict()
        d.pop("out_dir", None)
        text = json.dumps(d, sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()[:16]


@contextmanager
def _stage(name):
    try:
        yield
    except StageError:
        raise
    except Exception as e:
        raise StageError(name, e) from e


def select(manifest, domain, split=None):
    return manifest.select(domain=domain, split=split).entries


def artifact_path(cfg, name):
    return os.path.join(cfg.out_dir, name)


def store(cfg, name, model):
    """Save `model` as <out_dir>/<name>.aecf, stamped with the config
    fingerprint and seed, and return it as stored: every stage consumes
    the float32 parameters the file holds, never the in-memory float64
    ones, so the `.aecf` files reproduce the run that wrote them."""
    path = artifact_path(cfg, name + ".aecf")
    save_model(path, model, {"config_fingerprint": cfg.fingerprint(),
                             "seed": cfg.seed})
    return load_model(path)


def write_report(cfg, report):
    """Write report.json and report.txt to the output directory."""
    with open(artifact_path(cfg, "report.json"), "w", encoding="utf-8") as f:
        f.write(report.to_json())
    with open(artifact_path(cfg, "report.txt"), "w", encoding="utf-8") as f:
        f.write(render_report(report) + "\n")


def frontend_features(cfg, entries):
    """Unspliced frontend features per manifest entry."""
    out = []
    for e in entries:
        seg = read_wav(e.wav_path, label=e.label)
        fm = make_frontend_features(seg, cfg.frontend)
        fm.split = e.split
        out.append(fm)
    return out


def fit_norm(source_mats, train_mats):
    """Stage 1: z-score statistics pooled over source and target-train
    frames only, never eval."""
    return fit_norm_stats(source_mats + train_mats,
                          source_tags=("source", "target_train"))


def _input_fingerprint(cfg, stats):
    return cfg.frontend.fingerprint() + ":" + stats.fingerprint()


def _norm_and_splice(mats, stats, cfg):
    return [splice(apply_norm(fm, stats), cfg.frontend.splice_context)
            for fm in mats]


def _values(mats):
    return [m.values for m in mats]


def _pooled(arrays, labels):
    """All frames stacked, the index of each frame's label in the sorted
    label set, and that set."""
    classes = sorted(set(labels))
    label_to_idx = {c: i for i, c in enumerate(classes)}
    x = np.vstack(arrays)
    y = np.array([label_to_idx[l] for l, a in zip(labels, arrays)
                  for _ in range(len(a))])
    return x, y, classes


def train_source(cfg, source_entries, source_mats, stats):
    """Stage 2 (variants A/C): the source network, stamped with the
    frontend and normalization fingerprint."""
    if not source_entries:
        raise TooFewSamples("variants A/C require source-domain entries")
    x, y, classes = _pooled(_values(_norm_and_splice(source_mats, stats, cfg)),
                            [e.label for e in source_entries])
    net = init_mlp(cfg.frontend.dims, cfg.sl_widths, len(classes), seed=cfg.seed)
    net, _ = train(net, x, y, cfg.source_train)
    return SourceModel(net, classes=classes,
                       fingerprint=_input_fingerprint(cfg, stats))


def adapt_filter(cfg, train_entries, train_mats, stats, source_model=None):
    """Stage 3: surgery and adaptation on target-train data (variants A/C),
    or the same five-layer stack trained on target data only (B). Returns
    (composite, filter)."""
    if not train_entries:
        raise TooFewSamples("no target training entries")
    norm_fp = _input_fingerprint(cfg, stats)
    if cfg.variant in ("A", "C") and source_model.fingerprint != norm_fp:
        raise FingerprintMismatch("source model was trained with "
                                  "different frontend/normalization")
    x, y, classes = _pooled(_values(_norm_and_splice(train_mats, stats, cfg)),
                            [e.label for e in train_entries])
    if cfg.variant in ("A", "C"):
        trunk = strip_output(source_model.network)
        composite = append_adaptation(trunk, cfg.tl1_dim, cfg.tl2_dim,
                                      len(classes), seed=cfg.seed)
        composite, _ = adapt(composite, x, y, cfg.target_train)
    else:
        logger.info("variant B: skipping source training, "
                    "training all five layers on target data")
        composite = init_mlp(cfg.frontend.dims,
                             (*cfg.sl_widths, cfg.tl1_dim, cfg.tl2_dim),
                             len(classes), seed=cfg.seed)
        composite, _ = train(composite, x, y, cfg.target_train)
    return composite, build_filter(composite, cfg.variant, fingerprint=norm_fp)


def extract_taps(cfg, mats, stats, filt):
    """Stage 4: filter taps for every frame of each segment."""
    if filt.fingerprint != _input_fingerprint(cfg, stats):
        raise FingerprintMismatch("filter was built with different "
                                  "frontend/normalization")
    return [extract(filt, fm) for fm in _norm_and_splice(mats, stats, cfg)]


def _require_train(taps):
    if any(m.split != "train" for m in taps):
        raise ValueError("training features include non-train segments")


def fit_transform(cfg, train_taps):
    """Stage 5: the DCT or PCA model, or None for transform 'none'."""
    _require_train(train_taps)
    if cfg.transform == "dct":
        return DctSpec(n_points=train_taps[0].dims, n_keep=cfg.transform_dim)
    if cfg.transform == "pca":
        return pca_fit(np.vstack(_values(train_taps)), out_dim=cfg.transform_dim)
    return None


def _reduce(transform, taps):
    """The tap arrays, each projected by the transform unless it is None."""
    if transform is None:
        return _values(taps)
    apply = dct_apply if isinstance(transform, DctSpec) else pca_apply
    return [apply(transform, m.values) for m in taps]


def fit_classifier(cfg, transform, train_taps, labels):
    """Stage 6: the back-end classifier on transformed training taps."""
    _require_train(train_taps)
    x, y, classes = _pooled(_reduce(transform, train_taps), labels)
    if cfg.classifier == "gmm":
        per_class = {label: x[y == idx] for idx, label in enumerate(classes)}
        return gmm_fit(per_class, k=cfg.gmm_k, seed=cfg.seed)
    if cfg.classifier == "svm":
        step = cfg.svm_frame_step
        gamma = cfg.svm_gamma if cfg.svm_gamma is not None else 1.0 / x.shape[1]
        return svm_fit(x[::step], y[::step], c=cfg.svm_c, gamma=gamma)
    model, _ = dnn_classifier_fit(x, y, cfg.target_train, hidden=cfg.dnn_hidden)
    return model


def evaluate(cfg, transform, clf, eval_taps, labels, conditions, classes):
    """Stage 7: per-condition segment accuracy and confusion counts.
    `classes` is the sorted training label set, the classifier's classes."""
    # (score kind for classify_segment, per-frame scorer); built per call,
    # so a scorer rebound on this module is the one used
    score_kind, score_frames = {
        "gmm": ("log_lik", gmm_score_matrix),
        "svm": ("decision_value", svm_score_matrix),
        "dnn": ("softmax", dnn_score_matrix)}[cfg.classifier]
    cond_names = sorted(set(conditions)) or ["clean"]
    class_order = classes
    if score_kind == "log_lik":
        class_order = clf.classes
    elif score_kind == "decision_value":
        # svm classes are the integer label indices in sorted order
        class_order = [classes[i] for i in clf.classes]

    per_cc = {c: {cls: [0, 0] for cls in classes} for c in cond_names}
    confusion = {c: [[0] * len(classes) for _ in classes] for c in cond_names}
    for label, condition, values in zip(labels, conditions,
                                        _reduce(transform, eval_taps)):
        decision = classify_segment(score_frames(clf, values), score_kind)
        pred_label = class_order[decision.winner]
        stats = per_cc[condition][label]
        stats[1] += 1
        if pred_label == label:
            stats[0] += 1
        confusion[condition][classes.index(label)][classes.index(pred_label)] += 1
    return EvalReport(conditions=cond_names, classes=list(classes),
                      per_condition_class=per_cc, confusion=confusion,
                      config_fingerprint=cfg.fingerprint(), variant=cfg.variant)


def run_pipeline(cfg, manifest):
    """Execute every stage on one manifest (source + target entries) and
    return (EvalReport, artifact paths). Each stage consumes the artifacts
    earlier stages stored, exactly as the staged subcommands do."""
    os.makedirs(cfg.out_dir, exist_ok=True)

    with _stage("load-manifest"):
        source_entries = select(manifest, "source")
        train_entries = select(manifest, "target", "train")
        eval_entries = select(manifest, "target", "eval")
        if not train_entries:
            raise TooFewSamples("no target training entries")
        train_labels = [e.label for e in train_entries]

    with _stage("frontend"):
        source_mats = frontend_features(cfg, source_entries)
        train_mats = frontend_features(cfg, train_entries)
        eval_mats = frontend_features(cfg, eval_entries)

    with _stage("norm-stats"):
        stats = store(cfg, "norm_stats", fit_norm(source_mats, train_mats))
    names = ["norm_stats"]

    source_model = None
    if cfg.variant in ("A", "C"):
        with _stage("train-source"):
            source_model = store(cfg, "source_model", train_source(
                cfg, source_entries, source_mats, stats))
        names.append("source_model")

    with _stage("adapt"):
        composite, filt = adapt_filter(cfg, train_entries, train_mats, stats,
                                       source_model)
        store(cfg, "composite", composite)
        filt = store(cfg, "filter", filt)
    names += ["composite", "filter"]

    with _stage("extract"):
        train_taps = extract_taps(cfg, train_mats, stats, filt)
        eval_taps = extract_taps(cfg, eval_mats, stats, filt)

    with _stage("fit-transform"):
        transform = fit_transform(cfg, train_taps)
        if transform is not None:
            transform = store(cfg, "transform", transform)
            names.append("transform")

    with _stage("fit-classifier"):
        clf = store(cfg, "classifier",
                    fit_classifier(cfg, transform, train_taps, train_labels))
    names.append("classifier")

    with _stage("evaluate"):
        report = evaluate(cfg, transform, clf, eval_taps,
                          [e.label for e in eval_entries],
                          [e.condition for e in eval_entries],
                          sorted(set(train_labels)))
        write_report(cfg, report)
    paths = {n: artifact_path(cfg, n + ".aecf") for n in names}
    paths.update(report_json=artifact_path(cfg, "report.json"),
                 report_txt=artifact_path(cfg, "report.txt"))
    return report, paths


def cross_validate(items, labels, grid, eval_fn, k=5, seed=0):
    """Stratified seeded k-fold selection over a hyperparameter grid.

    items: per-segment feature arrays (or any objects eval_fn understands).
    eval_fn(params, train_items, train_labels, val_items, val_labels)
    returns an accuracy in [0, 1]. Picks the grid point with the best mean
    fold accuracy; ties go to the first point in grid order. Returns
    (best_params, fold_table) where fold_table[i] is the list of fold
    accuracies for grid point i.
    """
    labels = np.asarray(labels)
    n = len(items)
    if n != len(labels):
        raise TooFewSamples("items/labels length mismatch")
    rng = np.random.default_rng(seed)
    folds = [[] for _ in range(k)]
    for c in np.unique(labels):
        idx = np.flatnonzero(labels == c)
        if len(idx) < k:
            raise TooFewSamples(f"class {c} has {len(idx)} segments, need >= {k}")
        rng.shuffle(idx)
        for j, i in enumerate(idx):
            folds[j % k].append(int(i))
    folds = [sorted(f) for f in folds]

    fold_table = []
    means = []
    for params in grid:
        accs = []
        for f in folds:
            val = set(f)
            tr = [i for i in range(n) if i not in val]
            accs.append(eval_fn(params,
                                [items[i] for i in tr], labels[tr],
                                [items[i] for i in f], labels[list(f)]))
        fold_table.append(accs)
        means.append(float(np.mean(accs)))
    best = int(np.argmax(means))
    return grid[best], fold_table


def default_svm_grid(feature_dim):
    """C in {1, 10, 100} x gamma in {0.1, 1, 10}/dim."""
    return [{"c": c, "gamma": g / feature_dim}
            for c in (1.0, 10.0, 100.0) for g in (0.1, 1.0, 10.0)]


def select_svm_params(cfg, transform, train_taps, labels, k=5):
    """k-fold search of the default SVM grid over the training segments;
    returns (best params, per-grid-point fold accuracies). Each fold fits
    with `fit_classifier` and scores with `evaluate`, so it rates the SVM
    `run` would fit on those segments, `svm_frame_step` included."""
    _require_train(train_taps)

    def fold_accuracy(params, fit_taps, fit_labels, val_taps, val_labels):
        fold_cfg = replace(cfg, classifier="svm", svm_c=params["c"],
                           svm_gamma=params["gamma"])
        clf = fit_classifier(fold_cfg, transform, fit_taps, fit_labels)
        report = evaluate(fold_cfg, transform, clf, val_taps, val_labels,
                          ["fold"] * len(val_taps), sorted(set(fit_labels)))
        confusion = np.array(report.confusion["fold"])
        return float(np.trace(confusion) / confusion.sum())

    dim = _reduce(transform, train_taps[:1])[0].shape[1]
    return cross_validate(train_taps, labels, default_svm_grid(dim),
                          fold_accuracy, k=k, seed=cfg.seed)
