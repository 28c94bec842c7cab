"""Back-end classifiers over frame-level features, plus per-segment decision
accumulation.

Three families:
  * per-class Gaussian mixtures with diagonal covariance, fitted by EM;
  * one-vs-rest support vector machines with RBF kernels, fitted by
    sequential minimal optimization (SMO);
  * a dense softmax network (300-300-100 hidden) reusing the shared trainer.

A segment is classified by summing per-frame scores per class
(log-likelihoods, decision values, or log posteriors) and taking the
argmax; ties go to the lowest class index.
"""

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np
from scipy.special import logsumexp

from .errors import (
    DegenerateLabels,
    DimMismatch,
    EmptyClass,
    EmptyFrames,
    TooFewFrames,
)
from .network import init_mlp, predict, train

LOG_2PI = np.log(2.0 * np.pi)


# ---------------------------------------------------------------------------
# Gaussian mixtures
# ---------------------------------------------------------------------------

@dataclass
class GmmClassModel:
    weights: np.ndarray    # (K,)
    means: np.ndarray      # (K, D)
    variances: np.ndarray  # (K, D), diagonal covariances, floored
    ll_history: List[float] = field(default_factory=list)


@dataclass
class GmmModel:
    classes: List[str]
    per_class: Dict[str, GmmClassModel]

    @property
    def dims(self):
        first = self.per_class[self.classes[0]]
        return first.means.shape[1]


def _gmm_log_prob(x, weights, means, variances):
    """(N, K) log of weight_k * N(x; mean_k, diag var_k)."""
    # -(1/2) * [D log 2pi + sum log var + sum (x-mu)^2/var]
    log_det = np.sum(np.log(variances), axis=1)  # (K,)
    x2 = np.square(x) @ (1.0 / variances).T
    xm = x @ (means / variances).T
    m2 = np.sum(np.square(means) / variances, axis=1)
    mahal = x2 - 2.0 * xm + m2[None, :]
    return (np.log(weights)[None, :]
            - 0.5 * (x.shape[1] * LOG_2PI + log_det)[None, :]
            - 0.5 * mahal)


def _fit_one_gmm(x, k, rng, max_iter=200, rel_tol=1e-6, floor_frac=1e-3):
    n, d = x.shape
    if n < k:
        raise TooFewFrames(
            f"{n} frames for {k} mixtures; use a smaller mixture count"
        )
    global_var = np.maximum(x.var(axis=0), 1e-12)
    floor = floor_frac * global_var
    means = x[rng.choice(n, size=k, replace=False)].copy()
    variances = np.tile(np.maximum(global_var, floor), (k, 1))
    weights = np.full(k, 1.0 / k)
    history = []
    for _ in range(max_iter):
        log_joint = _gmm_log_prob(x, weights, means, variances)  # (N, K)
        log_norm = logsumexp(log_joint, axis=1)
        ll = float(np.sum(log_norm))
        history.append(ll)
        resp = np.exp(log_joint - log_norm[:, None])  # (N, K)
        nk = resp.sum(axis=0)
        nk = np.maximum(nk, 1e-300)
        weights = nk / n
        means = (resp.T @ x) / nk[:, None]
        ex2 = (resp.T @ np.square(x)) / nk[:, None]
        variances = np.maximum(ex2 - np.square(means), floor[None, :])
        if len(history) >= 2:
            prev = history[-2]
            if abs(ll - prev) <= rel_tol * abs(prev):
                break
    weights = weights / weights.sum()
    return GmmClassModel(weights, means, variances, history)


def gmm_fit(features_per_class, k=512, seed=0, max_iter=200, rel_tol=1e-6):
    """Fit one diagonal-covariance GMM per class by EM.

    Means start from a seeded random frame sample, variances from the
    per-class global diagonal variance (also the source of the variance
    floor at 1e-3 of it), weights uniform. Iterates until the
    log-likelihood's relative improvement drops below rel_tol.
    """
    if not features_per_class:
        raise EmptyClass("no classes given")
    classes = sorted(features_per_class)
    per_class = {}
    for i, label in enumerate(classes):
        x = np.atleast_2d(np.asarray(features_per_class[label], dtype=np.float64))
        if x.shape[0] == 0:
            raise EmptyClass(f"class {label!r} has no frames")
        rng = np.random.default_rng(np.random.SeedSequence([seed, i]))
        per_class[label] = _fit_one_gmm(x, k, rng, max_iter, rel_tol)
    return GmmModel(classes=classes, per_class=per_class)


def gmm_score_matrix(model, values):
    """(rows, classes) per-frame log-likelihoods."""
    x = np.atleast_2d(np.asarray(values, dtype=np.float64))
    if x.shape[1] != model.dims:
        raise DimMismatch(f"frame dims {x.shape[1]} != model dims {model.dims}")
    cols = []
    for label in model.classes:
        m = model.per_class[label]
        cols.append(logsumexp(_gmm_log_prob(x, m.weights, m.means, m.variances), axis=1))
    return np.column_stack(cols)


# ---------------------------------------------------------------------------
# Support vector machines (one-vs-rest, RBF kernel, SMO)
# ---------------------------------------------------------------------------

@dataclass
class BinarySvm:
    support_vectors: np.ndarray  # (n_sv, D)
    dual_coef: np.ndarray        # (n_sv,), alpha_i * y_i
    bias: float


@dataclass
class SvmModel:
    classes: List[str]
    machines: Dict[str, BinarySvm]
    gamma: float
    c: float

    @property
    def dims(self):
        return self.machines[self.classes[0]].support_vectors.shape[1]


def rbf_kernel(a, b, gamma):
    """k(x, y) = exp(-gamma * ||x - y||^2) for all row pairs."""
    a = np.atleast_2d(a)
    b = np.atleast_2d(b)
    d2 = (np.sum(a * a, axis=1)[:, None]
          + np.sum(b * b, axis=1)[None, :]
          - 2.0 * a @ b.T)
    return np.exp(-gamma * np.maximum(d2, 0.0))


def smo_solve(kmat, y, c, tol=1e-3, max_passes=200):
    """Platt-style SMO on a precomputed kernel matrix.

    Returns (alpha, bias) for the decision function
    f(x) = sum_i alpha_i y_i k(x_i, x) + bias. Deterministic: candidate
    pairs are visited in fixed index order with the max-|E1-E2| second
    choice heuristic.
    """
    n = len(y)
    y = np.asarray(y, dtype=np.float64)
    alpha = np.zeros(n)
    b = 0.0
    # error cache: E_i = f(x_i) - y_i; with alpha = 0, f = b = 0
    err = -y.copy()

    def take_step(i1, i2):
        nonlocal b
        if i1 == i2:
            return False
        a1, a2 = alpha[i1], alpha[i2]
        y1, y2 = y[i1], y[i2]
        e1, e2 = err[i1], err[i2]
        s = y1 * y2
        if s > 0:
            lo, hi = max(0.0, a1 + a2 - c), min(c, a1 + a2)
        else:
            lo, hi = max(0.0, a2 - a1), min(c, c + a2 - a1)
        if hi - lo < 1e-12:
            return False
        k11, k12, k22 = kmat[i1, i1], kmat[i1, i2], kmat[i2, i2]
        eta = k11 + k22 - 2.0 * k12
        if eta > 1e-12:
            a2_new = a2 + y2 * (e1 - e2) / eta
            a2_new = min(max(a2_new, lo), hi)
        else:
            # flat direction: pick the better bound by objective change
            f1 = y1 * (e1 + b) - a1 * k11 - s * a2 * k12
            f2 = y2 * (e2 + b) - s * a1 * k12 - a2 * k22
            l1 = a1 + s * (a2 - lo)
            h1 = a1 + s * (a2 - hi)
            obj_lo = (l1 * f1 + lo * f2 + 0.5 * l1 * l1 * k11
                      + 0.5 * lo * lo * k22 + s * lo * l1 * k12)
            obj_hi = (h1 * f1 + hi * f2 + 0.5 * h1 * h1 * k11
                      + 0.5 * hi * hi * k22 + s * hi * h1 * k12)
            if obj_lo < obj_hi - 1e-12:
                a2_new = lo
            elif obj_lo > obj_hi + 1e-12:
                a2_new = hi
            else:
                a2_new = a2
        if abs(a2_new - a2) < 1e-12 * (a2_new + a2 + 1e-12):
            return False
        a1_new = a1 + s * (a2 - a2_new)
        # threshold update
        b1 = e1 + y1 * (a1_new - a1) * k11 + y2 * (a2_new - a2) * k12 + b
        b2 = e2 + y1 * (a1_new - a1) * k12 + y2 * (a2_new - a2) * k22 + b
        if 0.0 < a1_new < c:
            b_new = b1
        elif 0.0 < a2_new < c:
            b_new = b2
        else:
            b_new = 0.5 * (b1 + b2)
        alpha[i1], alpha[i2] = a1_new, a2_new
        delta = (y1 * (a1_new - a1) * kmat[i1]
                 + y2 * (a2_new - a2) * kmat[i2]
                 - (b_new - b))
        err[:] += delta
        b = b_new
        return True

    def examine(i2):
        y2, a2, e2 = y[i2], alpha[i2], err[i2]
        r2 = e2 * y2
        if (r2 < -tol and a2 < c) or (r2 > tol and a2 > 0):
            non_bound = np.flatnonzero((alpha > 0) & (alpha < c))
            if len(non_bound) > 1:
                i1 = non_bound[np.argmax(np.abs(err[non_bound] - e2))]
                if take_step(int(i1), i2):
                    return True
            for i1 in non_bound:
                if take_step(int(i1), i2):
                    return True
            for i1 in range(n):
                if take_step(i1, i2):
                    return True
        return False

    num_changed = 0
    examine_all = True
    passes = 0
    while (num_changed > 0 or examine_all) and passes < max_passes:
        num_changed = 0
        if examine_all:
            for i in range(n):
                num_changed += examine(i)
        else:
            for i in np.flatnonzero((alpha > 0) & (alpha < c)):
                num_changed += examine(int(i))
        if examine_all:
            examine_all = False
        elif num_changed == 0:
            examine_all = True
        passes += 1
    # SMO uses f(x) = sum alpha y k - b internally; flip to "+ bias" form
    return alpha, -b


def svm_dual_objective(kmat, y, alpha):
    """W(alpha) = sum alpha - 1/2 sum_ij alpha_i alpha_j y_i y_j K_ij."""
    ay = alpha * y
    return float(np.sum(alpha) - 0.5 * ay @ kmat @ ay)


def svm_fit(features, labels, c=10.0, gamma=0.01, tol=1e-3):
    """One-vs-rest RBF SVMs, one SMO solve per class."""
    x = np.atleast_2d(np.asarray(features, dtype=np.float64))
    labels = np.asarray(labels)
    classes = sorted(np.unique(labels).tolist())
    if len(classes) < 2:
        raise DegenerateLabels("need at least 2 classes")
    kmat = rbf_kernel(x, x, gamma)
    machines = {}
    for label in classes:
        y = np.where(labels == label, 1.0, -1.0)
        alpha, bias = smo_solve(kmat, y, c, tol=tol)
        sv = alpha > 1e-10
        machines[label] = BinarySvm(
            support_vectors=x[sv].copy(),
            dual_coef=(alpha * y)[sv],
            bias=bias,
        )
    return SvmModel(classes=classes, machines=machines, gamma=gamma, c=c)


def svm_score_matrix(model, values):
    """(rows, classes) decision values of every one-vs-rest machine."""
    if not model.machines:
        raise EmptyClass("model has no fitted machines")
    x = np.atleast_2d(np.asarray(values, dtype=np.float64))
    if x.shape[1] != model.dims:
        raise DimMismatch(f"frame dims {x.shape[1]} != model dims {model.dims}")
    cols = []
    for label in model.classes:
        m = model.machines[label]
        if len(m.dual_coef):
            k = rbf_kernel(x, m.support_vectors, model.gamma)
            cols.append(k @ m.dual_coef + m.bias)
        else:
            cols.append(np.full(x.shape[0], m.bias))
    return np.column_stack(cols)


# ---------------------------------------------------------------------------
# Dense-net classifier
# ---------------------------------------------------------------------------

def dnn_classifier_fit(features, labels, cfg, hidden=(300, 300, 100)):
    """Softmax network with sigmoid hidden layers over frame features."""
    x = np.atleast_2d(np.asarray(features, dtype=np.float64))
    labels = np.asarray(labels, dtype=int)
    net = init_mlp(x.shape[1], hidden, int(labels.max()) + 1, seed=cfg.seed)
    return train(net, x, labels, cfg)


def dnn_score_matrix(net, values):
    """(rows, classes) softmax posteriors."""
    return predict(net, np.atleast_2d(np.asarray(values, dtype=np.float64)))


# ---------------------------------------------------------------------------
# Segment-level decisions
# ---------------------------------------------------------------------------

@dataclass
class SegmentDecision:
    scores: np.ndarray  # accumulated per-class score
    winner: int
    n_frames: int


def classify_segment(frame_scores, kind):
    """Accumulate per-frame scores over a segment and pick the argmax class.

    kind 'log_lik' and 'decision_value' sum the scores directly; kind
    'softmax' sums log posteriors. Ties go to the lowest class index.
    """
    scores = np.atleast_2d(np.asarray(frame_scores, dtype=np.float64))
    if scores.shape[0] < 1 or scores.size == 0:
        raise EmptyFrames("no frames to classify")
    if kind not in ("log_lik", "decision_value", "softmax"):
        raise ValueError(f"unknown score kind {kind!r}")
    if kind == "softmax":
        scores = np.log(np.clip(scores, 1e-300, None))
    acc = scores.sum(axis=0)
    return SegmentDecision(scores=acc, winner=int(np.argmax(acc)),
                           n_frames=scores.shape[0])
