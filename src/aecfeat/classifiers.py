"""Back-end classifiers over frame-level features, plus per-segment decision
accumulation.

Three families:
  * per-class Gaussian mixtures with diagonal covariance, fitted by EM;
  * one-vs-rest support vector machines with RBF kernels, fitted by
    sequential minimal optimization (SMO) to the KKT conditions within tol;
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


def smo_solve(kmat, y, c, tol=1e-3):
    """SMO on a precomputed kernel matrix, taking the maximal violating
    pair at every step (WSS1 of Fan, Chen & Lin, JMLR 2005).

    Minimizes 1/2 a'Qa - sum(a), Q = yy' * K, over 0 <= a <= c, y'a = 0,
    tracking score = -y * (Qa - 1). Each step solves the two-variable
    subproblem of i = argmax score over I_up (y > 0 and a < c, or y < 0
    and a > 0) and j = argmin score over I_low (y > 0 and a > 0, or y < 0
    and a < c) exactly, clipped to the box; an alpha that reaches a bound
    is set to exactly 0 or c. It stops when score[i] - score[j] < tol, and
    the bias is the mean score over free alphas (the midpoint of score[i]
    and score[j] if none is free), so every margin meets its KKT condition
    to within tol. There is no iteration cap, which would stop a solve
    short of that: for tol > 0 the loop ends in finitely many steps
    (Keerthi & Gilbert, 2002). Negating y picks the same pair, swapped,
    and takes the same step, so it negates the bias and keeps the alphas.

    Returns (alpha, bias) for f(x) = sum_i alpha_i y_i k(x_i, x) + bias.
    """
    if not tol > 0:
        raise ValueError(f"tol must be > 0, got {tol}")
    y = np.asarray(y, dtype=np.float64)
    pos = y > 0
    alpha = np.zeros(len(y))
    score = y.copy()  # grad = -1 at alpha = 0
    while True:
        up = np.where(pos, alpha < c, alpha > 0)
        low = np.where(pos, alpha > 0, alpha < c)
        i = int(np.argmax(np.where(up, score, -np.inf)))
        j = int(np.argmin(np.where(low, score, np.inf)))
        gap = score[i] - score[j]
        if gap < tol:
            break
        # move alpha_i by y_i t and alpha_j by -y_j t, which keeps y'a = 0
        quad = max(kmat[i, i] + kmat[j, j] - 2.0 * kmat[i, j], 1e-12)
        room_i = c - alpha[i] if pos[i] else alpha[i]
        room_j = alpha[j] if pos[j] else c - alpha[j]
        t = min(gap / quad, room_i, room_j)
        alpha[i] = (c if pos[i] else 0.0) if t == room_i else alpha[i] + y[i] * t
        alpha[j] = (0.0 if pos[j] else c) if t == room_j else alpha[j] - y[j] * t
        score -= t * (kmat[i] - kmat[j])
    free = (alpha > 0) & (alpha < c)
    bias = np.mean(score[free]) if free.any() else 0.5 * (score[i] + score[j])
    return alpha, float(bias)


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
