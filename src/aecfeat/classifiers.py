"""Back-end classifiers over frame-level features, plus per-segment decision
accumulation.

Three families:
  * per-class Gaussian mixtures with diagonal covariance, fitted by EM;
  * one-vs-rest support vector machines with RBF kernels, fitted by
    sequential minimal optimization (SMO) to the KKT conditions;
  * a dense softmax network (300-300-100 hidden), which
    `pipeline.fit_classifier` builds with `init_mlp` and trains with `train`.

Every back end scores frames as a (rows, classes) matrix in which higher
is better and summing over frames is meaningful: log-likelihoods, decision
values, or log posteriors. A segment is classified by summing its frame
scores per class and taking the argmax; ties go to the lowest class index.
"""

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np
from scipy.special import logsumexp

from .errors import AecError
from .network import predict

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


GMM_MAX_ITER = 200
GMM_REL_TOL = 1e-6     # EM stops when the relative log-likelihood gain is less
GMM_FLOOR_FRAC = 1e-3  # variance floor, as a fraction of the global variance
SMO_TOL = 1e-3         # SMO stops when its largest KKT violation is less


def _fit_one_gmm(x, k, rng):
    n, d = x.shape
    if n < k:
        raise AecError(
            f"{n} frames for {k} mixtures; use a smaller mixture count"
        )
    global_var = np.maximum(x.var(axis=0), 1e-12)
    floor = GMM_FLOOR_FRAC * global_var
    means = x[rng.choice(n, size=k, replace=False)].copy()
    variances = np.tile(np.maximum(global_var, floor), (k, 1))
    weights = np.full(k, 1.0 / k)
    history = []
    for _ in range(GMM_MAX_ITER):
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
            if abs(ll - prev) <= GMM_REL_TOL * abs(prev):
                break
    weights = weights / weights.sum()
    return GmmClassModel(weights, means, variances, history)


def gmm_fit(features_per_class, k=512, seed=0):
    """Fit one diagonal-covariance GMM per class by EM.

    Means start from a seeded random frame sample, variances from the
    per-class global diagonal variance (also the source of the variance
    floor at 1e-3 of it), weights uniform. Iterates until the
    log-likelihood's relative improvement drops below GMM_REL_TOL, or
    for at most GMM_MAX_ITER iterations.
    """
    if not features_per_class:
        raise AecError("no classes given")
    classes = sorted(features_per_class)
    per_class = {}
    for i, label in enumerate(classes):
        x = np.atleast_2d(np.asarray(features_per_class[label], dtype=np.float64))
        if x.shape[0] == 0:
            raise AecError(f"class {label!r} has no frames")
        rng = np.random.default_rng(np.random.SeedSequence([seed, i]))
        per_class[label] = _fit_one_gmm(x, k, rng)
    return GmmModel(classes=classes, per_class=per_class)


def gmm_score_matrix(model, values):
    """(rows, classes) per-frame log-likelihoods."""
    x = np.atleast_2d(np.asarray(values, dtype=np.float64))
    if x.shape[1] != model.dims:
        raise AecError(f"frame dims {x.shape[1]} != model dims {model.dims}")
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


class KernelRows(dict):
    """RBF kernel rows of `x` against itself, each computed on first read:
    `rows[i]` is `rbf_kernel(x[i:i+1], x, gamma)[0]`, so its bits depend
    only on i, never on which other rows were read. An SMO solve reads
    rows i and j at each step and nothing else, so a fit holds the rows it
    visits (few, when the support vectors are few) and never more than the
    dense n x n matrix."""

    def __init__(self, x, gamma):
        super().__init__()
        self.x = x
        self.gamma = gamma

    def __missing__(self, i):
        row = self[i] = rbf_kernel(self.x[i:i + 1], self.x, self.gamma)[0]
        return row


def smo_solve(kmat, y, c):
    """SMO taking the maximal violating pair at every step (WSS1 of Fan,
    Chen & Lin, JMLR 2005). `kmat[i]` must give kernel row i, and only
    rows i and j of each step are read. `kmat` may be a dense matrix or
    the `KernelRows` that `svm_fit`'s one-vs-rest machines share, where a
    row is computed on first read; a row computed alone differs from the
    dense GEMM by about 1e-15, so the two can take different paths within
    SMO_TOL, but each is bit-identical run to run.

    Minimizes 1/2 a'Qa - sum(a), Q = yy' * K, over 0 <= a <= c, y'a = 0,
    tracking score = -y * (Qa - 1). Each step solves the two-variable
    subproblem of i = argmax score over I_up (y > 0 and a < c, or y < 0
    and a > 0) and j = argmin score over I_low (y > 0 and a > 0, or y < 0
    and a < c) exactly, clipped to the box; an alpha that reaches a bound
    is set to exactly 0 or c. It stops when score[i] - score[j] < SMO_TOL,
    and the bias is the mean score over free alphas (the midpoint of
    score[i] and score[j] if none is free), so every margin meets its KKT
    condition to within SMO_TOL. There is no iteration cap, which would
    stop a solve short of that: for SMO_TOL > 0 and a finite c > 0 the loop
    ends in finitely many steps (Keerthi & Gilbert, 2002). Negating y picks
    the same pair, swapped, and takes the same step, so it negates the
    bias and keeps the alphas.

    Returns (alpha, bias) for f(x) = sum_i alpha_i y_i k(x_i, x) + bias.
    """
    if not 0 < c < np.inf:
        raise AecError(f"c must be finite and > 0, got {c}")
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
        if gap < SMO_TOL:
            break
        # move alpha_i by y_i t and alpha_j by -y_j t, which keeps y'a = 0
        ki, kj = kmat[i], kmat[j]
        quad = max(ki[i] + kj[j] - 2.0 * ki[j], 1e-12)
        room_i = c - alpha[i] if pos[i] else alpha[i]
        room_j = alpha[j] if pos[j] else c - alpha[j]
        t = min(gap / quad, room_i, room_j)
        alpha[i] = (c if pos[i] else 0.0) if t == room_i else alpha[i] + y[i] * t
        alpha[j] = (0.0 if pos[j] else c) if t == room_j else alpha[j] - y[j] * t
        score -= t * (ki - kj)
    free = (alpha > 0) & (alpha < c)
    bias = np.mean(score[free]) if free.any() else 0.5 * (score[i] + score[j])
    return alpha, float(bias)


def svm_fit(features, labels, c=10.0, gamma=0.01):
    """One-vs-rest RBF SVMs, one SMO solve per class to SMO_TOL. The
    machines share one `KernelRows`, so a kernel row is computed once, when
    SMO first reads it, and the fit never builds the n x n kernel. A row
    computed alone differs from the same row of a dense GEMM by about
    1e-15, so SMO may take another path within SMO_TOL than a dense-kernel
    fit; run to run the fit is bit-identical."""
    # `fit_classifier` passes every n-th frame as a strided view, which
    # every kernel row would otherwise read through a copy
    x = np.atleast_2d(np.ascontiguousarray(features, dtype=np.float64))
    if not np.isfinite(x).all():
        raise AecError("SVM training frames contain non-finite values")
    if not 0 < gamma < np.inf:
        raise AecError(f"gamma must be finite and > 0, got {gamma}")
    labels = np.asarray(labels)
    if len(labels) != len(x):
        raise AecError(f"{len(x)} frames but {len(labels)} labels")
    classes = sorted(np.unique(labels).tolist())
    if len(classes) < 2:
        raise AecError("need at least 2 classes")
    kmat = KernelRows(x, gamma)
    machines = {}
    for label in classes:
        y = np.where(labels == label, 1.0, -1.0)
        alpha, bias = smo_solve(kmat, y, c)
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
        raise AecError("model has no fitted machines")
    x = np.atleast_2d(np.asarray(values, dtype=np.float64))
    if x.shape[1] != model.dims:
        raise AecError(f"frame dims {x.shape[1]} != model dims {model.dims}")
    cols = []
    for label in model.classes:
        m = model.machines[label]
        k = rbf_kernel(x, m.support_vectors, model.gamma)
        cols.append(k @ m.dual_coef + m.bias)
    return np.column_stack(cols)


# ---------------------------------------------------------------------------
# Dense-net classifier
# ---------------------------------------------------------------------------

def dnn_score_matrix(net, values):
    """(rows, classes) log softmax posteriors, floored at log(1e-300)."""
    probs = predict(net, np.atleast_2d(np.asarray(values, dtype=np.float64)))
    return np.log(np.clip(probs, 1e-300, None))


# ---------------------------------------------------------------------------
# Segment-level decisions
# ---------------------------------------------------------------------------

def classify_segment(frame_scores):
    """Sum a segment's (rows, classes) frame scores per class and return
    the index of the argmax class; ties go to the lowest class index."""
    scores = np.atleast_2d(np.asarray(frame_scores, dtype=np.float64))
    if scores.size == 0:
        raise AecError("no frames to classify")
    return int(np.argmax(scores.sum(axis=0)))
