"""Dense feed-forward networks trained with mini-batch SGD.

Supports sigmoid/linear hidden layers and a softmax head trained on
cross-entropy, classical momentum, weight decay on weights only, and a
two-stage learning-rate schedule (the rate is divided by 10 for the second
stage). `train` updates every layer it is given; `Layer.frozen` only marks
the trunk layers that `transfer.adapt` keeps out of training. Everything is
deterministic for a given seed.
"""

import time
from dataclasses import dataclass, field
from typing import List

import numpy as np

from .errors import (
    DegenerateLabels,
    DimMismatch,
    NoSoftmaxHead,
    ShapeMismatch,
    TooFewSamples,
)


@dataclass
class Layer:
    w: np.ndarray  # (out_dim, in_dim)
    b: np.ndarray  # (out_dim,)
    activation: str
    frozen: bool = False

    @property
    def in_dim(self):
        return self.w.shape[1]

    @property
    def out_dim(self):
        return self.w.shape[0]


@dataclass
class Network:
    layers: List[Layer]

    @property
    def in_dim(self):
        return self.layers[0].in_dim

    @property
    def out_dim(self):
        return self.layers[-1].out_dim

    def copy(self):
        return Network([Layer(l.w.copy(), l.b.copy(), l.activation, l.frozen)
                        for l in self.layers])


@dataclass
class TrainConfig:
    lr0: float = 0.005
    momentum: float = 0.9
    weight_decay: float = 0.0005
    batch_size: int = 128
    val_ratio: float = 0.2  # the 4:1 train/validation split
    patience_epochs: int = 5
    min_rel_improve: float = 1e-3
    n_lr_stages: int = 2
    max_epochs_per_stage: int = 200
    seed: int = 0

    def __post_init__(self):
        if not (0.0 <= self.momentum < 1.0):
            raise ValueError("momentum must be in [0, 1)")
        if self.lr0 <= 0:
            raise ValueError("lr0 must be positive")


@dataclass
class TrainReport:
    train_ce: List[float] = field(default_factory=list)
    val_ce: List[float] = field(default_factory=list)
    stage_boundaries: List[int] = field(default_factory=list)  # first epoch of each stage
    final_epoch: int = 0
    wall_time_s: float = 0.0


def init_mlp(in_dim, hidden, n_classes, seed=0):
    """Sigmoid hidden layers of the given widths under a softmax head;
    Glorot-uniform weights and zero biases, deterministic for a given seed."""
    dims = [in_dim, *hidden, n_classes]
    if min(dims) < 1:
        raise ValueError("layer dims must be positive")
    rng = np.random.default_rng(seed)
    layers = []
    for a, b in zip(dims, dims[1:]):
        s = np.sqrt(6.0 / (a + b))
        layers.append(Layer(rng.uniform(-s, s, size=(b, a)), np.zeros(b),
                            "sigmoid"))
    layers[-1].activation = "softmax"
    return Network(layers)


def _sigmoid(z):
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _softmax(z):
    z = z - z.max(axis=1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=1, keepdims=True)


def _activate(z, kind):
    if kind == "sigmoid":
        return _sigmoid(z)
    if kind == "softmax":
        return _softmax(z)
    return z


def forward(net, x):
    """Per-layer post-activation outputs for a batch (rows = samples)."""
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if x.shape[1] != net.in_dim:
        raise DimMismatch(f"input dims {x.shape[1]} != network input {net.in_dim}")
    acts = []
    a = x
    for layer in net.layers:
        z = a @ layer.w.T + layer.b
        a = _activate(z, layer.activation)
        acts.append(a)
    return acts


def predict(net, x):
    return forward(net, x)[-1]


def cross_entropy(probs, one_hot):
    """Mean cross-entropy over the batch, clipped away from log(0)."""
    p = np.clip(probs, 1e-300, None)
    return float(-np.sum(one_hot * np.log(p)) / probs.shape[0])


def grad(net, x, one_hot):
    """Backprop gradients of mean cross-entropy for every layer.

    Requires a softmax head. Returns a list of (dW, db) matching net.layers.
    """
    if net.layers[-1].activation != "softmax":
        raise NoSoftmaxHead("gradient needs a softmax output layer")
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    one_hot = np.atleast_2d(np.asarray(one_hot, dtype=np.float64))
    acts = forward(net, x)
    n = x.shape[0]
    grads = [None] * len(net.layers)
    # softmax + cross-entropy: delta = (p - y) / n
    delta = (acts[-1] - one_hot) / n
    for k in range(len(net.layers) - 1, -1, -1):
        layer = net.layers[k]
        a_prev = acts[k - 1] if k > 0 else x
        grads[k] = (delta.T @ a_prev, delta.sum(axis=0))
        if k > 0:
            delta = delta @ layer.w
            prev = net.layers[k - 1]
            if prev.activation == "sigmoid":
                delta = delta * a_prev * (1.0 - a_prev)
            elif prev.activation == "softmax":
                raise NoSoftmaxHead("softmax only allowed as the final layer")
    return grads


def sgd_step(layer, grads, velocity, lr, momentum, weight_decay):
    """Classical momentum update in place.

    v <- momentum*v + (grad + wd*w);  w <- w - lr*v. Weight decay applies to
    weights only. `velocity` is a (vw, vb) pair, updated in place.
    """
    dw, db = grads
    vw, vb = velocity
    if dw.shape != layer.w.shape or db.shape != layer.b.shape:
        raise ShapeMismatch("gradient/parameter shape mismatch")
    vw *= momentum
    vw += dw + weight_decay * layer.w
    vb *= momentum
    vb += db
    layer.w -= lr * vw
    layer.b -= lr * vb


def _stratified_split(labels, val_ratio, rng):
    """Seeded per-class split. Classes too small to spare a sample keep
    everything in the training part."""
    train_idx, val_idx = [], []
    for c in np.unique(labels):
        idx = np.flatnonzero(labels == c)
        rng.shuffle(idx)
        n_val = int(len(idx) * val_ratio)
        if n_val >= len(idx):
            n_val = len(idx) - 1
        val_idx.extend(idx[:n_val])
        train_idx.extend(idx[n_val:])
    return np.sort(np.array(train_idx, dtype=int)), np.sort(np.array(val_idx, dtype=int))


def one_hot(labels, n_classes):
    labels = np.asarray(labels, dtype=int)
    out = np.zeros((len(labels), n_classes))
    out[np.arange(len(labels)), labels] = 1.0
    return out


def train(net, features, labels, cfg):
    """Train with the two-stage schedule and return the parameter snapshot
    with the best validation cross-entropy.

    Each stage runs at its learning rate until the epoch-mean training
    cross-entropy stops improving (relative improvement below
    cfg.min_rel_improve for cfg.patience_epochs consecutive epochs) or the
    stage epoch cap is hit; the next stage divides the rate by 10.
    """
    t0 = time.perf_counter()
    x = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels, dtype=int)
    if x.shape[0] != len(labels):
        raise DimMismatch("features/labels length mismatch")
    classes = np.unique(labels)
    if len(classes) < 2:
        raise DegenerateLabels("need at least 2 classes")
    n_classes = net.out_dim
    if labels.max() >= n_classes:
        raise DimMismatch("label index exceeds network output dim")
    if net.layers[-1].activation != "softmax":
        raise NoSoftmaxHead("training requires a softmax head")

    rng = np.random.default_rng(cfg.seed)
    train_idx, val_idx = _stratified_split(labels, cfg.val_ratio, rng)
    for c in classes:
        if not np.any(labels[train_idx] == c):
            raise TooFewSamples(f"class {c} has no training samples after the split")

    x_tr, y_tr = x[train_idx], one_hot(labels[train_idx], n_classes)
    x_val, y_val = x[val_idx], one_hot(labels[val_idx], n_classes)

    net = net.copy()
    report = TrainReport()
    best = net.copy()
    best_val = np.inf
    epoch = 0

    for stage in range(cfg.n_lr_stages):
        lr = cfg.lr0 / (10.0 ** stage)
        report.stage_boundaries.append(epoch)
        velocity = [(np.zeros_like(l.w), np.zeros_like(l.b)) for l in net.layers]
        prev_ce = None
        stall = 0
        for _ in range(cfg.max_epochs_per_stage):
            order = rng.permutation(len(x_tr))
            for lo in range(0, len(order), cfg.batch_size):
                sel = order[lo : lo + cfg.batch_size]
                g = grad(net, x_tr[sel], y_tr[sel])
                for layer, gl, vel in zip(net.layers, g, velocity):
                    sgd_step(layer, gl, vel, lr, cfg.momentum, cfg.weight_decay)
            train_ce = cross_entropy(predict(net, x_tr), y_tr)
            if len(x_val):
                val_ce = cross_entropy(predict(net, x_val), y_val)
            else:
                val_ce = train_ce
            report.train_ce.append(train_ce)
            report.val_ce.append(val_ce)
            epoch += 1
            if val_ce < best_val:
                best_val = val_ce
                best = net.copy()
            if prev_ce is not None:
                rel = (prev_ce - train_ce) / max(abs(prev_ce), 1e-300)
                stall = stall + 1 if rel < cfg.min_rel_improve else 0
            prev_ce = train_ce
            if stall >= cfg.patience_epochs:
                break

    report.final_epoch = epoch
    report.wall_time_s = time.perf_counter() - t0
    if not report.train_ce:  # zero-epoch cap: hand back the starting point
        best = net
        report.stage_boundaries = report.stage_boundaries[:1]
    return best, report
