"""Dense feed-forward networks trained with mini-batch SGD.

Supports sigmoid/linear hidden layers and a softmax head trained on
cross-entropy, classical momentum, weight decay on weights only, and a
two-stage learning-rate schedule (the rate is divided by 10 for the second
stage). `train` updates every layer it is given. Everything is
deterministic for a given seed.

Training runs in float32: `train` reads float32 features in place (any
other dtype is cast down once), casts targets, parameters and velocities
down once and returns float32 parameters (every stage already stores its
parameters as float32 in `.aecf` files). `forward` and `grad`
compute in the dtype of their input and parameters, so float64 callers get
float64 results. Losses are accumulated in float64.

Training and feature extraction use two CPUs on one BLAS thread: `train`
and `transfer.extract` run their loop in `_one_blas_thread()`, which pins
numpy's bundled OpenBLAS to one thread and, when that library is loaded
and the process may use two CPUs or more, lends one worker thread. Only
there do `forward`, `grad` and `sgd_step` split each wide layer's float32
work in two halves by output unit (the forward product, bias and
activation, the weight gradient and the momentum update of the weight
rows) and the error back-propagated through it by input unit: the worker
runs one half and the calling thread the other. Each output element of a
split product is summed over the same terms in the same order as in one
product over the whole layer (checked with the bundled OpenBLAS), so what
`train` and `extract` return depends neither on the CPU count nor on
OPENBLAS_NUM_THREADS. With another BLAS, they run on the calling thread
alone at that BLAS's own thread count.

`_run_jobs` runs data preparation's per-wav jobs on one thread per CPU,
at most two, and on none on one CPU; `_cpu_count` is the one CPU-count
rule for both mechanisms.
"""

import contextlib
import ctypes
import glob
import os
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from typing import ClassVar, List

import numpy as np
from scipy.special import expit

from .errors import AecError, check_field_types
from .frontend import _as_2d

# A wide layer, one with at least _WIDE weights (256 x 256 and up) and
# _NARROW units or more on either side, splits its float32 products and
# its weight update by output unit: one half on the calling thread, one on
# the worker thread `_one_blas_thread` lends. A product over fewer than
# _NARROW rows runs whole. Each half of a split product is then a matrix
# product of over a million multiply-adds with 32 or more rows and columns, which
# OpenBLAS sums in the order it sums the whole product; a narrower half
# can reach numpy's matrix-vector path or OpenBLAS's small-matrix
# kernels, which sum in other orders.
_WIDE = 1 << 16
_NARROW = 64


def _bundled_openblas():
    """numpy's bundled OpenBLAS with its thread-count functions typed, or
    None when this numpy ships another BLAS or the symbols are missing."""
    pattern = os.path.join(os.path.dirname(np.__file__), os.pardir,
                           "numpy.libs", "libscipy_openblas64_-*.so")
    for path in sorted(glob.glob(pattern)):
        try:
            lib = ctypes.CDLL(path)
            get = lib.scipy_openblas_get_num_threads64_
            set_ = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        set_.argtypes, set_.restype = [ctypes.c_int], None
        return lib
    return None


# numpy has already loaded this library; opening it again only finds it
_OPENBLAS = _bundled_openblas()
_pin_lock = threading.Lock()


def _cpu_count():
    """CPUs this process may run on: its affinity mask where the platform
    has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# .pool: the one-thread executor `_one_blas_thread` lends this thread, if any
_worker = threading.local()


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block with numpy's bundled OpenBLAS on one thread and, on
    two CPUs or more, lend `_halves` calls made on this thread one worker,
    started by the first split; on leaving, even if the block raises, join
    it, then restore the count. Without that library, do nothing.

    The count is process-global, so one lock is held for the whole block:
    concurrent callers take turns, each restores the count it found, and
    no thread's GEMM sees the count change while it runs."""
    lib = _OPENBLAS
    if lib is None:
        yield
        return
    with _pin_lock:
        saved = lib.scipy_openblas_get_num_threads64_()
        lib.scipy_openblas_set_num_threads64_(1)
        try:
            with (ThreadPoolExecutor(1) if _cpu_count() >= 2
                  else contextlib.nullcontext()) as pool:
                _worker.pool = pool
                try:
                    yield
                finally:
                    _worker.pool = None
        finally:
            lib.scipy_openblas_set_num_threads64_(saved)


# Data preparation (`synthetic.generate_dataset`,
# `prepare.prepare_conditions`) runs on at most _MAX_THREADS threads, the two
# CPUs its set-up time and memory were measured on, and each has at most _JOBS_PER_THREAD jobs
# submitted and unfinished, so the inputs taken ahead of the writes (a
# segment's noise, say) stay few. With glibc each thread also leaves its
# malloc arena behind, and the arena's free top stays resident for the rest
# of the process; malloc_trim does not return it.
_MAX_THREADS = 2
_JOBS_PER_THREAD = 2


def _run_jobs(jobs):
    """Call each job of the iterable `jobs` (callables of no argument),
    taken from it in order on the calling thread. With two CPUs or more in
    the affinity mask, the jobs run on one thread per CPU, up to
    _MAX_THREADS, and `jobs` is advanced only while fewer than
    _JOBS_PER_THREAD per thread are unfinished; on one CPU each runs in
    turn on the calling thread and no thread starts. The first failure in
    job order is raised: the jobs after it that have not started are
    dropped, and every thread is joined before this returns or raises."""
    n_threads = min(_cpu_count(), _MAX_THREADS)
    if n_threads < 2:
        for job in jobs:
            job()
        return
    unfinished = deque()
    with ThreadPoolExecutor(n_threads) as pool:
        try:
            for job in jobs:
                unfinished.append(pool.submit(job))
                if len(unfinished) == n_threads * _JOBS_PER_THREAD:
                    unfinished.popleft().result()
            while unfinished:
                unfinished.popleft().result()
        finally:
            for later in unfinished:
                later.cancel()


def _halves(split, work, *sizes):
    """Call `work` with one slice per size: when `split` and
    `_one_blas_thread` lends this thread a worker, once with the lower
    half of each here and once with the upper half on the worker; else
    once with the whole of each. Returns when both are done; a failure in either is raised
    here. The worker runs only `work`, which writes into arrays the caller
    allocated."""
    pool = getattr(_worker, "pool", None)
    if not split or pool is None:
        work(*(slice(0, n) for n in sizes))
        return
    upper_done = pool.submit(work, *(slice(n // 2, n) for n in sizes))
    try:
        work(*(slice(0, n // 2) for n in sizes))
    finally:
        upper_done.exception()  # waits: that half writes into our arrays
    upper_done.result()


def _wide(layer, *arrays):
    """Whether `layer`'s products with `arrays`, or its update from them,
    are split: the layer is wide and they are all float32 (the float64
    kernels sum a split product's edge tiles in another order)."""
    return (layer.w.size >= _WIDE and min(layer.w.shape) >= _NARROW
            and all(a.dtype == np.float32 for a in (layer.w, *arrays)))


@dataclass
class Layer:
    w: np.ndarray  # (out_dim, in_dim)
    b: np.ndarray  # (out_dim,)
    activation: str
    # not a field: `perfbench/spans.py::_layer_gflop` reads it, and that
    # file changes only with the benchmark; ROADMAP item 5 step a removes
    # the read and this constant together. No net passed to `grad` holds a
    # fixed layer, so `network.grad.frozen_gflop` reads 0 either way.
    frozen: ClassVar[bool] = False

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

    def copy(self, dtype=None):
        """A copy of every parameter, cast to `dtype` if one is given."""
        return Network([Layer(l.w.astype(dtype or l.w.dtype),
                              l.b.astype(dtype or l.b.dtype), l.activation)
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
        check_field_types(self)
        if not (0.0 <= self.momentum < 1.0):
            raise AecError("momentum must be in [0, 1)")
        if not (0.0 <= self.val_ratio < 1.0):
            raise AecError("val_ratio must be in [0, 1)")
        if self.weight_decay < 0 or self.max_epochs_per_stage < 0:
            raise AecError("weight_decay and max_epochs_per_stage must be "
                           ">= 0")
        bad = [name for name in ("lr0", "batch_size", "patience_epochs",
                                 "n_lr_stages") if getattr(self, name) <= 0]
        if bad:
            raise AecError(f"{', '.join(bad)} must be positive")


@dataclass
class TrainReport:
    train_ce: List[float] = field(default_factory=list)
    val_ce: List[float] = field(default_factory=list)
    stage_boundaries: List[int] = field(default_factory=list)  # first epoch of each stage
    final_epoch: int = 0


def init_mlp(in_dim, hidden, n_classes, seed=0):
    """Sigmoid hidden layers of the given widths under a softmax head;
    Glorot-uniform weights and zero biases, deterministic for a given seed."""
    dims = [in_dim, *hidden, n_classes]
    if min(dims) < 1:
        raise AecError("layer dims must be positive")
    rng = np.random.default_rng(seed)
    layers = []
    for a, b in zip(dims, dims[1:]):
        s = np.sqrt(6.0 / (a + b))
        layers.append(Layer(rng.uniform(-s, s, size=(b, a)), np.zeros(b),
                            "sigmoid"))
    layers[-1].activation = "softmax"
    return Network(layers)


def _activate(z, kind):
    """Apply the activation to the pre-activation array `z` in place."""
    if kind == "sigmoid":
        return expit(z, out=z)
    if kind == "softmax":
        z -= z.max(axis=1, keepdims=True)
        np.exp(z, out=z)
        z /= z.sum(axis=1, keepdims=True)
    return z


def _as_batch(x):
    """`x` as a 2-D float array: float32 stays float32, anything else
    becomes float64; no copy when it already is one of them."""
    x = np.atleast_2d(np.asarray(x))
    return x if x.dtype == np.float32 else x.astype(np.float64, copy=False)


def _forward_units(layer, a, z, units):
    """Outputs z[:, units] of `layer` for inputs `a`; a softmax is left to
    the caller, since it normalizes over every unit."""
    z = z[:, units]
    np.matmul(a, layer.w[units].T, out=z)
    z += layer.b[units]
    if layer.activation != "softmax":
        _activate(z, layer.activation)


def forward(net, x):
    """Per-layer post-activation outputs for a batch (rows = samples)."""
    x = _as_batch(x)
    if x.shape[1] != net.in_dim:
        raise AecError(f"input dims {x.shape[1]} != network input {net.in_dim}")
    acts = []
    a = x
    for layer in net.layers:
        z = np.empty((len(a), layer.out_dim), np.result_type(a, layer.w))
        _halves(_wide(layer, a) and len(a) >= _NARROW,
                partial(_forward_units, layer, a, z), layer.out_dim)
        if layer.activation == "softmax":
            _activate(z, "softmax")
        a = z
        acts.append(a)
    return acts


def predict(net, x):
    return forward(net, x)[-1]


def _summed_ce(probs, one_hot):
    """Cross-entropy summed over the batch, with the log taken in float64:
    a float32 floor of 1e-300 rounds to 0, and one exact-zero probability
    would then make the loss NaN (0 * log 0)."""
    p = np.clip(np.asarray(probs, dtype=np.float64), 1e-300, None)
    return float(-np.sum(one_hot * np.log(p)))


def cross_entropy(probs, one_hot):
    """Mean cross-entropy over the batch, clipped away from log(0)."""
    return _summed_ce(probs, one_hot) / probs.shape[0]


def _backward_units(layer, delta, a_prev, dw, below, units, inputs):
    """Weight-gradient rows dw[units] and, unless `below` is None, the
    error back-propagated to inputs `inputs`, below[:, inputs]."""
    np.matmul(delta[:, units].T, a_prev, out=dw[units])
    if below is not None:
        np.matmul(delta, layer.w[:, inputs], out=below[:, inputs])


def grad(net, x, one_hot):
    """Backprop gradients of mean cross-entropy for every layer.

    Requires a softmax head. Returns `(grads, loss)`: a list of (dW, db)
    matching net.layers, in the dtype of the forward pass, and the batch's
    summed cross-entropy as a float, read off the forward pass's softmax
    output.
    """
    if net.layers[-1].activation != "softmax":
        raise AecError("gradient needs a softmax output layer")
    x = _as_batch(x)
    one_hot = np.atleast_2d(np.asarray(one_hot, dtype=x.dtype))
    acts = forward(net, x)
    loss = _summed_ce(acts[-1], one_hot)
    n = x.shape[0]
    grads = [None] * len(net.layers)
    # softmax + cross-entropy: delta = (p - y) / n
    delta = (acts[-1] - one_hot) / n
    for k in range(len(net.layers) - 1, -1, -1):
        layer = net.layers[k]
        a_prev = acts[k - 1] if k > 0 else x
        dw = np.empty(layer.w.shape, np.result_type(delta, a_prev))
        below = (np.empty((n, layer.in_dim), np.result_type(delta, layer.w))
                 if k > 0 else None)
        _halves(_wide(layer, delta, a_prev) and n >= _NARROW,
                partial(_backward_units, layer, delta, a_prev, dw, below),
                layer.out_dim, layer.in_dim)
        grads[k] = (dw, delta.sum(axis=0))
        if k > 0:
            delta = below
            prev = net.layers[k - 1]
            if prev.activation == "sigmoid":
                delta *= a_prev
                delta *= 1.0 - a_prev
            elif prev.activation == "softmax":
                raise AecError("softmax only allowed as the final layer")
    return grads, loss


def _update_rows(layer, dw, vw, scratch, lr, momentum, weight_decay, rows):
    """`sgd_step`'s update of weight rows `rows`, in place through
    `scratch`: element for element the same operations, in the same
    order, as the formula in its docstring."""
    w, v, t = layer.w[rows], vw[rows], scratch[rows]
    np.multiply(w, weight_decay, out=t)
    t += dw[rows]
    v *= momentum
    v += t
    np.multiply(v, lr, out=t)
    w -= t


def sgd_step(layer, grads, velocity, lr, momentum, weight_decay):
    """Classical momentum update in place.

    v <- momentum*v + (grad + wd*w);  w <- w - lr*v. Weight decay applies to
    weights only. `velocity` is a (vw, vb) pair, updated in place.
    """
    dw, db = grads
    vw, vb = velocity
    if dw.shape != layer.w.shape or db.shape != layer.b.shape:
        raise AecError("gradient/parameter shape mismatch")
    _halves(_wide(layer, dw, vw),
            partial(_update_rows, layer, dw, vw, np.empty_like(vw), lr,
                    momentum, weight_decay), layer.out_dim)
    vb *= momentum
    vb += db
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


def _row_index(index, n_frames):
    """`index` checked as the row index of `n_frames` frames: a 2-D integer
    array whose entries are frame numbers in [0, n_frames). Numpy would
    wrap a negative entry round to the end silently."""
    index = np.asarray(index)
    if index.ndim != 2 or index.dtype.kind not in "iu":
        raise AecError(f"row index must be a 2-D integer array, got "
                       f"{index.ndim}-D {index.dtype}")
    if index.size and (index.min() < 0 or index.max() >= n_frames):
        raise AecError(f"row index entries must be in [0, {n_frames}), got "
                       f"[{index.min()}, {index.max()}]")
    return index


def train(net, features, labels, cfg, index=None):
    """Train with the two-stage schedule and return the parameter snapshot
    with the best validation cross-entropy.

    Each stage runs at its learning rate until the epoch-mean training
    cross-entropy stops improving (relative improvement below
    cfg.min_rel_improve for cfg.patience_epochs consecutive epochs) or the
    stage epoch cap is hit; the next stage divides the rate by 10. The
    epoch mean is taken over the minibatch losses `grad` returns, each
    measured before that minibatch's update; the validation split is the
    only data forwarded again after an epoch.

    Sample i is `features[index[i]]` flattened into one row, so an (n, k)
    `index` from `frontend.splice_index` trains on spliced frames while
    only the unspliced frames are held; by default each sample is its own
    row of `features`. Each minibatch, and the validation rows once, are
    gathered through the index from the caller's features, which are read
    in place when they are float32 (any other dtype is cast down once).

    The loop runs in `_one_blas_thread()` (see the module docstring).
    Training runs in float32 and the returned snapshot holds float32
    parameters; with a zero-epoch cap a copy of the starting network, in
    its own dtype, is handed back. Features must be a finite 2-D array and
    labels integer class indices >= 0, one per sample.
    """
    x = _as_2d(features).astype(np.float32, copy=False)
    # a NaN or inf anywhere makes the sum non-finite; finite float32 values
    # cannot overflow a float64 sum, and the reduction copies nothing
    if not np.isfinite(x.sum(dtype=np.float64)):
        raise AecError("features contain non-finite values")
    labels = np.asarray(labels)
    if labels.dtype.kind not in "iuf" or np.any(labels % 1 != 0):
        raise AecError("labels must be integer class indices")
    labels = labels.astype(int)
    if index is None:
        if x.shape[0] != len(labels):
            raise AecError("features/labels length mismatch")
        index = np.arange(len(x))[:, None]
    else:
        index = _row_index(index, len(x))
        if len(index) != len(labels):
            raise AecError(f"row index has {len(index)} rows but there are "
                           f"{len(labels)} labels")
    width = index.shape[1] * x.shape[1]

    def samples(rows):
        return x[index[rows]].reshape(len(rows), width)

    classes = np.unique(labels)
    if len(classes) < 2:
        raise AecError("need at least 2 classes")
    n_classes = net.out_dim
    if classes[0] < 0:
        raise AecError(f"label index {classes[0]} is negative")
    if labels.max() >= n_classes:
        raise AecError("label index exceeds network output dim")
    if net.layers[-1].activation != "softmax":
        raise AecError("training requires a softmax head")

    rng = np.random.default_rng(cfg.seed)
    train_idx, val_idx = _stratified_split(labels, cfg.val_ratio, rng)
    for c in classes:
        if not np.any(labels[train_idx] == c):
            raise AecError(f"class {c} has no training samples after the split")

    y = one_hot(labels, n_classes).astype(np.float32)
    x_val, y_val = samples(val_idx), y[val_idx]

    start = net
    net = net.copy(np.float32)
    report = TrainReport()
    best = net.copy()
    best_val = np.inf
    epoch = 0

    with _one_blas_thread():
        for stage in range(cfg.n_lr_stages):
            lr = cfg.lr0 / (10.0 ** stage)
            report.stage_boundaries.append(epoch)
            velocity = [(np.zeros_like(l.w), np.zeros_like(l.b)) for l in net.layers]
            prev_ce = None
            stall = 0
            for _ in range(cfg.max_epochs_per_stage):
                order = train_idx[rng.permutation(len(train_idx))]
                ce_sum = 0.0
                for lo in range(0, len(order), cfg.batch_size):
                    rows = order[lo : lo + cfg.batch_size]
                    g, loss = grad(net, samples(rows), y[rows])
                    ce_sum += loss
                    for layer, gl, vel in zip(net.layers, g, velocity):
                        sgd_step(layer, gl, vel, lr, cfg.momentum, cfg.weight_decay)
                train_ce = ce_sum / len(order)
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
    if not report.train_ce:  # zero-epoch cap: hand back the starting point
        best = start.copy()
        report.stage_boundaries = report.stage_boundaries[:1]
    return best, report
