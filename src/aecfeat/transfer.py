"""Network surgery for transfer learning and the resulting feature filter.

A source network (SL#1-3 + softmax head) is trained on the large source
task. Its head is removed and the remaining layers kept as a fixed trunk;
`adapt` trains fresh sigmoid layers (TL#1-2) and a new softmax head on the
trunk's outputs for the target data, computed once, and never updates the
trunk. Variant B is the same call with no trunk: the whole five-layer stack
is fresh and trained on target data only. The filter taps the last fresh
layer: pre-activation for the proposed variant (C) and for B,
post-sigmoid for ablation A. The source network, the composite and the
filter are all plain `Network`s; the filter is the composite with its
softmax head cut off.
"""

import contextlib
import ctypes
import glob
import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from .errors import AecError
from .frontend import FeatureMatrix
from .network import (Layer, Network, _activate, _as_batch, init_mlp,
                      predict, train)

VARIANTS = ("A", "B", "C")
BLOCK_ROWS = 64


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


def strip_output(net):
    """Remove the softmax head, leaving parameters untouched."""
    if len(net.layers) < 2:
        raise AecError("network has no separable output layer")
    if net.layers[-1].activation != "softmax":
        raise AecError("last layer is not a softmax head")
    return Network([Layer(l.w.copy(), l.b.copy(), l.activation, l.frozen)
                    for l in net.layers[:-1]])


def adapt(trunk, x, y, widths, n_classes, cfg, seed=0):
    """Train fresh sigmoid layers `widths` and a softmax head over a fixed
    trunk on target data; return (Network(trunk + trained layers),
    TrainReport).

    The trunk is forwarded once over all of `x`, in float32 (a float32
    copy of it, over `x` cast to float32), and `train` sees only the fresh
    layers and those fixed outputs, so the trunk comes back bit-identical,
    its copies marked frozen. With `trunk=None` the fresh layers are
    trained on `x` itself.
    """
    fixed = []
    if trunk is not None:
        fixed = [Layer(l.w.copy(), l.b.copy(), l.activation, frozen=True)
                 for l in trunk.layers]
        x = predict(Network(fixed).copy(np.float32),
                    np.asarray(x, dtype=np.float32))
    fresh = init_mlp(np.shape(x)[1], widths, n_classes, seed=seed)
    top, report = train(fresh, x, y, cfg)
    return Network(fixed + top.layers), report


def build_filter(composite, variant):
    """Turn a trained composite into a feature filter: the network without
    its softmax head.

    Variant C drops the softmax head and removes TL#2's activation; variant
    A drops the head but keeps the sigmoid; variant B is structurally C and
    only differs in how the composite was trained (no source pre-training).
    """
    if variant not in VARIANTS:
        raise AecError(f"variant must be one of {VARIANTS}, got {variant!r}")
    trunk = strip_output(composite)
    if variant in ("B", "C"):
        last = trunk.layers[-1]
        trunk.layers[-1] = Layer(last.w, last.b, "linear", last.frozen)
    return trunk


_pin_lock = threading.Lock()


@contextlib.contextmanager
def _one_blas_thread():
    """Run the block with numpy's bundled OpenBLAS on one thread and
    restore its count after; without that library, do nothing.

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
            yield
        finally:
            lib.scipy_openblas_set_num_threads64_(saved)


def _cpu_count():
    """CPUs this process may run on: its affinity mask where the platform
    has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _stable_forward(net, x):
    """Forward pass whose result is bitwise independent of the batch size
    and of the thread count.

    Every layer runs over blocks of BLOCK_ROWS rows, the last block
    zero-padded: as a GEMM on one BLAS thread with numpy's bundled
    OpenBLAS, so the kernel sees one matrix shape and one thread count
    whatever the batch, and as an unoptimized einsum, which reduces each
    output element in a fixed order, without it. Either way a row comes
    out the same alone, in a ragged batch or pooled with other segments.
    The two kernels agree to float32 rounding, not bit for bit. The blocks
    are dealt out to one worker thread per CPU, at most one per block. Every
    buffer a worker writes is allocated here, before the workers start:
    glibc keeps what a thread allocates in that thread's malloc arena,
    where later stages on the main thread cannot reuse it. The BLAS thread
    count is process-global; calls take turns holding one lock that pins
    it and restores it on leaving, even if the call raises. Everything
    runs in float32: the weights are cast once per call, float64 rows are
    rounded as they are copied into a block, and the result is float32.
    """
    a = _as_batch(x)
    layers = [(l.w.astype(np.float32), l.b.astype(np.float32), l.activation)
              for l in net.layers]
    out = np.empty((len(a), layers[-1][0].shape[0]), dtype=np.float32)
    starts = range(0, len(a), BLOCK_ROWS)
    n = max(1, min(_cpu_count(), len(starts)))
    # per worker: the input block, then one pre-activation per layer
    buffers = [[np.empty((BLOCK_ROWS, a.shape[1]), dtype=np.float32)]
               + [np.empty((BLOCK_ROWS, w.shape[0]), dtype=np.float32)
                  for w, _, _ in layers]
               for _ in range(n)]

    def forward_blocks(k):
        block, *pre = buffers[k]
        for start in starts[k::n]:
            rows = a[start:start + BLOCK_ROWS]
            block[:len(rows)] = rows
            block[len(rows):] = 0.0
            h = block
            for (w, b, activation), z in zip(layers, pre):
                if _OPENBLAS is None:
                    np.einsum("nd,md->nm", h, w, out=z, optimize=False)
                else:
                    np.matmul(h, w.T, out=z)
                z += b
                h = _activate(z, activation)
            out[start:start + len(rows)] = h[:len(rows)]

    with _one_blas_thread(), ThreadPoolExecutor(n) as pool:
        list(pool.map(forward_blocks, range(n)))
    return out


def extract(filt, x):
    """Tap TL#2 for every row of `x`, a spliced, normalized frames x dims
    array; `filt` is a filter network from `build_filter`. The taps come
    back as a float32 `FeatureMatrix`."""
    if filt.layers[-1].activation == "softmax":
        raise AecError("filter must not end in a softmax layer")
    if np.ndim(x) != 2:
        raise AecError(f"features must be 2-D, got {np.ndim(x)}-D")
    if np.shape(x)[1] != filt.in_dim:
        raise AecError(f"feature dims {np.shape(x)[1]} != filter input {filt.in_dim}")
    return FeatureMatrix(_stable_forward(filt, x))
