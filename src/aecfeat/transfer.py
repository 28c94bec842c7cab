"""Network surgery for transfer learning and the resulting feature filter.

A source network (SL#1-3 + softmax head) is trained on the large source
task. Its head is removed and the remaining layers kept as a fixed trunk;
`adapt` trains fresh sigmoid layers (TL#1-2) and a new softmax head on the
trunk's outputs for the target data, which the caller computes once with
`extract`, and never updates the trunk. Variant B is the same call with no
trunk: the whole five-layer stack is fresh and trained on target data
only. The filter taps the last fresh layer: pre-activation for the
proposed variant (C) and for B, post-sigmoid for ablation A. The source
network, the composite and the filter are all plain `Network`s; the
filter is the composite with its softmax head cut off.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np

from .errors import AecError
from .frontend import FeatureMatrix, _as_2d
from .network import (_OPENBLAS, Network, _activate, _cpu_count,
                      _one_blas_thread, _row_index, init_mlp, train)

VARIANTS = ("A", "B", "C")
BLOCK_ROWS = 64
# blocks in `extract`'s staging buffer: enough to keep the CPUs of a small
# machine busy; 6.3 MB of float32 input at 1,536 dims
BUFFER_BLOCKS = 16


def strip_output(net):
    """Remove the softmax head, leaving parameters untouched."""
    if len(net.layers) < 2:
        raise AecError("network has no separable output layer")
    if net.layers[-1].activation != "softmax":
        raise AecError("last layer is not a softmax head")
    return Network(net.layers[:-1]).copy()


def adapt(trunk, x, y, widths, n_classes, cfg, seed=0, index=None):
    """Train fresh sigmoid layers `widths` and a softmax head on `x` and
    put them over a fixed trunk; return (Network(trunk + trained layers),
    TrainReport).

    With a trunk, `x` is the trunk's outputs for the target frames, as
    `extract(trunk, segments, rows)` computes them, and must be as wide as
    the trunk's last layer; only the fresh layers train, and the
    composite's first layers are bit-identical copies of the trunk's. With
    `trunk=None`, `x` is the frames themselves and every layer is fresh.
    `index` is passed to `train`: sample i is `x[index[i]]` flattened, so
    B can train on spliced frames from the normalized, unspliced ones.
    """
    x = _as_2d(x)
    in_dim = x.shape[1] * (1 if index is None else
                           _row_index(index, len(x)).shape[1])
    fixed = []
    if trunk is not None:
        if in_dim != trunk.out_dim:
            raise AecError(f"adaptation input width {in_dim} != trunk "
                           f"output width {trunk.out_dim}")
        fixed = trunk.copy().layers
    fresh = init_mlp(in_dim, widths, n_classes, seed=seed)
    top, report = train(fresh, x, y, cfg, index)
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
        trunk.layers[-1] = replace(trunk.layers[-1], activation="linear")
    return trunk


def extract(filt, segments, rows):
    """Tap TL#2 for every row of `segments`, an iterable of spliced,
    normalized frames x dims arrays that hold `rows` rows in all; `filt`
    is a filter network from `build_filter`, or a source trunk from
    `strip_output`, whose last layer's outputs `adapt` trains on. The taps
    of all rows come back in order as one float32 `FeatureMatrix`, a
    (rows, out_dim) matrix allocated once, into which every tap is written
    once. Segments that hold more or fewer rows than `rows` raise an
    `AecError`.

    Each row is copied once, rounded to float32, into a staging buffer of
    BUFFER_BLOCKS blocks of BLOCK_ROWS rows, packed across segment
    boundaries. Each time it fills, and once at the end, every layer runs
    over its blocks, the last one zero-padded: as a GEMM on one BLAS
    thread with numpy's bundled OpenBLAS, so the kernel sees one matrix
    shape and one thread count whatever the batch, and as an unoptimized
    einsum, which reduces each output element in a fixed order, without
    it. Either way a row comes out the same alone, in a ragged batch or
    pooled with other segments; the kernels agree to float32 rounding, not
    bit for bit. One pool of worker threads, one per CPU and at most
    BUFFER_BLOCKS, serves the whole call and runs only layer arithmetic.
    Every buffer a worker writes is allocated on the calling thread: glibc
    keeps what a thread allocates in that thread's malloc arena, where
    later stages on the main thread cannot reuse it. The BLAS thread count
    is process-global; calls take turns holding one lock that pins it and
    restores it on leaving, even if the call raises. `segments` is read on
    the calling thread inside that lock, so a generator's work runs there.
    The weights are cast to float32 once.
    """
    if filt.layers[-1].activation == "softmax":
        raise AecError("filter must not end in a softmax layer")
    layers = [(l.w.astype(np.float32), l.b.astype(np.float32), l.activation)
              for l in filt.layers]
    taps = np.empty((rows, filt.out_dim), dtype=np.float32)
    buffer = np.empty((BUFFER_BLOCKS * BLOCK_ROWS, filt.in_dim), np.float32)
    n = min(_cpu_count(), BUFFER_BLOCKS)
    # per worker: one pre-activation block per layer
    pre = [[np.empty((BLOCK_ROWS, w.shape[0]), dtype=np.float32)
            for w, _, _ in layers] for _ in range(n)]

    def forward_blocks(k, out):
        for start in range(k * BLOCK_ROWS, len(out), n * BLOCK_ROWS):
            h = buffer[start:start + BLOCK_ROWS]
            for (w, b, activation), z in zip(layers, pre[k]):
                if _OPENBLAS is None:
                    np.einsum("nd,md->nm", h, w, out=z, optimize=False)
                else:
                    np.matmul(h, w.T, out=z)
                z += b
                h = _activate(z, activation)
            out[start:start + BLOCK_ROWS] = h[:len(out) - start]

    def run(pool, done, fill):
        # taps of the buffer's first `fill` rows, if any, into taps[done:];
        # zero-pads the tail of the last block
        buffer[fill:-(-fill // BLOCK_ROWS) * BLOCK_ROWS] = 0.0
        out = taps[done:done + fill]
        list(pool.map(forward_blocks, range(n), [out] * n))

    with _one_blas_thread(), ThreadPoolExecutor(n) as pool:
        done = fill = 0
        for x in segments:
            x = _as_2d(x)
            if x.shape[1] != filt.in_dim:
                raise AecError(f"feature dims {x.shape[1]} != filter input {filt.in_dim}")
            if done + fill + len(x) > rows:
                raise AecError(f"segments hold more than the {rows} rows "
                               f"given to extract")
            while len(x):
                m = min(len(buffer) - fill, len(x))
                buffer[fill:fill + m] = x[:m]
                x, fill = x[m:], fill + m
                if fill == len(buffer):
                    run(pool, done, fill)
                    done, fill = done + fill, 0
        if done + fill != rows:
            raise AecError(f"segments hold {done + fill} rows, not the "
                           f"{rows} rows given to extract")
        run(pool, done, fill)
    return FeatureMatrix(taps)
