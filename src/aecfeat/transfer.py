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

from dataclasses import replace

import numpy as np

from .errors import AecError
from .frontend import FeatureMatrix, _as_2d
from .network import (Network, _one_blas_thread, _row_index, forward,
                      init_mlp, train)

VARIANTS = ("A", "B", "C")
# rows in `extract`'s staging buffer, all forwarded each time so that
# every product has one shape per filter: 6.3 MB of float32 input at
# 1,536 dims
BUFFER_ROWS = 1024


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
    BUFFER_ROWS rows, packed across segment boundaries. Each time it
    fills, and once at the end with its unused tail zero-filled, the
    whole buffer goes through `network.forward` inside
    `network._one_blas_thread()`, as in `train`. Every product then has
    one shape per filter and one BLAS thread count whatever the batch, so
    a row comes out the same alone, in a ragged batch or pooled with
    other segments, and on any CPU count. `segments` is read on the
    calling thread inside that context, so a generator's work runs there.
    The weights are cast to float32 once.
    """
    if filt.layers[-1].activation == "softmax":
        raise AecError("filter must not end in a softmax layer")
    filt = filt.copy(np.float32)
    taps = np.empty((rows, filt.out_dim), dtype=np.float32)
    buffer = np.empty((BUFFER_ROWS, filt.in_dim), np.float32)

    def run(done, fill):
        # taps of the buffer's first `fill` rows into taps[done:]
        buffer[fill:] = 0.0
        taps[done:done + fill] = forward(filt, buffer)[-1][:fill]

    with _one_blas_thread():
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
                    run(done, fill)
                    done, fill = done + fill, 0
        if done + fill != rows:
            raise AecError(f"segments hold {done + fill} rows, not the "
                           f"{rows} rows given to extract")
        if fill:
            run(done, fill)
    return FeatureMatrix(taps)
