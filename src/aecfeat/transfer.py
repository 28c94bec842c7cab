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

import numpy as np

from .errors import AecError
from .frontend import FeatureMatrix
from .network import Layer, Network, init_mlp, predict, train

VARIANTS = ("A", "B", "C")


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

    The trunk is forwarded once over all of `x` and `train` sees only the
    fresh layers and those fixed outputs, so the trunk comes back
    bit-identical, its copies marked frozen. With `trunk=None` the fresh
    layers are trained on `x` itself.
    """
    fixed = []
    if trunk is not None:
        fixed = [Layer(l.w.copy(), l.b.copy(), l.activation, frozen=True)
                 for l in trunk.layers]
        x = predict(Network(fixed), x)
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


def _stable_forward(net, x):
    """Forward pass whose result is bitwise independent of the batch size.

    BLAS-backed matmul changes summation order with the matrix shape;
    einsum without optimization reduces each output element in a fixed
    order, so extracting rows one at a time matches the batched result
    exactly.
    """
    from .network import _activate

    a = np.atleast_2d(np.asarray(x, dtype=np.float64))
    for layer in net.layers:
        z = np.einsum("nd,md->nm", a, layer.w, optimize=False) + layer.b
        a = _activate(z, layer.activation)
    return a


def extract(filt, fm):
    """Tap TL#2 for every frame of a spliced, normalized feature matrix;
    `filt` is a filter network from `build_filter`."""
    if filt.layers[-1].activation == "softmax":
        raise AecError("filter must not end in a softmax layer")
    if fm.dims != filt.in_dim:
        raise AecError(f"feature dims {fm.dims} != filter input {filt.in_dim}")
    return FeatureMatrix(_stable_forward(filt, fm.values))
