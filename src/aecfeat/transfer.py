"""Network surgery for transfer learning and the resulting feature filter.

A source network (SL#1-3 + softmax head) is trained on the large source
task. Its head is removed, the remaining layers frozen, and two fresh
hidden layers (TL#1-2) plus a new softmax head are appended and adapted on
target data. The filter taps TL#2: pre-activation for the proposed variant
(C), post-sigmoid for ablation A; variant B trains the same five-layer
stack on target data only.
"""

from dataclasses import dataclass
from typing import List

import numpy as np

from .errors import DimMismatch, NoHead, UnknownVariant
from .frontend import FeatureMatrix
from .network import Layer, Network, init_mlp, train

VARIANTS = ("A", "B", "C")


@dataclass
class SourceModel:
    network: Network
    classes: List[str]
    fingerprint: str = ""  # frontend config + norm stats

    def __post_init__(self):
        if self.network.out_dim != len(self.classes):
            raise DimMismatch(
                f"head out_dim {self.network.out_dim} != {len(self.classes)} classes"
            )


@dataclass
class DnnFilter:
    """Five-layer feature extractor (no softmax head).

    Variant C: last layer linear, output is the TL#2 pre-activation.
    Variant A: last layer sigmoid (activations kept).
    Variant B: same shape as C but trained on target data only.
    """

    network: Network
    variant: str
    fingerprint: str = ""

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise UnknownVariant(f"variant must be one of {VARIANTS}")
        if self.network.layers[-1].activation == "softmax":
            raise ValueError("filter must not end in a softmax layer")

    @property
    def tap_dim(self):
        return self.network.out_dim

    @property
    def in_dim(self):
        return self.network.in_dim


def strip_output(net):
    """Remove the softmax head, leaving parameters untouched."""
    if len(net.layers) < 2:
        raise NoHead("network has no separable output layer")
    if net.layers[-1].activation != "softmax":
        raise NoHead("last layer is not a softmax head")
    return Network([Layer(l.w.copy(), l.b.copy(), l.activation, l.frozen)
                    for l in net.layers[:-1]])


def append_adaptation(trunk, tl1_dim, tl2_dim, n_target_classes, seed=0):
    """Freeze the trunk and append TL#1, TL#2 and a fresh softmax head."""
    if tl1_dim < 1 or tl2_dim < 1 or n_target_classes < 1:
        raise ValueError("dims must be positive")
    frozen = [Layer(l.w.copy(), l.b.copy(), l.activation, frozen=True)
              for l in trunk.layers]
    new = init_mlp(trunk.out_dim, (tl1_dim, tl2_dim), n_target_classes,
                   seed=seed)
    return Network(frozen + new.layers)


def adapt(composite, target_features, target_labels, cfg):
    """Train the adaptation layers on target data (frozen layers untouched)."""
    return train(composite, target_features, target_labels, cfg)


def build_filter(composite, variant, fingerprint=""):
    """Turn a trained composite into a feature filter.

    Variant C drops the softmax head and removes TL#2's activation; variant
    A drops the head but keeps the sigmoid; variant B is structurally C and
    only differs in how the composite was trained (no source pre-training).
    """
    if variant not in VARIANTS:
        raise UnknownVariant(f"variant must be one of {VARIANTS}, got {variant!r}")
    trunk = strip_output(composite)
    if variant in ("B", "C"):
        last = trunk.layers[-1]
        trunk.layers[-1] = Layer(last.w, last.b, "linear", last.frozen)
    return DnnFilter(trunk, variant=variant, fingerprint=fingerprint)


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
    """Tap TL#2 for every frame of a spliced, normalized feature matrix."""
    if fm.dims != filt.in_dim:
        raise DimMismatch(f"feature dims {fm.dims} != filter input {filt.in_dim}")
    out = _stable_forward(filt.network, fm.values)
    return FeatureMatrix(out, split=fm.split)
