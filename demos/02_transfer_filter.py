"""Transfer-learned feature filter walk-through.

Pre-trains a classification network on source-domain classes, removes its
softmax head, freezes the remaining layers, appends two fresh layers plus a
new head, adapts on the (different) target classes, and taps the last
adaptation layer as a non-linear feature filter. Shows the three filter
variants and the exact relation A = sigmoid(C).

Run:  python3 demos/02_transfer_filter.py
"""

import numpy as np

from aecfeat.frontend import FeatureMatrix
from aecfeat.network import LayerSpec, TrainConfig, init_network, predict, train
from aecfeat.transfer import (
    adapt,
    append_adaptation,
    build_filter,
    extract,
    strip_output,
)


def blobs(n_classes, per_class, dim, seed):
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-5, 5, size=(n_classes, dim))
    x = np.vstack([c + 0.5 * rng.standard_normal((per_class, dim))
                   for c in centers])
    y = np.repeat(np.arange(n_classes), per_class)
    return x, y


# 1. source training: 5 classes the target task never sees
dims = [8, 16, 16, 16]
specs = [LayerSpec(a, b, "sigmoid") for a, b in zip(dims, dims[1:])]
specs.append(LayerSpec(16, 5, "softmax"))
source = init_network(specs, seed=0)
xs, ys = blobs(5, 60, 8, seed=42)
source, rep = train(source, xs, ys,
                    TrainConfig(lr0=0.3, max_epochs_per_stage=100, seed=0))
acc = np.mean(np.argmax(predict(source, xs), axis=1) == ys)
print(f"source network: {rep.final_epoch} epochs, train accuracy {acc:.2f}")

# 2. surgery: drop the head, freeze what remains, append two trainable layers
comp = append_adaptation(strip_output(source), tl1_dim=12, tl2_dim=10,
                         n_target_classes=3, seed=0)
print("composite layers:",
      [(l.out_dim, l.activation, "frozen" if l.frozen else "trainable")
       for l in comp.layers])

# 3. adaptation on the 3 target classes
xt, yt = blobs(3, 40, 8, seed=7)
comp, rep = adapt(comp, xt, yt,
                  TrainConfig(lr0=0.3, max_epochs_per_stage=100, seed=0))
acc = np.mean(np.argmax(predict(comp, xt), axis=1) == yt)
print(f"adapted network: {rep.final_epoch} epochs, target accuracy {acc:.2f}")

# 4. filter variants tap the last appended layer
fm = FeatureMatrix(xt[:5])
feat_c = extract(build_filter(comp, "C"), fm).values   # pre-activation tap
feat_a = extract(build_filter(comp, "A"), fm).values   # post-sigmoid tap
print("variant C (linear tap) range:",
      float(feat_c.min()), "..", float(feat_c.max()))
print("variant A (sigmoid tap) range:",
      float(feat_a.min()), "..", float(feat_a.max()))
print("max |A - sigmoid(C)| =",
      float(np.max(np.abs(feat_a - 1 / (1 + np.exp(-feat_c))))))
