"""Transfer-learned feature filter walk-through.

Pre-trains a classification network on source-domain classes, removes its
softmax head, trains two fresh layers plus a new head over the remaining,
fixed layers on the (different) target classes, and taps the last fresh
layer as a non-linear feature filter. Shows the three filter variants and
the exact relation A = sigmoid(C).

Run:  python3 demos/02_transfer_filter.py
"""

import numpy as np

from aecfeat.network import TrainConfig, init_mlp, predict, train
from aecfeat.transfer import adapt, build_filter, extract, strip_output


def blobs(n_classes, per_class, dim, seed):
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-5, 5, size=(n_classes, dim))
    x = np.vstack([c + 0.5 * rng.standard_normal((per_class, dim))
                   for c in centers])
    y = np.repeat(np.arange(n_classes), per_class)
    return x, y


# 1. source training: 5 classes the target task never sees
source = init_mlp(8, (16, 16, 16), 5, seed=0)
xs, ys = blobs(5, 60, 8, seed=42)
source, rep = train(source, xs, ys,
                    TrainConfig(lr0=0.3, max_epochs_per_stage=100, seed=0))
acc = np.mean(np.argmax(predict(source, xs), axis=1) == ys)
print(f"source network: {rep.final_epoch} epochs, train accuracy {acc:.2f}")

# 2. surgery and adaptation: drop the head, keep what remains fixed, and
#    train TL#1 (12), TL#2 (10) and a new head on the 3 target classes,
#    over the trunk's outputs for the target frames
trunk = strip_output(source)
xt, yt = blobs(3, 40, 8, seed=7)
comp, rep = adapt(trunk, extract(trunk, [xt], len(xt)).values, yt, (12, 10), 3,
                  TrainConfig(lr0=0.3, max_epochs_per_stage=100, seed=0),
                  seed=0)
print("composite layers:",
      [(l.out_dim, l.activation, "fixed" if i < len(trunk.layers) else "trained")
       for i, l in enumerate(comp.layers)])
unchanged = all(np.array_equal(a.w, b.w)
                for a, b in zip(comp.layers, trunk.layers))
acc = np.mean(np.argmax(predict(comp, xt), axis=1) == yt)
print(f"adapted network: {rep.final_epoch} epochs, target accuracy {acc:.2f}, "
      f"trunk unchanged: {unchanged}")

# 3. filter variants tap the last appended layer; a filter is the composite
#    network with its softmax head cut off
filt_c = build_filter(comp, "C")
print("variant C filter layers:",
      [(l.out_dim, l.activation) for l in filt_c.layers])
feat_c = extract(filt_c, [xt[:5]], 5).values                      # pre-activation tap
feat_a = extract(build_filter(comp, "A"), [xt[:5]], 5).values  # post-sigmoid tap
print("variant C (linear tap) range:",
      float(feat_c.min()), "..", float(feat_c.max()))
print("variant A (sigmoid tap) range:",
      float(feat_a.min()), "..", float(feat_a.max()))
print("max |A - sigmoid(C)| =",
      float(np.max(np.abs(feat_a - 1 / (1 + np.exp(-feat_c))))))
