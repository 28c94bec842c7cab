"""Decorrelating transforms and back-end classifiers.

Shows the orthonormal DCT-II and PCA reductions and compares the three
back ends (diagonal-covariance GMM, one-vs-rest RBF SVM, small softmax
network) on per-frame features, with the per-segment decision made by
summing frame scores (log-likelihoods, decision values, log posteriors).

Run:  python3 demos/03_transforms_classifiers.py
"""

import numpy as np

from aecfeat.classifiers import (
    classify_segment,
    dnn_score_matrix,
    gmm_fit,
    gmm_score_matrix,
    svm_fit,
    svm_score_matrix,
)
from aecfeat.network import TrainConfig
from aecfeat.pipeline import RunConfig, fit_classifier
from aecfeat.transforms import DctSpec, dct_apply, pca_apply, pca_fit

rng = np.random.default_rng(0)
n_classes, frames_per_segment, dim = 3, 30, 20
centers = rng.uniform(-3, 3, size=(n_classes, dim))


def segment(c):
    return centers[c] + 0.8 * rng.standard_normal((frames_per_segment, dim))


train_segs = [(segment(c), c) for c in range(n_classes) for _ in range(8)]
test_segs = [(segment(c), c) for c in range(n_classes) for _ in range(4)]

# DCT keeps the low-order coefficients of each frame vector
spec = DctSpec(n_points=dim, n_keep=8)
print("DCT:", dim, "->", spec.n_keep, "dims; basis orthonormality error",
      float(np.max(np.abs(spec.basis @ spec.basis.T - np.eye(spec.n_keep)))))

# PCA is fitted on training frames only
train_frames = np.vstack([s for s, _ in train_segs])
pca = pca_fit(train_frames, out_dim=8)
print("PCA: top eigenvalue", float(pca.eigenvalues[0]),
      " captured variance fraction",
      float(pca.eigenvalues.sum() / train_frames.var(axis=0, ddof=1).sum()))

red_train = [(dct_apply(spec, s), c) for s, c in train_segs]
red_test = [(dct_apply(spec, s), c) for s, c in test_segs]
x = np.vstack([s for s, _ in red_train])
y = np.concatenate([[c] * len(s) for s, c in red_train])

backends = {
    "gmm": (gmm_fit({str(c): x[y == c] for c in range(n_classes)},
                    k=2, seed=0), gmm_score_matrix),
    "svm": (svm_fit(x, y, c=10.0, gamma=1.0 / x.shape[1]), svm_score_matrix),
    # the pipeline's DNN back end: its `fit_classifier` pools the segments
    "dnn": (fit_classifier(RunConfig(classifier="dnn", dnn_hidden=(16, 16),
                                     target_train=TrainConfig(
                                         lr0=0.3, max_epochs_per_stage=40,
                                         seed=0)),
                           [s for s, _ in red_train],
                           [c for _, c in red_train]),
            dnn_score_matrix),
}

for name, (model, score_fn) in backends.items():
    correct = 0
    for s, c in red_test:
        correct += int(classify_segment(score_fn(model, s)) == c)
    print(f"{name}: segment accuracy {correct}/{len(red_test)}")
