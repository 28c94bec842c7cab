import numpy as np
import pytest

from aecfeat.classifiers import (
    classify_segment,
    dnn_classifier_fit,
    dnn_score_matrix,
    gmm_fit,
    gmm_score_matrix,
    rbf_kernel,
    smo_solve,
    svm_dual_objective,
    svm_fit,
    svm_score_matrix,
)
from aecfeat.errors import (
    DegenerateLabels,
    DimMismatch,
    EmptyClass,
    EmptyFrames,
    TooFewFrames,
)
from aecfeat.network import TrainConfig


def brute_force_two_point_dual(kmat, y, c, steps=2001, refinements=4):
    """Exhaustive search of the 2-variable dual on the equality constraint,
    with local grid refinement around the best point."""
    lo, hi = 0.0, c
    best, best_alpha = -np.inf, None
    for _ in range(refinements):
        grid = np.linspace(lo, hi, steps)
        step = grid[1] - grid[0]
        for a2 in grid:
            a1 = -y[1] * a2 * y[0]  # alpha1 y1 + alpha2 y2 = 0
            if not (0.0 <= a1 <= c):
                continue
            alpha = np.array([a1, a2])
            obj = svm_dual_objective(kmat, y, alpha)
            if obj > best:
                best = obj
                best_alpha = alpha
        lo = max(0.0, best_alpha[1] - step)
        hi = min(c, best_alpha[1] + step)
    return best, best_alpha


class TestGmmFit:
    def test_single_component_closed_form(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((200, 3)) * [1.0, 2.0, 0.5] + [1.0, -1.0, 0.0]
        model = gmm_fit({"a": x, "b": x + 10}, k=1, seed=0)
        m = model.per_class["a"]
        assert np.max(np.abs(m.means[0] - x.mean(axis=0))) <= 1e-9
        assert np.max(np.abs(m.variances[0] - x.var(axis=0))) <= 1e-9
        assert m.weights[0] == pytest.approx(1.0)

    def test_recovers_separated_components(self):
        rng = np.random.default_rng(1)
        x = np.concatenate([rng.standard_normal(300),
                            rng.standard_normal(300) + 10.0])[:, None]
        model = gmm_fit({"a": x, "b": x}, k=2, seed=1)
        means = np.sort(model.per_class["a"].means[:, 0])
        assert abs(means[0] - 0.0) < 0.2
        assert abs(means[1] - 10.0) < 0.2

    def test_too_few_frames(self):
        with pytest.raises(TooFewFrames, match="smaller"):
            gmm_fit({"a": np.zeros((3, 2)), "b": np.ones((600, 2))}, k=512, seed=0)

    def test_empty_class(self):
        with pytest.raises(EmptyClass):
            gmm_fit({"a": np.zeros((0, 2)), "b": np.ones((5, 2))}, k=1, seed=0)

    def test_em_monotone_loglik(self):
        rng = np.random.default_rng(2)
        for k in (1, 2, 8):
            x = rng.standard_normal((120, 4)) + rng.integers(0, 3, (120, 1)) * 3.0
            model = gmm_fit({"a": x, "b": x}, k=k, seed=3)
            hist = np.array(model.per_class["a"].ll_history)
            assert np.all(np.diff(hist) >= -1e-8)

    def test_deterministic(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((100, 3))
        a = gmm_fit({"a": x, "b": x + 1}, k=4, seed=9)
        b = gmm_fit({"a": x, "b": x + 1}, k=4, seed=9)
        for label in a.classes:
            assert np.array_equal(a.per_class[label].means, b.per_class[label].means)
            assert np.array_equal(a.per_class[label].variances,
                                  b.per_class[label].variances)


class TestGmmScores:
    def _unit_model(self, d=4):
        x = np.vstack([np.zeros(d), np.zeros(d)])
        # single component at the mean with unit variances, built directly
        from aecfeat.classifiers import GmmClassModel, GmmModel

        cm = GmmClassModel(np.array([1.0]), np.zeros((1, d)), np.ones((1, d)))
        return GmmModel(classes=["a", "b"], per_class={"a": cm, "b": cm})

    def test_analytic_loglik_at_mean(self):
        d = 4
        model = self._unit_model(d)
        scores = gmm_score_matrix(model, np.zeros((1, d)))[0]
        assert scores[0] == pytest.approx(-d / 2 * np.log(2 * np.pi))

    def test_far_outlier_finite(self):
        model = self._unit_model(3)
        scores = gmm_score_matrix(model, np.full((1, 3), 1e6))[0]
        assert np.all(np.isfinite(scores))
        assert scores[0] < -1e10

    def test_identical_classes_identical_scores(self):
        model = self._unit_model(2)
        s = gmm_score_matrix(model, np.array([[0.3, -0.7]]))[0]
        assert s[0] == s[1]

    def test_frame_order_invariance(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((50, 3))
        model = gmm_fit({"a": x, "b": x * 2}, k=2, seed=0)
        frames = rng.standard_normal((10, 3))
        fwd = gmm_score_matrix(model, frames)
        rev = gmm_score_matrix(model, frames[::-1])
        assert np.allclose(fwd, rev[::-1])

    def test_dim_mismatch(self):
        model = self._unit_model(3)
        with pytest.raises(DimMismatch):
            gmm_score_matrix(model, np.zeros((1, 5)))


class TestSmo:
    def test_two_point_symmetric_problem(self):
        x = np.array([[-1.0], [1.0]])
        y = np.array([-1.0, 1.0])
        kmat = rbf_kernel(x, x, gamma=1.0)
        alpha, bias = smo_solve(kmat, y, c=1000.0)
        # decision boundary at 0 by symmetry
        k_half = rbf_kernel(np.array([[0.5], [-0.5]]), x, gamma=1.0)
        f = k_half @ (alpha * y) + bias
        assert f[0] > 0 and f[1] < 0
        assert abs(bias) < 1e-6

    @pytest.mark.parametrize("c", [0.5, 1.0, 10.0, 100.0])
    @pytest.mark.parametrize("x2", [0.3, 1.0, 2.5])
    def test_two_point_dual_matches_grid_search(self, c, x2):
        x = np.array([[0.0], [x2]])
        y = np.array([1.0, -1.0])
        kmat = rbf_kernel(x, x, gamma=0.7)
        alpha, _ = smo_solve(kmat, y, c=c)
        obj = svm_dual_objective(kmat, y, alpha)
        best, _ = brute_force_two_point_dual(kmat, y, c)
        assert obj == pytest.approx(best, abs=1e-4)

    # (seed, trials, rows, dims, label noise, c, gamma): each trial draws
    # x ~ N(0, I) and labels by the sign of x_0 plus noise
    @pytest.mark.parametrize("seed,trials,n,d,noise,c,gamma", [
        (5, 5, 50, 3, 0.3, 5.0, 0.5),
        # a long solve: a solver stopped by a step or pass cap ends short of KKT
        (1, 1, 100, 2, 0.5, 100.0, 0.1),
        # every alpha ends at a bound, so no free alpha pins the bias
        (0, 1, 100, 2, 0.5, 1.0, 0.01),
    ], ids=["5x50x3", "seed1-c100", "seed0-all-bound"])
    def test_kkt_on_random_problems(self, seed, trials, n, d, noise, c, gamma):
        rng = np.random.default_rng(seed)
        for trial in range(trials):
            x = rng.standard_normal((n, d))
            y = np.where(x[:, 0] + noise * rng.standard_normal(n) > 0, 1.0, -1.0)
            if len(np.unique(y)) < 2:
                continue
            tol = 1e-3
            kmat = rbf_kernel(x, x, gamma)
            alpha, bias = smo_solve(kmat, y, c, tol=tol)
            f = kmat @ (alpha * y) + bias
            margins = y * f
            for a, m in zip(alpha, margins):
                if a < 1e-9:
                    assert m >= 1.0 - tol - 1e-9
                elif a > c - 1e-9:
                    assert m <= 1.0 + tol + 1e-9
                else:
                    assert abs(m - 1.0) <= tol + 1e-9

    def test_non_positive_tol_rejected(self):
        kmat = rbf_kernel(np.array([[0.0], [1.0]]), np.array([[0.0], [1.0]]), 1.0)
        with pytest.raises(ValueError):
            smo_solve(kmat, np.array([1.0, -1.0]), c=1.0, tol=0)

    def test_conflicting_duplicates_bounded(self):
        x = np.array([[0.0], [0.0], [1.0], [1.0]])
        y = np.array([1.0, -1.0, 1.0, -1.0])
        kmat = rbf_kernel(x, x, gamma=1.0)
        alpha, bias = smo_solve(kmat, y, c=10.0)
        assert np.all(alpha >= -1e-12) and np.all(alpha <= 10.0 + 1e-12)
        assert np.isfinite(bias)


class TestSvmModel:
    def test_fit_and_score_separable(self):
        rng = np.random.default_rng(6)
        x = np.vstack([rng.standard_normal((40, 2)) + [3, 3],
                       rng.standard_normal((40, 2)) - [3, 3],
                       rng.standard_normal((40, 2)) + [3, -3]])
        y = np.repeat([0, 1, 2], 40)
        model = svm_fit(x, y, c=10.0, gamma=0.5)
        scores = svm_score_matrix(model, x)
        pred = np.array(model.classes)[np.argmax(scores, axis=1)]
        assert np.mean(pred == y) > 0.95

    def test_kernel_identity_single_sv(self):
        from aecfeat.classifiers import BinarySvm, SvmModel

        sv = np.array([[1.0, 2.0]])
        model = SvmModel(classes=[0, 1],
                         machines={0: BinarySvm(sv, np.array([1.0]), 0.0),
                                   1: BinarySvm(sv, np.array([-1.0]), 0.0)},
                         gamma=0.3, c=1.0)
        scores = svm_score_matrix(model, np.array([[1.0, 2.0]]))[0]
        assert scores[0] == pytest.approx(1.0)

    def test_symmetric_two_class_scores_mirror(self):
        # two classes: the rest-set of one is exactly the other, so the two
        # one-vs-rest machines solve label-negated copies of the same
        # problem and their decision values are negatives of each other
        rng = np.random.default_rng(7)
        base = rng.standard_normal((30, 2)) + [4.0, 0.0]
        x = np.vstack([base, -base])
        y = np.array([0] * 30 + [1] * 30)
        model = svm_fit(x, y, c=5.0, gamma=0.2)
        probes = rng.standard_normal((10, 2))
        s = svm_score_matrix(model, probes)
        assert np.max(np.abs(s[:, 0] + s[:, 1])) <= 1e-9

    def test_degenerate_labels(self):
        with pytest.raises(DegenerateLabels):
            svm_fit(np.zeros((5, 2)), np.zeros(5), c=1.0, gamma=1.0)

    def test_empty_model_errors(self):
        from aecfeat.classifiers import SvmModel

        model = SvmModel(classes=[], machines={}, gamma=1.0, c=1.0)
        with pytest.raises(EmptyClass):
            svm_score_matrix(model, np.zeros((1, 2)))

    def test_deterministic(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal((60, 3))
        y = (x[:, 0] > 0).astype(int)
        a = svm_fit(x, y, c=2.0, gamma=0.4)
        b = svm_fit(x, y, c=2.0, gamma=0.4)
        for label in a.classes:
            assert np.array_equal(a.machines[label].dual_coef,
                                  b.machines[label].dual_coef)
            assert a.machines[label].bias == b.machines[label].bias


class TestDnnClassifier:
    def test_separable_four_classes(self):
        rng = np.random.default_rng(9)
        centers = np.array([[5, 5], [-5, 5], [5, -5], [-5, -5]], dtype=float)
        x = np.vstack([c + 0.5 * rng.standard_normal((50, 2)) for c in centers])
        y = np.repeat(np.arange(4), 50)
        cfg = TrainConfig(lr0=0.3, weight_decay=0.0, max_epochs_per_stage=60,
                          seed=0)
        net, report = dnn_classifier_fit(x, y, cfg, hidden=(16, 16, 8))
        pred = np.argmax(dnn_score_matrix(net, x), axis=1)
        assert np.mean(pred == y) > 0.95

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((30, 2))
        y = (x[:, 0] > 0).astype(int)
        cfg = TrainConfig(max_epochs_per_stage=2, seed=0)
        net, _ = dnn_classifier_fit(x, y, cfg, hidden=(4, 4, 4))
        out = dnn_score_matrix(net, x)
        assert np.max(np.abs(out.sum(axis=1) - 1.0)) <= 1e-9

    def test_same_seed_identical(self):
        rng = np.random.default_rng(11)
        x = rng.standard_normal((40, 2))
        y = (x[:, 1] > 0).astype(int)
        cfg = TrainConfig(max_epochs_per_stage=5, seed=4)
        a, _ = dnn_classifier_fit(x, y, cfg, hidden=(4, 4, 4))
        b, _ = dnn_classifier_fit(x, y, cfg, hidden=(4, 4, 4))
        for la, lb in zip(a.layers, b.layers):
            assert np.array_equal(la.w, lb.w)


class TestClassifySegment:
    def test_loglik_accumulation(self):
        scores = np.array([[-1.0, -0.5], [-1.0, -3.0]])
        decision = classify_segment(scores, "log_lik")
        assert decision.winner == 0
        assert decision.scores[0] == pytest.approx(-2.0)
        assert decision.scores[1] == pytest.approx(-3.5)

    def test_tie_goes_to_lowest_index(self):
        scores = np.full((3, 4), 0.25)
        assert classify_segment(scores, "softmax").winner == 0

    def test_single_frame_matches_argmax(self):
        scores = np.array([[0.1, 0.7, 0.2]])
        assert classify_segment(scores, "softmax").winner == 1

    def test_softmax_uses_log(self):
        probs = np.array([[0.6, 0.4], [0.1, 0.9]])
        decision = classify_segment(probs, "softmax")
        assert decision.scores[0] == pytest.approx(np.log(0.6) + np.log(0.1))

    def test_shift_invariance(self):
        rng = np.random.default_rng(12)
        scores = rng.standard_normal((7, 3))
        base = classify_segment(scores, "decision_value").winner
        shifted = classify_segment(scores + 123.456, "decision_value").winner
        assert base == shifted

    def test_frame_permutation_invariance(self):
        rng = np.random.default_rng(13)
        scores = rng.standard_normal((9, 4))
        perm = rng.permutation(9)
        a = classify_segment(scores, "decision_value")
        b = classify_segment(scores[perm], "decision_value")
        assert a.winner == b.winner
        assert np.allclose(a.scores, b.scores)

    def test_empty_frames(self):
        with pytest.raises(EmptyFrames):
            classify_segment(np.zeros((0, 3)), "log_lik")
