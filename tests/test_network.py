import sys
import threading
import tracemalloc

import numpy as np
import pytest

from aecfeat import network
from aecfeat.errors import AecError
from aecfeat.frontend import splice, splice_index
from aecfeat.network import (
    Layer,
    Network,
    TrainConfig,
    cross_entropy,
    forward,
    grad,
    init_mlp,
    one_hot,
    predict,
    sgd_step,
    train,
)
from aecfeat.transfer import build_filter, extract


def small_net(dims, seed=0):
    return init_mlp(dims[0], dims[1:-1], dims[-1], seed=seed)


def finite_diff_grads(net, x, y, h=1e-5):
    """Central finite differences of mean cross-entropy w.r.t. all params."""
    grads = []
    for layer in net.layers:
        gw = np.zeros_like(layer.w)
        for idx in np.ndindex(*layer.w.shape):
            orig = layer.w[idx]
            layer.w[idx] = orig + h
            up = cross_entropy(predict(net, x), y)
            layer.w[idx] = orig - h
            down = cross_entropy(predict(net, x), y)
            layer.w[idx] = orig
            gw[idx] = (up - down) / (2 * h)
        gb = np.zeros_like(layer.b)
        for i in range(len(layer.b)):
            orig = layer.b[i]
            layer.b[i] = orig + h
            up = cross_entropy(predict(net, x), y)
            layer.b[i] = orig - h
            down = cross_entropy(predict(net, x), y)
            layer.b[i] = orig
            gb[i] = (up - down) / (2 * h)
        grads.append((gw, gb))
    return grads


def max_rel_error(analytic, numeric):
    worst = 0.0
    for (aw, ab), (nw, nb) in zip(analytic, numeric):
        for a, n in ((aw, nw), (ab, nb)):
            denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-6)
            worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    return worst


class TestInit:
    def test_deterministic(self):
        a = small_net([5, 4, 3], seed=1)
        b = small_net([5, 4, 3], seed=1)
        for la, lb in zip(a.layers, b.layers):
            assert np.array_equal(la.w, lb.w)
            assert np.array_equal(la.b, lb.b)

    def test_shapes(self):
        net = small_net([512, 300, 15])
        assert net.layers[0].w.shape == (300, 512)
        assert net.layers[1].w.shape == (15, 300)
        assert not net.layers[0].b.any()

    def test_seeds_differ(self):
        a = small_net([5, 4, 3], seed=1)
        b = small_net([5, 4, 3], seed=2)
        assert not np.array_equal(a.layers[0].w, b.layers[0].w)

    def test_glorot_uniform_stream(self):
        # one generator, one uniform draw per layer, bottom to top
        net = small_net([5, 4, 3], seed=3)
        rng = np.random.default_rng(3)
        for layer, (a, b) in zip(net.layers, [(5, 4), (4, 3)]):
            s = np.sqrt(6.0 / (a + b))
            assert np.array_equal(layer.w, rng.uniform(-s, s, size=(b, a)))
        assert [l.activation for l in net.layers] == ["sigmoid", "softmax"]

    @pytest.mark.parametrize("dims", [[0, 4, 3], [5, 0, 3], [5, 4, 0]])
    def test_non_positive_dims_rejected(self, dims):
        with pytest.raises(AecError, match="layer dims must be positive"):
            small_net(dims)


class TestForward:
    def test_zero_sigmoid_is_half(self):
        net = Network([Layer(np.zeros((3, 4)), np.zeros(3), "sigmoid")])
        out = forward(net, np.random.default_rng(0).standard_normal((6, 4)))[-1]
        assert np.array_equal(out, np.full((6, 3), 0.5))

    def test_uniform_softmax(self):
        net = Network([Layer(np.zeros((3, 2)), np.zeros(3), "softmax")])
        out = predict(net, [[1.0, -1.0]])
        assert np.allclose(out, 1.0 / 3.0)

    def test_softmax_stability(self):
        net = Network([Layer(np.eye(2), np.zeros(2), "softmax")])
        out = predict(net, [[1000.0, 0.0]])
        assert np.all(np.isfinite(out))
        assert out[0, 0] == pytest.approx(1.0)
        assert out[0, 1] == pytest.approx(0.0, abs=1e-12)

    def test_softmax_rows_sum_to_one(self):
        rng = np.random.default_rng(1)
        net = small_net([4, 5, 3], seed=0)
        out = predict(net, rng.standard_normal((50, 4)) * 20)
        assert np.max(np.abs(out.sum(axis=1) - 1.0)) <= 1e-9

    def test_dim_mismatch(self):
        net = small_net([4, 5, 3])
        with pytest.raises(AecError, match="input dims 7 != network input 4"):
            forward(net, np.zeros((2, 7)))


class TestCrossEntropy:
    def test_float32_exact_zero_probability_is_finite(self):
        # a float32 clip at 1e-300 would round to 0 and give 0 * log(0)
        p = np.array([[0.0, 1.0], [0.25, 0.75]], dtype=np.float32)
        y = one_hot([1, 0], 2)
        ce = cross_entropy(p, y)
        assert np.isfinite(ce)
        assert ce == cross_entropy(p.astype(np.float64), y)


class TestGrad:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        for trial in range(5):
            net = small_net([3, 4, 2], seed=trial)
            x = rng.standard_normal((6, 3))
            y = one_hot(rng.integers(0, 2, 6), 2)
            assert max_rel_error(grad(net, x, y)[0], finite_diff_grads(net, x, y)) < 1e-4

    def test_perfect_prediction_zero_delta(self):
        net = Network([Layer(np.zeros((2, 2)), np.array([50.0, -50.0]), "softmax")])
        x = np.zeros((4, 2))
        y = one_hot(np.zeros(4, dtype=int), 2)
        g, _ = grad(net, x, y)
        assert np.max(np.abs(g[0][1])) <= 1e-9

    def test_requires_softmax_head(self):
        net = Network([Layer(np.zeros((2, 2)), np.zeros(2), "sigmoid")])
        with pytest.raises(AecError, match="gradient needs a softmax output layer"):
            grad(net, np.zeros((1, 2)), np.zeros((1, 2)))

    def test_loss_is_summed_cross_entropy_of_the_forward_pass(self):
        rng = np.random.default_rng(4)
        net = small_net([3, 4, 2], seed=0)
        x = rng.standard_normal((6, 3))
        y = one_hot(rng.integers(0, 2, 6), 2)
        _, loss = grad(net, x, y)
        assert loss == pytest.approx(6 * cross_entropy(predict(net, x), y),
                                     rel=1e-12)

    def test_follows_input_dtype(self):
        rng = np.random.default_rng(5)
        net64 = small_net([3, 4, 2], seed=0)
        net32 = net64.copy(np.float32)
        x = rng.standard_normal((6, 3)).astype(np.float32)
        y = one_hot(rng.integers(0, 2, 6), 2)
        assert all(a.dtype == np.float32 for a in forward(net32, x))
        g32, loss32 = grad(net32, x, y.astype(np.float32))
        assert all(gw.dtype == gb.dtype == np.float32 for gw, gb in g32)
        # the same float32 values, computed in float64
        g64, loss64 = grad(net32.copy(np.float64), x.astype(np.float64), y)
        assert all(a.dtype == np.float64 for a in forward(net64, x.astype(np.float64)))
        assert all(gw.dtype == gb.dtype == np.float64 for gw, gb in g64)
        assert max_rel_error(g32, g64) < 1e-4
        assert loss32 == pytest.approx(loss64, rel=1e-5)


class TestSgdStep:
    def test_weight_decay_only(self):
        layer = Layer(np.array([[1.0]]), np.array([0.0]), "linear")
        vel = (np.zeros((1, 1)), np.zeros(1))
        sgd_step(layer, (np.zeros((1, 1)), np.zeros(1)), vel, 0.1, 0.0, 0.5)
        assert layer.w[0, 0] == pytest.approx(0.95)

    def test_momentum_two_steps(self):
        layer = Layer(np.array([[0.0]]), np.array([0.0]), "linear")
        vel = (np.zeros((1, 1)), np.zeros(1))
        g = (np.array([[1.0]]), np.zeros(1))
        sgd_step(layer, g, vel, 0.1, 0.9, 0.0)
        assert layer.w[0, 0] == pytest.approx(-0.1)
        sgd_step(layer, g, vel, 0.1, 0.9, 0.0)
        assert vel[0][0, 0] == pytest.approx(1.9)
        assert layer.w[0, 0] == pytest.approx(-0.29)

    def test_zero_lr_keeps_params_but_accumulates_velocity(self):
        layer = Layer(np.array([[2.0]]), np.array([1.0]), "linear")
        vel = (np.zeros((1, 1)), np.zeros(1))
        g = (np.array([[1.0]]), np.array([1.0]))
        sgd_step(layer, g, vel, 0.0, 0.9, 0.0)
        assert layer.w[0, 0] == 2.0 and layer.b[0] == 1.0
        assert vel[0][0, 0] == 1.0 and vel[1][0] == 1.0

    def test_shape_mismatch(self):
        layer = Layer(np.zeros((2, 2)), np.zeros(2), "linear")
        vel = (np.zeros((2, 2)), np.zeros(2))
        with pytest.raises(AecError, match="gradient/parameter shape mismatch"):
            sgd_step(layer, (np.zeros((3, 2)), np.zeros(2)), vel, 0.1, 0.0, 0.0)


def xor_data(copies=25):
    pts = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
    labels = np.array([0, 1, 1, 0])
    x = np.tile(pts, (copies, 1))
    y = np.tile(labels, copies)
    return x, y


class TestTrain:
    def test_learns_xor(self):
        x, y = xor_data()
        net = small_net([2, 8, 2], seed=0)
        cfg = TrainConfig(lr0=0.5, weight_decay=0.0, batch_size=16,
                          max_epochs_per_stage=400, seed=0)
        trained, report = train(net, x, y, cfg)
        pred = np.argmax(predict(trained, x), axis=1)
        assert np.mean(pred == y) == 1.0
        assert len(report.train_ce) == report.final_epoch

    def test_zero_epochs_returns_initial(self):
        x, y = xor_data(5)
        net = small_net([2, 4, 2], seed=0)
        cfg = TrainConfig(max_epochs_per_stage=0, seed=0)
        trained, report = train(net, x, y, cfg)
        assert report.train_ce == [] and report.val_ce == []
        for a, b in zip(trained.layers, net.layers):
            assert np.array_equal(a.w, b.w)

    def test_separable_blobs_low_validation_ce(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((100, 2)) + [-5.0, -5.0]
        b = rng.standard_normal((100, 2)) + [5.0, 5.0]
        x = np.vstack([a, b])
        y = np.array([0] * 100 + [1] * 100)
        net = small_net([2, 4, 2], seed=0)
        cfg = TrainConfig(lr0=0.2, weight_decay=0.0, max_epochs_per_stage=100, seed=0)
        trained, report = train(net, x, y, cfg)
        assert report.val_ce[-1] < 0.1 or min(report.val_ce) < 0.1

    def test_trains_a_float32_copy(self):
        x, y = xor_data(5)
        net = small_net([2, 4, 2], seed=0)
        w0 = net.layers[0].w.copy()
        trained, _ = train(net, x, y, TrainConfig(lr0=0.3, max_epochs_per_stage=2,
                                                  seed=0))
        assert all(l.w.dtype == l.b.dtype == np.float32 for l in trained.layers)
        assert net.layers[0].w.dtype == np.float64
        assert np.array_equal(net.layers[0].w, w0)

    def test_predicts_only_validation_rows(self, monkeypatch):
        from aecfeat import network

        rows, real_predict = [], network.predict

        def recording_predict(net, x):
            rows.append(len(x))
            return real_predict(net, x)

        monkeypatch.setattr(network, "predict", recording_predict)
        x, y = xor_data(10)  # 20 rows per class, 4 of each held out
        _, report = train(small_net([2, 4, 2], seed=0), x, y,
                          TrainConfig(lr0=0.3, max_epochs_per_stage=3, seed=0))
        assert len(rows) == report.final_epoch > 0
        assert set(rows) == {8}

    def test_train_ce_is_epoch_mean_of_batch_losses(self, monkeypatch):
        from aecfeat import network

        batches, real_grad = [], network.grad

        def recording_grad(net, x, one_hot):
            g, loss = real_grad(net, x, one_hot)
            batches.append((len(x), loss))
            return g, loss

        monkeypatch.setattr(network, "grad", recording_grad)
        x, y = xor_data(10)  # 32 training rows: batches of 12, 12 and 8
        _, report = train(small_net([2, 4, 2], seed=0), x, y,
                          TrainConfig(lr0=0.3, batch_size=12,
                                      max_epochs_per_stage=3, seed=0))
        assert len(batches) == 3 * report.final_epoch
        for e, ce in enumerate(report.train_ce):
            epoch = batches[3 * e : 3 * e + 3]
            assert [n for n, _ in epoch] == [12, 12, 8]
            assert ce == sum(loss for _, loss in epoch) / 32

    @pytest.mark.parametrize("labels, match", [
        ([0, -1] * 5, "negative"),
        ([0, 1.5] * 5, "integer class indices"),
        ([0.0, np.nan] * 5, "integer class indices"),
        (["a", "b"] * 5, "integer class indices"),
    ], ids=["negative", "fractional", "nan", "strings"])
    def test_bad_labels_rejected(self, labels, match):
        with pytest.raises(AecError, match=match):
            train(init_mlp(4, (3,), 2), np.zeros((10, 4)), labels,
                  TrainConfig())

    def test_integral_float_labels_accepted(self):
        x, y = xor_data(5)
        a = train(small_net([2, 4, 2]), x, y, TrainConfig(max_epochs_per_stage=2))
        b = train(small_net([2, 4, 2]), x, y.astype(float),
                  TrainConfig(max_epochs_per_stage=2))
        assert np.array_equal(a[0].layers[0].w, b[0].layers[0].w)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_features_rejected(self, bad):
        x, y = xor_data(5)
        one_row = x.copy()
        one_row[7] = bad
        for features in (np.full_like(x, bad), one_row):
            with pytest.raises(AecError, match="non-finite"):
                train(small_net([2, 4, 2]), features, y, TrainConfig())

    @pytest.mark.filterwarnings("ignore:overflow encountered in cast")
    def test_float64_beyond_float32_range_rejected(self):
        x, y = xor_data(5)
        x[3, 1] = 1e300
        with pytest.raises(AecError, match="non-finite"):
            train(small_net([2, 4, 2]), x, y, TrainConfig())

    @pytest.mark.parametrize("shape", [(10,), (10, 4, 1)])
    def test_features_not_2d_rejected(self, shape):
        with pytest.raises(AecError, match="features must be 2-D"):
            train(init_mlp(4, (3,), 2), np.zeros(shape), [0, 1] * 5,
                  TrainConfig())

    def test_trains_from_the_callers_float32_matrix_without_copying_it(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((20000, 256), dtype=np.float32)
        y = np.arange(20000) % 2
        cfg = TrainConfig(batch_size=256, max_epochs_per_stage=1,
                          n_lr_stages=1, seed=0)
        tracemalloc.start()
        try:
            train(init_mlp(256, (8,), 2), x, y, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < x.nbytes / 2, (peak, x.nbytes)

    def test_degenerate_labels(self):
        net = small_net([2, 3, 2])
        with pytest.raises(AecError, match="need at least 2 classes"):
            train(net, np.zeros((4, 2)), np.zeros(4, dtype=int), TrainConfig())

    def test_deterministic(self):
        x, y = xor_data(5)
        cfg = TrainConfig(lr0=0.3, max_epochs_per_stage=20, seed=7)
        r1 = train(small_net([2, 4, 2], seed=7), x, y, cfg)
        r2 = train(small_net([2, 4, 2], seed=7), x, y, cfg)
        for a, b in zip(r1[0].layers, r2[0].layers):
            assert np.array_equal(a.w, b.w) and np.array_equal(a.b, b.b)
        assert r1[1].train_ce == r2[1].train_ce

    def test_two_stage_schedule_recorded(self):
        x, y = xor_data(5)
        cfg = TrainConfig(lr0=0.3, max_epochs_per_stage=10,
                          patience_epochs=3, seed=0)
        _, report = train(small_net([2, 4, 2], seed=0), x, y, cfg)
        assert len(report.stage_boundaries) == 2
        assert report.stage_boundaries[0] == 0
        assert 0 < report.stage_boundaries[1] <= 10

    def test_full_batch_convex_ce_non_increasing(self):
        # single softmax layer on fixed data is a convex problem
        rng = np.random.default_rng(3)
        x = rng.standard_normal((40, 3))
        y = (x[:, 0] > 0).astype(int)
        net = init_mlp(3, (), 2, seed=0)
        cfg = TrainConfig(lr0=0.05, momentum=0.0, weight_decay=0.0,
                          batch_size=40, val_ratio=0.0, patience_epochs=10 ** 6,
                          min_rel_improve=0.0, n_lr_stages=1,
                          max_epochs_per_stage=50, seed=0)
        _, report = train(net, x, y, cfg)
        diffs = np.diff(report.train_ce)
        assert np.all(diffs <= 1e-8)


class TestTrainIndex:
    """`train(..., index)` reads sample i as `features[index[i]]`
    flattened, so spliced frames train from the unspliced ones."""

    @pytest.mark.parametrize("context", [1, 3, 7])
    def test_index_trains_as_the_spliced_matrix(self, context):
        rng = np.random.default_rng(0)
        lengths = (1, 63, 130)
        segments = [rng.standard_normal((n, 5)).astype(np.float32)
                    for n in lengths]
        y = np.concatenate([np.arange(n) % 3 for n in lengths])
        spliced = np.vstack([splice(s, context) for s in segments])
        cfg = TrainConfig(lr0=0.1, batch_size=32, max_epochs_per_stage=3,
                          seed=0)
        by_index = train(small_net([5 * context, 8, 3]), np.vstack(segments),
                         y, cfg, splice_index(lengths, context))
        materialized = train(small_net([5 * context, 8, 3]), spliced, y, cfg)
        for a, b in zip(by_index[0].layers, materialized[0].layers):
            assert np.array_equal(a.w, b.w) and np.array_equal(a.b, b.b)
        assert by_index[1] == materialized[1]

    @pytest.mark.parametrize("index", [
        np.zeros(10, dtype=int), np.zeros((10, 1, 1), dtype=int),
        np.zeros((10, 1)), np.zeros((10, 1), dtype=bool)],
        ids=["1-d", "3-d", "float", "bool"])
    def test_index_must_be_2d_integer(self, index):
        with pytest.raises(AecError, match="row index must be a 2-D integer"):
            train(init_mlp(4, (3,), 2), np.zeros((10, 4)), [0, 1] * 5,
                  TrainConfig(), index)

    def test_index_rows_must_match_labels(self):
        with pytest.raises(AecError,
                           match="row index has 9 rows but there are 10 labels"):
            train(init_mlp(4, (3,), 2), np.zeros((10, 4)), [0, 1] * 5,
                  TrainConfig(), np.zeros((9, 1), dtype=int))

    @pytest.mark.parametrize("bad", [-1, 10])
    def test_index_entries_must_be_frames(self, bad):
        index = np.arange(10)[:, None]
        index[4] = bad
        with pytest.raises(AecError, match=r"must be in \[0, 10\)"):
            train(init_mlp(4, (3,), 2), np.zeros((10, 4)), [0, 1] * 5,
                  TrainConfig(), index)


def wide_net(seed=0):
    """512 inputs, two wide layers of 150 and 512 units (76,800 weights
    each) and a 3-class head; float32, so their products are split."""
    return init_mlp(512, (150, 512), 3, seed=seed).copy(np.float32)


def wide_data(rows, seed=0):
    rng = np.random.default_rng(seed)
    return (rng.standard_normal((rows, 512)).astype(np.float32),
            rng.integers(0, 3, rows))


def assert_same_net(a, b):
    for la, lb in zip(a.layers, b.layers):
        assert np.array_equal(la.w, lb.w) and np.array_equal(la.b, lb.b)


@pytest.fixture
def two_cpus(monkeypatch):
    """A worker thread for `train`, even on a machine with one CPU."""
    monkeypatch.setattr(network, "_cpu_count", lambda: 2)


class TestSplitLayers:
    """Wide layers split their float32 products and updates by output
    unit between the calling thread and one worker thread; each output
    element is still summed over the same terms in the same order."""

    def test_the_test_net_is_split(self, monkeypatch):
        flags, real_halves = [], network._halves

        def recording_halves(split, work, *sizes):
            flags.append((split, sizes))
            return real_halves(split, work, *sizes)

        monkeypatch.setattr(network, "_halves", recording_halves)
        net = wide_net()
        x, y = wide_data(97)
        grad(net, x, one_hot(y, 3).astype(np.float32))
        # forward: 512 -> 150, 150 -> 512 split, the head whole; backward:
        # the head whole, then 75 + 75 and 256 + 256 units
        assert flags == [(True, (150,)), (True, (512,)), (False, (3,)),
                         (False, (3, 512)), (True, (512, 150)),
                         (True, (150, 512))]

    def test_split_agrees_with_whole_products(self, monkeypatch, two_cpus):
        net = wide_net()
        x, y = wide_data(97)
        y = one_hot(y, 3).astype(np.float32)

        def run():
            acts = forward(net, x)
            g, loss = grad(net, x, y)
            stepped = net.copy()
            rng = np.random.default_rng(1)
            vel = [(rng.standard_normal(l.w.shape).astype(np.float32),
                    np.zeros_like(l.b)) for l in stepped.layers]
            for layer, gl, v in zip(stepped.layers, g, vel):
                sgd_step(layer, gl, v, 0.05, 0.9, 0.0005)
            return acts, g, loss, stepped, vel

        with network._one_blas_thread():
            split = run()
        monkeypatch.setattr(network, "_WIDE", np.inf)
        whole = run()
        assert all(np.array_equal(a, b) for a, b in zip(split[0], whole[0]))
        for (dw, db), (ew, eb) in zip(split[1], whole[1]):
            assert np.array_equal(dw, ew) and np.array_equal(db, eb)
        assert split[2] == whole[2]
        assert_same_net(split[3], whole[3])
        for (vw, vb), (uw, ub) in zip(split[4], whole[4]):
            assert np.array_equal(vw, uw) and np.array_equal(vb, ub)

    def test_train_is_the_same_on_one_cpu_and_unsplit(self, monkeypatch,
                                                      two_cpus):
        x, y = wide_data(600)
        cfg = TrainConfig(lr0=0.05, max_epochs_per_stage=2, seed=0)
        # switch threads often, so a half read before it was written shows
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            runs = [train(wide_net(), x, y, cfg)]
        finally:
            sys.setswitchinterval(interval)
        monkeypatch.setattr(network, "_cpu_count", lambda: 1)
        runs.append(train(wide_net(), x, y, cfg))
        monkeypatch.setattr(network, "_WIDE", np.inf)
        runs.append(train(wide_net(), x, y, cfg))
        for net, report in runs[1:]:
            assert_same_net(net, runs[0][0])
            assert report == runs[0][1]

    def test_worker_halves_run_under_the_blas_pin(self, monkeypatch,
                                                   two_cpus):
        # `train` and `extract` lend the worker only inside the one context
        # that pins the BLAS, so every half it runs sees one BLAS thread
        lib = network._OPENBLAS
        if lib is None:
            pytest.skip("numpy's bundled OpenBLAS is not loaded")
        caller, real_forward_units = threading.get_ident(), network._forward_units
        seen = []

        def recording(*args):
            if threading.get_ident() != caller:
                seen.append(lib.scipy_openblas_get_num_threads64_())
            return real_forward_units(*args)

        monkeypatch.setattr(network, "_forward_units", recording)
        x, y = wide_data(300)
        old = lib.scipy_openblas_get_num_threads64_()
        lib.scipy_openblas_set_num_threads64_(2)
        try:
            train(wide_net(), x, y, TrainConfig(max_epochs_per_stage=1, seed=0))
            in_train = len(seen)
            extract(build_filter(wide_net(), "C"), [x], len(x))
            assert lib.scipy_openblas_get_num_threads64_() == 2
        finally:
            lib.scipy_openblas_set_num_threads64_(old)
        assert 0 < in_train < len(seen)
        assert set(seen) == {1}

    def test_worker_failure_reaches_the_caller(self, monkeypatch, two_cpus):
        caller, real_activate = threading.get_ident(), network._activate

        def failing_on_the_worker(z, kind):
            if threading.get_ident() != caller:
                raise AecError("worker half failed")
            return real_activate(z, kind)

        x, y = wide_data(300)
        cfg = TrainConfig(max_epochs_per_stage=1, seed=0)
        threads = threading.active_count()
        train(wide_net(), x, y, cfg)
        assert threading.active_count() == threads
        monkeypatch.setattr(network, "_activate", failing_on_the_worker)
        with pytest.raises(AecError, match="worker half failed"):
            train(wide_net(), x, y, cfg)
        assert threading.active_count() == threads
