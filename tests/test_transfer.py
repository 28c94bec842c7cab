import numpy as np
import pytest

from aecfeat.errors import DimMismatch, NoHead, UnknownVariant
from aecfeat.frontend import FeatureMatrix
from aecfeat.network import LayerSpec, TrainConfig, init_network, predict
from aecfeat.transfer import (
    DnnFilter,
    SourceModel,
    adapt,
    append_adaptation,
    build_filter,
    extract,
    strip_output,
)


def source_net(in_dim=6, widths=(8, 8, 8), n_classes=5, seed=0):
    dims = [in_dim, *widths]
    specs = [LayerSpec(a, b, "sigmoid") for a, b in zip(dims, dims[1:])]
    specs.append(LayerSpec(dims[-1], n_classes, "softmax"))
    return init_network(specs, seed=seed)


def blobs(n_classes=4, per_class=40, dim=6, spread=6.0, seed=0):
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-spread, spread, size=(n_classes, dim))
    x = np.vstack([centers[c] + 0.5 * rng.standard_normal((per_class, dim))
                   for c in range(n_classes)])
    y = np.repeat(np.arange(n_classes), per_class)
    return x, y


class TestSurgery:
    def test_strip_output(self):
        net = source_net()
        trunk = strip_output(net)
        assert len(trunk.layers) == 3
        assert trunk.layers[-1].activation == "sigmoid"
        for a, b in zip(trunk.layers, net.layers):
            assert np.array_equal(a.w, b.w) and np.array_equal(a.b, b.b)

    def test_strip_needs_head(self):
        no_head = init_network([LayerSpec(4, 3), LayerSpec(3, 2)], seed=0)
        with pytest.raises(NoHead):
            strip_output(no_head)
        one_layer = init_network([LayerSpec(4, 2, "softmax")], seed=0)
        with pytest.raises(NoHead):
            strip_output(one_layer)

    def test_append_adaptation_dims_and_flags(self):
        trunk = strip_output(source_net())
        comp = append_adaptation(trunk, tl1_dim=5, tl2_dim=4, n_target_classes=3)
        dims = [l.out_dim for l in comp.layers]
        assert dims == [8, 8, 8, 5, 4, 3]
        assert [l.frozen for l in comp.layers] == [True] * 3 + [False] * 3
        assert comp.layers[-1].activation == "softmax"
        assert comp.layers[-2].activation == "sigmoid"

    def test_new_layers_seeded(self):
        trunk = strip_output(source_net())
        a = append_adaptation(trunk, 5, 4, 3, seed=1)
        b = append_adaptation(trunk, 5, 4, 3, seed=1)
        c = append_adaptation(trunk, 5, 4, 3, seed=2)
        assert np.array_equal(a.layers[3].w, b.layers[3].w)
        assert not np.array_equal(a.layers[3].w, c.layers[3].w)


class TestAdapt:
    def test_freeze_invariant_and_accuracy(self):
        # pre-train the source stack so the frozen trunk carries usable
        # structure, then adapt to four unseen classes
        from aecfeat.network import train

        net = source_net(in_dim=6, n_classes=5)
        xs, ys = blobs(n_classes=5, dim=6, seed=42)
        net, _ = train(net, xs, ys,
                       TrainConfig(lr0=0.3, weight_decay=0.0,
                                   max_epochs_per_stage=100, seed=0))
        trunk = strip_output(net)
        comp = append_adaptation(trunk, 8, 6, 4, seed=0)
        frozen_before = [(l.w.copy(), l.b.copy()) for l in comp.layers[:3]]
        x, y = blobs(n_classes=4, dim=6)
        cfg = TrainConfig(lr0=0.3, weight_decay=0.0, max_epochs_per_stage=150, seed=0)
        trained, report = adapt(comp, x, y, cfg)
        for layer, (w0, b0) in zip(trained.layers[:3], frozen_before):
            assert np.array_equal(layer.w, w0)
            assert np.array_equal(layer.b, b0)
        # separable-by-construction target: validation accuracy > 90%
        pred = np.argmax(predict(trained, x), axis=1)
        assert np.mean(pred == y) > 0.9

    def test_empty_target(self):
        comp = append_adaptation(strip_output(source_net()), 5, 4, 2, seed=0)
        from aecfeat.errors import DegenerateLabels

        with pytest.raises(DegenerateLabels):
            adapt(comp, np.zeros((0, 6)), np.zeros(0, dtype=int), TrainConfig())


class TestBuildFilter:
    def _trained_composite(self):
        comp = append_adaptation(strip_output(source_net()), 8, 6, 4, seed=0)
        x, y = blobs(n_classes=4, dim=6)
        cfg = TrainConfig(lr0=0.3, max_epochs_per_stage=30, seed=0)
        comp, _ = adapt(comp, x, y, cfg)
        return comp, x

    def test_variant_c_structure(self):
        comp, _ = self._trained_composite()
        filt = build_filter(comp, "C")
        assert filt.tap_dim == 6
        assert filt.network.layers[-1].activation == "linear"
        assert len(filt.network.layers) == 5

    def test_variant_a_keeps_sigmoid(self):
        comp, x = self._trained_composite()
        filt = build_filter(comp, "A")
        out = extract(filt, FeatureMatrix(x))
        assert np.all((out.values > 0) & (out.values < 1))

    def test_variant_link_a_equals_sigmoid_of_c(self):
        comp, x = self._trained_composite()
        fm = FeatureMatrix(x)
        a = extract(build_filter(comp, "A"), fm).values
        c = extract(build_filter(comp, "C"), fm).values
        assert np.max(np.abs(a - 1.0 / (1.0 + np.exp(-c)))) <= 1e-9

    def test_unknown_variant(self):
        comp, _ = self._trained_composite()
        with pytest.raises(UnknownVariant):
            build_filter(comp, "D")

    def test_variant_b_shares_nothing_with_source(self):
        # a target-only stack initialized from its own seed cannot carry
        # the source parameters
        src = source_net(seed=0)
        dims = [6, 8, 8, 8, 5, 4]
        specs = [LayerSpec(a, b, "sigmoid") for a, b in zip(dims, dims[1:])]
        specs.append(LayerSpec(4, 3, "softmax"))
        target_only = init_network(specs, seed=1)
        filt = build_filter(target_only, "B")
        for fl, sl in zip(filt.network.layers[:3], src.layers[:3]):
            assert not np.array_equal(fl.w, sl.w)


class TestExtract:
    def test_shape(self):
        comp = append_adaptation(strip_output(source_net()), 8, 6, 4, seed=0)
        filt = build_filter(comp, "C")
        fm = FeatureMatrix(np.random.default_rng(0).standard_normal((92, 6)))
        out = extract(filt, fm)
        assert (out.rows, out.dims) == (92, 6)

    def test_zero_weights_yield_bias(self):
        comp = append_adaptation(strip_output(source_net()), 8, 6, 4, seed=0)
        filt = build_filter(comp, "C")
        last = filt.network.layers[-1]
        last.w[:] = 0.0
        last.b[:] = np.arange(6.0)
        # zero the incoming weights so only TL#2's bias survives
        out = extract(filt, FeatureMatrix(np.zeros((3, 6))))
        assert np.allclose(out.values, np.arange(6.0))

    def test_purity_and_batch_independence(self):
        comp = append_adaptation(strip_output(source_net()), 8, 6, 4, seed=0)
        filt = build_filter(comp, "C")
        fm = FeatureMatrix(np.random.default_rng(1).standard_normal((20, 6)))
        full = extract(filt, fm).values
        again = extract(filt, fm).values
        assert np.array_equal(full, again)
        one_at_a_time = np.vstack([
            extract(filt, FeatureMatrix(fm.values[i : i + 1])).values
            for i in range(fm.rows)
        ])
        assert np.array_equal(full, one_at_a_time)

    def test_dim_mismatch(self):
        comp = append_adaptation(strip_output(source_net()), 8, 6, 4, seed=0)
        filt = build_filter(comp, "C")
        with pytest.raises(DimMismatch):
            extract(filt, FeatureMatrix(np.zeros((2, 9))))


class TestSourceModel:
    def test_head_class_count_checked(self):
        with pytest.raises(DimMismatch):
            SourceModel(source_net(n_classes=5), classes=["a", "b"])
