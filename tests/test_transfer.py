import os
import sys
import threading
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from scipy.special import expit

from aecfeat import network, transfer
from aecfeat.errors import AecError
from aecfeat.frontend import FrontendConfig, splice, splice_index
from aecfeat.network import Layer, Network, TrainConfig, init_mlp, predict, train
from aecfeat.transfer import adapt, build_filter, extract, strip_output


def source_net(in_dim=6, widths=(8, 8, 8), n_classes=5, seed=0):
    return init_mlp(in_dim, widths, n_classes, seed=seed)


def blobs(n_classes=4, per_class=40, dim=6, spread=6.0, seed=0):
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-spread, spread, size=(n_classes, dim))
    x = np.vstack([centers[c] + 0.5 * rng.standard_normal((per_class, dim))
                   for c in range(n_classes)])
    y = np.repeat(np.arange(n_classes), per_class)
    return x, y


def adapted(tl_widths=(8, 6), n_classes=4, epochs=0, seed=0):
    """A composite: the stripped source trunk under fresh layers adapted on
    blobs for `epochs` epochs per stage (0 leaves them as initialized)."""
    x, y = blobs(n_classes=n_classes, dim=6)
    trunk = strip_output(source_net())
    comp, _ = adapt(trunk, extract(trunk, [x], len(x)).values, y, tl_widths,
                    n_classes,
                    TrainConfig(lr0=0.3, max_epochs_per_stage=epochs, seed=0),
                    seed=seed)
    return comp, x


# the acceptance config's filter input: 512 dft_mag bins spliced by 3
E2E_DIMS = FrontendConfig(input_mode="dft_mag", splice_context=3).dims


def e2e_filter():
    """A variant-C filter at the acceptance config's widths (E2E_DIMS
    spliced inputs, SL#1-3 256, TL#1 128, TL#2 150)."""
    return build_filter(init_mlp(E2E_DIMS, (256, 256, 256, 128, 150), 4,
                                 seed=0), "C")


@pytest.fixture
def blas_threads():
    """The bundled OpenBLAS handle; its thread count is restored after the
    test."""
    lib = network._OPENBLAS
    if lib is None:
        pytest.skip("numpy's bundled OpenBLAS is not loaded")
    old = lib.scipy_openblas_get_num_threads64_()
    yield lib
    lib.scipy_openblas_set_num_threads64_(old)


class TestSurgery:
    def test_strip_output(self):
        net = source_net()
        trunk = strip_output(net)
        assert len(trunk.layers) == 3
        assert trunk.layers[-1].activation == "sigmoid"
        for a, b in zip(trunk.layers, net.layers):
            assert np.array_equal(a.w, b.w) and np.array_equal(a.b, b.b)

    def test_strip_needs_head(self):
        no_head = Network([Layer(np.zeros((3, 4)), np.zeros(3), "sigmoid"),
                           Layer(np.zeros((2, 3)), np.zeros(2), "sigmoid")])
        with pytest.raises(AecError, match="last layer is not a softmax head"):
            strip_output(no_head)
        one_layer = init_mlp(4, (), 2, seed=0)
        with pytest.raises(AecError, match="no separable output layer"):
            strip_output(one_layer)

    def test_adapt_dims_and_flags(self):
        comp, _ = adapted(tl_widths=(5, 4), n_classes=3, epochs=1)
        dims = [l.out_dim for l in comp.layers]
        assert dims == [8, 8, 8, 5, 4, 3]
        # a layer is fixed or trained by its position, and a layer is only
        # its parameters and activation: the trunk comes back bit-identical
        trunk = strip_output(source_net())
        for a, b in zip(comp.layers[:3], trunk.layers):
            assert np.array_equal(a.w, b.w) and np.array_equal(a.b, b.b)
            assert a.w.dtype == b.w.dtype and a.activation == b.activation
        assert [f.name for f in fields(Layer)] == ["w", "b", "activation"]
        assert comp.layers[-1].activation == "softmax"
        assert comp.layers[-2].activation == "sigmoid"

    def test_new_layers_seeded(self):
        a, _ = adapted(tl_widths=(5, 4), n_classes=3, epochs=1, seed=1)
        b, _ = adapted(tl_widths=(5, 4), n_classes=3, epochs=1, seed=1)
        c, _ = adapted(tl_widths=(5, 4), n_classes=3, epochs=1, seed=2)
        assert np.array_equal(a.layers[3].w, b.layers[3].w)
        assert not np.array_equal(a.layers[3].w, c.layers[3].w)
        # the seed reaches the fresh layers only, never the trunk
        for la, lc in zip(a.layers[:3], c.layers[:3]):
            assert np.array_equal(la.w, lc.w)


class TestAdapt:
    def test_freeze_invariant_and_accuracy(self):
        # pre-train the source stack so the frozen trunk carries usable
        # structure, then adapt to four unseen classes
        net = source_net(in_dim=6, n_classes=5)
        xs, ys = blobs(n_classes=5, dim=6, seed=42)
        net, _ = train(net, xs, ys,
                       TrainConfig(lr0=0.3, weight_decay=0.0,
                                   max_epochs_per_stage=100, seed=0))
        trunk = strip_output(net)
        frozen_before = [(l.w.copy(), l.b.copy()) for l in trunk.layers]
        x, y = blobs(n_classes=4, dim=6)
        cfg = TrainConfig(lr0=0.3, weight_decay=0.0, max_epochs_per_stage=150, seed=0)
        trained, report = adapt(trunk, extract(trunk, [x], len(x)).values, y,
                                (8, 6),
                                4, cfg)
        for layer, (w0, b0) in zip(trained.layers[:3], frozen_before):
            assert np.array_equal(layer.w, w0)
            assert np.array_equal(layer.b, b0)
        # separable-by-construction target: validation accuracy > 90%
        pred = np.argmax(predict(trained, x), axis=1)
        assert np.mean(pred == y) > 0.9

    def test_trains_only_the_adaptation_layers(self, monkeypatch):
        from aecfeat import network

        trunk = strip_output(source_net())
        seen = []
        real_grad = network.grad

        def recording_grad(net, x, one_hot):
            seen.append((len(net.layers), net.in_dim))
            return real_grad(net, x, one_hot)

        monkeypatch.setattr(network, "grad", recording_grad)
        x, y = blobs(n_classes=3, dim=6)
        trained, _ = adapt(trunk, extract(trunk, [x], len(x)).values, y,
                           (5, 4), 3,
                           TrainConfig(lr0=0.3, max_epochs_per_stage=5, seed=0))
        assert seen and set(seen) == {(3, trunk.out_dim)}
        for a, b in zip(trained.layers[:3], trunk.layers):
            assert np.array_equal(a.w, b.w) and np.array_equal(a.b, b.b)
            assert a.w is not b.w and a.b is not b.b

    def test_without_trunk_matches_train(self):
        # variant B: no trunk, every layer fresh; exactly `train` on an
        # `init_mlp` stack of the same widths and seed
        x, y = blobs(n_classes=3, dim=6)
        cfg = TrainConfig(lr0=0.3, max_epochs_per_stage=5, seed=0)
        a, report_a = adapt(None, x, y, (8, 8, 8, 5, 4), 3, cfg, seed=1)
        b, report_b = train(init_mlp(6, (8, 8, 8, 5, 4), 3, seed=1), x, y, cfg)
        assert len(a.layers) == len(b.layers) == 6
        for la, lb in zip(a.layers, b.layers):
            assert np.array_equal(la.w, lb.w) and np.array_equal(la.b, lb.b)
            assert la.activation == lb.activation
        assert report_a == report_b

    def test_index_reaches_train(self):
        # variant B on spliced frames: the stack is as wide as a spliced
        # row, and a bad index is rejected before any layer is built
        x, y = blobs(n_classes=3, dim=6)
        index = splice_index([len(x)], 3)
        cfg = TrainConfig(lr0=0.3, max_epochs_per_stage=2, seed=0)
        a, _ = adapt(None, x, y, (8, 4), 3, cfg, seed=1, index=index)
        b, _ = train(init_mlp(18, (8, 4), 3, seed=1), splice(x, 3), y, cfg)
        for la, lb in zip(a.layers, b.layers):
            assert np.array_equal(la.w, lb.w) and np.array_equal(la.b, lb.b)
        with pytest.raises(AecError, match="row index must be a 2-D integer"):
            adapt(None, x, y, (8, 4), 3, cfg, index=index.ravel())

    def test_empty_target(self):
        trunk = strip_output(source_net())
        with pytest.raises(AecError, match="need at least 2 classes"):
            adapt(trunk, extract(trunk, [np.zeros((0, 6))], 0).values,
                  np.zeros(0, dtype=int), (5, 4), 2, TrainConfig())

    def test_input_must_be_trunk_output(self):
        # with a trunk, `adapt` trains on the trunk's outputs: frames as
        # wide as the trunk's input are rejected, naming both widths
        x, y = blobs(n_classes=3, dim=6)
        with pytest.raises(AecError, match="adaptation input width 6 != "
                                           "trunk output width 8"):
            adapt(strip_output(source_net()), x, y, (5, 4), 3, TrainConfig())


class TestBuildFilter:
    def test_variant_c_structure(self):
        comp, _ = adapted(epochs=30)
        filt = build_filter(comp, "C")
        assert filt.out_dim == 6
        assert filt.layers[-1].activation == "linear"
        assert len(filt.layers) == 5

    def test_variant_a_keeps_sigmoid(self):
        comp, x = adapted(epochs=30)
        filt = build_filter(comp, "A")
        out = extract(filt, [x], len(x))
        assert np.all((out.values > 0) & (out.values < 1))

    def test_variant_link_a_equals_sigmoid_of_c(self):
        comp, x = adapted(epochs=30)
        a = extract(build_filter(comp, "A"), [x], len(x)).values
        c = extract(build_filter(comp, "C"), [x], len(x)).values
        # the same pre-activation, so bit for bit
        assert np.array_equal(a, expit(c))

    def test_unknown_variant(self):
        comp, _ = adapted(epochs=30)
        with pytest.raises(AecError, match="variant must be one of"):
            build_filter(comp, "D")

    def test_variant_b_shares_nothing_with_source(self):
        # a target-only stack initialized from its own seed cannot carry
        # the source parameters
        src = source_net(seed=0)
        target_only = init_mlp(6, (8, 8, 8, 5, 4), 3, seed=1)
        filt = build_filter(target_only, "B")
        for fl, sl in zip(filt.layers[:3], src.layers[:3]):
            assert not np.array_equal(fl.w, sl.w)


class TestExtract:
    def test_shape(self):
        filt = build_filter(adapted()[0], "C")
        x = np.random.default_rng(0).standard_normal((92, 6))
        out = extract(filt, [x], 92)
        assert out.values.shape == (92, 6)
        assert out.rows == 92

    def test_zero_weights_yield_bias(self):
        filt = build_filter(adapted()[0], "C")
        last = filt.layers[-1]
        last.w[:] = 0.0
        last.b[:] = np.arange(6.0)
        # zero the incoming weights so only TL#2's bias survives
        out = extract(filt, [np.zeros((3, 6))], 3)
        assert np.allclose(out.values, np.arange(6.0))

    def test_purity_and_batch_independence(self):
        filt = build_filter(adapted()[0], "C")
        x = np.random.default_rng(1).standard_normal((20, 6))
        full = extract(filt, [x], len(x)).values
        again = extract(filt, [x], len(x)).values
        assert np.array_equal(full, again)
        one_at_a_time = np.vstack([
            extract(filt, [x[i : i + 1]], 1).values
            for i in range(len(x))
        ])
        assert np.array_equal(full, one_at_a_time)

    def test_dim_mismatch(self):
        filt = build_filter(adapted()[0], "C")
        with pytest.raises(AecError, match="feature dims 9 != filter input"):
            extract(filt, [np.zeros((2, 9))], 2)

    @pytest.mark.parametrize("shape", [(6,), (2, 3, 6)])
    def test_not_2d_rejected(self, shape):
        filt = build_filter(adapted()[0], "C")
        with pytest.raises(AecError, match=f"features must be 2-D, got {len(shape)}-D"):
            extract(filt, [np.zeros(shape)], shape[0])

    def test_softmax_network_rejected(self):
        # the composite still has its head: it classifies, it is no filter
        comp, x = adapted()
        with pytest.raises(AecError,
                           match="filter must not end in a softmax layer"):
            extract(comp, [x], len(x))

    # 200 rows: one buffer, its tail zero-filled; "einsum" is the path
    # without numpy's bundled OpenBLAS: no pin and no worker thread
    @pytest.mark.parametrize("kernel", ["default", "gemm-2-threads", "einsum"])
    def test_batch_independence_at_e2e_widths(self, kernel, monkeypatch,
                                              request):
        if kernel == "gemm-2-threads":
            request.getfixturevalue("blas_threads")
            network._OPENBLAS.scipy_openblas_set_num_threads64_(2)
        if kernel == "einsum":
            monkeypatch.setattr(network, "_OPENBLAS", None)
        filt = e2e_filter()
        x = np.random.default_rng(2).standard_normal((200, E2E_DIMS))
        full = extract(filt, [x], len(x)).values
        one_at_a_time = np.vstack([extract(filt, [x[i:i + 1]], 1).values
                                   for i in range(len(x))])
        two_segments = np.vstack([extract(filt, [x[:92]], 92).values,
                                  extract(filt, [x[92:]], 108).values])
        assert full.shape == (200, 150)
        assert np.array_equal(full, one_at_a_time)
        assert np.array_equal(full, two_segments)

    def test_float32_taps_agree_with_float64_predict(self):
        filt = e2e_filter()
        x = np.random.default_rng(4).standard_normal((200, E2E_DIMS))
        taps = extract(filt, [x], len(x)).values
        exact = predict(filt, x)
        assert taps.dtype == np.float32 and exact.dtype == np.float64
        assert np.abs(taps - exact).max() <= 1e-5 * np.abs(exact).max()

    @pytest.mark.parametrize("cpus, kernel", [
        ({0}, "default"), ({0, 1, 2, 3, 4, 5, 6}, "default"),
        ({0}, "einsum"), ({0, 1, 2, 3, 4, 5, 6}, "einsum")],
        ids=["1-cpu", "7-cpus", "1-cpu-einsum", "7-cpus-einsum"])
    def test_cpu_count_does_not_change_taps(self, monkeypatch, cpus, kernel):
        if kernel == "einsum":  # no bundled OpenBLAS: no pin, no worker
            monkeypatch.setattr(network, "_OPENBLAS", None)
        filt = e2e_filter()
        x = np.random.default_rng(6).standard_normal((1000, E2E_DIMS))
        serial = np.vstack([extract(filt, [x[i:i + 64]],
                                    len(x[i:i + 64])).values
                            for i in range(0, len(x), 64)])
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        assert np.array_equal(extract(filt, [x], len(x)).values, serial)

    FRAMES = (1, 63, 64, 65, 92, 130)  # ragged around 64 rows

    # buffers of 64, 128 and 1,024 rows: the first two fill several times
    # and cut segments, the last holds all 415 rows; the per-segment
    # reference is extracted at the same buffer size
    @pytest.mark.parametrize("blocks", [1, 2, 16])
    @pytest.mark.parametrize("cpus", [{0}, {0, 1, 2}, set(range(8))],
                             ids=["1-cpu", "3-cpus", "8-cpus"])
    @pytest.mark.parametrize("source", ["list", "generator"])
    def test_segments_pooled_equal_per_segment_extract(
            self, monkeypatch, blocks, cpus, source):
        filt = e2e_filter()
        rng = np.random.default_rng(5)
        xs = [rng.standard_normal((n, E2E_DIMS)) for n in self.FRAMES]
        monkeypatch.setattr(transfer, "BUFFER_ROWS", 64 * blocks)
        expected = np.vstack([extract(filt, [x], len(x)).values for x in xs])
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        segments = xs if source == "list" else (x for x in xs)
        taps = extract(filt, segments, sum(self.FRAMES)).values
        assert taps.dtype == np.float32
        assert np.array_equal(taps, expected)

    # whole buffers only: nothing is left for a zero-filled tail
    @pytest.mark.parametrize("sizes", [(1, 700, 316, 7), (1000, 1, 1040, 7)],
                             ids=["1024-rows", "2048-rows"])
    def test_whole_buffers_run_no_final_forward(self, monkeypatch, sizes):
        filt = e2e_filter()
        rng = np.random.default_rng(7)
        rows = sum(sizes)
        assert rows % transfer.BUFFER_ROWS == 0
        xs = [rng.standard_normal((n, E2E_DIMS)) for n in sizes]
        expected = np.vstack([extract(filt, [x], len(x)).values for x in xs])
        calls, real_forward = [], transfer.forward

        def counting_forward(net, x):
            calls.append(len(x))
            return real_forward(net, x)

        monkeypatch.setattr(transfer, "forward", counting_forward)
        taps = extract(filt, (x for x in xs), rows).values
        assert calls == [transfer.BUFFER_ROWS] * (rows // transfer.BUFFER_ROWS)
        assert np.array_equal(taps, expected)

    def test_no_segments_give_no_rows(self):
        filt = e2e_filter()
        for segments in ([], iter(()), [np.zeros((0, E2E_DIMS))]):
            out = extract(filt, segments, 0)
            assert out.values.shape == (0, 150)
            assert out.values.dtype == np.float32

    @pytest.mark.parametrize("rows", [69, 71])
    def test_rows_must_match_segments(self, rows):
        # the segments hold 70 rows: one more, or one fewer, than `rows`
        filt = e2e_filter()
        segments = [np.zeros((30, E2E_DIMS)), np.zeros((40, E2E_DIMS))]
        with pytest.raises(AecError, match=f"the {rows} rows given to extract"):
            extract(filt, segments, rows)

    def test_taps_are_held_once(self):
        # every tap is written once into one matrix: the traced peak is
        # the taps, not the taps plus a copy of them
        filt = build_filter(init_mlp(6, (32, 64), 2, seed=0), "C")

        def segments():
            rng = np.random.default_rng(0)
            for _ in range(600):
                yield rng.standard_normal((100, 6))

        tracemalloc.start()
        try:
            taps = extract(filt, segments(), 60000).values
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert taps.shape == (60000, 64)
        assert peak <= 1.1 * taps.nbytes, (peak, taps.nbytes)

    def test_blas_thread_count_restored(self, blas_threads, monkeypatch):
        # the worker thread takes half of each wide layer of the 70 rows
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        threads = threading.active_count()
        blas_threads.scipy_openblas_set_num_threads64_(2)
        filt = e2e_filter()
        extract(filt, [np.zeros((70, E2E_DIMS))], 70)
        assert blas_threads.scipy_openblas_get_num_threads64_() == 2
        # a wrong-width segment after a full buffer has run on the worker
        monkeypatch.setattr(transfer, "BUFFER_ROWS", 128)
        inside = []

        def segments():
            yield np.zeros((130, E2E_DIMS))  # fills the 128-row buffer
            inside.append(threading.active_count())
            yield np.zeros((5, E2E_DIMS - 1))

        with pytest.raises(AecError, match="feature dims 1535 != filter"):
            extract(filt, segments(), 135)
        assert inside[0] > threads
        assert blas_threads.scipy_openblas_get_num_threads64_() == 2
        assert threading.active_count() == threads
        # TL#1 expects 256 inputs; 255 make the GEMM raise inside the pin
        tl1 = filt.layers[3]
        filt.layers[3] = Layer(tl1.w[:, :255], tl1.b, tl1.activation)
        with pytest.raises(ValueError):
            extract(filt, [np.zeros((70, E2E_DIMS))], 70)
        assert blas_threads.scipy_openblas_get_num_threads64_() == 2
        assert threading.active_count() == threads

    def test_at_most_one_extra_thread(self, monkeypatch):
        # eight CPUs in the mask: the trainer's one worker, not one per CPU
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)))
        threads = threading.active_count()
        filt = e2e_filter()
        inside = []

        def segments(last_width):
            yield np.zeros((transfer.BUFFER_ROWS + 3, E2E_DIMS))
            inside.append(threading.active_count())
            yield np.zeros((5, last_width))

        rows = transfer.BUFFER_ROWS + 8
        extract(filt, segments(E2E_DIMS), rows)
        assert threading.active_count() == threads
        with pytest.raises(AecError, match="feature dims 1535 != filter"):
            extract(filt, segments(E2E_DIMS - 1), rows)
        assert threading.active_count() == threads
        assert len(inside) == 2 and max(inside) <= threads + 1

    @pytest.mark.parametrize("odd_threads", ["extract", "raise"])
    def test_concurrent_extracts_share_the_pin(self, blas_threads,
                                               odd_threads):
        # a thread leaving the pin must not restore the count while another
        # is still inside a GEMM, and the last one out restores it; four
        # threads, more than most test machines have cores
        blas_threads.scipy_openblas_set_num_threads64_(2)
        filt = e2e_filter()
        xs = [np.random.default_rng(s).standard_normal((384, E2E_DIMS))
              for s in range(4)]
        serial = [extract(filt, [x], len(x)).values for x in xs]
        nets = [filt] * 4
        if odd_threads == "raise":  # TL#1 expects 256 inputs; 255 raise
            tl1 = filt.layers[3]
            nets[1] = nets[3] = Network(filt.layers[:3] + [
                Layer(tl1.w[:, :255], tl1.b, tl1.activation)] + filt.layers[4:])
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(8):  # the uncounted pin failed most rounds
                start, out = threading.Barrier(4), [None] * 4

                def work(i):
                    start.wait()
                    try:
                        out[i] = extract(nets[i], [xs[i]], 384).values
                    except ValueError as e:
                        out[i] = e

                threads = [threading.Thread(target=work, args=(i,))
                           for i in range(4)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=60)
                    assert not t.is_alive()
                for i in range(4):
                    if nets[i] is filt:
                        assert np.array_equal(out[i], serial[i])
                    else:
                        assert isinstance(out[i], ValueError)
                assert blas_threads.scipy_openblas_get_num_threads64_() == 2
        finally:
            sys.setswitchinterval(switch)
