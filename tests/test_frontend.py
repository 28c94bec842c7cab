import numpy as np
import pytest

from aecfeat.audio import AudioSegment
from aecfeat.errors import AecError
from aecfeat.frontend import (
    FrontendConfig,
    apply_norm,
    dft_half_spectrum,
    fit_norm_stats,
    frame_count,
    frame_signal,
    make_frontend_features,
    splice,
    splice_index,
)


def seg(samples):
    return AudioSegment(np.asarray(samples, dtype=np.float64))


def dft_magnitude(frame):
    """Magnitude of one 1024-sample frame through the batch spectrum."""
    return np.abs(dft_half_spectrum(frame[None]))[0]


def naive_dft_magnitude(frame):
    """O(N^2) reference for the 512-point one-sided magnitude spectrum."""
    n = len(frame)
    ks = np.arange(512)
    out = np.empty(512)
    for k in ks:
        w = np.exp(-2j * np.pi * k * np.arange(n) / n)
        out[k] = np.abs(np.sum(frame * w))
    return out


RECT = FrontendConfig(window="rectangular")


class TestFraming:
    def test_frame_count(self):
        frames = frame_signal(seg(np.zeros(48000)), RECT)
        assert frames.shape == (92, 1024)

    def test_single_frame_boundary(self):
        frames = frame_signal(seg(np.zeros(1024)), RECT)
        assert frames.shape == (1, 1024)

    def test_too_short(self):
        with pytest.raises(AecError, match="1000 samples, need at least 1024"):
            frame_signal(seg(np.zeros(1000)), RECT)
        with pytest.raises(AecError, match="1000 samples, need at least 1024"):
            frame_count(1000, RECT)

    @pytest.mark.parametrize("hop", [1, 300, 512, 1024])
    @pytest.mark.parametrize("n", [1024, 1025, 1323, 1324, 2048, 5000])
    def test_frame_count_matches_frame_signal(self, n, hop):
        cfg = FrontendConfig(hop=hop)
        assert frame_count(n, cfg) == len(frame_signal(seg(np.zeros(n)), cfg))

    def test_hamming_window_applied(self):
        cfg = FrontendConfig(window="hamming")
        frames = frame_signal(seg(np.ones(1024)), cfg)
        assert np.allclose(frames[0], np.hamming(1024))

    @pytest.mark.parametrize("window", ["hamming", "rectangular"])
    @pytest.mark.parametrize("hop", [1, 300, 512, 1024])
    def test_rows_are_windowed_slices(self, hop, window):
        samples = np.linspace(-0.9, 0.9, 5000)  # a ramp: every sample differs
        frames = frame_signal(seg(samples), FrontendConfig(hop=hop, window=window))
        w = np.hamming(1024) if window == "hamming" else np.ones(1024)
        assert frames.shape == ((5000 - 1024) // hop + 1, 1024)
        for i, row in enumerate(frames):
            assert np.array_equal(row, samples[i * hop:i * hop + 1024] * w)


class TestDftMagnitude:
    def test_zero_frame(self):
        assert np.array_equal(dft_magnitude(np.zeros(1024)), np.zeros(512))

    def test_unit_impulse_flat_spectrum(self):
        frame = np.zeros(1024)
        frame[0] = 1.0
        assert np.allclose(dft_magnitude(frame), 1.0, atol=1e-12)

    def test_pure_cosine_single_bin(self):
        n = np.arange(1024)
        frame = np.cos(2 * np.pi * 64 * n / 1024)
        mag = dft_magnitude(frame)
        assert mag[64] == pytest.approx(512.0, abs=1e-9)
        others = np.delete(mag, 64)
        assert np.max(others) < 1e-9
        # cross-check against the independent naive DFT
        assert np.max(np.abs(mag - naive_dft_magnitude(frame))) <= 1e-9

    def test_matches_naive_dft_on_random_frames(self):
        rng = np.random.default_rng(0)
        for _ in range(100):
            frame = rng.standard_normal(1024)
            assert np.max(np.abs(dft_magnitude(frame) - naive_dft_magnitude(frame))) <= 1e-9

    def test_parseval(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            frame = rng.standard_normal(1024)
            spec = np.fft.fft(frame)
            energy_freq = np.sum(np.abs(spec) ** 2)
            energy_time = 1024 * np.sum(frame ** 2)
            assert energy_freq == pytest.approx(energy_time, rel=1e-6)

    def test_bad_length(self):
        with pytest.raises(AecError, match="frame length must be 1024, got 512"):
            dft_half_spectrum(np.zeros((1, 512)))


class TestModes:
    def test_dft_mag_dims(self):
        fm = make_frontend_features(seg(np.random.default_rng(2).standard_normal(48000) * 0.1), RECT)
        assert fm.values.shape == (92, 512)
        assert fm.rows == 92

    def test_waveform_zero_signal(self):
        cfg = FrontendConfig(window="rectangular", input_mode="waveform")
        fm = make_frontend_features(seg(np.zeros(48000)), cfg)
        assert fm.values.shape == (92, 1024)
        assert not fm.values.any()

    def test_real_imag_packing(self):
        cfg = FrontendConfig(window="rectangular", input_mode="dft_real_imag")
        x = np.random.default_rng(3).standard_normal(2048) * 0.1
        fm = make_frontend_features(seg(x), cfg)
        assert fm.values.shape[1] == 1024
        spec = np.fft.rfft(x[:1024])[:512]
        assert np.allclose(fm.values[0, :512], spec.real)
        assert np.allclose(fm.values[0, 512:], spec.imag)

    def test_concat_stacks_all_three(self):
        # magnitude | waveform | real | imag = 512 + 1024 + 512 + 512
        cfg = FrontendConfig(window="rectangular", input_mode="concat")
        fm = make_frontend_features(seg(np.zeros(48000)), cfg)
        assert fm.values.shape == (92, 2560)


class TestSplice:
    def test_context_one_is_identity(self):
        x = np.random.default_rng(4).standard_normal((10, 5))
        assert np.array_equal(splice(x, 1), x)

    def test_dims_and_rows(self):
        assert splice(np.zeros((92, 512)), 3).shape == (92, 1536)

    @pytest.mark.parametrize("context", [1, 3, 5, 7])
    def test_row_count_preserved(self, context):
        x = np.random.default_rng(5).standard_normal((9, 4))
        assert len(splice(x, context)) == 9

    def test_edge_replication(self):
        x = np.arange(12.0).reshape(4, 3)
        out = splice(x, 3)
        assert np.array_equal(out[0], np.concatenate([x[0], x[0], x[1]]))
        assert np.array_equal(out[-1], np.concatenate([x[2], x[3], x[3]]))

    @pytest.mark.parametrize("rows", [1, 2, 9])
    @pytest.mark.parametrize("context", [1, 3, 5, 7])
    def test_matches_clipped_index_reference(self, context, rows):
        values = np.random.default_rng(7).standard_normal((rows, 4))
        half = context // 2
        reference = np.array([
            np.concatenate([values[min(max(i + off, 0), rows - 1)]
                            for off in range(-half, half + 1)])
            for i in range(rows)])
        assert np.array_equal(splice(values, context), reference)

    def test_bad_context(self):
        x = np.zeros((3, 2))
        with pytest.raises(AecError, match="context must be odd in 1..7, got 2"):
            splice(x, 2)
        with pytest.raises(AecError, match="context must be odd in 1..7, got 0"):
            splice(x, 0)

    def test_no_frames(self):
        with pytest.raises(AecError, match="no frames to splice"):
            splice(np.zeros((0, 2)), 3)

    @pytest.mark.parametrize("shape", [(5,), (2, 3, 4)])
    def test_not_2d_rejected(self, shape):
        with pytest.raises(AecError,
                           match=f"features must be 2-D, got {len(shape)}-D"):
            splice(np.zeros(shape), 3)

    @pytest.mark.parametrize("context", [1, 3, 5, 7])
    def test_stacked_index_matches_per_segment_pad(self, context):
        # frames stacked from ragged segments: each row's context is
        # clamped to its own segment, as np.pad's edge mode pads one
        rng = np.random.default_rng(8)
        segments = [rng.standard_normal((n, 4)) for n in (1, 2, 7)]
        half = context // 2
        reference = np.vstack([
            np.hstack([np.pad(s, ((half, half), (0, 0)), mode="edge")
                       [off:off + len(s)] for off in range(context)])
            for s in segments])
        stacked = np.vstack(segments)
        index = splice_index([len(s) for s in segments], context)
        assert index.shape == (10, context)
        assert np.array_equal(stacked[index].reshape(10, -1), reference)


class TestNormalization:
    def test_simple_z_score(self):
        stats = fit_norm_stats([np.array([[0.0], [4.0]])])
        out = apply_norm(np.array([[4.0]]), stats)
        assert out[0, 0] == pytest.approx((4.0 - 2.0) / 2.0)

    def test_pooled_fit(self):
        stats = fit_norm_stats([np.array([[0.0], [2.0]]),
                                np.array([[4.0], [6.0]])])
        assert stats.mean[0] == pytest.approx(3.0)
        assert stats.std[0] == pytest.approx(np.sqrt(5.0), abs=1e-9)

    def test_constant_dim_floors_to_zero_output(self):
        x = np.full((5, 2), 7.0)
        out = apply_norm(x, fit_norm_stats([x]))
        assert np.array_equal(out, np.zeros((5, 2)))

    def test_self_normalization_property(self):
        x = np.random.default_rng(6).standard_normal((500, 8)) * 3 + 1
        out = apply_norm(x, fit_norm_stats([x]))
        assert np.max(np.abs(out.mean(axis=0))) <= 1e-9
        assert np.allclose(out.std(axis=0), 1.0, atol=1e-6)

    def test_empty_input(self):
        with pytest.raises(AecError, match="no frames to fit normalization"):
            fit_norm_stats([])
        with pytest.raises(AecError, match="no frames to fit normalization"):
            fit_norm_stats([np.zeros((0, 3))])

    def test_dim_mismatch(self):
        with pytest.raises(AecError, match="dims 4 != 3"):
            fit_norm_stats([np.zeros((2, 3)), np.zeros((2, 4))])

    def test_generator_equals_list(self):
        rng = np.random.default_rng(9)
        arrays = [rng.standard_normal((n, 6)) * 4 + 2 for n in (1, 30, 7)]
        a = fit_norm_stats(arrays)
        b = fit_norm_stats(m for m in arrays)
        assert np.array_equal(a.mean, b.mean) and np.array_equal(a.std, b.std)

    def test_empty_generator(self):
        with pytest.raises(AecError, match="no frames to fit normalization "
                                           "statistics"):
            fit_norm_stats(m for m in [])

    def test_later_array_of_wrong_width_in_generator(self):
        arrays = (np.zeros((2, 3)) if i < 2 else np.zeros((2, 5))
                  for i in range(3))
        with pytest.raises(AecError, match="dims 5 != 3"):
            fit_norm_stats(arrays)

    def test_apply_dim_mismatch(self):
        stats = fit_norm_stats([np.zeros((2, 3))])
        with pytest.raises(AecError, match="matrix dims 4 != stats dims 3"):
            apply_norm(np.zeros((2, 4)), stats)

    @pytest.mark.parametrize("shape", [(5,), (2, 3, 4)])
    def test_not_2d_rejected(self, shape):
        match = f"features must be 2-D, got {len(shape)}-D"
        with pytest.raises(AecError, match=match):
            fit_norm_stats([np.zeros((2, 3)), np.zeros(shape)])
        with pytest.raises(AecError, match=match):
            fit_norm_stats([np.zeros(shape)])
        stats = fit_norm_stats([np.zeros((2, 3))])
        with pytest.raises(AecError, match=match):
            apply_norm(np.zeros(shape), stats)
