import numpy as np
import pytest

from aecfeat.audio import AudioSegment
from aecfeat.errors import (
    BadContext,
    BadFrameLength,
    DimMismatch,
    EmptyInput,
    SegmentTooShort,
)
from aecfeat.frontend import (
    FeatureMatrix,
    FrontendConfig,
    apply_norm,
    dft_half_spectrum,
    fit_norm_stats,
    frame_signal,
    make_frontend_features,
    splice,
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
        with pytest.raises(SegmentTooShort):
            frame_signal(seg(np.zeros(1000)), RECT)

    def test_hamming_window_applied(self):
        cfg = FrontendConfig(window="hamming")
        frames = frame_signal(seg(np.ones(1024)), cfg)
        assert np.allclose(frames[0], np.hamming(1024))


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
        with pytest.raises(BadFrameLength):
            dft_half_spectrum(np.zeros((1, 512)))


class TestModes:
    def test_dft_mag_dims(self):
        fm = make_frontend_features(seg(np.random.default_rng(2).standard_normal(48000) * 0.1), RECT)
        assert (fm.rows, fm.dims) == (92, 512)

    def test_waveform_zero_signal(self):
        cfg = FrontendConfig(window="rectangular", input_mode="waveform")
        fm = make_frontend_features(seg(np.zeros(48000)), cfg)
        assert (fm.rows, fm.dims) == (92, 1024)
        assert not fm.values.any()

    def test_real_imag_packing(self):
        cfg = FrontendConfig(window="rectangular", input_mode="dft_real_imag")
        x = np.random.default_rng(3).standard_normal(2048) * 0.1
        fm = make_frontend_features(seg(x), cfg)
        assert fm.dims == 1024
        spec = np.fft.rfft(x[:1024])[:512]
        assert np.allclose(fm.values[0, :512], spec.real)
        assert np.allclose(fm.values[0, 512:], spec.imag)

    def test_concat_stacks_all_three(self):
        # magnitude | waveform | real | imag = 512 + 1024 + 512 + 512
        cfg = FrontendConfig(window="rectangular", input_mode="concat")
        fm = make_frontend_features(seg(np.zeros(48000)), cfg)
        assert (fm.rows, fm.dims) == (92, 2560)


class TestSplice:
    def test_context_one_is_identity(self):
        fm = FeatureMatrix(np.random.default_rng(4).standard_normal((10, 5)))
        out = splice(fm, 1)
        assert np.array_equal(out.values, fm.values)

    def test_dims_and_rows(self):
        fm = FeatureMatrix(np.zeros((92, 512)))
        out = splice(fm, 3)
        assert (out.rows, out.dims) == (92, 1536)

    @pytest.mark.parametrize("context", [1, 3, 5, 7])
    def test_row_count_preserved(self, context):
        fm = FeatureMatrix(np.random.default_rng(5).standard_normal((9, 4)))
        assert splice(fm, context).rows == 9

    def test_edge_replication(self):
        fm = FeatureMatrix(np.arange(12.0).reshape(4, 3))
        out = splice(fm, 3)
        f0, f1 = fm.values[0], fm.values[1]
        assert np.array_equal(out.values[0], np.concatenate([f0, f0, f1]))
        f2, f3 = fm.values[2], fm.values[3]
        assert np.array_equal(out.values[-1], np.concatenate([f2, f3, f3]))

    def test_bad_context(self):
        fm = FeatureMatrix(np.zeros((3, 2)))
        with pytest.raises(BadContext):
            splice(fm, 2)
        with pytest.raises(BadContext):
            splice(fm, 0)


class TestNormalization:
    def test_simple_z_score(self):
        fm = FeatureMatrix(np.array([[0.0], [4.0]]))
        stats = fit_norm_stats([fm])
        out = apply_norm(FeatureMatrix(np.array([[4.0]])), stats)
        assert out.values[0, 0] == pytest.approx((4.0 - 2.0) / 2.0)

    def test_pooled_fit(self):
        a = FeatureMatrix(np.array([[0.0], [2.0]]))
        b = FeatureMatrix(np.array([[4.0], [6.0]]))
        stats = fit_norm_stats([a, b])
        assert stats.mean[0] == pytest.approx(3.0)
        assert stats.std[0] == pytest.approx(np.sqrt(5.0), abs=1e-9)
        assert stats.n_frames == 4

    def test_constant_dim_floors_to_zero_output(self):
        fm = FeatureMatrix(np.full((5, 2), 7.0))
        stats = fit_norm_stats([fm])
        out = apply_norm(fm, stats)
        assert np.array_equal(out.values, np.zeros((5, 2)))

    def test_self_normalization_property(self):
        rng = np.random.default_rng(6)
        fm = FeatureMatrix(rng.standard_normal((500, 8)) * 3 + 1)
        stats = fit_norm_stats([fm])
        out = apply_norm(fm, stats)
        assert np.max(np.abs(out.values.mean(axis=0))) <= 1e-9
        assert np.allclose(out.values.std(axis=0), 1.0, atol=1e-6)

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            fit_norm_stats([])

    def test_dim_mismatch(self):
        a = FeatureMatrix(np.zeros((2, 3)))
        b = FeatureMatrix(np.zeros((2, 4)))
        with pytest.raises(DimMismatch):
            fit_norm_stats([a, b])

    def test_refuses_eval_frames(self):
        fm = FeatureMatrix(np.zeros((2, 3)), split="eval")
        with pytest.raises(ValueError, match="evaluation"):
            fit_norm_stats([fm])
