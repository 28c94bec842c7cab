"""Frame-level input features: framing/windowing, DFT-based representations,
temporal splicing, and z-score normalization.

Frames are fixed at FRAME_LEN = 1024 samples (the hop and window are
configurable); a frame gives a 512-point one-sided magnitude spectrum
(bins 0..511 of the 1024-point DFT). Available per-frame representations:

    dft_mag        512 dims   magnitude of bins 0..511
    waveform      1024 dims   the windowed samples themselves
    dft_real_imag 1024 dims   512 real parts then 512 imaginary parts
    concat        2560 dims   dft_mag | waveform | dft_real_imag
"""

import hashlib
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import AecError, check_field_types

MODE_DIMS = {
    "dft_mag": 512,
    "waveform": 1024,
    "dft_real_imag": 1024,
    "concat": 2560,
}

FRAME_LEN = 1024
# exact in float32, so a floored std survives the float32 artifacts
STD_FLOOR = float(np.float32(1e-8))


@dataclass
class FrontendConfig:
    hop: int = 512
    window: str = "hamming"  # or "rectangular"
    input_mode: str = "dft_mag"
    splice_context: int = 1

    def __post_init__(self):
        check_field_types(self)
        if not (1 <= self.hop <= FRAME_LEN):
            raise AecError(f"need 1 <= hop <= {FRAME_LEN}")
        if self.window not in ("hamming", "rectangular"):
            raise AecError(f"unknown window {self.window!r}")
        if self.input_mode not in MODE_DIMS:
            raise AecError(f"unknown input_mode {self.input_mode!r}")
        if self.splice_context not in (1, 3, 5, 7):
            raise AecError(f"splice_context must be odd in 1..7, got {self.splice_context}")

    @property
    def dims(self):
        return MODE_DIMS[self.input_mode] * self.splice_context

    def fingerprint(self):
        text = (f"{FRAME_LEN},{self.hop},{self.window},"
                f"{self.input_mode},{self.splice_context}")
        return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass
class FeatureMatrix:
    """A frames x dims array. Only `make_frontend_features` and `extract`
    return one, because the benchmark's row counters read its `.rows`."""

    values: np.ndarray

    @property
    def rows(self):
        return len(self.values)


@dataclass
class NormStats:
    mean: np.ndarray
    std: np.ndarray  # already floored at STD_FLOOR

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=np.float64)
        self.std = np.asarray(self.std, dtype=np.float64)
        if self.mean.shape != self.std.shape:
            raise AecError("mean/std length mismatch")
        if np.any(self.std < STD_FLOOR):
            raise AecError("std below floor")

    def fingerprint(self):
        h = hashlib.sha256()
        h.update(self.mean.tobytes())
        h.update(self.std.tobytes())
        return h.hexdigest()[:16]


def frame_count(n_samples, cfg):
    """The number of frames `frame_signal` cuts from `n_samples` samples:
    floor((n_samples - FRAME_LEN)/hop) + 1, at least one."""
    if n_samples < FRAME_LEN:
        raise AecError(f"segment has {n_samples} samples, need at least "
                       f"{FRAME_LEN}")
    return (n_samples - FRAME_LEN) // cfg.hop + 1


def frame_signal(segment, cfg):
    """Slice a segment into overlapping windowed frames.

    Returns an (n_frames, FRAME_LEN) array with
    n_frames = frame_count(len(segment), cfg).
    """
    frame_count(len(segment), cfg)  # rejects a segment shorter than a frame
    window = np.hamming(FRAME_LEN) if cfg.window == "hamming" else np.ones(FRAME_LEN)
    return sliding_window_view(segment.samples, FRAME_LEN)[::cfg.hop] * window


def dft_half_spectrum(frames):
    """Complex bins 0..511 of the 1024-point DFT, per frame."""
    frames = np.atleast_2d(np.asarray(frames, dtype=np.float64))
    if frames.shape[1] != FRAME_LEN:
        raise AecError(f"frame length must be {FRAME_LEN}, got {frames.shape[1]}")
    return np.fft.rfft(frames, axis=1)[:, :512]


def make_frontend_features(segment, cfg):
    """Frame a segment and build the cfg.input_mode representation of each
    frame, a float64 frames x dims `FeatureMatrix` (splicing is separate)."""
    frames = frame_signal(segment, cfg)
    mode = cfg.input_mode
    if mode == "waveform":
        values = frames
    else:
        spec = dft_half_spectrum(frames)
        if mode == "dft_mag":
            values = np.abs(spec)
        elif mode == "dft_real_imag":
            values = np.hstack([spec.real, spec.imag])
        else:  # concat
            values = np.hstack([np.abs(spec), frames, spec.real, spec.imag])
    return FeatureMatrix(values)


def _as_2d(values):
    values = np.asarray(values)
    if values.ndim != 2:
        raise AecError(f"features must be 2-D, got {values.ndim}-D")
    return values


def splice_index(lengths, context):
    """The (sum(lengths), context) neighbour index of frames stacked from
    segments of the given lengths: row i's entry j is the frame at offset
    j - context // 2 from frame i, clamped to frame i's own segment, so a
    segment's edge frames stand in for the neighbours it lacks. Gathering
    frames by it and flattening each row splices them."""
    if context not in (1, 3, 5, 7):
        raise AecError(f"context must be odd in 1..7, got {context}")
    lengths = np.asarray(lengths, dtype=np.intp)
    ends = np.cumsum(lengths)
    first = np.repeat(ends - lengths, lengths)[:, None]
    last = np.repeat(ends - 1, lengths)[:, None]
    offsets = np.arange(-(context // 2), context // 2 + 1)
    return np.clip(np.arange(lengths.sum())[:, None] + offsets, first, last)


def splice(values, context):
    """Concatenate each row of a frames x dims array with its symmetric
    temporal context: a frames x (context * dims) array, gathered by
    `splice_index` over one segment, so the row count is preserved."""
    values = _as_2d(values)
    if len(values) < 1:
        raise AecError("no frames to splice")
    return values[splice_index([len(values)], context)].reshape(len(values), -1)


def fit_norm_stats(arrays):
    """Per-dimension mean/std over the pooled rows of an iterable of 2-D
    arrays, read one at a time, so a generator never holds more than one.

    The caller pools only source-domain and target-training frames, never
    evaluation frames.
    """
    n, dims = 0, None
    for m in arrays:
        m = _as_2d(m)
        if dims is None:
            dims = m.shape[1]
            total, total_sq = np.zeros(dims), np.zeros(dims)
        elif m.shape[1] != dims:
            raise AecError(f"dims {m.shape[1]} != {dims}")
        n += len(m)
        total += m.sum(axis=0)
        total_sq += np.square(m).sum(axis=0)
    if n == 0:
        raise AecError("no frames to fit normalization statistics")
    mean = total / n
    var = np.maximum(total_sq / n - mean ** 2, 0.0)
    std = np.maximum(np.sqrt(var), STD_FLOOR)
    return NormStats(mean, std)


def apply_norm(values, stats):
    """Z-score a frames x dims array with previously fitted statistics."""
    values = _as_2d(values)
    if values.shape[1] != len(stats.mean):
        raise AecError(f"matrix dims {values.shape[1]} != stats dims {len(stats.mean)}")
    return (values - stats.mean) / stats.std
