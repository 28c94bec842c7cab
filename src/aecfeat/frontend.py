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
from typing import Optional

import numpy as np

from .errors import (
    BadContext,
    BadFrameLength,
    DimMismatch,
    EmptyInput,
    SegmentTooShort,
)

MODE_DIMS = {
    "dft_mag": 512,
    "waveform": 1024,
    "dft_real_imag": 1024,
    "concat": 2560,
}

FRAME_LEN = 1024
STD_FLOOR = 1e-8


@dataclass
class FrontendConfig:
    hop: int = 512
    window: str = "hamming"  # or "rectangular"
    input_mode: str = "dft_mag"
    splice_context: int = 1

    def __post_init__(self):
        if not (1 <= self.hop <= FRAME_LEN):
            raise ValueError(f"need 1 <= hop <= {FRAME_LEN}")
        if self.window not in ("hamming", "rectangular"):
            raise ValueError(f"unknown window {self.window!r}")
        if self.input_mode not in MODE_DIMS:
            raise ValueError(f"unknown input_mode {self.input_mode!r}")
        if self.splice_context not in (1, 3, 5, 7):
            raise BadContext(f"splice_context must be odd in 1..7, got {self.splice_context}")

    @property
    def frame_dims(self):
        return MODE_DIMS[self.input_mode]

    @property
    def dims(self):
        return self.frame_dims * self.splice_context

    def fingerprint(self):
        text = (f"{FRAME_LEN},{self.hop},{self.window},"
                f"{self.input_mode},{self.splice_context}")
        return hashlib.sha256(text.encode()).hexdigest()[:16]


@dataclass
class FeatureMatrix:
    """Frames x dims matrix tagged with the manifest split it came from."""

    values: np.ndarray
    split: Optional[str] = None  # "train" / "eval"

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise DimMismatch(f"feature matrix must be 2-D, got {self.values.ndim}-D")

    @property
    def rows(self):
        return self.values.shape[0]

    @property
    def dims(self):
        return self.values.shape[1]


@dataclass
class NormStats:
    mean: np.ndarray
    std: np.ndarray  # already floored at STD_FLOOR
    n_frames: int
    source_tags: tuple = ()

    def __post_init__(self):
        self.mean = np.asarray(self.mean, dtype=np.float64)
        self.std = np.asarray(self.std, dtype=np.float64)
        if self.mean.shape != self.std.shape:
            raise DimMismatch("mean/std length mismatch")
        if np.any(self.std < STD_FLOOR):
            raise ValueError("std below floor")

    def fingerprint(self):
        h = hashlib.sha256()
        h.update(self.mean.tobytes())
        h.update(self.std.tobytes())
        return h.hexdigest()[:16]


def _window(cfg):
    if cfg.window == "hamming":
        return np.hamming(FRAME_LEN)
    return np.ones(FRAME_LEN)


def frame_signal(segment, cfg):
    """Slice a segment into overlapping windowed frames.

    Returns an (n_frames, FRAME_LEN) array with
    n_frames = floor((len - FRAME_LEN)/hop) + 1.
    """
    n = len(segment)
    if n < FRAME_LEN:
        raise SegmentTooShort(f"segment has {n} samples, need at least {FRAME_LEN}")
    n_frames = (n - FRAME_LEN) // cfg.hop + 1
    idx = cfg.hop * np.arange(n_frames)[:, None] + np.arange(FRAME_LEN)[None, :]
    return segment.samples[idx] * _window(cfg)[None, :]


def dft_half_spectrum(frames):
    """Complex bins 0..511 of the 1024-point DFT, per frame."""
    frames = np.atleast_2d(np.asarray(frames, dtype=np.float64))
    if frames.shape[1] != FRAME_LEN:
        raise BadFrameLength(f"frame length must be {FRAME_LEN}, got {frames.shape[1]}")
    return np.fft.rfft(frames, axis=1)[:, :512]


def make_frontend_features(segment, cfg):
    """Frame a segment and build the per-frame representation for
    cfg.input_mode (splicing is a separate step)."""
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


def splice(fm, context):
    """Concatenate each frame with its symmetric temporal context.

    Out-of-range neighbours are replaced by the nearest valid frame, so the
    row count is preserved.
    """
    if context not in (1, 3, 5, 7):
        raise BadContext(f"context must be odd in 1..7, got {context}")
    if fm.rows < 1:
        raise EmptyInput("no frames to splice")
    if context == 1:
        out = fm.values.copy()
    else:
        half = (context - 1) // 2
        cols = []
        for off in range(-half, half + 1):
            idx = np.clip(np.arange(fm.rows) + off, 0, fm.rows - 1)
            cols.append(fm.values[idx])
        out = np.hstack(cols)
    return FeatureMatrix(out, split=fm.split)


def fit_norm_stats(matrices, source_tags=()):
    """Per-dimension mean/std over the pooled frames of several matrices.

    The caller is responsible for pooling only source-domain and
    target-training frames; matrices tagged split='eval' are rejected.
    """
    matrices = list(matrices)
    if not matrices or sum(m.rows for m in matrices) == 0:
        raise EmptyInput("no frames to fit normalization statistics")
    dims = matrices[0].dims
    for m in matrices:
        if m.dims != dims:
            raise DimMismatch(f"dims {m.dims} != {dims}")
        if m.split == "eval":
            raise ValueError("refusing to fit normalization on evaluation frames")
    n = sum(m.rows for m in matrices)
    total = np.zeros(dims)
    total_sq = np.zeros(dims)
    for m in matrices:
        total += m.values.sum(axis=0)
        total_sq += np.square(m.values).sum(axis=0)
    mean = total / n
    var = np.maximum(total_sq / n - mean ** 2, 0.0)
    std = np.maximum(np.sqrt(var), STD_FLOOR)
    return NormStats(mean, std, n_frames=n, source_tags=tuple(source_tags))


def apply_norm(fm, stats):
    """Z-score a feature matrix with previously fitted statistics."""
    if fm.dims != stats.mean.shape[0]:
        raise DimMismatch(f"matrix dims {fm.dims} != stats dims {stats.mean.shape[0]}")
    values = (fm.values - stats.mean) / stats.std
    return FeatureMatrix(values, split=fm.split)
