"""Audio segment container, strict WAV I/O, and augmentation (noise mixing,
reverberation).

All segments are 16 kHz mono. A segment's samples must be finite, and
`read_wav` accepts only 16-bit mono 16 kHz PCM files whose data holds
every sample their header declares; anything else is rejected with an
error naming the offending property.
"""

import logging
import wave
from contextlib import contextmanager
from dataclasses import dataclass

import numpy as np

from .errors import AecError

logger = logging.getLogger(__name__)

SAMPLE_RATE = 16000


@dataclass
class AudioSegment:
    samples: np.ndarray  # float64 at SAMPLE_RATE

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if not np.all(np.isfinite(self.samples)):
            raise AecError("segment contains non-finite samples")

    def __len__(self):
        return len(self.samples)

    @property
    def duration_s(self):
        return len(self.samples) / SAMPLE_RATE


@contextmanager
def _open_wav(path):
    """`path` opened with `wave` for the block, once its header passes
    `read_wav`'s checks: mono, 16-bit, 16000 Hz, no compression."""
    try:
        f = wave.open(str(path), "rb")
    except FileNotFoundError:
        raise AecError(f"no such file: {path}")
    except wave.Error as e:
        raise AecError(f"{path}: not a readable RIFF PCM wav ({e})")
    with f:
        if f.getcomptype() != "NONE":
            raise AecError(f"{path}: compression type {f.getcomptype()!r}, need NONE")
        if f.getnchannels() != 1:
            raise AecError(f"{path}: {f.getnchannels()} channels, need mono")
        if f.getsampwidth() != 2:
            raise AecError(f"{path}: sample width {f.getsampwidth()} bytes, need 2 (16-bit)")
        if f.getframerate() != SAMPLE_RATE:
            raise AecError(f"{path}: sample rate {f.getframerate()}, need {SAMPLE_RATE}")
        yield f


def wav_samples(path):
    """The sample count a wav's header declares, after `read_wav`'s
    checks; the data is not read. `read_wav` rejects a file whose data
    holds fewer samples, so any file it reads holds exactly this many."""
    with _open_wav(path) as f:
        return f.getnframes()


def read_wav(path):
    """Read a RIFF PCM wav file: 16-bit little-endian, mono, 16000 Hz. A
    file whose data holds fewer samples than its header declares is
    rejected."""
    with _open_wav(path) as f:
        declared = f.getnframes()
        raw = f.readframes(declared)
    if len(raw) != 2 * declared:
        raise AecError(f"{path}: truncated: its header declares {declared} "
                       f"samples but its data holds {len(raw) // 2}")
    pcm = np.frombuffer(raw, dtype="<i2")
    samples = pcm.astype(np.float64) / 32768.0
    return AudioSegment(samples)


def write_wav(path, segment):
    """Write an AudioSegment as 16-bit mono PCM at 16 kHz."""
    pcm = np.clip(np.round(segment.samples * 32768.0), -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as f:
        f.setnchannels(1)
        f.setsampwidth(2)
        f.setframerate(SAMPLE_RATE)
        f.writeframes(pcm.tobytes())


def _power(x):
    return float(np.mean(np.square(x)))


def mix_noise(signal, noise, snr_db, seed=0):
    """Add a random crop of `noise` to `signal` at the requested SNR.

    The gain is alpha = sqrt(P_s / (P_n * 10^(snr/10))) with powers measured
    as mean squared amplitude over the overlap, so the realized SNR matches
    the request exactly (before clipping). The crop offset comes from the
    seeded RNG. Output is clipped to [-1, 1]; clipped samples are counted
    and logged as a warning.
    """
    if len(noise) < len(signal):
        raise AecError(
            f"noise ({len(noise)} samples) shorter than signal ({len(signal)})"
        )
    p_s = _power(signal.samples)
    if p_s == 0.0:
        raise AecError("signal power is zero")
    rng = np.random.default_rng(seed)
    start = int(rng.integers(0, len(noise) - len(signal) + 1))
    crop = noise.samples[start : start + len(signal)]
    p_n = _power(crop)
    if p_n == 0.0:
        raise AecError("noise crop power is zero")
    alpha = np.sqrt(p_s / (p_n * 10.0 ** (snr_db / 10.0)))
    mixed = signal.samples + alpha * crop
    n_clip = int(np.sum(np.abs(mixed) > 1.0))
    if n_clip:
        logger.warning("mix_noise clipped %d samples (snr=%g dB)", n_clip, snr_db)
        mixed = np.clip(mixed, -1.0, 1.0)
    return AudioSegment(mixed)


def convolve_rir(signal, rir):
    """Full linear convolution with a room impulse response, truncated to the
    original signal length."""
    rir = np.asarray(rir, dtype=np.float64)
    if rir.size == 0:
        raise AecError("impulse response is empty")
    out = np.convolve(signal.samples, rir)[: len(signal)]
    peak = np.max(np.abs(out))
    if peak > 1.0:
        out = out / peak
    return AudioSegment(out)


def decay_envelope(rt60_s, n_samples):
    """Amplitude envelope whose energy falls by 60 dB at rt60_s seconds.

    env(t) = 10^(-3 t / rt60), so 20*log10(env(rt60)) = -60 dB.
    """
    t = np.arange(n_samples) / SAMPLE_RATE
    return 10.0 ** (-3.0 * t / rt60_s)


def synth_rir(rt60_s=0.7, length_s=1.0, seed=0):
    """Synthesize a room impulse response: seeded white noise shaped by the
    exponential decay envelope calibrated to rt60_s.

    Used only when no measured impulse response is supplied.
    """
    n = int(round(length_s * SAMPLE_RATE))
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(n)
    h = noise * decay_envelope(rt60_s, n)
    return h / np.max(np.abs(h))
