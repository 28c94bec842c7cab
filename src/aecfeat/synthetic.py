"""Bundled synthetic benchmark data: classes of filtered noise with
distinct spectral envelopes, written as 3-second 16 kHz wavs plus a
manifest. Used by the demos and the end-to-end acceptance check."""

import os
from functools import partial

import numpy as np

from .audio import SAMPLE_RATE, AudioSegment, write_wav
from .manifest import Manifest, ManifestEntry, save_manifest
from .network import _run_jobs


def _class_envelope(n_bins, centers, width, floor=0.02):
    """Spectral envelope with Gaussian bumps at the given bin centers."""
    k = np.arange(n_bins)
    env = np.full(n_bins, floor)
    for c in centers:
        env = env + np.exp(-0.5 * ((k - c) / width) ** 2)
    return env


def class_envelopes(n_classes, n_bins, n_bumps=2, lo_frac=0.03, hi_frac=0.45):
    """Distinct spectral envelopes, bump centers spread across the band,
    each bump a sixth of a class's share of the band wide."""
    lo, hi = int(n_bins * lo_frac), int(n_bins * hi_frac)
    width = (hi - lo) / (6.0 * n_classes)
    envs = []
    for i in range(n_classes):
        centers = [lo + (hi - lo) * (i + 0.5 + j * n_classes) / (n_classes * n_bumps)
                   for j in range(n_bumps)]
        envs.append(_class_envelope(n_bins, centers, width))
    return envs


def _bin_gains(envelope, n_samples):
    """The envelope interpolated onto the rFFT bins of n_samples samples."""
    n_bins = len(envelope)
    return np.interp(np.linspace(0, n_bins - 1, n_samples // 2 + 1),
                     np.arange(n_bins), envelope)


def _shaped(white, gains):
    """`white` with its spectrum scaled by `gains`, at a peak of 0.25."""
    shaped = np.fft.irfft(np.fft.rfft(white) * gains, n=len(white))
    shaped = shaped / np.max(np.abs(shaped)) * 0.25
    return AudioSegment(shaped)


def shaped_noise_segment(envelope, n_samples, rng):
    """White noise whose spectrum is shaped by the envelope (per rFFT bin),
    scaled to a peak of 0.25."""
    white = rng.standard_normal(n_samples)
    return _shaped(white, _bin_gains(envelope, n_samples))


def _write_shaped(path, white, gains):
    write_wav(path, _shaped(white, gains))


def generate_dataset(out_dir, n_source_classes=8, n_target_classes=4,
                     source_segments_per_class=8, target_train_per_class=20,
                     target_eval_per_class=10, segment_s=3.0, seed=0):
    """Write the synthetic corpus and return its Manifest.

    Source and target classes use different spectral envelopes drawn from
    the same band, so source pre-training is related but not identical to
    the target task.

    Each segment is white noise drawn from one generator, segment after
    segment on the calling thread, then shaped by its class's envelope and
    written by a job of `network._run_jobs`, on one thread per CPU in the
    affinity mask, at most two. The wavs and the manifest are the same
    bytes whatever the CPU count.
    """
    os.makedirs(out_dir, exist_ok=True)
    n_samples = int(segment_s * SAMPLE_RATE)
    n_bins = 512
    src_envs = class_envelopes(n_source_classes, n_bins, n_bumps=2)
    # offset target bumps so they do not coincide with any source class
    tgt_envs = class_envelopes(n_target_classes, n_bins, n_bumps=3,
                               lo_frac=0.05, hi_frac=0.48)
    classes = ([(f"src{i:02d}", env, "source",
                 ["train"] * source_segments_per_class)
                for i, env in enumerate(src_envs)]
               + [(f"tgt{i:02d}", env, "target",
                   ["train"] * target_train_per_class
                   + ["eval"] * target_eval_per_class)
                  for i, env in enumerate(tgt_envs)])
    entries = []
    rng = np.random.default_rng(seed)

    def jobs():
        for label, env, domain, splits in classes:
            gains = _bin_gains(env, n_samples)
            for j, split in enumerate(splits):
                path = os.path.join(out_dir, f"{label}_{j:03d}.wav")
                entries.append(ManifestEntry(path, label, domain, split,
                                             "clean"))
                yield partial(_write_shaped, path,
                              rng.standard_normal(n_samples), gains)

    _run_jobs(jobs())
    manifest = Manifest(entries)
    save_manifest(manifest, os.path.join(out_dir, "manifest.csv"))
    return manifest


def generate_noise_wav(out_dir, seed=99):
    """babblelike.wav, 10 s of broadband noise usable for SNR conditions;
    returns its path."""
    os.makedirs(out_dir, exist_ok=True)
    rng = np.random.default_rng(seed)
    env = _class_envelope(512, [40, 120, 260], 80.0, floor=0.1)
    seg = shaped_noise_segment(env, 10 * SAMPLE_RATE, rng)
    path = os.path.join(out_dir, "babblelike.wav")
    write_wav(path, seg)
    return path
