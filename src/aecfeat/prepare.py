"""Dataset preparation: per-class length normalization of the source
corpus (random cuts / reverberant copies to hit a fixed audio budget) and
noisy evaluation conditions at fixed SNRs.

`prepare_conditions`, like `synthetic.generate_dataset`, makes and writes
its wavs on one thread per CPU in the process's affinity mask, at most two
(none on one CPU). Each wav depends only on its own seed, so the files are
the same bytes whatever the CPU count; `mix_noise`'s clipping warnings may
come in another order across segments.
"""

import os
import zlib
from functools import partial

import numpy as np

from .audio import (SAMPLE_RATE, AudioSegment, convolve_rir, mix_noise,
                    read_wav, synth_rir, wav_samples, write_wav)
from .errors import AecError
from .manifest import Manifest, ManifestEntry
from .network import _run_jobs


def _class_groups(entries):
    groups = {}
    for e in entries:
        groups.setdefault(e.label, []).append(e)
    return groups


def prepare_source(manifest, out_dir, target_seconds=800.0, rir=None, seed=0):
    """Normalize every source class to roughly `target_seconds` of audio.

    Classes over the budget keep a seeded random contiguous cut per file
    until the budget is reached; classes under it append reverberated
    copies (convolved with `rir`, or a synthetic office response) until at
    or above budget. New wavs are written to out_dir; returns the
    augmented manifest.
    """
    os.makedirs(out_dir, exist_ok=True)
    source_entries = manifest.select("source")
    if not source_entries:
        raise AecError("manifest has no source-domain entries")
    if rir is None:
        rir = synth_rir(rt60_s=0.7, length_s=0.5, seed=seed)
    rng = np.random.default_rng(seed)
    out_entries = [e for e in manifest.entries if e.domain != "source"]

    for label, entries in sorted(_class_groups(source_entries).items()):
        segs = [read_wav(e.wav_path) for e in entries]
        total = sum(s.duration_s for s in segs)
        if total >= target_seconds:
            kept = 0.0
            for e, seg in zip(entries, segs):
                if kept >= target_seconds:
                    break
                remaining = target_seconds - kept
                if seg.duration_s <= remaining:
                    out_entries.append(e)
                    kept += seg.duration_s
                else:
                    n = int(remaining * SAMPLE_RATE)
                    if n < 1:
                        break
                    start = int(rng.integers(0, len(seg) - n + 1))
                    cut = AudioSegment(seg.samples[start : start + n])
                    path = os.path.join(out_dir, f"{label}_cut_{kept:.0f}.wav")
                    write_wav(path, cut)
                    out_entries.append(ManifestEntry(path, label, e.domain,
                                                     e.split, e.condition))
                    kept += cut.duration_s
        else:
            out_entries.extend(entries)
            have = total
            i = 0
            while have < target_seconds:
                e = entries[i % len(entries)]
                seg = segs[i % len(entries)]
                aug = convolve_rir(seg, rir)
                path = os.path.join(out_dir, f"{label}_rir_{i}.wav")
                write_wav(path, aug)
                out_entries.append(ManifestEntry(path, label, e.domain,
                                                 e.split, e.condition))
                have += aug.duration_s
                i += 1
    return Manifest(out_entries)


def prepare_conditions(manifest, noise_paths, out_dir, snrs=(5, 10, 15), seed=0):
    """Create one noisy condition per (noise, SNR) for target evaluation
    segments; clean entries pass through unchanged. Conditions are named
    by noise file stem and SNR (as `f"{snr:g}"` writes it), so both must
    be unique, and every noise must be at least as long as every segment;
    nothing is written unless both hold. Each segment is read once and
    mixed with every condition by one job of `network._run_jobs`."""
    stems = [os.path.splitext(os.path.basename(p))[0] for p in noise_paths]
    for what, values in (("noise file stem", [repr(s) for s in stems]),
                         ("SNR", [f"{snr:g}" for snr in snrs])):
        repeated = sorted({v for v in values if values.count(v) > 1})
        if repeated:
            raise AecError(f"{what} {repeated[0]} is given more than once")
    noises = {stem: read_wav(p) for stem, p in zip(stems, noise_paths)}
    conditions = [(name, noise, snr, f"{name}_{snr:g}dB")
                  for name, noise in sorted(noises.items()) for snr in snrs]
    # without a condition no segment is read
    eval_entries = [e for e in manifest.select("target", "eval")
                    if e.condition == "clean" and conditions]
    lengths = [wav_samples(e.wav_path) for e in eval_entries]
    for name, noise, _, _ in conditions:
        for e, n in zip(eval_entries, lengths):
            if len(noise) < n:
                raise AecError(
                    f"noise {name} ({len(noise)} samples) shorter "
                    f"than {e.wav_path} ({n})"
                )
    os.makedirs(out_dir, exist_ok=True)

    def noisy_path(tag, i):
        return os.path.join(out_dir, f"{tag}_{i:04d}.wav")

    def mix(i, entry):
        seg = read_wav(entry.wav_path)
        for _, noise, snr, tag in conditions:
            tag_id = zlib.crc32(tag.encode()) & 0xFFFF
            mixed = mix_noise(seg, noise, snr,
                              seed=int(np.random.SeedSequence(
                                  [seed, tag_id, i]).generate_state(1)[0]))
            write_wav(noisy_path(tag, i), mixed)

    _run_jobs(partial(mix, i, e) for i, e in enumerate(eval_entries))
    return Manifest(list(manifest.entries) + [
        ManifestEntry(noisy_path(tag, i), e.label, e.domain, e.split, tag)
        for *_, tag in conditions for i, e in enumerate(eval_entries)])
