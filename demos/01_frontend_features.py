"""Frame-level frontend walk-through.

Builds a synthetic 16 kHz segment, frames it, and shows the four per-frame
input representations plus temporal splicing and z-score normalization.

Run:  python3 demos/01_frontend_features.py
"""

import numpy as np

from aecfeat.audio import AudioSegment
from aecfeat.frontend import (
    FrontendConfig,
    fit_norm_stats,
    apply_norm,
    make_frontend_features,
    splice,
)

# one second of a 1 kHz tone plus broadband noise
rng = np.random.default_rng(0)
t = np.arange(16000) / 16000.0
segment = AudioSegment(0.4 * np.sin(2 * np.pi * 1000 * t)
                       + 0.05 * rng.standard_normal(16000))

print("segment:", len(segment), "samples,", segment.duration_s, "s")

for mode in ("dft_mag", "waveform", "dft_real_imag", "concat"):
    cfg = FrontendConfig(input_mode=mode)
    fm = make_frontend_features(segment, cfg)
    print(f"{mode:>14}: {fm.rows} frames x {fm.dims} dims")

# the tone lands in DFT bin 1000 / 16000 * 1024 = 64
cfg = FrontendConfig(input_mode="dft_mag")
fm = make_frontend_features(segment, cfg)
peak_bin = int(np.argmax(fm.values.mean(axis=0)))
print("strongest magnitude bin:", peak_bin, "(1 kHz -> bin 64)")

# splicing concatenates each frame with its temporal context
for context in (1, 3, 5, 7):
    sp = splice(fm, context)
    print(f"splice context {context}: {sp.rows} frames x {sp.dims} dims")

# normalization statistics are fitted on training material only
stats = fit_norm_stats([fm])
normed = apply_norm(fm, stats)
print("after z-score: per-dim mean ~",
      float(np.abs(normed.values.mean(axis=0)).max()),
      " std ~", float(normed.values.std(axis=0).mean()))
