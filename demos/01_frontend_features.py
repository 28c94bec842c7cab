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
    frames, dims = make_frontend_features(segment, cfg).values.shape
    print(f"{mode:>14}: {frames} frames x {dims} dims")

# the tone lands in DFT bin 1000 / 16000 * 1024 = 64
cfg = FrontendConfig(input_mode="dft_mag")
x = make_frontend_features(segment, cfg).values
peak_bin = int(np.argmax(x.mean(axis=0)))
print("strongest magnitude bin:", peak_bin, "(1 kHz -> bin 64)")

# splicing concatenates each frame with its temporal context
for context in (1, 3, 5, 7):
    frames, dims = splice(x, context).shape
    print(f"splice context {context}: {frames} frames x {dims} dims")

# normalization statistics are fitted on training material only
stats = fit_norm_stats([x])
normed = apply_norm(x, stats)
print("after z-score: per-dim mean ~",
      float(np.abs(normed.mean(axis=0)).max()),
      " std ~", float(normed.std(axis=0).mean()))
