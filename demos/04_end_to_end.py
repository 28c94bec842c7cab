"""End-to-end pipeline on the bundled synthetic corpus.

Generates a small corpus of filtered-noise classes, runs every stage
(frontend -> normalization -> source training -> transfer surgery ->
adaptation -> filter tap -> DCT -> SVM -> evaluation), and prints the
per-condition report. A scaled-down version of the full benchmark so it
finishes in well under a minute. The corpus and artifacts live in a
temporary directory that is removed when the demo ends.

Run:  python3 demos/04_end_to_end.py
"""

import tempfile
from pathlib import Path

from aecfeat.frontend import FrontendConfig
from aecfeat.network import TrainConfig
from aecfeat.pipeline import RunConfig, run_pipeline
from aecfeat.report import render_report
from aecfeat.synthetic import generate_dataset

with tempfile.TemporaryDirectory(prefix="aecfeat_demo_") as tmp:
    root = Path(tmp)
    manifest = generate_dataset(root / "data", n_source_classes=4,
                                n_target_classes=3, source_segments_per_class=4,
                                target_train_per_class=6, target_eval_per_class=4,
                                segment_s=1.0, seed=0)
    print("corpus:", len(manifest), "segments in", root / "data")

    cfg = RunConfig(
        frontend=FrontendConfig(input_mode="dft_mag", splice_context=3),
        sl_widths=(64, 64, 64), tl1_dim=48, tl2_dim=40,
        source_train=TrainConfig(lr0=0.05, max_epochs_per_stage=6, seed=0),
        target_train=TrainConfig(lr0=0.05, max_epochs_per_stage=8, seed=0),
        transform="dct", transform_dim=16,
        classifier="svm", svm_frame_step=4,
        variant="C", seed=0, out_dir=str(root / "run"))

    report, paths = run_pipeline(cfg, manifest)
    print(render_report(report))
    print("artifacts:")
    for name, path in paths.items():
        print(f"  {name}: {path}")
