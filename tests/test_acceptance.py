"""End-user acceptance checks, one per shipped guarantee.

Each test prints a single [PASS]/[FAIL] line with the measured value so the
whole gate can be read from the test log (run with `pytest -s` to see the
lines for passing tests too).
"""

import os
import shutil
import time
import tracemalloc

import numpy as np
import pytest
from scipy.special import expit

from aecfeat.audio import AudioSegment, mix_noise
from aecfeat.classifiers import SMO_TOL, KernelRows, rbf_kernel, smo_solve
from aecfeat.frontend import FrontendConfig
from aecfeat.network import (
    TrainConfig,
    cross_entropy,
    grad,
    init_mlp,
    one_hot,
    predict,
)
from aecfeat.pipeline import (RunConfig, frontend_features, run_pipeline,
                              stage_adapt, stage_extract, stage_train_source)
from aecfeat.report import render_table
from aecfeat.synthetic import generate_dataset
from aecfeat.transfer import adapt, build_filter, extract, strip_output
from aecfeat.transforms import DctSpec, dct_apply, dct_basis, pca_apply, pca_fit
from test_classifiers import svm_dual_objective
from test_pipeline import check_golden_run, run_hashes


def check(name, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


# --- 1. analytic gradients vs central finite differences -------------------

def finite_diff_grads(net, x, y, h=1e-5):
    grads = []
    for layer in net.layers:
        gw = np.zeros_like(layer.w)
        for idx in np.ndindex(*layer.w.shape):
            orig = layer.w[idx]
            layer.w[idx] = orig + h
            up = cross_entropy(predict(net, x), y)
            layer.w[idx] = orig - h
            down = cross_entropy(predict(net, x), y)
            layer.w[idx] = orig
            gw[idx] = (up - down) / (2 * h)
        gb = np.zeros_like(layer.b)
        for i in range(len(layer.b)):
            orig = layer.b[i]
            layer.b[i] = orig + h
            up = cross_entropy(predict(net, x), y)
            layer.b[i] = orig - h
            down = cross_entropy(predict(net, x), y)
            layer.b[i] = orig
            gb[i] = (up - down) / (2 * h)
        grads.append((gw, gb))
    return grads


def test_gradient_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    worst = 0.0
    for trial in range(20):
        in_dim = int(rng.integers(2, 6))
        hidden = int(rng.integers(3, 7))
        n_classes = int(rng.integers(2, 5))
        net = init_mlp(in_dim, (hidden,), n_classes, seed=trial)
        x = rng.standard_normal((5, in_dim))
        y = one_hot(rng.integers(0, n_classes, 5), n_classes)
        analytic, _ = grad(net, x, y)
        numeric = finite_diff_grads(net, x, y)
        for (aw, ab), (nw, nb) in zip(analytic, numeric):
            for a, n in ((aw, nw), (ab, nb)):
                denom = np.maximum(np.maximum(np.abs(a), np.abs(n)), 1e-6)
                worst = max(worst, float(np.max(np.abs(a - n) / denom)))
    elapsed = time.perf_counter() - t0
    check("gradient-oracle",
          worst < 1e-4 and elapsed < 10.0,
          f"20 nets, max relative error {worst:.2e} (< 1e-4), "
          f"{elapsed:.1f} s (< 10 s)")


# --- 2. FFT magnitude vs naive DFT; Parseval -------------------------------

def test_dft_oracle():
    from aecfeat.frontend import dft_half_spectrum

    rng = np.random.default_rng(1)
    n = 1024
    # naive O(N^2) evaluation of the transform definition
    w = np.exp(-2j * np.pi * np.outer(np.arange(512), np.arange(n)) / n)
    worst = 0.0
    worst_parseval = 0.0
    for _ in range(100):
        frame = rng.standard_normal(n)
        fast = np.abs(dft_half_spectrum(frame[None]))[0]
        naive = np.abs(w @ frame)
        worst = max(worst, float(np.max(np.abs(fast - naive))))
        spec = np.fft.fft(frame)
        energy_freq = np.sum(np.abs(spec) ** 2) / n
        energy_time = np.sum(frame ** 2)
        worst_parseval = max(worst_parseval,
                             abs(energy_freq - energy_time) / energy_time)
    check("dft-oracle",
          worst <= 1e-9 and worst_parseval <= 1e-6,
          f"100 frames, max |fft - naive| {worst:.2e} (<= 1e-9), "
          f"Parseval relative error {worst_parseval:.2e} (<= 1e-6)")


# --- 3. frozen layers untouched by >= 50 epochs of adaptation --------------

def test_freeze_invariant():
    rng = np.random.default_rng(2)
    trunk = strip_output(init_mlp(6, (10, 10, 10), 5, seed=0))
    before = [(l.w.copy(), l.b.copy()) for l in trunk.layers]

    centers = rng.uniform(-4, 4, size=(3, 6))
    x = np.vstack([c + 0.5 * rng.standard_normal((40, 6)) for c in centers])
    y = np.repeat(np.arange(3), 40)
    cfg = TrainConfig(lr0=0.2, max_epochs_per_stage=25, n_lr_stages=2,
                      patience_epochs=10 ** 6, seed=0)
    trained, report = adapt(trunk, extract(trunk, [x], len(x)).values, y,
                            (8, 6), 3, cfg, seed=0)

    identical = all(np.array_equal(l.w, w0) and np.array_equal(l.b, b0)
                    for l, (w0, b0) in zip(trained.layers[:3], before))
    check("freeze-invariant",
          identical and report.final_epoch >= 50,
          f"{report.final_epoch} adaptation epochs, first three layers "
          f"bit-identical: {identical}")


# --- 4. EM log-likelihood monotone -----------------------------------------

def test_em_monotonicity():
    from aecfeat.classifiers import gmm_fit

    rng = np.random.default_rng(3)
    worst = 0.0
    for trial in range(10):
        x = (rng.standard_normal((150, 4))
             + rng.integers(0, 3, (150, 1)) * rng.uniform(1, 4))
        for k in (1, 2, 8):
            model = gmm_fit({"c": x}, k=k, seed=trial)
            hist = np.array(model.per_class["c"].ll_history)
            if len(hist) > 1:
                worst = min(worst, float(np.min(np.diff(hist))))
    check("em-monotonicity",
          worst >= -1e-8,
          f"10 datasets x K in {{1,2,8}}, worst log-likelihood step "
          f"{worst:.2e} (>= -1e-8)")


# --- 5. SMO vs exhaustive 2-point dual; KKT on 50-point problems -----------

def brute_force_two_point_dual(kmat, y, c, steps=2001, refinements=4):
    lo, hi = 0.0, c
    best, best_alpha = -np.inf, None
    for _ in range(refinements):
        grid = np.linspace(lo, hi, steps)
        step = grid[1] - grid[0]
        for a2 in grid:
            a1 = -y[1] * a2 * y[0]
            if not (0.0 <= a1 <= c):
                continue
            alpha = np.array([a1, a2])
            obj = svm_dual_objective(kmat, y, alpha)
            if obj > best:
                best = obj
                best_alpha = alpha
        lo = max(0.0, best_alpha[1] - step)
        hi = min(c, best_alpha[1] + step)
    return best


def test_svm_oracle():
    worst_gap = 0.0
    for c in (0.5, 1.0, 10.0, 100.0):
        for x2 in (0.3, 1.0, 2.5):
            x = np.array([[0.0], [x2]])
            y = np.array([1.0, -1.0])
            kmat = rbf_kernel(x, x, gamma=0.7)
            alpha, _ = smo_solve(kmat, y, c=c)
            obj = svm_dual_objective(kmat, y, alpha)
            best = brute_force_two_point_dual(kmat, y, c)
            worst_gap = max(worst_gap, abs(obj - best))

    # (seed, trials, rows, dims, label noise, c, gamma); the last two need
    # a long solve, and end with every alpha at a bound (no free alpha
    # pins the bias)
    problems = [(5, 5, 50, 3, 0.3, 5.0, 0.5),
                (1, 1, 100, 2, 0.5, 100.0, 0.1),
                (0, 1, 100, 2, 0.5, 1.0, 0.01)]
    worst_kkt = 0.0
    for seed, trials, n, d, noise, c, gamma in problems:
        rng = np.random.default_rng(seed)
        for trial in range(trials):
            x = rng.standard_normal((n, d))
            y = np.where(x[:, 0] + noise * rng.standard_normal(n) > 0, 1.0, -1.0)
            tol = SMO_TOL
            kmat = rbf_kernel(x, x, gamma)
            # the dense matrix and the rows-on-demand cache `svm_fit` uses
            for kernel in (kmat, KernelRows(x, gamma)):
                alpha, bias = smo_solve(kernel, y, c)
                margins = y * (kmat @ (alpha * y) + bias)
                for a, m in zip(alpha, margins):
                    if a < 1e-9:
                        worst_kkt = max(worst_kkt, 1.0 - m)
                    elif a > c - 1e-9:
                        worst_kkt = max(worst_kkt, m - 1.0)
                    else:
                        worst_kkt = max(worst_kkt, abs(m - 1.0))
    check("svm-oracle",
          worst_gap <= 1e-4 and worst_kkt <= 1e-3 + 1e-9,
          f"2-point dual gap {worst_gap:.2e} (<= 1e-4), "
          f"max KKT residual {worst_kkt:.2e} (<= 1e-3)")


# --- 6. transform guarantees ------------------------------------------------

def test_transforms():
    basis = dct_basis(150)
    ortho = float(np.max(np.abs(basis @ basis.T - np.eye(150))))
    spec = DctSpec(n_points=150, n_keep=150)
    rng = np.random.default_rng(6)
    x = rng.standard_normal((30, 150))
    round_trip = float(np.max(np.abs(dct_apply(spec, x) @ spec.basis - x)))

    data = rng.standard_normal((400, 8)) @ rng.standard_normal((8, 8))
    model = pca_fit(data, out_dim=5)
    proj = pca_apply(model, data)
    cov = np.cov(proj, rowvar=False)
    off = float(np.max(np.abs(cov - np.diag(np.diag(cov)))))
    check("transforms",
          ortho <= 1e-10 and round_trip <= 1e-9
          and off < 1e-6 * model.eigenvalues[0],
          f"DCT orthonormality {ortho:.2e} (<= 1e-10), round trip "
          f"{round_trip:.2e} (<= 1e-9), PCA off-diagonal covariance "
          f"{off:.2e} (< 1e-6 x top eigenvalue {model.eigenvalues[0]:.2e})")


# --- 7. SNR mixer accuracy --------------------------------------------------

def test_snr_mixer():
    rng = np.random.default_rng(7)
    worst = 0.0
    for pair in range(50):
        sig = AudioSegment(0.2 * np.tanh(rng.standard_normal(8000)))
        noise = AudioSegment(0.2 * np.tanh(rng.standard_normal(16000)))
        for snr in (5, 10, 15):
            mixed = mix_noise(sig, noise, snr, seed=pair)
            noise_est = mixed.samples - sig.samples
            measured = 10.0 * np.log10(np.mean(sig.samples ** 2)
                                       / np.mean(noise_est ** 2))
            worst = max(worst, abs(measured - snr))
    check("snr-mixer",
          worst <= 0.01,
          f"50 pairs x SNR in {{5,10,15}} dB, max |measured - requested| "
          f"{worst:.2e} dB (<= 0.01 dB)")


# --- 8. synthetic end-to-end benchmark --------------------------------------

def e2e_config(out_dir, variant, seed=0):
    return RunConfig(
        frontend=FrontendConfig(input_mode="dft_mag", splice_context=3),
        sl_widths=(256, 256, 256), tl1_dim=128, tl2_dim=150,
        source_train=TrainConfig(lr0=0.05, max_epochs_per_stage=8,
                                 batch_size=128, seed=seed),
        target_train=TrainConfig(lr0=0.05, max_epochs_per_stage=10,
                                 batch_size=128, seed=seed),
        transform="dct", transform_dim=50,
        classifier="svm", svm_c=10.0, svm_frame_step=8,
        variant=variant, seed=seed, out_dir=str(out_dir))


@pytest.fixture(scope="module")
def e2e(tmp_path_factory):
    root = tmp_path_factory.mktemp("e2e")
    t0 = time.perf_counter()
    manifest = generate_dataset(root / "data", seed=0)
    report_c, paths_c = run_pipeline(e2e_config(root / "c1", "C"), manifest)
    report_c2, paths_c2 = run_pipeline(e2e_config(root / "c2", "C"), manifest)
    report_b, _ = run_pipeline(e2e_config(root / "b", "B"), manifest)
    elapsed = time.perf_counter() - t0
    return {
        "c": report_c, "c2": report_c2, "b": report_b,
        "paths_c": paths_c, "paths_c2": paths_c2, "elapsed": elapsed,
        "root": root, "manifest": manifest,
    }


def test_synthetic_end_to_end(e2e):
    acc = e2e["c"].condition_accuracy("clean")
    identical = e2e["c"].to_json() == e2e["c2"].to_json()
    for key in ("filter", "transform", "classifier"):
        with open(e2e["paths_c"][key], "rb") as f1, \
                open(e2e["paths_c2"][key], "rb") as f2:
            identical = identical and f1.read() == f2.read()
    acc_b = e2e["b"].condition_accuracy("clean")
    print(f"[INFO] clean segment accuracy, transfer [C] vs target-only [B]: "
          f"{acc:.1f}% vs {acc_b:.1f}%")
    check("synthetic-end-to-end",
          acc >= 95.0 and identical and e2e["elapsed"] < 600.0,
          f"clean accuracy {acc:.1f}% (>= 95%), same-seed runs bit-identical: "
          f"{identical}, total runtime {e2e['elapsed']:.0f} s (< 600 s)")


def test_golden_run_e2e(e2e, request):
    # the runs the fixture already made, so no training is added
    check_golden_run(request, "e2e", {
        run: run_hashes(e2e["root"] / run) for run in ("c1", "c2", "b")})


def traced_peak(fn, *args):
    """The peak of the memory tracemalloc traces while fn(*args) runs."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_extraction_memory_bounded(e2e, tmp_path):
    # extraction streams segment by segment, so it never holds the split's
    # spliced frontend input at once
    cfg = e2e_config(tmp_path, "B")
    for name in ("norm_stats.aecf", "filter.aecf"):
        shutil.copy(e2e["root"] / "b" / name, tmp_path)
    peak = traced_peak(stage_extract, cfg, e2e["manifest"], "eval")
    with np.load(tmp_path / "features_eval.npz") as data:
        rows = len(data["taps"])
    spliced = rows * cfg.frontend.dims * 8
    check("extraction-memory",
          peak < spliced,
          f"eval extraction traced peak {peak / 1e6:.1f} MB (< spliced "
          f"input {spliced / 1e6:.1f} MB, {rows} frames)")


@pytest.mark.parametrize("stage, variant, inputs", [
    (stage_train_source, "C", ()),
    (stage_adapt, "C", ("norm_stats.aecf", "source_model.aecf")),
    (stage_adapt, "B", ("norm_stats.aecf",)),
], ids=["train-source-C", "adapt-C", "adapt-B"])
def test_training_memory_bounded(e2e, tmp_path, stage, variant, inputs):
    # a training stage holds the float64 frontend frames it still needs and
    # one float32 matrix of the normalized, unspliced frames it trains on,
    # 1 / splice_context of their spliced matrix; `train` gathers each
    # minibatch and, once, the validation rows spliced through the splice
    # index, so only the val_ratio share of the spliced matrix appears.
    # Train-source streams the target-train frames into the statistics and
    # keeps the source frames until they are normalized; adapt B keeps the
    # target-train frames until then. Adapt A/C streams the target frames
    # through the trunk with `extract` and trains on its outputs, so, like
    # extraction, it stays below the spliced matrix alone
    cfg = e2e_config(tmp_path, variant)
    manifest = e2e["manifest"]
    for name in inputs:
        shutil.copy(e2e["root"] / {"C": "c1", "B": "b"}[variant] / name,
                    tmp_path)
    trained = sum(map(len, frontend_features(cfg, manifest.select(
        *(("source",) if stage is stage_train_source else ("target", "train"))))))
    context = cfg.frontend.splice_context
    frontend = trained * cfg.frontend.dims // context * 8
    spliced = trained * cfg.frontend.dims * 4
    if stage is stage_adapt and variant != "B":
        bound, what = spliced, "float32 spliced frames"
    else:
        val = cfg.target_train.val_ratio if stage is stage_adapt else (
            cfg.source_train.val_ratio)
        bound = frontend + 1.25 * (spliced / context + val * spliced)
        what = (f"float64 frontend frames {frontend / 1e6:.1f} MB + 1.25 x "
                f"(float32 frames {spliced / context / 1e6:.1f} MB + "
                f"validation rows {val * spliced / 1e6:.1f} MB)")
    peak = traced_peak(stage, cfg, manifest)
    check("training-memory",
          peak < bound,
          f"{stage.__name__} {variant} traced peak {peak / 1e6:.1f} MB (< "
          f"{bound / 1e6:.1f} MB: {what})")


# --- 9. accuracy-table arithmetic fixture -----------------------------------

def test_report_fixture():
    conditions = ["living_5dB", "living_10dB", "living_15dB",
                  "office_5dB", "office_10dB", "office_15dB", "clean"]
    rows = {
        "baseline-cepstral": [79.7, 85.5, 94.5, 81.1, 87.6, 95.1, 96.1],
        "transfer-filter": [92.5, 96.3, 96.3, 93.7, 96.5, 96.5, 98.9],
    }
    text = render_table(rows, conditions)
    lines = {l.split()[0]: l.split()[-1] for l in text.splitlines()[-2:]}
    ok = (lines["baseline-cepstral"] == "88.5"
          and lines["transfer-filter"] == "95.8")
    check("report-fixture", ok,
          f"seven-condition averages render as {lines['baseline-cepstral']} "
          f"and {lines['transfer-filter']} (expect 88.5 and 95.8)")


# --- 10. variant link: [A] == sigmoid([C]) ----------------------------------

def test_ablation_link():
    rng = np.random.default_rng(10)
    trunk = strip_output(init_mlp(6, (10, 10, 10), 5, seed=0))
    x = rng.standard_normal((200, 6))
    y = rng.integers(0, 3, 200)
    comp, _ = adapt(trunk, extract(trunk, [x], len(x)).values, y, (8, 6), 3,
                    TrainConfig(lr0=0.2, max_epochs_per_stage=20, seed=0),
                    seed=0)
    x = rng.standard_normal((100, 6))
    a = extract(build_filter(comp, "A"), [x], len(x)).values
    c = extract(build_filter(comp, "C"), [x], len(x)).values
    # A and C compute the same pre-activation, so A is sigmoid(C) exactly
    gap = float(np.max(np.abs(a - expit(c))))
    check("ablation-link", np.array_equal(a, expit(c)),
          f"max |A - sigmoid(C)| {gap:.2e} (== 0) on 100 frames")
