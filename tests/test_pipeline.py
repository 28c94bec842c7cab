import argparse
import ctypes
import hashlib
import json
import os
import shutil
import threading
import time
import tracemalloc
import types
from dataclasses import fields, replace
from functools import partial
from math import inf, nan
from pathlib import Path

import numpy as np
import pytest

from aecfeat.audio import AudioSegment, read_wav, write_wav
from aecfeat.classifiers import svm_fit
from aecfeat.errors import AecError, StageError
from aecfeat.frontend import (FRAME_LEN, MODE_DIMS, FrontendConfig, NormStats,
                              apply_norm, splice, splice_index)
from aecfeat.manifest import Manifest, ManifestEntry, load_manifest, save_manifest
from aecfeat.network import Network, TrainConfig, init_mlp
from aecfeat.pipeline import RunConfig, default_svm_grid, run_pipeline
from aecfeat.prepare import prepare_conditions, prepare_source
from aecfeat.serialize import load_model, write_npz
from aecfeat.report import EvalReport, render_report, render_table
from aecfeat.synthetic import generate_dataset, generate_noise_wav
from aecfeat.transfer import build_filter, extract
from aecfeat import cli, network, prepare, transfer
from aecfeat import pipeline as pl


def write_tone_wav(path, seconds, seed=0, amplitude=0.3):
    rng = np.random.default_rng(seed)
    n = int(seconds * 16000)
    seg = AudioSegment(amplitude * np.tanh(rng.standard_normal(n)))
    write_wav(path, seg)
    return str(path)


def total_seconds(manifest, label):
    return sum(read_wav(e.wav_path).duration_s
               for e in manifest.entries if e.label == label)


class TestPrepareSource:
    def test_over_budget_class_is_cut(self, tmp_path):
        entries = [ManifestEntry(write_tone_wav(tmp_path / f"a{i}.wav", 2.0, seed=i),
                                 "a", "source", "train", "clean")
                   for i in range(3)]
        man = Manifest(entries)
        out = prepare_source(man, tmp_path / "prep", target_seconds=5.0,
                             seed=0)
        # a0 and a1 fill 4 s of the budget whole, and a2 gives a 1 s cut
        assert total_seconds(out, "a") == pytest.approx(5.0, abs=1e-3)
        cut = tmp_path / "prep" / "a_cut_4.wav"
        assert [e.wav_path for e in out.entries] == [entries[0].wav_path,
                                                     entries[1].wav_path,
                                                     str(cut)]
        samples = read_wav(cut).samples
        assert len(samples) == 16000
        whole = read_wav(entries[2].wav_path).samples
        assert any(np.array_equal(whole[i:i + len(samples)], samples)
                   for i in np.flatnonzero(whole == samples[0]))

    def test_under_budget_class_gets_reverberant_copies(self, tmp_path):
        entries = [ManifestEntry(write_tone_wav(tmp_path / "b0.wav", 1.0),
                                 "b", "source", "train", "clean")]
        man = Manifest(entries)
        out = prepare_source(man, tmp_path / "prep", target_seconds=3.0, seed=0)
        assert total_seconds(out, "b") >= 3.0
        assert len([e for e in out.entries if e.label == "b"]) > 1

    def test_impulse_rir_copies_are_bit_equal(self, tmp_path):
        path = write_tone_wav(tmp_path / "c0.wav", 1.0, seed=7)
        man = Manifest([ManifestEntry(path, "c", "source", "train", "clean")])
        out = prepare_source(man, tmp_path / "prep", target_seconds=2.5,
                             rir=np.array([1.0]), seed=0)
        original = read_wav(path).samples
        copies = [e for e in out.entries if e.label == "c" and e.wav_path != path]
        assert copies
        for e in copies:
            assert np.array_equal(read_wav(e.wav_path).samples, original)

    def test_cli_default_rir_is_prepare_sources(self, tmp_path):
        # one under-budget class: 6 s of audio, filled to 30 s with copies
        # reverberated by the response the flags describe
        man = Manifest([ManifestEntry(write_tone_wav(tmp_path / f"d{i}.wav",
                                                     3.0, seed=i),
                                      "d", "source", "train", "clean")
                        for i in range(2)])
        save_manifest(man, tmp_path / "m.csv")
        prepare_source(man, tmp_path / "ref", target_seconds=30.0, seed=0)
        copies = sorted(os.listdir(tmp_path / "ref"))
        assert len(copies) == 8
        written = {}
        for name, flags in (("default", []), ("short", ["--rir-length", "0.25"])):
            assert cli.main(["--out", str(tmp_path / name), "prepare-source",
                             str(tmp_path / "m.csv"), "--target-seconds", "30"]
                            + flags) == 0
            prep = tmp_path / name / "source_prep"
            assert sorted(os.listdir(prep)) == copies
            written[name] = [(prep / c).read_bytes() for c in copies]
        assert written["default"] == [(tmp_path / "ref" / c).read_bytes()
                                      for c in copies]
        assert all(a != b for a, b in zip(written["default"], written["short"]))

    def test_non_source_entries_pass_through(self, tmp_path):
        src = write_tone_wav(tmp_path / "s.wav", 1.0)
        tgt = write_tone_wav(tmp_path / "t.wav", 1.0, seed=1)
        man = Manifest([
            ManifestEntry(src, "s", "source", "train", "clean"),
            ManifestEntry(tgt, "t", "target", "train", "clean"),
        ])
        out = prepare_source(man, tmp_path / "prep", target_seconds=1.0, seed=0)
        assert any(e.wav_path == tgt and e.domain == "target"
                   for e in out.entries)


class TestPrepareConditions:
    def make_manifest(self, tmp_path, n_eval=2):
        entries = [ManifestEntry(write_tone_wav(tmp_path / f"e{i}.wav", 0.5, seed=i),
                                 "x", "target", "eval", "clean")
                   for i in range(n_eval)]
        entries.append(ManifestEntry(write_tone_wav(tmp_path / "tr.wav", 0.5, seed=9),
                                     "x", "target", "train", "clean"))
        return Manifest(entries)

    def noise(self, tmp_path, name, seed):
        rng = np.random.default_rng(seed)
        seg = AudioSegment(0.3 * np.tanh(rng.standard_normal(16000)))
        path = tmp_path / f"{name}.wav"
        write_wav(path, seg)
        return str(path)

    def test_condition_grid(self, tmp_path):
        man = self.make_manifest(tmp_path)
        noises = [self.noise(tmp_path, "office", 1), self.noise(tmp_path, "street", 2)]
        out = prepare_conditions(man, noises, tmp_path / "cond",
                                 snrs=(5, 10, 15), seed=0)
        conds = {e.condition for e in out.entries
                 if e.domain == "target" and e.split == "eval"}
        expected = {"clean"} | {f"{n}_{s}dB" for n in ("office", "street")
                                for s in (5, 10, 15)}
        assert conds == expected
        # 2 clean eval segments x (1 clean + 6 noisy) conditions
        n_eval = sum(1 for e in out.entries
                     if e.domain == "target" and e.split == "eval")
        assert n_eval == 14

    def test_measured_snr(self, tmp_path):
        man = self.make_manifest(tmp_path, n_eval=1)
        noises = [self.noise(tmp_path, "office", 1)]
        out = prepare_conditions(man, noises, tmp_path / "cond",
                                 snrs=(5, 10, 15), seed=0)
        clean = read_wav([e for e in out.entries
                          if e.split == "eval" and e.condition == "clean"][0].wav_path)
        for snr in (5, 10, 15):
            entry = [e for e in out.entries
                     if e.condition == f"office_{snr}dB"][0]
            mixed = read_wav(entry.wav_path)
            noise_est = mixed.samples - clean.samples
            measured = 10.0 * np.log10(np.mean(clean.samples ** 2)
                                       / np.mean(noise_est ** 2))
            assert measured == pytest.approx(snr, abs=0.01)

    def test_no_noises_means_clean_only(self, tmp_path):
        man = self.make_manifest(tmp_path)
        out = prepare_conditions(man, [], tmp_path / "cond", seed=0)
        assert [e.condition for e in out.entries] == [e.condition
                                                      for e in man.entries]

    def test_deterministic(self, tmp_path):
        man = self.make_manifest(tmp_path, n_eval=1)
        noises = [self.noise(tmp_path, "office", 1)]
        a = prepare_conditions(man, noises, tmp_path / "ca", snrs=(10,), seed=5)
        b = prepare_conditions(man, noises, tmp_path / "cb", snrs=(10,), seed=5)
        ea = [e for e in a.entries if e.condition == "office_10dB"][0]
        eb = [e for e in b.entries if e.condition == "office_10dB"][0]
        assert np.array_equal(read_wav(ea.wav_path).samples,
                              read_wav(eb.wav_path).samples)

    def test_int_and_float_snr_name_one_condition(self, tmp_path):
        # the CLI parses --snr as a float; Python callers often pass ints
        man = self.make_manifest(tmp_path, n_eval=1)
        noises = [self.noise(tmp_path, "office", 1)]
        a = prepare_conditions(man, noises, tmp_path / "ci", snrs=(5,), seed=0)
        b = prepare_conditions(man, noises, tmp_path / "cf", snrs=(5.0,),
                               seed=0)
        noisy_a = [e for e in a.entries if e.condition != "clean"]
        noisy_b = [e for e in b.entries if e.condition != "clean"]
        assert [e.condition for e in noisy_a] == ["office_5dB"]
        assert [e.condition for e in noisy_b] == ["office_5dB"]
        assert (open(noisy_a[0].wav_path, "rb").read()
                == open(noisy_b[0].wav_path, "rb").read())

    def test_repeated_noise_stem_rejected(self, tmp_path):
        man = self.make_manifest(tmp_path)
        (tmp_path / "a").mkdir()
        (tmp_path / "b").mkdir()
        noises = [self.noise(tmp_path / "a", "office", 1),
                  self.noise(tmp_path / "b", "office", 2)]
        with pytest.raises(AecError, match="noise file stem 'office'"):
            prepare_conditions(man, noises, tmp_path / "cond", snrs=(5,),
                               seed=0)
        assert not (tmp_path / "cond").exists()

    # 5 and 5.0000001 both name the condition office_5dB
    @pytest.mark.parametrize("snrs", [(5, 5), (5, 10, 5.0), (5, 5.0000001)])
    def test_repeated_snr_rejected(self, tmp_path, snrs):
        man = self.make_manifest(tmp_path, n_eval=4)
        noises = [self.noise(tmp_path, "office", 1)]
        with pytest.raises(AecError, match="SNR 5"):
            prepare_conditions(man, noises, tmp_path / "cond", snrs=snrs,
                               seed=0)
        assert not (tmp_path / "cond").exists()

    def test_short_noise_rejected_before_any_output(self, tmp_path):
        # the 1 s segment comes second, after a 0.5 s one the noise covers
        man = self.make_manifest(tmp_path, n_eval=1)
        long_seg = write_tone_wav(tmp_path / "long.wav", 1.0, seed=3)
        man = Manifest(man.entries[:1]
                       + [ManifestEntry(long_seg, "x", "target", "eval", "clean")]
                       + man.entries[1:])
        noise = write_tone_wav(tmp_path / "short.wav", 0.5, seed=1)
        with pytest.raises(AecError, match=r"noise short \(8000 samples\) "
                                           r"shorter than .*long\.wav \(16000\)"):
            prepare_conditions(man, [noise], tmp_path / "cond", snrs=(5,),
                               seed=0)
        assert not (tmp_path / "cond").exists()


GOLDEN_CORPUS = Path(__file__).resolve().parent / "golden_corpus_sha256.json"
# Recorded, after a change that alters artifact bytes on purpose, with
#   python -m pytest tests/test_pipeline.py tests/test_acceptance.py \
#       -k golden_run --record-golden-run
GOLDEN_RUN = Path(__file__).resolve().parent / "golden_run_sha256.json"


def openblas_core():
    """The kernel family numpy's bundled OpenBLAS chose for this CPU."""
    if network._OPENBLAS is None:
        return "none (numpy ships another BLAS)"
    corename = network._OPENBLAS.scipy_openblas_get_corename64_
    corename.argtypes, corename.restype = [], ctypes.c_char_p
    return corename().decode()


def run_hashes(out_dir):
    """SHA-256 of each artifact of one run that GOLDEN_RUN pins."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for pattern in ("*.aecf", "features_*.npz", "report.*")
            for p in sorted(Path(out_dir).glob(pattern))}


def check_golden_run(request, part, hashes):
    """Check {run: run_hashes} against the `part` of GOLDEN_RUN recorded
    for this OpenBLAS core and numpy version, since same-seed artifacts
    are bit-identical only on one kernel; with --record-golden-run,
    record them instead."""
    key = f"OpenBLAS core {openblas_core()}, numpy {np.__version__}"
    golden = json.loads(GOLDEN_RUN.read_text(encoding="utf-8"))
    if request.config.getoption("record_golden_run"):
        golden.setdefault(key, {})[part] = hashes
        GOLDEN_RUN.write_text(json.dumps(golden, indent=1, sort_keys=True)
                              + "\n", encoding="utf-8")
    elif part not in golden.get(key, {}):
        pytest.skip(f"no {part} golden run hashes recorded for {key}")
    else:
        assert hashes == golden[key][part]


def golden_corpora(root):
    """Build the small corpora whose bytes `GOLDEN_CORPUS` pins under
    `root`; returns {case: {path relative to the case's directory: SHA-256
    of the file}}, every wav and manifest.csv included."""
    root = Path(root)
    sizes = dict(n_source_classes=3, n_target_classes=2,
                 source_segments_per_class=2, target_train_per_class=3,
                 target_eval_per_class=2, segment_s=0.5)
    manifests = {seed: generate_dataset(root / f"dataset_seed{seed}", seed=seed,
                                        **sizes)
                 for seed in (0, 1)}
    generate_noise_wav(root / "noise", seed=99)
    noises = []
    for name, seed in (("hum", 5), ("babble", 6)):
        path = generate_noise_wav(root / f"noise_{name}", seed=seed)
        noises.append(os.path.join(os.path.dirname(path), f"{name}.wav"))
        os.replace(path, noises[-1])
    conditions = prepare_conditions(manifests[0], noises, root / "conditions",
                                    snrs=(0, 5, 10), seed=3)
    save_manifest(conditions, root / "conditions" / "manifest.csv")
    return {case: {str(p.relative_to(root / case)):
                   hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in sorted((root / case).iterdir())}
            for case in ("dataset_seed0", "dataset_seed1", "noise",
                         "conditions")}


class TestRunJobs:
    """`network._run_jobs`, which writes the corpus and the noisy
    conditions on one thread per CPU."""

    @pytest.mark.parametrize("cpus", [2, 4])
    def test_first_failure_in_job_order_is_raised(self, monkeypatch, cpus):
        monkeypatch.setattr(network, "_cpu_count", lambda: cpus)
        later_failed = threading.Event()

        def job(k):
            if k == 3:
                # job 5 fails first in time; job 3 fails first in order
                assert later_failed.wait(timeout=10)
                raise AecError("job 3")
            if k == 5:
                later_failed.set()
                raise AecError("job 5")

        before = threading.active_count()
        with pytest.raises(AecError, match="job 3"):
            network._run_jobs(partial(job, k) for k in range(12))
        assert threading.active_count() == before

    @pytest.mark.parametrize("cpus", [2, 4])
    def test_jobs_taken_ahead_are_bounded(self, monkeypatch, cpus):
        monkeypatch.setattr(network, "_cpu_count", lambda: cpus)
        lock, done, ahead, ran = threading.Lock(), [0], [], []

        def job(k):
            time.sleep(0.002)
            with lock:
                done[0] += 1
                ran.append(k)

        def jobs():
            for k in range(40):
                with lock:
                    ahead.append(k - done[0])
                yield partial(job, k)

        before = threading.active_count()
        network._run_jobs(jobs())
        assert threading.active_count() == before
        assert sorted(ran) == list(range(40))
        assert max(ahead) <= (min(cpus, network._MAX_THREADS)
                              * network._JOBS_PER_THREAD)
        assert max(ahead) > 1  # the jobs did run side by side

    def test_one_cpu_starts_no_thread(self, monkeypatch):
        monkeypatch.setattr(network, "_cpu_count", lambda: 1)
        before, seen = threading.active_count(), []

        def job(k):
            seen.append((k, threading.current_thread(),
                         threading.active_count()))

        network._run_jobs(partial(job, k) for k in range(5))
        assert seen == [(k, threading.current_thread(), before)
                        for k in range(5)]


class TestGoldenCorpus:
    """The synthetic corpus, its noise and the noisy conditions are
    written with the same bytes on any CPU count, and as the one-thread
    writer of earlier versions wrote them."""

    @pytest.mark.parametrize("cpus", [1, 4])
    def test_bytes_are_pinned(self, tmp_path, monkeypatch, cpus):
        monkeypatch.setattr(network, "_cpu_count", lambda: cpus)
        expected = json.loads(GOLDEN_CORPUS.read_text(encoding="utf-8"))
        assert golden_corpora(tmp_path) == expected

    def test_noise_is_drawn_on_the_calling_thread(self, tmp_path,
                                                  monkeypatch):
        # the threads only shape and write, so their scheduling cannot
        # change which draw a segment gets
        monkeypatch.setattr(network, "_cpu_count", lambda: 4)
        default_rng, draws = np.random.default_rng, []

        class RecordingRng:
            def __init__(self, seed):
                self.rng = default_rng(seed)

            def standard_normal(self, n):
                draws.append(threading.current_thread())
                return self.rng.standard_normal(n)

        monkeypatch.setattr(np.random, "default_rng", RecordingRng)
        manifest = generate_dataset(tmp_path, n_source_classes=2,
                                    n_target_classes=2,
                                    source_segments_per_class=3,
                                    target_train_per_class=3,
                                    target_eval_per_class=3, segment_s=0.25)
        assert draws == [threading.current_thread()] * len(manifest.entries)


class TestCrossValidate:
    GRID = default_svm_grid(3)
    LABELS = ["a"] * 5 + ["b"] * 5

    @staticmethod
    def numbered_taps(n):
        """Tap arrays of 3 columns whose every value is the segment index."""
        return [np.full((2, 3), float(i)) for i in range(n)]

    @classmethod
    def record_folds(cls, monkeypatch, accuracy):
        """Replace the fits and scores of a 5-fold search: fold j of grid
        point i reports accuracy(i, j). Returns the (fit, val) segment
        indices of each fold, in call order."""
        folds = []

        def fit(cfg, taps, labels):
            folds.append([int(t[0, 0]) for t in taps])

        def score(cfg, clf, taps, labels, conditions, classes):
            folds[-1] = (folds[-1], [int(t[0, 0]) for t in taps])
            point = cls.GRID.index({"c": cfg.svm_c, "gamma": cfg.svm_gamma})
            acc = accuracy(point, (len(folds) - 1) % 5)
            return types.SimpleNamespace(confusion={"fold": [[acc, 1 - acc],
                                                             [0, 0]]})

        monkeypatch.setattr(pl, "fit_classifier", fit)
        monkeypatch.setattr(pl, "evaluate", score)
        return folds

    def test_fold_structure(self, monkeypatch):
        labels = self.LABELS
        folds = self.record_folds(monkeypatch, lambda point, fold: 1.0)
        best, table = pl.cross_validate(RunConfig(out_dir="unused"),
                                        self.numbered_taps(10), labels, k=5)
        assert best == self.GRID[0]
        assert len(table) == 9 and all(len(accs) == 5 for accs in table)
        assert len(folds) == 45
        first = folds[:5]
        # stratified: every fold holds one segment of each class, the folds
        # partition the segments, and each fit is the rest
        assert all(sorted(labels[i] for i in val) == ["a", "b"]
                   for _, val in first)
        assert sorted(i for _, val in first for i in val) == list(range(10))
        assert all(sorted(fit + val) == list(range(10)) for fit, val in first)
        # every grid point sees the same folds
        assert folds[5:10] == first

    def test_picks_better_params(self, monkeypatch):
        # grid point 0 has the best single fold, point 4 the best mean
        def accuracy(point, fold):
            if point == 0:
                return 1.0 if fold == 0 else 0.0
            return 0.9 if point == 4 else 0.5

        self.record_folds(monkeypatch, accuracy)
        best, table = pl.cross_validate(RunConfig(out_dir="unused"),
                                        self.numbered_taps(10), self.LABELS,
                                        k=5)
        assert best == self.GRID[4]
        assert table[0] == [1.0, 0.0, 0.0, 0.0, 0.0]
        assert np.mean(table[4]) == pytest.approx(0.9)

    def test_tie_goes_to_first(self, monkeypatch):
        self.record_folds(monkeypatch, lambda point, fold: 0.8)
        best, _ = pl.cross_validate(RunConfig(out_dir="unused"),
                                    self.numbered_taps(10), self.LABELS, k=5)
        assert best == self.GRID[0]

    def test_too_few_segments(self):
        with pytest.raises(AecError, match="class a has 2 segments, need >= 5"):
            pl.cross_validate(RunConfig(out_dir="unused"),
                              self.numbered_taps(3), ["a", "a", "b"], k=5)

    @pytest.mark.parametrize("k", [0, 1])
    def test_fewer_than_two_folds_rejected(self, k):
        with pytest.raises(AecError, match=f"k={k}"):
            pl.cross_validate(RunConfig(out_dir="unused"),
                              self.numbered_taps(10), self.LABELS, k=k)

    def test_svm_folds_fit_the_frames_fit_classifier_selects(self, tmp_path,
                                                            monkeypatch):
        # column 0 names the segment, so a fit's rows tell which segments
        # its fold trained on; frame counts are not multiples of the step
        rng = np.random.default_rng(0)
        labels = ["a", "b"] * 3
        taps = [np.column_stack([np.full(n, float(s)),
                                 rng.standard_normal((n, 2))])
                for s, n in enumerate([5, 7, 4, 8, 6, 5])]
        cfg = RunConfig(transform="none", svm_frame_step=3,
                        out_dir=str(tmp_path))
        fits = []
        real_fit = pl.svm_fit

        def recording_fit(x, y, **kw):
            fits.append(x)
            return real_fit(x, y, **kw)

        monkeypatch.setattr(pl, "svm_fit", recording_fit)
        pl.cross_validate(cfg, taps, labels, k=2)
        fold_rows = fits[0]
        segs = sorted(set(fold_rows[:, 0].astype(int)))
        pl.fit_classifier(cfg, [taps[s] for s in segs],
                          [labels[s] for s in segs])
        assert np.array_equal(fold_rows, fits[-1])


def separable_taps(labels, frames=10, seed=0):
    """One tap array per label, frames clustered around a per-label centre
    far from the others."""
    rng = np.random.default_rng(seed)
    centres = {"a": (6.0, 0.0), "b": (0.0, 6.0), "c": (-6.0, -6.0)}
    return [centres[l] + 0.3 * rng.standard_normal((frames, 2))
            for l in labels]


class TestEvaluate:
    @pytest.mark.parametrize("classifier", ["gmm", "svm", "dnn"])
    def test_column_i_scores_sorted_class_i(self, classifier, tmp_path):
        labels = ["c", "a", "b"] * 3
        cfg = RunConfig(transform="none", classifier=classifier, gmm_k=1,
                        dnn_hidden=(8,),
                        target_train=TrainConfig(lr0=0.3,
                                                 max_epochs_per_stage=30),
                        out_dir=str(tmp_path))
        clf = pl.fit_classifier(cfg, separable_taps(labels), labels)
        eval_labels = ["b", "c", "a"]
        report = pl.evaluate(cfg, clf, separable_taps(eval_labels, seed=1),
                             eval_labels, ["clean"] * 3, ["a", "b", "c"])
        assert report.confusion["clean"] == [[1, 0, 0], [0, 1, 0], [0, 0, 1]]

    def test_score_width_must_match_classes(self, tmp_path):
        # an SVM fitted on three labels cannot score a two-class evaluation
        taps = separable_taps(["a", "b", "c"])
        clf = svm_fit(np.vstack(taps), np.repeat([0, 1, 2], 10), c=10.0,
                      gamma=0.5)
        cfg = RunConfig(transform="none", classifier="svm",
                        out_dir=str(tmp_path))
        with pytest.raises(AecError, match="scores 3 classes.* 2 training"):
            pl.evaluate(cfg, clf, taps[:1], ["a"], ["clean"], ["a", "b"])

    def test_no_segments_rejected(self, tmp_path):
        # an empty split has no accuracy; it must not read as 0 %
        taps = separable_taps(["a", "b"])
        clf = svm_fit(np.vstack(taps), np.repeat([0, 1], 10), c=10.0,
                      gamma=0.5)
        cfg = RunConfig(transform="none", classifier="svm",
                        out_dir=str(tmp_path))
        with pytest.raises(AecError, match="no segments to evaluate"):
            pl.evaluate(cfg, clf, [], [], [], ["a", "b"])


class TestRenderTable:
    def test_average_column(self):
        text = render_table({"m": [80.0, 90.0]}, ["clean", "5dB"])
        line = text.splitlines()[-1]
        assert line.split() == ["m", "80.0", "90.0", "85.0"]

    def test_rounding_at_one_decimal(self):
        text = render_table({"m": [88.44, 88.48]}, ["a", "b"])
        line = text.splitlines()[-1]
        assert line.split()[1:] == ["88.4", "88.5", "88.5"]

    def test_report_roundtrip(self):
        report = EvalReport(
            conditions=["clean"], classes=["a", "b"],
            confusion={"clean": [[3, 1], [0, 4]]}, variant="C")
        assert report.condition_accuracy("clean") == pytest.approx(87.5)
        assert report.condition_accuracy("clean", macro=True) == pytest.approx(87.5)
        d = json.loads(report.to_json())
        # (correct, total) per class: the diagonal and the row sums
        assert d["per_condition_class"] == {"clean": {"a": [3, 4], "b": [4, 4]}}
        assert d["grand_average"] == pytest.approx(87.5)
        text = render_report(report)
        assert "87.5" in text and "C" in text


def tiny_config(out_dir, variant="C", seed=0, classifier="svm"):
    tc = TrainConfig(max_epochs_per_stage=3, batch_size=32, seed=seed)
    return RunConfig(
        frontend=FrontendConfig(input_mode="dft_mag", splice_context=1),
        sl_widths=(16, 16, 16), tl1_dim=12, tl2_dim=10,
        source_train=tc, target_train=tc,
        transform="dct", transform_dim=6,
        classifier=classifier, gmm_k=2, svm_frame_step=2,
        dnn_hidden=(8, 8), variant=variant, seed=seed, out_dir=str(out_dir))


@pytest.fixture(scope="module")
def tiny_corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    manifest = generate_dataset(
        root, n_source_classes=3, n_target_classes=2,
        source_segments_per_class=2, target_train_per_class=3,
        target_eval_per_class=2, segment_s=0.5, seed=0)
    return root, manifest


@pytest.fixture(scope="module")
def one_eval_class_corpus(tmp_path_factory):
    """Three target classes, but the eval split holds only tgt00."""
    root = tmp_path_factory.mktemp("corpus3")
    full = generate_dataset(
        root, n_source_classes=3, n_target_classes=3,
        source_segments_per_class=2, target_train_per_class=3,
        target_eval_per_class=2, segment_s=0.5, seed=0)
    manifest = Manifest([e for e in full.entries
                         if e.split == "train" or e.label == "tgt00"])
    save_manifest(manifest, root / "manifest.csv")
    return root, manifest


@pytest.fixture(scope="module")
def unseen_eval_class_corpus(tmp_path_factory):
    """Three target classes, but tgt02 has no training segments."""
    root = tmp_path_factory.mktemp("corpus_unseen")
    full = generate_dataset(
        root, n_source_classes=3, n_target_classes=3,
        source_segments_per_class=2, target_train_per_class=3,
        target_eval_per_class=2, segment_s=0.5, seed=0)
    manifest = Manifest([e for e in full.entries
                         if not (e.domain == "target" and e.split == "train"
                                 and e.label == "tgt02")])
    save_manifest(manifest, root / "manifest.csv")
    return root, manifest


def load_spans():
    """perfbench/spans.py as a module, executed from its source so that
    nothing is written next to it."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    module = types.ModuleType("spans")
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"),
         module.__dict__)
    return module


STAGED_CHAIN = (["train-source", "MANIFEST"], ["adapt", "MANIFEST"],
                ["extract", "MANIFEST", "--split", "train"],
                ["extract", "MANIFEST", "--split", "eval"],
                ["fit-transform"], ["fit-classifier"], ["evaluate"])


def run_staged(cfg, manifest_path, cfg_path, chain=STAGED_CHAIN):
    """Run CLI subcommands in order; returns the exit codes."""
    cfg_path.write_text(json.dumps(cfg.to_dict()))
    base = ["--config", str(cfg_path), "--out", cfg.out_dir]
    return [cli.main(base + [str(manifest_path) if a == "MANIFEST" else a
                             for a in argv])
            for argv in chain]


def save_features(path, segments, labels, split="train"):
    """A features file in the layout `stage_extract` writes, from one tap
    array per segment, every segment in condition "clean"."""
    np.savez(path, taps=np.vstack(segments),
             lengths=np.array([len(t) for t in segments]),
             labels=np.array(labels),
             conditions=np.array(["clean"] * len(labels)),
             split=np.array(split))


@pytest.fixture(scope="module")
def staged_out(tiny_corpus, tmp_path_factory):
    """The output directory of the whole staged chain at `tiny_config`;
    copy it before changing anything in it."""
    root, _ = tiny_corpus
    work = tmp_path_factory.mktemp("staged")
    codes = run_staged(tiny_config(work / "out"), root / "manifest.csv",
                       work / "cfg.json")
    assert codes == [0] * len(STAGED_CHAIN)
    return work / "out"


class TestGoldenRun:
    """Same-seed `run`s at `tiny_config` write the same bytes as when
    GOLDEN_RUN was recorded; the acceptance module checks its `e2e`
    runs, whose wide layers take the trainer's two-thread split."""

    def test_golden_run_tiny(self, tiny_corpus, tmp_path, request):
        hashes = {}
        for variant in ("A", "B", "C"):
            for name, changes in (("svm", {}), ("gmm", {"classifier": "gmm"}),
                                  ("none", {"transform": "none"})):
                out = tmp_path / f"{variant}-{name}"
                run_pipeline(replace(tiny_config(out, variant), **changes),
                             tiny_corpus[1])
                hashes[f"{variant}-{name}"] = run_hashes(out)
        check_golden_run(request, "tiny", hashes)


class TestRunConfigValidation:
    @pytest.mark.parametrize("bad", [
        {"svm_frame_step": 0}, {"transform_dim": 0},
        {"transform": "dct", "transform_dim": 20, "tl2_dim": 10},
        {"transform": "pca", "transform_dim": 20, "tl2_dim": 10},
        {"sl_widths": (16, 0, 16)}, {"dnn_hidden": (8, -1)},
        {"tl1_dim": 0}, {"transform": "none", "tl2_dim": 0}, {"gmm_k": 0},
        {"svm_c": 0.0}, {"svm_c": -1.0}, {"svm_gamma": 0.0},
        {"svm_gamma": -0.5}, {"sl_widths": ()},
        {"sl_widths": (), "variant": "A"},
        {"target_train": {"batch_size": 0}},
        {"target_train": {"val_ratio": -0.5}},
        {"target_train": {"val_ratio": 1.0}},
        {"target_train": {"n_lr_stages": 0}},
        {"target_train": {"patience_epochs": 0}},
        {"target_train": {"max_epochs_per_stage": -1}},
        {"target_train": {"weight_decay": -1e-4}},
        {"source_train": {"lr0": 0.0}}])
    def test_rejected_at_construction(self, bad):
        with pytest.raises(AecError):
            RunConfig(**bad)

    @pytest.mark.parametrize("config, name, value, need", [
        (RunConfig, "frontend", 5, "FrontendConfig"),
        (RunConfig, "frontend", None, "FrontendConfig"),
        (RunConfig, "source_train", "x", "TrainConfig"),
        (RunConfig, "out_dir", 5, "str"), (RunConfig, "transform", None, "str"),
        (FrontendConfig, "window", 1, "str")])
    def test_nested_config_or_str_field_of_wrong_type_rejected(
            self, config, name, value, need):
        with pytest.raises(AecError, match=rf"{config.__name__}\.{name} must "
                                           rf"be a {need}, got {value!r}"):
            config(**{name: value})

    @pytest.mark.parametrize("config, bad, named", [
        (RunConfig, {"transform": "wavelet"}, "unknown transform 'wavelet'"),
        (RunConfig, {"classifier": "knn"}, "unknown classifier 'knn'"),
        (RunConfig, {"variant": "D"}, "unknown variant 'D'"),
        (FrontendConfig, {"hop": 0}, r"need 1 <= hop <= 1024"),
        (FrontendConfig, {"hop": 1025}, r"need 1 <= hop <= 1024"),
        (FrontendConfig, {"window": "hann"}, "unknown window 'hann'"),
        (FrontendConfig, {"input_mode": "mfcc"}, "unknown input_mode 'mfcc'"),
        (FrontendConfig, {"splice_context": 2},
         r"splice_context must be odd in 1\.\.7, got 2"),
        (TrainConfig, {"momentum": 1.0}, r"momentum must be in \[0, 1\)"),
        (TrainConfig, {"momentum": -0.1}, r"momentum must be in \[0, 1\)")])
    def test_unknown_or_out_of_range_value_is_named(self, config, bad, named):
        with pytest.raises(AecError, match=named):
            config(**bad)

    def test_transform_dim_unchecked_without_transform(self):
        RunConfig(transform="none", transform_dim=20, tl2_dim=10)

    def test_variant_b_needs_no_source_layers(self):
        # B trains its stack on target data only; no source head is cut off
        RunConfig(sl_widths=(), variant="B")

    NUMERIC_FIELDS = {  # config -> (int fields, float fields, int sequences)
        FrontendConfig: (("hop", "splice_context"), (), ()),
        TrainConfig: (("batch_size", "patience_epochs", "n_lr_stages",
                       "max_epochs_per_stage", "seed"),
                      ("lr0", "momentum", "weight_decay", "val_ratio",
                       "min_rel_improve"), ()),
        RunConfig: (("tl1_dim", "tl2_dim", "transform_dim", "gmm_k",
                     "svm_frame_step", "seed"), ("svm_c", "svm_gamma"),
                    ("sl_widths", "dnn_hidden"))}

    @pytest.mark.parametrize("config", list(NUMERIC_FIELDS),
                             ids=lambda c: c.__name__)
    def test_numeric_field_of_wrong_type_rejected(self, config):
        ints, floats, sequences = self.NUMERIC_FIELDS[config]
        # the table covers every field with a number or tuple default
        assert set(ints + floats + sequences) == {
            f.name for f in fields(config)
            if f.name == "svm_gamma"
            or type(f.default) in (int, float, tuple)}
        cases = ([(n, v) for n in ints for v in (2.5, 3.0, True, "3", None)]
                 + [(n, v) for n in floats
                    for v in (True, "0.5", [0.5], nan, inf, -inf)]
                 + [(n, v) for n in sequences
                    for v in ((8, 2.5), (8, True), ("8",), 8)]
                 + [(n, None) for n in floats if n != "svm_gamma"])
        for name, value in cases:
            with pytest.raises(AecError, match=rf"{config.__name__}\.{name} "
                                               rf"must be"):
                config(**{name: value})
        # an int is a real number
        config(**{n: 1 for n in floats if n not in ("momentum", "val_ratio")})


class TestRunPipeline:
    def test_artifacts_and_report(self, tiny_corpus, tmp_path):
        _, manifest = tiny_corpus
        cfg = tiny_config(tmp_path / "run")
        report, paths = run_pipeline(cfg, manifest)
        for key in ("norm_stats", "source_model", "filter",
                    "transform", "classifier", "report_json", "report_txt",
                    "features_train", "features_eval"):
            assert os.path.exists(paths[key]), key
        assert "composite" not in paths
        assert not os.path.exists(os.path.join(cfg.out_dir, "composite.aecf"))
        assert report.conditions == ["clean"]
        assert set(report.classes) == {"tgt00", "tgt01"}
        assert 0.0 <= report.grand_average() <= 100.0

    def test_every_stage_trims_the_heap(self, tiny_corpus, tmp_path,
                                        monkeypatch):
        trims = []
        monkeypatch.setattr(pl, "_MALLOC_TRIM", trims.append)
        run_pipeline(tiny_config(tmp_path / "run"), tiny_corpus[1])
        # train-source, adapt, 2 x extract, fit-transform, fit-classifier,
        # evaluate
        assert trims == [0] * 7
        trims.clear()
        with pytest.raises(StageError):
            with pl._stage("adapt"):
                raise AecError("boom")
        assert trims == [0]

    def test_stage_table_reads_the_rebound_stage_functions(
            self, tiny_corpus, tmp_path, monkeypatch):
        # the benchmark's tracer rebinds the stage functions on `pipeline`,
        # and `run` and the staged CLI must both reach the rebound ones
        calls = []
        real = pl.stage_fit_classifier

        def recording(cfg):
            calls.append(cfg.out_dir)
            return real(cfg)

        monkeypatch.setattr(pl, "stage_fit_classifier", recording)
        cfg = tiny_config(tmp_path / "run")
        run_pipeline(cfg, tiny_corpus[1])
        assert run_staged(cfg, None, tmp_path / "cfg.json",
                          chain=[["fit-classifier"]]) == [0]
        assert calls == [cfg.out_dir] * 2

    def test_every_artifact_is_stamped(self, tiny_corpus, tmp_path):
        cfg = tiny_config(tmp_path / "run")
        run_pipeline(cfg, tiny_corpus[1])
        stats = load_model(os.path.join(cfg.out_dir, "norm_stats.aecf"))
        names = sorted(n for n in os.listdir(cfg.out_dir) if n.endswith(".aecf"))
        assert names == ["classifier.aecf", "filter.aecf", "norm_stats.aecf",
                         "source_model.aecf", "transform.aecf"]
        for name in names:
            _, stamp = load_model(os.path.join(cfg.out_dir, name),
                                  with_meta=True)
            expected = {"config_fingerprint": cfg.fingerprint(),
                        "seed": cfg.seed}
            if name in ("source_model.aecf", "filter.aecf"):
                expected["input_fingerprint"] = pl._input_fingerprint(cfg, stats)
            assert stamp == expected, name

    def test_deterministic(self, tiny_corpus, tmp_path):
        _, manifest = tiny_corpus
        r1, p1 = run_pipeline(tiny_config(tmp_path / "a"), manifest)
        r2, p2 = run_pipeline(tiny_config(tmp_path / "b"), manifest)
        assert r1.to_json() == r2.to_json()
        for key in ("filter", "classifier", "transform"):
            assert (open(p1[key], "rb").read() == open(p2[key], "rb").read()), key

    def test_variant_b_skips_source_training(self, tiny_corpus, tmp_path):
        _, manifest = tiny_corpus
        report, paths = run_pipeline(tiny_config(tmp_path / "b", variant="B"),
                                     manifest)
        assert "source_model" not in paths
        assert report.variant == "B"

    @pytest.mark.parametrize("mode", sorted(MODE_DIMS))
    def test_every_input_mode_runs(self, tiny_corpus, tmp_path, mode):
        # dft_real_imag and concat hold DFT bin 0's imaginary part, which is
        # always 0, so its std is floored and must survive the float32 file
        cfg = replace(tiny_config(tmp_path / mode, variant="B"),
                      frontend=FrontendConfig(input_mode=mode))
        report, _ = run_pipeline(cfg, tiny_corpus[1])
        assert report.conditions == ["clean"]

    def test_gmm_backend(self, tiny_corpus, tmp_path):
        _, manifest = tiny_corpus
        report, _ = run_pipeline(tiny_config(tmp_path / "g", classifier="gmm"),
                                 manifest)
        assert report.conditions == ["clean"]

    def test_stage_error_names_stage(self, tiny_corpus, tmp_path):
        _, manifest = tiny_corpus
        no_target = Manifest([e for e in manifest.entries if e.domain == "source"])
        with pytest.raises(StageError,
                           match="no target training entries") as e:
            run_pipeline(tiny_config(tmp_path / "x"), no_target)
        assert e.value.stage == "train-source"
        assert os.listdir(tmp_path / "x") == []

    def test_empty_eval_split_fails_in_extract(self, tiny_corpus, tmp_path):
        _, manifest = tiny_corpus
        no_eval = Manifest([e for e in manifest.entries if e.split == "train"])
        with pytest.raises(StageError, match="no target eval entries") as e:
            run_pipeline(tiny_config(tmp_path / "x"), no_eval)
        assert e.value.stage == "extract"
        assert not (tmp_path / "x" / "features_eval.npz").exists()
        assert not (tmp_path / "x" / "report.json").exists()

    def test_truncated_eval_wav_fails_in_extract(self, tiny_corpus, tmp_path):
        # the frame counts come from the wav headers, so a file whose data
        # is shorter than its header declares must fail when it is read
        _, manifest = tiny_corpus
        entries = list(manifest.entries)
        i = next(k for k, e in enumerate(entries) if e.split == "eval")
        cut = tmp_path / "cut.wav"
        cut.write_bytes(Path(entries[i].wav_path).read_bytes()[:-3000])
        entries[i] = replace(entries[i], wav_path=str(cut))
        with pytest.raises(StageError, match=r"cut\.wav: truncated") as e:
            run_pipeline(tiny_config(tmp_path / "x"), Manifest(entries))
        assert e.value.stage == "extract"
        assert not (tmp_path / "x" / "features_eval.npz").exists()
        assert not (tmp_path / "x" / "report.json").exists()

    def test_eval_wav_shorter_than_a_frame_is_named(
            self, tiny_corpus, staged_out, tmp_path, capsys):
        # `run` and the staged `extract --split eval` both count the
        # split's frames from the wav headers before extracting
        _, manifest = tiny_corpus
        entries = list(manifest.entries)
        i = next(k for k, e in enumerate(entries) if e.split == "eval")
        short = tmp_path / "short.wav"
        write_wav(short, AudioSegment(np.full(1000, 0.1)))
        entries[i] = replace(entries[i], wav_path=str(short))
        save_manifest(Manifest(entries), tmp_path / "short.csv")
        staged = tmp_path / "staged"
        shutil.copytree(staged_out, staged)
        (staged / "features_eval.npz").unlink()
        for cfg, chain in ((tiny_config(tmp_path / "run"), [["run", "MANIFEST"]]),
                           (tiny_config(staged), [STAGED_CHAIN[3]])):
            rc = run_staged(cfg, tmp_path / "short.csv", tmp_path / "cfg.json",
                            chain=chain)
            assert rc == [2]
            err = capsys.readouterr().err
            assert (f"{short}: segment has 1000 samples, need at least "
                    f"{FRAME_LEN}") in err
            assert not (Path(cfg.out_dir) / "features_eval.npz").exists()

    def test_training_wav_shorter_than_a_frame_is_named(self, tiny_corpus,
                                                        tmp_path):
        # the statistics read every training wav's samples, not its header
        _, manifest = tiny_corpus
        entries = list(manifest.entries)
        i = next(k for k, e in enumerate(entries) if e.domain == "source")
        short = tmp_path / "short.wav"
        write_wav(short, AudioSegment(np.full(1000, 0.1)))
        entries[i] = replace(entries[i], wav_path=str(short))
        with pytest.raises(StageError, match=rf"short\.wav: segment has 1000 "
                                             rf"samples, need at least "
                                             rf"{FRAME_LEN}") as e:
            run_pipeline(tiny_config(tmp_path / "x"), Manifest(entries))
        assert e.value.stage == "train-source"

    def test_manifest_path_is_rejected_up_front(self, tiny_corpus, tmp_path):
        root, _ = tiny_corpus
        path = str(root / "manifest.csv")
        with pytest.raises(AecError, match="load_manifest") as e:
            run_pipeline(tiny_config(tmp_path / "x"), path)
        assert not isinstance(e.value, StageError)
        assert path in str(e.value)
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("variant", ["C", "B"])
    def test_traced_benchmark_smoke(self, tiny_corpus, tmp_path, variant):
        # the per-layer benchmark wraps these functions from outside and
        # reads their arguments and results: the class constant
        # `Layer.frozen` of each layer `grad` is given, which is False for
        # every layer, and `.rows` of what `make_frontend_features` and
        # `extract` return; `extract` takes a split's segments, so one call
        # taps each split, and for variant C one more forwards the trunk
        # over target-train in adapt
        spans = load_spans()
        _, manifest = tiny_corpus
        cfg = tiny_config(tmp_path / "run", variant=variant)
        with spans.Tracer() as tracer:
            pl.run_pipeline(cfg, manifest)
        metrics = spans.per_layer_metrics(tracer)
        for name in ("network.grad.calls", "network.train.epochs",
                     "network.grad.gflop", "transfer.adapt.s",
                     "transforms.dct_apply.s"):
            assert metrics[name]["value"] > 0, name
        assert metrics["network.grad.frozen_gflop"]["value"] == 0

        def frames(*select):
            return sum((len(read_wav(e.wav_path)) - FRAME_LEN)
                       // cfg.frontend.hop + 1 for e in manifest.select(*select))

        taps = 0
        for split in ("train", "eval"):
            with np.load(tmp_path / "run" / f"features_{split}.npz") as data:
                taps += data["lengths"].sum()
        trunk = 0 if variant == "B" else frames("target", "train")
        assert metrics["transfer.extract.rows"]["value"] == taps + trunk
        assert metrics["transfer.extract.calls"]["value"] == (
            2 if variant == "B" else 3)

        # train-source reads the source and target-train frames, adapt and
        # extract read target-train again, and extract reads eval
        expected = (frames("source") + 3 * frames("target", "train")
                    + frames("target", "eval"))
        assert metrics["frontend.make_frontend_features.rows"]["value"] == expected


class TestCli:
    def test_run_smoke(self, tiny_corpus, tmp_path, capsys):
        root, _ = tiny_corpus
        cfg = tiny_config(tmp_path / "cli_out")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg.to_dict()))
        rc = cli.main(["--config", str(cfg_path), "--out", str(tmp_path / "cli_out"),
                       "run", str(root / "manifest.csv")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "average" in out
        assert os.path.exists(tmp_path / "cli_out" / "report.json")

    def test_staged_commands(self, tiny_corpus, tmp_path, capsys):
        root, _ = tiny_corpus
        cfg = tiny_config(tmp_path / "staged")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg.to_dict()))
        base = ["--config", str(cfg_path), "--out", str(tmp_path / "staged")]
        man = str(root / "manifest.csv")
        assert cli.main(base + ["train-source", man]) == 0
        assert cli.main(base + ["adapt", man]) == 0
        assert cli.main(base + ["extract", man, "--split", "train"]) == 0
        assert cli.main(base + ["extract", man, "--split", "eval"]) == 0
        assert cli.main(base + ["fit-transform"]) == 0
        assert cli.main(base + ["fit-classifier"]) == 0
        assert cli.main(base + ["evaluate"]) == 0
        assert cli.main(base + ["report"]) == 0
        out = capsys.readouterr().out
        assert "average" in out
        assert os.path.exists(tmp_path / "staged" / "report.json")
        assert cli.main(base + ["cross-validate", "--k", "2"]) == 0
        best = json.loads(capsys.readouterr().out)["best"]
        assert best in default_svm_grid(cfg.transform_dim)

    # (subcommand, help, arguments) in `aecfeat --help` order, each argument
    # as `_arguments` records it; the global arguments come first, as None
    SURFACE = [
        (None, None, [(["--config"], None, None, None, None, False),
                      (["--seed"], "int", None, None, None, False),
                      (["--out"], None, None, None, None, False)]),
        ("synth-data", "generate the synthetic benchmark corpus", []),
        ("prepare-source", "normalize source classes to a length budget",
         [("manifest", None, None, None, None, True),
          (["--target-seconds"], "float", None, None, 800.0, False),
          (["--rir-wav"], None, None, None, None, False),
          (["--rt60"], "float", None, None, 0.7, False),
          (["--rir-length"], "float", None, None, 0.5, False)]),
        ("prepare-conditions", "create noisy eval conditions",
         [("manifest", None, None, None, None, True),
          (["--noise"], None, "+", None, None, True),
          (["--snr"], "float", "+", None, [5, 10, 15], False)]),
        ("run", "run every stage end to end",
         [("manifest", None, None, None, None, True)]),
        ("train-source",
         "fit norm stats and, for variants A/C, the source network",
         [("manifest", None, None, None, None, True)]),
        ("adapt", "surgery + target adaptation, builds the filter",
         [("manifest", None, None, None, None, True)]),
        ("extract", "tap filter features for a manifest split",
         [("manifest", None, None, None, None, True),
          (["--split"], None, None, ["train", "eval"], "train", False)]),
        ("fit-transform", "fit DCT/PCA on training features", []),
        ("fit-classifier", "fit the back-end classifier", []),
        ("evaluate", "score eval features per condition", []),
        ("report", "render a saved report.json",
         [(["--report"], None, None, None, None, False)]),
        ("cross-validate", "5-fold SVM hyperparameter search",
         [(["--k"], "int", None, None, 5, False)]),
    ]

    # each staged subcommand's exit code and stdout on `tiny_corpus` at
    # `tiny_config`, the output directory written as OUT
    STAGED_STDOUT = [
        (0, "OUT/norm_stats.aecf\nOUT/source_model.aecf\n"),
        (0, "OUT/filter.aecf\n"),
        (0, "OUT/features_train.npz\n"),
        (0, "OUT/features_eval.npz\n"),
        (0, "OUT/transform.aecf\n"),
        (0, "OUT/classifier.aecf\n"),
        (0, "Average classification rate [%] per condition\n"
            "method      clean  average\n"
            "--------------------------\n"
            "C            75.0     75.0\n"),
    ]

    @staticmethod
    def _arguments(parser):
        """Each argument of `parser` but -h and the subcommands: its option
        strings (a positional's name), type, nargs, choices, default and
        whether it is required."""
        return [(a.option_strings or a.dest, getattr(a.type, "__name__", None),
                 a.nargs, None if a.choices is None else list(a.choices),
                 a.default, a.required)
                for a in parser._actions
                if not isinstance(a, (argparse._HelpAction,
                                      argparse._SubParsersAction))]

    def test_surface_is_unchanged(self, tiny_corpus, tmp_path, capsys):
        # the parser's structure rather than its formatted --help text,
        # which differs between Python versions
        parser = cli.build_parser()
        sub = next(a for a in parser._actions
                   if isinstance(a, argparse._SubParsersAction))
        surface = [(None, None, self._arguments(parser))]
        surface += [(c.dest, c.help, self._arguments(sub.choices[c.dest]))
                    for c in sub._choices_actions]
        assert surface == self.SURFACE

        root, _ = tiny_corpus
        cfg = tiny_config(tmp_path / "out")
        printed = []
        for argv in STAGED_CHAIN:
            code, = run_staged(cfg, root / "manifest.csv",
                               tmp_path / "cfg.json", chain=[argv])
            printed.append((code, capsys.readouterr().out.replace(cfg.out_dir,
                                                                  "OUT")))
        assert printed == self.STAGED_STDOUT

    def test_extract_empty_split_exits_2(self, tiny_corpus, tmp_path, capsys):
        root, manifest = tiny_corpus
        cfg = tiny_config(tmp_path / "out")
        no_eval = tmp_path / "no_eval.csv"
        save_manifest(Manifest([e for e in manifest.entries
                                if e.split == "train"]), no_eval)
        codes = run_staged(cfg, no_eval, tmp_path / "cfg.json",
                           chain=STAGED_CHAIN[:4])
        assert codes == [0, 0, 0, 2]
        err = capsys.readouterr().err
        assert "stage 'extract' failed: no target eval entries" in err
        assert not (tmp_path / "out" / "features_eval.npz").exists()

    @pytest.mark.parametrize("variant", ["B", "C"])
    def test_train_source_refuses_source_eval_entries(self, tiny_corpus,
                                                      tmp_path, capsys,
                                                      variant):
        # normalization pools source and target-train frames, never eval
        _, manifest = tiny_corpus
        entries = list(manifest.entries)
        first = next(i for i, e in enumerate(entries) if e.domain == "source")
        entries[first] = replace(entries[first], split="eval")
        save_manifest(Manifest(entries), tmp_path / "source_eval.csv")
        codes = run_staged(tiny_config(tmp_path / "out", variant),
                           tmp_path / "source_eval.csv", tmp_path / "cfg.json",
                           chain=STAGED_CHAIN[:1])
        assert codes == [2]
        err = capsys.readouterr().err
        assert ("stage 'train-source' failed: refusing to fit normalization "
                "on evaluation frames") in err
        assert not (tmp_path / "out" / "norm_stats.aecf").exists()

    def test_train_source_refuses_no_target_train_entries(self, tiny_corpus,
                                                          tmp_path, capsys):
        # as `run` does: nothing is read or written before the refusal
        _, manifest = tiny_corpus
        save_manifest(Manifest([e for e in manifest.entries
                                if e.domain == "source"]),
                      tmp_path / "no_target.csv")
        codes = run_staged(tiny_config(tmp_path / "out"),
                           tmp_path / "no_target.csv", tmp_path / "cfg.json",
                           chain=STAGED_CHAIN[:1])
        assert codes == [2]
        err = capsys.readouterr().err
        assert ("stage 'train-source' failed: no target training entries"
                in err)
        assert os.listdir(tmp_path / "out") == []

    def test_commands_that_write_nothing_create_nothing(self, tmp_path,
                                                        monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "r.json").write_text(EvalReport(
            conditions=["clean"], classes=["a"], confusion={"clean": [[1]]},
            config_fingerprint="", variant="C").to_json())
        assert cli.main(["report", "--report", "r.json"]) == 0
        assert cli.main(["--out", "nowhere", "cross-validate"]) == 2
        err = capsys.readouterr().err
        assert "No such file or directory" in err and "features_train.npz" in err
        assert os.listdir(tmp_path) == ["r.json"]

    def test_commands_that_write_create_a_nested_out(self, tiny_corpus,
                                                     tmp_path, capsys):
        root, _ = tiny_corpus
        man = root / "manifest.csv"
        for name, chain in (("run", [["run", "MANIFEST"]]),
                            ("staged", STAGED_CHAIN)):
            out = tmp_path / name / "a" / "b"
            assert run_staged(tiny_config(out), man, tmp_path / "cfg.json",
                              chain=chain) == [0] * len(chain)
            assert (out / "report.json").exists()
        out = tmp_path / "synth" / "a" / "b"
        assert cli.main(["--out", str(out), "synth-data"]) == 0
        assert (out / "data" / "manifest.csv").exists()

    def test_relative_out_writes_loadable_manifests(self, tmp_path,
                                                    monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert cli.main(["--out", "rel", "synth-data"]) == 0
        assert cli.main(["--out", "rel", "prepare-source",
                         "rel/data/manifest.csv", "--target-seconds", "6"]) == 0
        assert cli.main(["--out", "rel", "prepare-conditions",
                         "rel/data/manifest.csv",
                         "--noise", "rel/data/babblelike.wav",
                         "--snr", "5"]) == 0
        assert "error" not in capsys.readouterr().err
        for name in ("data/manifest.csv", "manifest_source_prep.csv",
                     "manifest_conditions.csv"):
            path = tmp_path / "rel" / name
            n_rows = len(path.read_text().splitlines()) - 1
            assert len(load_manifest(path)) == n_rows > 0, name

    def test_missing_manifest_fails_nonzero(self, tmp_path, capsys):
        rc = cli.main(["--out", str(tmp_path / "o"), "run",
                       str(tmp_path / "nope.csv")])
        assert rc != 0
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", [
        {"svm_frame_step": 0}, {"transform_dim": 0}, {"transform_dim": 20},
        {"accumulate_log_domain": True}, {"frontend": {"frame_len": 1024}},
        {"svm_c": 0}, {"sl_widths": []},
        {"target_train": {"batch_size": 0}},
        {"target_train": {"n_lr_stages": 0}},
        {"source_train": {"val_ratio": -0.5}},
        {"svm_frame_step": 2.5}, {"frontend": {"hop": 256.5}},
        {"target_train": {"batch_size": 12.5}},
        # json.dumps writes these as NaN and Infinity, which json reads back
        {"svm_c": nan}, {"target_train": {"lr0": inf}},
        {"frontend": 5}, {"frontend": None}, {"source_train": "x"},
        {"out_dir": 5}, {"bogus": 1, "bogus2": 2}])
    def test_invalid_config_exits_before_any_artifact(self, tiny_corpus,
                                                      tmp_path, capsys, bad):
        # the message names the file and each bad field, a nested one by
        # its own name
        root, _ = tiny_corpus
        d = tiny_config(tmp_path / "out").to_dict()
        for key, value in bad.items():
            d[key] = {**d[key], **value} if isinstance(value, dict) else value
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(d))
        rc = cli.main(["--config", str(cfg_path), "--out", str(tmp_path / "out"),
                       "run", str(root / "manifest.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "stage 'run'" in err and "Traceback" not in err
        assert str(cfg_path) in err
        assert all(name in err for key, value in bad.items()
                   for name in (value if isinstance(value, dict) else [key]))
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("report, named", [
        ({"classes": []}, "conditions"),
        ([1, 2], "list"),
        ({"conditions": ["clean"], "classes": ["a", "b"],
          "confusion": {"clean": [[1, 0]]}, "config_fingerprint": "",
          "variant": "C"}, "clean"),
        ({"conditions": ["clean", "babble"], "classes": ["a"],
          "confusion": {"clean": [[1]]}, "config_fingerprint": "",
          "variant": "C"}, "babble"),
        ({"conditions": "clean", "classes": ["a"], "confusion": {},
          "config_fingerprint": "", "variant": "C"}, "lists of names"),
        ({"conditions": [], "classes": ["a"], "confusion": {},
          "config_fingerprint": "", "variant": "C"}, "at least one condition")],
        ids=["missing-keys", "not-an-object", "short-matrix", "no-matrix",
             "names-not-a-list", "no-conditions"])
    def test_bad_report_json_is_named(self, tmp_path, capsys, report, named):
        path = tmp_path / "r.json"
        path.write_text(json.dumps(report))
        rc = cli.main(["--out", str(tmp_path / "o"), "report", "--report",
                       str(path)])
        assert rc == 2
        err = capsys.readouterr().err
        assert str(path) in err and named in err and "Traceback" not in err

    @pytest.mark.parametrize("text, decoder", [
        ('{"seed": 1,', "line 1 column 12"), (b"\xff{}", "utf-8")],
        ids=["truncated", "not-utf-8"])
    @pytest.mark.parametrize("argv", [["--config", "PATH", "report"],
                                      ["report", "--report", "PATH"]],
                             ids=["config", "report"])
    def test_json_that_does_not_parse_is_named(self, tmp_path, capsys, argv,
                                               text, decoder):
        path = tmp_path / "bad.json"
        if isinstance(text, bytes):
            path.write_bytes(text)
        else:
            path.write_text(text)
        argv = [str(path) if a == "PATH" else a for a in argv]
        assert cli.main(["--out", str(tmp_path / "o"), *argv]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and "not valid JSON" in err
        assert decoder in err and "Traceback" not in err

    def test_config_that_is_not_an_object_is_named(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text("[1]")
        assert cli.main(["--config", str(cfg_path), "report"]) == 2
        err = capsys.readouterr().err
        assert str(cfg_path) in err and "JSON object" in err

    def test_non_finite_features_are_rejected_at_load(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        taps = np.ones((4, 10))
        taps[2, 3] = np.nan
        save_features(out / "features_train.npz", [np.zeros((4, 10)), taps],
                      ["a", "b"])
        cfg = tiny_config(out)
        cfg.transform = "none"
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg.to_dict()))
        rc = cli.main(["--config", str(cfg_path), "--out", str(out),
                       "fit-classifier"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "stage 'fit-classifier'" in err and "non-finite" in err
        assert "Traceback" not in err
        assert not (out / "classifier.aecf").exists()

    @pytest.mark.parametrize("change,stage,artifact", [
        ({"transform": "pca"}, "fit-classifier", "transform"),
        ({"transform": "pca"}, "evaluate", "transform"),
        ({"transform_dim": 2}, "fit-classifier", "transform"),
        ({"transform_dim": 2}, "evaluate", "transform"),
        ({"classifier": "gmm"}, "evaluate", "classifier")],
        ids=["pca-fit", "pca-evaluate", "dim2-fit", "dim2-evaluate",
             "gmm-evaluate"])
    def test_stale_artifact_is_rejected_at_load(self, staged_out, tmp_path,
                                                capsys, change, stage,
                                                artifact):
        # the chain ran with a 6-dim DCT and an SVM; the config then changed
        out = tmp_path / "out"
        shutil.copytree(staged_out, out)
        cfg = replace(tiny_config(out), **change)
        assert run_staged(cfg, None, tmp_path / "cfg.json",
                          chain=[[stage]]) == [2]
        err = capsys.readouterr().err
        assert f"stage '{stage}'" in err and f"{artifact}.aecf" in err
        assert "Traceback" not in err
        for name in ("classifier.aecf", "report.json"):
            assert (out / name).read_bytes() == (staged_out / name).read_bytes()

    def test_taps_of_another_width_are_rejected_at_load(
            self, staged_out, tiny_corpus, tmp_path, capsys):
        # adapt reruns with a narrower TL#2, but the taps are the old ones
        root, _ = tiny_corpus
        out = tmp_path / "out"
        shutil.copytree(staged_out, out)
        cfg = replace(tiny_config(out), tl2_dim=8, transform="none")
        codes = run_staged(cfg, root / "manifest.csv", tmp_path / "cfg.json",
                           chain=STAGED_CHAIN[1:2] + STAGED_CHAIN[4:])
        assert codes == [0, 0, 2, 2]
        err = capsys.readouterr().err
        for split, stage in (("train", "fit-classifier"), ("eval", "evaluate")):
            assert (f"stage '{stage}' failed: {out / f'features_{split}.npz'} "
                    f"holds taps of shape (") in err
            assert (f"not tl2_dim 8 wide; rerun `extract --split {split}`"
                    in err)
        assert "Traceback" not in err
        for name in ("classifier.aecf", "report.json"):
            assert (out / name).read_bytes() == (staged_out / name).read_bytes()

    @pytest.mark.parametrize("split,stage", [
        ("eval", ["evaluate"]), ("train", ["fit-classifier"]),
        ("train", ["cross-validate", "--k", "2"])],
        ids=["evaluate", "fit-classifier", "cross-validate"])
    def test_segment_of_another_split_is_rejected_at_load(self, staged_out,
                                                          tmp_path, capsys,
                                                          split, stage):
        out = tmp_path / "out"
        shutil.copytree(staged_out, out)
        path = out / f"features_{split}.npz"
        with np.load(path) as data:
            arrays = dict(data)
        other = "train" if split == "eval" else "eval"
        arrays["split"] = np.array(other)
        np.savez(path, **arrays)
        assert run_staged(tiny_config(out), None, tmp_path / "cfg.json",
                          chain=[stage]) == [2]
        err = capsys.readouterr().err
        assert f"stage '{stage[0]}'" in err and str(path) in err
        assert f"holds split '{other}', not '{split}'" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("split,stage", [
        ("eval", "evaluate"), ("train", "fit-classifier")])
    @pytest.mark.parametrize("field", ["labels", "conditions"])
    def test_label_count_mismatch_is_rejected_at_load(self, staged_out,
                                                      tmp_path, capsys,
                                                      split, stage, field):
        out = tmp_path / "out"
        shutil.copytree(staged_out, out)
        path = out / f"features_{split}.npz"
        with np.load(path) as data:
            arrays = dict(data)
        n = len(arrays["lengths"])
        arrays[field] = arrays[field][:-1]
        np.savez(path, **arrays)
        assert run_staged(tiny_config(out), None, tmp_path / "cfg.json",
                          chain=[[stage]]) == [2]
        err = capsys.readouterr().err
        assert f"stage '{stage}'" in err and str(path) in err
        assert f"holds {n} segments" in err
        assert "Traceback" not in err
        for name in ("classifier.aecf", "report.json"):
            assert (out / name).read_bytes() == (staged_out / name).read_bytes()

    # evaluate reads only the labels of features_train.npz, so of the
    # damaged training files only one without them reaches it
    @pytest.mark.parametrize("damage,split,stage", [
        (damage, split, stage)
        for split, stage in (("eval", "evaluate"), ("train", "fit-classifier"))
        for damage in ("fewer-rows", "more-rows", "empty-segment", "old-layout")
    ] + [("old-layout", "train", "evaluate")])
    def test_damaged_features_file_is_rejected_at_load(self, staged_out,
                                                       tmp_path, capsys,
                                                       split, stage, damage):
        out = tmp_path / "out"
        shutil.copytree(staged_out, out)
        path = out / f"features_{split}.npz"
        with np.load(path) as data:
            arrays = dict(data)
        lengths = arrays["lengths"]
        if damage == "fewer-rows":
            lengths[-1] -= 1
        elif damage == "more-rows":
            lengths[-1] += 1
        elif damage == "empty-segment":  # same total, one segment of 0
            lengths[1] += lengths[0]
            lengths[0] = 0
        else:  # one array per segment, as written before the tap matrix
            segments = np.split(arrays["taps"], np.cumsum(lengths)[:-1])
            arrays = {"__labels__": arrays["labels"],
                      "__conditions__": arrays["conditions"],
                      "__splits__": np.array([split] * len(lengths)),
                      **{f"seg{i:05d}": t for i, t in enumerate(segments)}}
        np.savez(path, **arrays)
        assert run_staged(tiny_config(out), None, tmp_path / "cfg.json",
                          chain=[[stage]]) == [2]
        err = capsys.readouterr().err
        assert f"stage '{stage}'" in err and str(path) in err
        assert (f"rerun `extract --split {split}`" if damage == "old-layout"
                else "frame counts must be >= 1 and sum to") in err
        assert "Traceback" not in err
        for name in ("classifier.aecf", "report.json"):
            assert (out / name).read_bytes() == (staged_out / name).read_bytes()

    def test_flipped_byte_in_features_file_is_named(self, staged_out,
                                                    tmp_path, capsys):
        # zip's CRC-32 of the taps member catches the flip when it is read
        out = tmp_path / "out"
        shutil.copytree(staged_out, out)
        path = out / "features_train.npz"
        with np.load(path) as data:
            taps = data["taps"]
        raw = bytearray(path.read_bytes())
        raw[raw.index(taps.tobytes()) + 7] ^= 0xFF
        path.write_bytes(bytes(raw))
        assert run_staged(tiny_config(out), None, tmp_path / "cfg.json",
                          chain=[["fit-classifier"]]) == [2]
        err = capsys.readouterr().err
        assert (f"stage 'fit-classifier' failed: {path} is not an intact npz "
                f"archive (Bad CRC-32 for file 'taps.npy')") in err
        assert "Traceback" not in err
        assert ((out / "classifier.aecf").read_bytes()
                == (staged_out / "classifier.aecf").read_bytes())

    def test_evaluate_reads_only_the_training_labels(self, staged_out,
                                                     tmp_path, monkeypatch):
        out = tmp_path / "out"
        shutil.copytree(staged_out, out)
        real = pl._load_features

        def eval_only(cfg, split):
            if split == "train":
                raise AssertionError("evaluate decoded the training taps")
            return real(cfg, split)

        monkeypatch.setattr(pl, "_load_features", eval_only)
        os.remove(out / "report.json")
        pl.stage_evaluate(tiny_config(out))
        assert ((out / "report.json").read_bytes()
                == (staged_out / "report.json").read_bytes())

    def test_report_prints_what_evaluate_printed(self, staged_out, tmp_path,
                                                 capsys):
        out = tmp_path / "out"
        shutil.copytree(staged_out, out)
        printed = []
        for stage in ("evaluate", "report"):
            assert run_staged(tiny_config(out), None, tmp_path / "cfg.json",
                              chain=[[stage]]) == [0]
            printed.append(capsys.readouterr().out)
        assert printed[0].startswith("Average classification rate")
        assert printed[1] == printed[0]

    def test_cross_validate_needs_two_folds(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        rng = np.random.default_rng(0)
        save_features(out / "features_train.npz",
                      [rng.standard_normal((4, 10)) for _ in range(4)],
                      ["a", "b", "a", "b"])
        cfg = tiny_config(out)
        cfg.transform = "none"
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg.to_dict()))
        rc = cli.main(["--config", str(cfg_path), "--out", str(out),
                       "cross-validate", "--k", "1"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "stage 'cross-validate'" in err and "k=1" in err
        assert "Traceback" not in err

    def test_unknown_eval_label_is_named(self, unseen_eval_class_corpus,
                                         tmp_path, capsys):
        root, _ = unseen_eval_class_corpus
        man = root / "manifest.csv"
        cfg = tiny_config(tmp_path / "run")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg.to_dict()))
        rc = cli.main(["--config", str(cfg_path), "--out", cfg.out_dir,
                       "run", str(man)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "stage 'evaluate'" in err
        assert "eval labels ['tgt02'] are not training classes" in err
        codes = run_staged(tiny_config(tmp_path / "staged"), man,
                           tmp_path / "cfg.json")
        assert codes == [0] * (len(STAGED_CHAIN) - 1) + [2]
        err = capsys.readouterr().err
        assert "stage 'evaluate'" in err
        assert "eval labels ['tgt02'] are not training classes" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("corpus,variant,transform", [
        ("tiny_corpus", "C", "dct"), ("tiny_corpus", "B", "dct"),
        ("one_eval_class_corpus", "C", "dct"), ("tiny_corpus", "C", "none")],
        ids=["tiny_corpus-C", "tiny_corpus-B", "one_eval_class_corpus-C",
             "tiny_corpus-C-no-transform"])
    def test_staged_chain_matches_run(self, corpus, variant, transform,
                                      request, tmp_path, capsys):
        root, manifest = request.getfixturevalue(corpus)
        cfg = replace(tiny_config(tmp_path / "run", variant=variant),
                      transform=transform)
        _, paths = run_pipeline(cfg, manifest)
        staged = tmp_path / "staged"
        capsys.readouterr()
        codes = run_staged(replace(cfg, out_dir=str(staged)),
                           root / "manifest.csv", tmp_path / "cfg.json")
        assert codes == [0] * len(STAGED_CHAIN)
        assert ((staged / "report.json").read_text()
                == open(paths["report_json"]).read())
        names = ["norm_stats", "filter", "classifier"]
        if transform == "none":
            assert "transform" not in paths
            assert not (staged / "transform.aecf").exists()
            assert "no transform configured\n" in capsys.readouterr().out
        else:
            names.append("transform")
        if variant == "C":
            names.append("source_model")
        else:
            assert not (staged / "source_model.aecf").exists()
        assert not (staged / "composite.aecf").exists()
        assert not (tmp_path / "run" / "composite.aecf").exists()
        for name in names:
            assert ((staged / f"{name}.aecf").read_bytes()
                    == open(paths[name], "rb").read()), name

    def test_seed_flag_sets_every_seed(self, tiny_corpus, tmp_path):
        # --seed 3 on a seed-0 config file is tiny_config(seed=3): the run
        # seed and both training seeds, so every stamp and model agrees
        root, manifest = tiny_corpus
        _, paths = run_pipeline(tiny_config(tmp_path / "lib", seed=3),
                                manifest)
        chains = {"run": [["run", "MANIFEST"]], "staged": STAGED_CHAIN}
        for name, chain in chains.items():
            out = tmp_path / name
            (tmp_path / "cfg.json").write_text(
                json.dumps(tiny_config(out).to_dict()))
            argv = ["--config", str(tmp_path / "cfg.json"), "--seed", "3",
                    "--out", str(out)]
            assert [cli.main(argv + [str(root / "manifest.csv")
                                     if a == "MANIFEST" else a for a in step])
                    for step in chain] == [0] * len(chain)
            for key in ("norm_stats", "source_model", "filter", "transform",
                        "classifier", "report_json"):
                assert ((out / os.path.basename(paths[key])).read_bytes()
                        == open(paths[key], "rb").read()), (name, key)

    @pytest.mark.parametrize("variant", ["A", "C"])
    def test_source_variant_without_source_entries_exits_2(
            self, tiny_corpus, tmp_path, capsys, variant):
        _, manifest = tiny_corpus
        save_manifest(Manifest([e for e in manifest.entries
                                if e.domain == "target"]),
                      tmp_path / "target_only.csv")
        # refused before the statistics are stored, from `run` or alone
        for command in ("run", "train-source"):
            out = tmp_path / command
            codes = run_staged(tiny_config(out, variant),
                               tmp_path / "target_only.csv",
                               tmp_path / "cfg.json",
                               chain=[[command, "MANIFEST"]])
            assert codes == [2]
            err = capsys.readouterr().err
            assert ("stage 'train-source' failed: variants A/C require "
                    "source-domain entries") in err
            assert "Traceback" not in err
            assert os.listdir(out) == []

    def test_staged_stages_rerun_on_run_output(self, tiny_corpus, tmp_path):
        # `run` leaves every artifact the staged chain reads, features too
        cfg = tiny_config(tmp_path / "run")
        _, paths = run_pipeline(cfg, tiny_corpus[1])
        before = {key: open(paths[key], "rb").read()
                  for key in ("classifier", "report_json")}
        codes = run_staged(cfg, None, tmp_path / "cfg.json",
                           chain=[["fit-classifier"], ["evaluate"]])
        assert codes == [0, 0]
        for key, data in before.items():
            assert open(paths[key], "rb").read() == data, key

    @pytest.mark.parametrize("stage,artifact", [("adapt", "source_model"),
                                                ("extract", "filter")])
    def test_staged_window_mismatch_is_rejected(self, tiny_corpus, tmp_path,
                                                capsys, stage, artifact):
        # the artifacts are built with a Hamming window; the stage that
        # loads them runs with a rectangular one
        root, _ = tiny_corpus
        cfg = tiny_config(tmp_path / "out")
        man = root / "manifest.csv"
        built = 1 if stage == "adapt" else 2
        assert run_staged(cfg, man, tmp_path / "cfg.json",
                          chain=STAGED_CHAIN[:built]) == [0] * built
        cfg.frontend = replace(cfg.frontend, window="rectangular")
        assert run_staged(cfg, man, tmp_path / "cfg.json",
                          chain=STAGED_CHAIN[built:built + 1]) == [2]
        err = capsys.readouterr().err
        assert f"stage '{stage}'" in err
        assert (f"{artifact}.aecf was built with different "
                f"frontend/normalization") in err

    def test_classifier_in_place_of_filter_is_rejected(self, tiny_corpus,
                                                       tmp_path, capsys):
        # a DNN back end is a network too, but it carries no input stamp
        root, _ = tiny_corpus
        cfg = tiny_config(tmp_path / "out", classifier="dnn")
        man = root / "manifest.csv"
        chain = STAGED_CHAIN[:3] + (["fit-transform"], ["fit-classifier"])
        assert run_staged(cfg, man, tmp_path / "cfg.json",
                          chain=chain) == [0] * len(chain)
        out = tmp_path / "out"
        shutil.copyfile(out / "classifier.aecf", out / "filter.aecf")
        assert run_staged(cfg, man, tmp_path / "cfg.json",
                          chain=[STAGED_CHAIN[3]]) == [2]
        err = capsys.readouterr().err
        assert "stage 'extract'" in err
        assert "filter.aecf was built with different frontend/normalization" in err
        assert not (out / "features_eval.npz").exists()

    def test_adapt_without_upstream_artifacts(self, tiny_corpus, tmp_path,
                                              capsys):
        root, _ = tiny_corpus
        rc = cli.main(["--out", str(tmp_path / "empty"), "adapt",
                       str(root / "manifest.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "adapt" in err and "Traceback" not in err


class TestParallelExtract:
    """`extract` packs a split's rows across segment boundaries into a
    staging buffer of BUFFER_ROWS rows and forwards each buffer with the
    trainer's worker thread when the affinity mask holds two CPUs or more;
    the taps must depend on neither the packing nor the CPU count."""

    FRAMES = (1, 63, 64, 65, 92, 130)  # ragged around 64 rows

    @pytest.fixture
    def ragged(self, tmp_path):
        """A config whose out_dir holds norm_stats.aecf and a random filter,
        and eval entries of FRAMES frames each."""
        cfg = tiny_config(tmp_path / "out")
        os.makedirs(cfg.out_dir)
        rng = np.random.default_rng(0)
        entries = []
        for i, frames in enumerate(self.FRAMES):
            n = 1024 + (frames - 1) * cfg.frontend.hop
            path = tmp_path / f"seg{i}.wav"
            write_wav(path, AudioSegment(0.3 * np.tanh(rng.standard_normal(n))))
            entries.append(ManifestEntry(str(path), f"tgt{i % 2:02d}",
                                         "target", "eval", "clean"))
        x = np.vstack(list(pl.frontend_features(cfg, entries)))
        pl.store(cfg, "norm_stats", NormStats(x.mean(0), x.std(0)))
        stats = pl._load(cfg, "norm_stats", NormStats)
        net = init_mlp(cfg.frontend.dims, (16, 16, 16, 12, 10), 2, seed=0)
        pl.store(cfg, "filter", build_filter(net, "C"), stats)
        return cfg, entries

    def reference(self, cfg, entries, monkeypatch):
        """Taps extracted one segment at a time on one thread, at the
        current BUFFER_ROWS."""
        stats = pl._load(cfg, "norm_stats", NormStats)
        filt = pl._load(cfg, "filter", Network, stats)
        with monkeypatch.context() as m:
            m.setattr(os, "sched_getaffinity", lambda pid: {0})
            return [extract(filt, [splice(apply_norm(frames, stats),
                                          cfg.frontend.splice_context)],
                            len(frames)).values
                    for frames in pl.frontend_features(cfg, entries)]

    # buffers of 64 and 128 rows fill several times and cut the 65-, 92-
    # and 130-frame segments; the default buffer holds the whole split
    @pytest.mark.parametrize("buffer_rows", [64, 128, transfer.BUFFER_ROWS])
    @pytest.mark.parametrize("cpus", [{0}, {0, 1, 2}, set(range(8))],
                             ids=["1-cpu", "3-cpus", "8-cpus"])
    def test_taps_equal_per_segment_extract(self, ragged, monkeypatch, cpus,
                                            buffer_rows):
        cfg, entries = ragged
        monkeypatch.setattr(transfer, "BUFFER_ROWS", buffer_rows)
        expected = self.reference(cfg, entries, monkeypatch)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
        pl.stage_extract(cfg, Manifest(entries), "eval")
        with np.load(pl.artifact_path(cfg, "features_eval.npz")) as data:
            assert data["lengths"].tolist() == list(self.FRAMES)
            assert np.array_equal(data["taps"], np.vstack(expected))

    @staticmethod
    def one_frame_more_in_seg2_header(cfg, monkeypatch):
        real = pl.wav_samples
        monkeypatch.setattr(pl, "wav_samples", lambda path: real(path) + (
            cfg.frontend.hop if Path(path).name == "seg2.wav" else 0))

    def test_frames_must_match_header_counts(self, ragged, monkeypatch):
        cfg, entries = ragged
        stats = pl._load(cfg, "norm_stats", NormStats)
        filt = pl._load(cfg, "filter", Network, stats)
        taps, lengths = pl._taps(cfg, entries, stats, filt)
        assert lengths == list(self.FRAMES)
        assert taps.shape == (sum(self.FRAMES), 10)
        self.one_frame_more_in_seg2_header(cfg, monkeypatch)
        with pytest.raises(AecError, match=r"seg2\.wav: 64 frames, but its "
                                           r"header gives 65"):
            pl._taps(cfg, entries, stats, filt)

    def test_trunk_frames_must_match_header_counts(self, ragged, monkeypatch):
        # variant C's trunk pass in `adapt` checks the counts too
        cfg, entries = ragged
        stats = pl._load(cfg, "norm_stats", NormStats)
        pl.store(cfg, "source_model",
                 init_mlp(cfg.frontend.dims, cfg.sl_widths, 2, seed=0), stats)
        train = Manifest([replace(e, split="train") for e in entries])
        self.one_frame_more_in_seg2_header(cfg, monkeypatch)
        with pytest.raises(AecError, match=r"seg2\.wav: 64 frames, but its "
                                           r"header gives 65"):
            pl.stage_adapt(cfg, train)

    def test_features_file_is_byte_identical_for_any_cpu_count(
            self, staged_out, tiny_corpus, tmp_path, monkeypatch):
        _, manifest = tiny_corpus
        files = []
        for cpus in ({0}, {0, 1, 2}):
            out = tmp_path / f"cpus{len(cpus)}"
            shutil.copytree(staged_out, out)
            (out / "features_train.npz").unlink()
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus)
            pl.stage_extract(tiny_config(out), manifest, "train")
            files.append((out / "features_train.npz").read_bytes())
        assert files[0] == files[1]
        assert files[0] == (staged_out / "features_train.npz").read_bytes()

    def test_filter_file_is_byte_identical_for_any_cpu_count_and_buffer(
            self, staged_out, tiny_corpus, tmp_path, monkeypatch):
        # adapt trains on the trunk outputs `extract` computes, so the
        # adapted filter inherits extraction's independence of the CPU
        # count; the buffer size is fixed, BUFFER_ROWS, and no longer varied
        _, manifest = tiny_corpus
        files = []
        for cpus in (1, 2):
            out = tmp_path / f"cpus{cpus}"
            shutil.copytree(staged_out, out)
            (out / "filter.aecf").unlink()
            monkeypatch.setattr(network, "_cpu_count", lambda: cpus)
            pl.stage_adapt(tiny_config(out), manifest)
            files.append((out / "filter.aecf").read_bytes())
        assert files == [(staged_out / "filter.aecf").read_bytes()] * 2

    def test_unreadable_wav_mid_split(self, staged_out, tiny_corpus, tmp_path,
                                      monkeypatch, capsys):
        # 12 segments of 14 frames come before the bad wav, so a buffer of
        # 128 rows has already been forwarded
        root, manifest = tiny_corpus
        out = tmp_path / "out"
        shutil.copytree(staged_out, out)
        (out / "features_eval.npz").unlink()
        evals = 6 * [e for e in manifest.entries
                     if e.domain == "target" and e.split == "eval"]
        bad = tmp_path / "unreadable.wav"
        bad.write_bytes(b"not a wav file")
        mid = len(evals) // 2
        evals[mid] = replace(evals[mid], wav_path=str(bad))
        save_manifest(Manifest(evals), tmp_path / "eval.csv")
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
        monkeypatch.setattr(transfer, "BUFFER_ROWS", 128)
        blas = network._OPENBLAS
        blas_before = blas and blas.scipy_openblas_get_num_threads64_()
        threads_before = threading.active_count()
        rc = run_staged(tiny_config(out), tmp_path / "eval.csv",
                        tmp_path / "cfg.json", chain=[STAGED_CHAIN[3]])
        assert rc == [2]
        err = capsys.readouterr().err
        assert "stage 'extract'" in err and str(bad) in err
        assert "Traceback" not in err
        assert not (out / "features_eval.npz").exists()
        assert (blas and blas.scipy_openblas_get_num_threads64_()) == blas_before
        assert threading.active_count() == threads_before


class TestFloat32Frames:
    """Frames are normalized in float64 and rounded to float32 once, into
    one unspliced matrix per stage, and spliced by gathering through
    `splice_index`; the trainer, the fixed trunk, the filter and the
    features file see float32 from there on."""

    @pytest.mark.parametrize("context", [1, 3, 7])
    def test_norm_and_splice_is_one_matrix_of_rounded_rows(self, context):
        rng = np.random.default_rng(0)
        lengths = (1, 2, 7, 92)
        mats = [rng.standard_normal((n, 512)) * 3.0 + 1.0 for n in lengths]
        stats = NormStats(rng.standard_normal(512), rng.uniform(0.5, 2.0, 512))
        cfg = replace(tiny_config("out"), frontend=FrontendConfig(
            input_mode="dft_mag", splice_context=context))
        x, index, y, classes = pl._training_frames(
            cfg, mats, ["b", "a", "b", "c"], stats)
        expected = np.vstack([splice(apply_norm(m, stats), context)
                              .astype(np.float32) for m in mats])
        assert x.dtype == np.float32 and x.flags.c_contiguous
        assert x.shape == (sum(lengths), 512)
        assert np.array_equal(x[index].reshape(len(x), -1), expected)
        assert classes == ["a", "b", "c"]
        assert np.array_equal(y, np.repeat([1, 0, 1, 2], lengths))

    def test_norm_and_splice_of_no_arrays_has_no_rows(self):
        cfg = replace(tiny_config("out"), frontend=FrontendConfig(
            input_mode="dft_mag", splice_context=3))
        x, index, y, classes = pl._training_frames(
            cfg, [], [], NormStats(np.zeros(512), np.ones(512)))
        assert x.shape == (0, 512) and x.dtype == np.float32
        assert index.shape == (0, 3) and len(y) == 0 and classes == []

    def test_features_file_holds_float32_taps(self, staged_out):
        for split in ("train", "eval"):
            with np.load(staged_out / f"features_{split}.npz") as data:
                assert data["taps"].dtype == np.float32, split

    @pytest.mark.parametrize("variant, stage, module", [
        ("C", "train-source", pl), ("B", "adapt", transfer)],
        ids=["source-net", "variant-b-adapt"])
    def test_train_gets_the_float64_frames_rounded_once(
            self, tiny_corpus, tmp_path, monkeypatch, variant, stage, module):
        _, manifest = tiny_corpus
        cfg = replace(tiny_config(tmp_path / "out", variant=variant),
                      frontend=FrontendConfig(input_mode="dft_mag",
                                              splice_context=3))
        os.makedirs(cfg.out_dir)
        seen, real_train = [], module.train

        def recording_train(net, x, y, train_cfg, index=None):
            assert x.dtype == np.float32 and x.shape[1] == 512
            seen.append(x[index].reshape(len(index), -1))
            return real_train(net, x, y, train_cfg, index)

        monkeypatch.setattr(module, "train", recording_train)
        pl.stage_train_source(cfg, manifest)
        if stage == "adapt":
            pl.stage_adapt(cfg, manifest)
        entries = (manifest.select("source") if stage == "train-source"
                   else manifest.select("target", "train"))
        stats = pl._load(cfg, "norm_stats", NormStats)
        expected = np.vstack([splice(apply_norm(m, stats), 3)
                              for m in pl.frontend_features(cfg, entries)])
        assert len(seen) == 1 and seen[0].dtype == np.float32
        assert np.array_equal(seen[0], expected.astype(np.float32))

    def test_pca_transform_does_not_depend_on_blas_threads(self, tmp_path):
        lib = network._OPENBLAS
        if lib is None:
            pytest.skip("numpy's bundled OpenBLAS is not loaded")
        cfg = replace(tiny_config(tmp_path), tl2_dim=150, transform="pca",
                      transform_dim=50)
        # whitened taps: their covariance is the identity up to rounding,
        # so the order in which the GEMM sums sets the components
        z = np.random.default_rng(0).standard_normal((7360, 150))
        z -= z.mean(axis=0)
        values, vectors = np.linalg.eigh(z.T @ z / (len(z) - 1))
        taps = (z @ vectors / np.sqrt(values)).astype(np.float32)
        save_features(pl.artifact_path(cfg, "features_train.npz"), [taps],
                      ["tgt00"])
        files, old = [], lib.scipy_openblas_get_num_threads64_()
        threads_before = threading.active_count()
        try:
            for threads in (1, 2):
                lib.scipy_openblas_set_num_threads64_(threads)
                pl.stage_fit_transform(cfg)
                files.append((tmp_path / "transform.aecf").read_bytes())
        finally:
            lib.scipy_openblas_set_num_threads64_(old)
        assert files[0] == files[1]
        # the PCA splits no layer, so the pin lends no worker a thread
        assert threading.active_count() == threads_before

    def test_dct_and_none_read_no_taps(self, staged_out, tmp_path):
        # a DCT takes tl2_dim points; no features_train.npz is there
        out = tmp_path / "out"
        out.mkdir()
        assert pl.stage_fit_transform(tiny_config(out)) == {
            "transform": str(out / "transform.aecf")}
        assert ((out / "transform.aecf").read_bytes()
                == (staged_out / "transform.aecf").read_bytes())
        (out / "transform.aecf").unlink()
        assert pl.stage_fit_transform(
            replace(tiny_config(out), transform="none")) == {}
        assert os.listdir(out) == []


class TestWriteNpz:
    """`stage_extract` writes features_<split>.npz, and `save_model` every
    model, with `serialize.write_npz`, which must write what `np.savez`
    writes, without its copy of each array."""

    @pytest.mark.parametrize("rows", [0, 1, 130])
    def test_bytes_equal_savez(self, tmp_path, rows):
        rng = np.random.default_rng(0)
        arrays = dict(
            taps=rng.standard_normal((rows, 10)).astype(np.float32),
            lengths=np.array([rows]),
            labels=np.array(["tgt00"]),
            conditions=np.array(["living_5dB"]),
            split=np.array("eval"))
        np.savez(tmp_path / "savez.npz", **arrays)
        write_npz(tmp_path / "write.npz", **arrays)
        assert ((tmp_path / "savez.npz").read_bytes()
                == (tmp_path / "write.npz").read_bytes())

    def test_writes_without_a_copy(self, tmp_path):
        taps = np.zeros((40000, 150), dtype=np.float32)
        tracemalloc.start()
        try:
            write_npz(tmp_path / "f.npz", taps=taps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 ** 20, peak
        with np.load(tmp_path / "f.npz") as data:
            assert np.array_equal(data["taps"], taps)
