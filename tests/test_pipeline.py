import json
import os

import numpy as np
import pytest

from aecfeat.audio import AudioSegment, read_wav, write_wav
from aecfeat.errors import StageError, TooFewSamples
from aecfeat.frontend import FeatureMatrix, FrontendConfig
from aecfeat.manifest import Manifest, ManifestEntry, load_manifest, save_manifest
from aecfeat.network import TrainConfig
from aecfeat.pipeline import (RunConfig, cross_validate, default_svm_grid,
                              run_pipeline)
from aecfeat.prepare import prepare_conditions, prepare_source
from aecfeat.report import EvalReport, render_report, render_table
from aecfeat.synthetic import generate_dataset, generate_noise_wav
from aecfeat import cli
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
        out = prepare_source(man, tmp_path / "prep", target_seconds=4.0, seed=0)
        # 6 s of audio trimmed to the 4 s budget (within one sample)
        assert total_seconds(out, "a") == pytest.approx(4.0, abs=1e-3)

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


class TestCrossValidate:
    def test_fold_structure(self):
        items = list(range(10))
        labels = ["a"] * 5 + ["b"] * 5
        seen = []

        def fn(params, tr, trl, val, vall):
            seen.append((len(val), sorted(set(vall))))
            return 1.0

        best, table = cross_validate(items, labels, [{"p": 1}], fn, k=5, seed=0)
        assert best == {"p": 1}
        assert len(table) == 1 and len(table[0]) == 5
        # stratified: every fold holds one segment of each class
        assert all(n == 2 and classes == ["a", "b"] for n, classes in seen)

    def test_picks_better_params(self):
        items = list(range(10))
        labels = ["a"] * 5 + ["b"] * 5
        grid = [{"gamma": 0.1}, {"gamma": 1.0}, {"gamma": 10.0}]

        def fn(params, tr, trl, val, vall):
            return {0.1: 0.5, 1.0: 0.9, 10.0: 0.7}[params["gamma"]]

        best, table = cross_validate(items, labels, grid, fn, k=5, seed=0)
        assert best == {"gamma": 1.0}
        assert np.mean(table[1]) == pytest.approx(0.9)

    def test_tie_goes_to_first(self):
        items = list(range(10))
        labels = ["a"] * 5 + ["b"] * 5
        grid = [{"p": "first"}, {"p": "second"}]
        best, _ = cross_validate(items, labels, grid,
                                 lambda *a: 0.8, k=5, seed=0)
        assert best == {"p": "first"}

    def test_too_few_segments(self):
        with pytest.raises(TooFewSamples):
            cross_validate([1, 2, 3], ["a", "a", "b"], [{}],
                           lambda *a: 1.0, k=5, seed=0)

    def test_svm_folds_fit_the_frames_fit_classifier_selects(self, tmp_path,
                                                            monkeypatch):
        # column 0 names the segment, so a fit's rows tell which segments
        # its fold trained on; frame counts are not multiples of the step
        rng = np.random.default_rng(0)
        labels = ["a", "b"] * 3
        taps = [FeatureMatrix(np.column_stack(
                    [np.full(n, float(s)), rng.standard_normal((n, 2))]),
                    split="train")
                for s, n in enumerate([5, 7, 4, 8, 6, 5])]
        cfg = RunConfig(transform="none", svm_frame_step=3,
                        out_dir=str(tmp_path))
        fits = []
        real_fit = pl.svm_fit

        def recording_fit(x, y, **kw):
            fits.append(x)
            return real_fit(x, y, **kw)

        monkeypatch.setattr(pl, "svm_fit", recording_fit)
        pl.select_svm_params(cfg, None, taps, labels, k=2)
        fold_rows = fits[0]
        segs = sorted(set(fold_rows[:, 0].astype(int)))
        pl.fit_classifier(cfg, None, [taps[s] for s in segs],
                          [labels[s] for s in segs])
        assert np.array_equal(fold_rows, fits[-1])


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
            per_condition_class={"clean": {"a": [3, 4], "b": [4, 4]}},
            confusion={"clean": [[3, 1], [0, 4]]}, variant="C")
        assert report.condition_accuracy("clean") == pytest.approx(87.5)
        assert report.condition_accuracy("clean", macro=True) == pytest.approx(87.5)
        d = json.loads(report.to_json())
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


class TestRunConfigValidation:
    @pytest.mark.parametrize("bad", [
        {"svm_frame_step": 0}, {"transform_dim": 0},
        {"transform": "dct", "transform_dim": 20, "tl2_dim": 10},
        {"transform": "pca", "transform_dim": 20, "tl2_dim": 10}])
    def test_rejected_at_construction(self, bad):
        with pytest.raises(ValueError):
            RunConfig(**bad)

    def test_transform_dim_unchecked_without_transform(self):
        RunConfig(transform="none", transform_dim=20, tl2_dim=10)


class TestRunPipeline:
    def test_artifacts_and_report(self, tiny_corpus, tmp_path):
        _, manifest = tiny_corpus
        cfg = tiny_config(tmp_path / "run")
        report, paths = run_pipeline(cfg, manifest)
        for key in ("norm_stats", "source_model", "composite", "filter",
                    "transform", "classifier", "report_json", "report_txt"):
            assert os.path.exists(paths[key]), key
        assert report.conditions == ["clean"]
        assert set(report.classes) == {"tgt00", "tgt01"}
        assert 0.0 <= report.grand_average() <= 100.0

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

    def test_gmm_backend(self, tiny_corpus, tmp_path):
        _, manifest = tiny_corpus
        report, _ = run_pipeline(tiny_config(tmp_path / "g", classifier="gmm"),
                                 manifest)
        assert report.conditions == ["clean"]

    def test_stage_error_names_stage(self, tiny_corpus, tmp_path):
        _, manifest = tiny_corpus
        no_target = Manifest([e for e in manifest.entries if e.domain == "source"])
        with pytest.raises(StageError) as e:
            run_pipeline(tiny_config(tmp_path / "x"), no_target)
        assert "load-manifest" in str(e.value)


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

    def test_missing_manifest_fails_nonzero(self, tmp_path, capsys):
        rc = cli.main(["--out", str(tmp_path / "o"), "run",
                       str(tmp_path / "nope.csv")])
        assert rc != 0
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", [
        {"svm_frame_step": 0}, {"transform_dim": 0}, {"transform_dim": 20},
        {"accumulate_log_domain": True}, {"frontend": {"frame_len": 1024}}])
    def test_invalid_config_exits_before_any_artifact(self, tiny_corpus,
                                                      tmp_path, capsys, bad):
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
        assert not (tmp_path / "out").exists()

    def test_non_finite_features_are_rejected_at_load(self, tmp_path, capsys):
        out = tmp_path / "out"
        out.mkdir()
        taps = np.ones((4, 10))
        taps[2, 3] = np.nan
        np.savez(out / "features_train.npz", __labels__=np.array(["a", "b"]),
                 __conditions__=np.array(["clean", "clean"]),
                 __splits__=np.array(["train", "train"]),
                 seg00000=np.zeros((4, 10)), seg00001=taps)
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

    @pytest.mark.parametrize("corpus,variant", [
        ("tiny_corpus", "C"), ("tiny_corpus", "B"),
        ("one_eval_class_corpus", "C")])
    def test_staged_chain_matches_run(self, corpus, variant, request, tmp_path):
        root, manifest = request.getfixturevalue(corpus)
        _, paths = run_pipeline(tiny_config(tmp_path / "run", variant=variant),
                                manifest)
        staged = tmp_path / "staged"
        codes = run_staged(tiny_config(staged, variant=variant),
                           root / "manifest.csv", tmp_path / "cfg.json")
        assert codes == [0] * len(STAGED_CHAIN)
        assert ((staged / "report.json").read_text()
                == open(paths["report_json"]).read())
        names = ["norm_stats", "composite", "filter", "transform", "classifier"]
        if variant == "C":
            names.append("source_model")
        else:
            assert not (staged / "source_model.aecf").exists()
        for name in names:
            assert ((staged / f"{name}.aecf").read_bytes()
                    == open(paths[name], "rb").read()), name

    def test_staged_window_mismatch_is_rejected(self, tiny_corpus, tmp_path,
                                                capsys):
        root, _ = tiny_corpus
        cfg = tiny_config(tmp_path / "out")
        man = root / "manifest.csv"
        assert run_staged(cfg, man, tmp_path / "cfg.json",
                          chain=[["train-source", "MANIFEST"]]) == [0]
        cfg.frontend = FrontendConfig(window="rectangular")
        assert run_staged(cfg, man, tmp_path / "cfg.json",
                          chain=[["adapt", "MANIFEST"]]) == [2]
        err = capsys.readouterr().err
        assert "stage 'adapt'" in err
        assert "different frontend/normalization" in err

    def test_adapt_without_upstream_artifacts(self, tiny_corpus, tmp_path,
                                              capsys):
        root, _ = tiny_corpus
        rc = cli.main(["--out", str(tmp_path / "empty"), "adapt",
                       str(root / "manifest.csv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "adapt" in err and "Traceback" not in err
