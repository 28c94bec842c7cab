import struct

import numpy as np
import pytest

from aecfeat.classifiers import gmm_fit, svm_fit
from aecfeat.errors import (
    BadMagic,
    ChecksumFail,
    EmptyManifest,
    MissingFile,
    ParseError,
    VersionMismatch,
)
from aecfeat.frontend import FeatureMatrix, fit_norm_stats
from aecfeat.manifest import Manifest, ManifestEntry, load_manifest, save_manifest
from aecfeat.network import LayerSpec, TrainConfig, init_network, train
from aecfeat.serialize import load_model, save_model
from aecfeat.transfer import DnnFilter, SourceModel, append_adaptation, build_filter, strip_output
from aecfeat.transforms import DctSpec, pca_fit


def write_manifest(path, rows):
    with open(path, "w", encoding="utf-8") as f:
        f.write("path,label,domain,split,condition\n")
        for row in rows:
            f.write(",".join(row) + "\n")


class TestManifest:
    def test_round_trip(self, tmp_path):
        wav = tmp_path / "a.wav"
        wav.write_bytes(b"")
        man = Manifest([ManifestEntry(str(wav), "dog", "target", "train", "clean")])
        path = tmp_path / "m.csv"
        save_manifest(man, path)
        loaded = load_manifest(path)
        assert len(loaded) == 1
        assert loaded.entries[0].label == "dog"

    def test_unknown_split_names_line(self, tmp_path):
        wav = tmp_path / "a.wav"
        wav.write_bytes(b"")
        path = tmp_path / "m.csv"
        write_manifest(path, [[str(wav), "dog", "target", "validation", "clean"]])
        with pytest.raises(ParseError, match=":2"):
            load_manifest(path)

    def test_unknown_domain(self, tmp_path):
        wav = tmp_path / "a.wav"
        wav.write_bytes(b"")
        path = tmp_path / "m.csv"
        write_manifest(path, [[str(wav), "dog", "middle", "train", "clean"]])
        with pytest.raises(ParseError, match="domain"):
            load_manifest(path)

    def test_empty_manifest(self, tmp_path):
        path = tmp_path / "m.csv"
        write_manifest(path, [])
        with pytest.raises(EmptyManifest):
            load_manifest(path)

    def test_missing_wav(self, tmp_path):
        path = tmp_path / "m.csv"
        write_manifest(path, [["/nope/x.wav", "dog", "target", "train", "clean"]])
        with pytest.raises(MissingFile):
            load_manifest(path)

    def test_train_eval_overlap_rejected(self, tmp_path):
        wav = tmp_path / "a.wav"
        wav.write_bytes(b"")
        path = tmp_path / "m.csv"
        write_manifest(path, [
            [str(wav), "dog", "target", "train", "clean"],
            [str(wav), "dog", "target", "eval", "clean"],
        ])
        with pytest.raises(ParseError, match="both"):
            load_manifest(path)

    def test_select(self, tmp_path):
        wav = tmp_path / "a.wav"
        wav.write_bytes(b"")
        man = Manifest([
            ManifestEntry(str(wav), "a", "source", "train", "clean"),
            ManifestEntry(str(wav), "b", "target", "eval", "office_5dB"),
        ])
        assert len(man.select(domain="source")) == 1
        assert man.select(domain="target", split="eval").entries[0].condition == "office_5dB"


def as_f32(a):
    return np.asarray(a, dtype=np.float32).astype(np.float64)


def make_composite():
    dims = [6, 8, 8, 8]
    specs = [LayerSpec(a, b, "sigmoid") for a, b in zip(dims, dims[1:])]
    specs.append(LayerSpec(8, 5, "softmax"))
    net = init_network(specs, seed=0)
    trunk = strip_output(net)
    return append_adaptation(trunk, 5, 4, 3, seed=0)


class TestSerialize:
    def test_network_round_trip_is_float32_exact(self, tmp_path):
        comp = make_composite()
        path = tmp_path / "m.aecf"
        save_model(path, comp)
        loaded = load_model(path)
        assert [l.frozen for l in loaded.layers] == [l.frozen for l in comp.layers]
        assert [l.activation for l in loaded.layers] == [l.activation for l in comp.layers]
        for a, b in zip(loaded.layers, comp.layers):
            assert np.array_equal(a.w, as_f32(b.w))
            assert np.array_equal(a.b, as_f32(b.b))
        # second round trip is bit-exact
        path2 = tmp_path / "m2.aecf"
        save_model(path2, loaded)
        again = load_model(path2)
        for a, b in zip(again.layers, loaded.layers):
            assert np.array_equal(a.w, b.w)
            assert np.array_equal(a.b, b.b)

    def test_trained_composite_round_trip(self, tmp_path):
        comp = make_composite()
        rng = np.random.default_rng(0)
        x = rng.standard_normal((60, 6))
        y = rng.integers(0, 3, 60)
        comp, _ = train(comp, x, y, TrainConfig(max_epochs_per_stage=3, seed=0))
        path = tmp_path / "t.aecf"
        save_model(path, comp)
        loaded = load_model(path)
        for a, b in zip(loaded.layers, comp.layers):
            assert np.array_equal(a.w, as_f32(b.w))

    def test_filter_and_source_model(self, tmp_path):
        comp = make_composite()
        filt = build_filter(comp, "C", fingerprint="abc:def")
        path = tmp_path / "f.aecf"
        save_model(path, filt)
        loaded = load_model(path)
        assert isinstance(loaded, DnnFilter)
        assert loaded.variant == "C"
        assert loaded.fingerprint == "abc:def"
        assert loaded.network.layers[-1].activation == "linear"

        dims = [6, 8]
        src = SourceModel(init_network([LayerSpec(6, 8), LayerSpec(8, 4, "softmax")], 0),
                          classes=["w", "x", "y", "z"], fingerprint="fp")
        path = tmp_path / "s.aecf"
        save_model(path, src)
        loaded = load_model(path)
        assert loaded.classes == ["w", "x", "y", "z"]
        assert loaded.fingerprint == "fp"

    def test_norm_stats_and_transforms(self, tmp_path):
        fm = FeatureMatrix(np.random.default_rng(1).standard_normal((50, 4)))
        stats = fit_norm_stats([fm], source_tags=("source",))
        save_model(tmp_path / "n.aecf", stats)
        loaded = load_model(tmp_path / "n.aecf")
        assert loaded.n_frames == 50
        assert loaded.source_tags == ("source",)
        assert np.array_equal(loaded.mean, as_f32(stats.mean))

        spec = DctSpec(n_points=16, n_keep=8)
        save_model(tmp_path / "d.aecf", spec)
        loaded = load_model(tmp_path / "d.aecf")
        assert (loaded.n_points, loaded.n_keep) == (16, 8)

        pca = pca_fit(np.random.default_rng(2).standard_normal((40, 6)), out_dim=3)
        save_model(tmp_path / "p.aecf", pca)
        loaded = load_model(tmp_path / "p.aecf")
        assert np.array_equal(loaded.components, as_f32(pca.components))

    def test_gmm_and_svm(self, tmp_path):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((50, 3))
        gmm = gmm_fit({"a": x, "b": x + 2}, k=2, seed=0)
        save_model(tmp_path / "g.aecf", gmm)
        loaded = load_model(tmp_path / "g.aecf")
        assert loaded.classes == ["a", "b"]
        assert np.array_equal(loaded.per_class["a"].means,
                              as_f32(gmm.per_class["a"].means))

        y = (x[:, 0] > 0).astype(int)
        svm = svm_fit(x, y, c=2.0, gamma=0.5)
        save_model(tmp_path / "s.aecf", svm)
        loaded = load_model(tmp_path / "s.aecf")
        assert loaded.gamma == svm.gamma
        assert np.array_equal(loaded.machines[0].dual_coef,
                              as_f32(svm.machines[0].dual_coef))

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.aecf"
        path.write_bytes(b"NOPE" + b"\x00" * 20)
        with pytest.raises(BadMagic):
            load_model(path)

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "t.aecf"
        save_model(path, DctSpec(n_points=8, n_keep=4))
        data = path.read_bytes()
        path.write_bytes(data[:-10])
        with pytest.raises(ChecksumFail):
            load_model(path)

    def test_corrupted_payload(self, tmp_path):
        path = tmp_path / "c.aecf"
        save_model(path, DctSpec(n_points=8, n_keep=4))
        data = bytearray(path.read_bytes())
        data[20] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(ChecksumFail):
            load_model(path)

    def test_future_version(self, tmp_path):
        path = tmp_path / "v.aecf"
        save_model(path, DctSpec(n_points=8, n_keep=4))
        data = bytearray(path.read_bytes())
        data[4:8] = struct.pack("<I", 99)
        path.write_bytes(bytes(data))
        with pytest.raises(VersionMismatch):
            load_model(path)

    def test_extra_meta(self, tmp_path):
        path = tmp_path / "e.aecf"
        save_model(path, DctSpec(n_points=8, n_keep=4),
                   extra_meta={"config_fingerprint": "deadbeef", "seed": 3})
        _, meta = load_model(path, with_meta=True)
        assert meta == {"config_fingerprint": "deadbeef", "seed": 3}
