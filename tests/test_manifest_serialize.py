import json
import struct

import numpy as np
import pytest

from aecfeat.classifiers import gmm_fit, svm_fit
from aecfeat.errors import AecError
from aecfeat.frontend import fit_norm_stats
from aecfeat.manifest import Manifest, ManifestEntry, load_manifest, save_manifest
from aecfeat.network import Network, TrainConfig, init_mlp, train
from aecfeat.serialize import load_model, save_model, write_npz
from aecfeat.transfer import adapt, build_filter, extract, strip_output
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
        with pytest.raises(AecError, match=":2: unknown split"):
            load_manifest(path)

    def test_unknown_domain(self, tmp_path):
        wav = tmp_path / "a.wav"
        wav.write_bytes(b"")
        path = tmp_path / "m.csv"
        write_manifest(path, [[str(wav), "dog", "middle", "train", "clean"]])
        with pytest.raises(AecError, match=":2: unknown domain"):
            load_manifest(path)

    def test_empty_manifest(self, tmp_path):
        path = tmp_path / "m.csv"
        write_manifest(path, [])
        with pytest.raises(AecError, match="no entries"):
            load_manifest(path)

    def test_missing_wav(self, tmp_path):
        path = tmp_path / "m.csv"
        write_manifest(path, [["/nope/x.wav", "dog", "target", "train", "clean"]])
        with pytest.raises(AecError, match=":2: no such wav"):
            load_manifest(path)

    def test_train_eval_overlap_rejected(self, tmp_path):
        wav = tmp_path / "a.wav"
        wav.write_bytes(b"")
        path = tmp_path / "m.csv"
        write_manifest(path, [
            [str(wav), "dog", "target", "train", "clean"],
            [str(wav), "dog", "target", "eval", "clean"],
        ])
        with pytest.raises(AecError, match="appears in both target train and eval"):
            load_manifest(path)

    def test_select(self, tmp_path):
        wav = tmp_path / "a.wav"
        wav.write_bytes(b"")
        man = Manifest([
            ManifestEntry(str(wav), "a", "source", "train", "clean"),
            ManifestEntry(str(wav), "b", "target", "eval", "office_5dB"),
        ])
        assert len(man.select("source")) == 1
        assert man.select("target", "eval")[0].condition == "office_5dB"


def as_f32(a):
    return np.asarray(a, dtype=np.float32).astype(np.float64)


def make_composite():
    """A fixed three-layer trunk under untrained TL#1, TL#2 and head."""
    trunk = strip_output(init_mlp(6, (8, 8, 8), 5, seed=0))
    x = np.random.default_rng(0).standard_normal((30, 6))
    comp, _ = adapt(trunk, extract(trunk, [x], 30).values, np.arange(30) % 3,
                    (5, 4), 3, TrainConfig(max_epochs_per_stage=0), seed=0)
    return comp


def read_members(path):
    """Every member of a model archive, its header decoded."""
    with np.load(path) as data:
        members = {k: data[k] for k in data.files}
    return {**members, "header": json.loads(str(members["header"]))}


def read_header(path):
    return read_members(path)["header"]


def rewrite_header(path, **changes):
    """Replace top-level header fields of a model archive, keeping its
    parameter members in order: a file as another writer would have
    written it."""
    members = read_members(path)
    header = {**members.pop("header"), **changes}
    write_npz(path, header=np.array(json.dumps(header, sort_keys=True)),
              **members)


def same_model(a, b):
    """Whether two loaded models are of one type with equal fields, every
    array of equal dtype and values."""
    if type(a) is not type(b):
        return False
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b)
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same_model(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(map(same_model, a, b))
    if hasattr(a, "__dict__"):
        return same_model(vars(a), vars(b))
    return a == b


class TestSerialize:
    def test_network_round_trip_is_float32_exact(self, tmp_path):
        comp = make_composite()
        path = tmp_path / "m.aecf"
        save_model(path, comp)
        loaded = load_model(path)
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
        # the filter and the source network are plain networks of one kind
        filt = build_filter(make_composite(), "C")
        src = init_mlp(6, (8,), 4, seed=0)
        for net in (filt, src):
            path = tmp_path / "n.aecf"
            save_model(path, net)
            loaded = load_model(path)
            assert isinstance(loaded, Network)
            assert read_header(path)["kind"] == "network"
            assert ([l.activation for l in loaded.layers]
                    == [l.activation for l in net.layers])
            for a, b in zip(loaded.layers, net.layers):
                assert np.array_equal(a.w, as_f32(b.w))
                assert np.array_equal(a.b, as_f32(b.b))
        assert loaded.out_dim == 4
        assert filt.layers[-1].activation == "linear"

    @pytest.mark.parametrize("kind", ["source_model", "dnn_filter"])
    def test_earlier_network_kinds_rejected(self, tmp_path, kind):
        path = tmp_path / "old.aecf"
        save_model(path, init_mlp(6, (8,), 4, seed=0))
        meta = read_header(path)["meta"]
        rewrite_header(path, kind=kind, meta={**meta, "fingerprint": "fp"})
        with pytest.raises(AecError, match=f"unknown model kind '{kind}'"):
            load_model(path)

    def test_earlier_per_layer_frozen_keys_ignored(self, tmp_path):
        comp = make_composite()
        path = tmp_path / "m.aecf"
        save_model(path, comp)
        meta = read_header(path)["meta"]
        assert all(set(spec) == {"in", "out", "activation"}
                   for spec in meta["net"]["layers"])
        # earlier versions marked each layer frozen or not, which nothing read
        for i, spec in enumerate(meta["net"]["layers"]):
            spec["frozen"] = i < 3
        rewrite_header(path, meta=meta)
        loaded = load_model(path)
        assert [l.activation for l in loaded.layers] == [l.activation for l in comp.layers]
        for a, b in zip(loaded.layers, comp.layers):
            assert np.array_equal(a.w, as_f32(b.w))
            assert np.array_equal(a.b, as_f32(b.b))

    def test_earlier_norm_stats_keys_ignored(self, tmp_path):
        path = tmp_path / "n.aecf"
        stats = fit_norm_stats([np.eye(3)])
        save_model(path, stats)
        # earlier versions stored the pooled frame count, which nothing read
        rewrite_header(path, meta={"n_frames": 3})
        loaded = load_model(path)
        assert np.array_equal(loaded.mean, as_f32(stats.mean))
        assert np.array_equal(loaded.std, as_f32(stats.std))

    def test_norm_stats_and_transforms(self, tmp_path):
        values = np.random.default_rng(1).standard_normal((50, 4))
        constant = values.copy()
        constant[:, 2] = 0.0  # its std is floored, as for DFT bin 0's imag
        for v in (values, constant):
            stats = fit_norm_stats([v])
            save_model(tmp_path / "n.aecf", stats)
            loaded = load_model(tmp_path / "n.aecf")
            assert np.array_equal(loaded.mean, as_f32(stats.mean))
            assert np.array_equal(loaded.std, as_f32(stats.std))

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
        # a lone .npy array is not an archive either
        path = tmp_path / "x.aecf"
        np.save(tmp_path / "x.npy", np.zeros(3))
        for data in (b"NOPE" + b"\x00" * 20, (tmp_path / "x.npy").read_bytes()):
            path.write_bytes(data)
            with pytest.raises(AecError, match=r"x\.aecf is not an intact npz "
                                               r"archive \(File is not a zip "
                                               r"file"):
                load_model(path)

    def test_version_1_file_rejected(self, tmp_path):
        # the binary layout of earlier versions: magic, version 1, header
        # length, JSON header, float32 blocks, CRC-32
        path = tmp_path / "v1.aecf"
        head = b'{"kind": "dct"}'
        path.write_bytes(b"AECF" + struct.pack("<II", 1, len(head)) + head
                         + b"\x00" * 12)
        with pytest.raises(AecError, match=r"v1\.aecf is not an intact npz "
                                           r"archive \(File is not a zip file\); "
                                           r"rerun the stage that wrote it"):
            load_model(path)

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "t.aecf"
        save_model(path, DctSpec(n_points=8, n_keep=4))
        data = path.read_bytes()
        path.write_bytes(data[:-10])
        with pytest.raises(AecError, match=r"t\.aecf is not an intact npz "
                                           r"archive \(File is not a zip file"):
            load_model(path)

    def test_corrupted_payload(self, tmp_path):
        path = tmp_path / "c.aecf"
        spec = DctSpec(n_points=8, n_keep=4)
        save_model(path, spec)
        data = bytearray(path.read_bytes())
        data[data.index(spec.basis.astype("<f4").tobytes()) + 5] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(AecError, match=r"c\.aecf is not an intact npz "
                                           r"archive \(Bad CRC-32 for file "
                                           r"'basis\.npy'\)"):
            load_model(path)

    def test_future_version(self, tmp_path):
        path = tmp_path / "v.aecf"
        save_model(path, DctSpec(n_points=8, n_keep=4))
        rewrite_header(path, version=99)
        with pytest.raises(AecError, match=r"v\.aecf: file version 99, "
                                           r"expected 2"):
            load_model(path)

    def test_missing_file_is_not_called_damaged(self, tmp_path):
        path = tmp_path / "gone.aecf"
        with pytest.raises(FileNotFoundError, match=r"gone\.aecf"):
            load_model(path)

    def test_layout_is_an_npz_of_float32_members(self, tmp_path):
        # a header, then one little-endian float32 member per block, in
        # the order the model lists them
        path = tmp_path / "n.aecf"
        net = init_mlp(3, (2,), 2, seed=0)
        save_model(path, net, {"seed": 4})
        members = read_members(path)
        assert list(members) == ["header", "w0", "b0", "w1", "b1"]
        assert members["header"] == {
            "kind": "network", "version": 2, "extra": {"seed": 4},
            "meta": {"net": {"layers": [
                {"in": 3, "out": 2, "activation": "sigmoid"},
                {"in": 2, "out": 2, "activation": "softmax"}]}}}
        for i, layer in enumerate(net.layers):
            assert members[f"w{i}"].dtype == np.dtype("<f4")
            assert np.array_equal(members[f"w{i}"], layer.w.astype("<f4"))

    def test_every_byte_flip_and_cut_is_caught(self, tmp_path):
        # zip's CRC-32 covers every member; a flip elsewhere in the archive
        # may leave the model as it was, and must never load another one.
        # Every cut loses the archive's directory at its end
        path = tmp_path / "f.aecf"
        save_model(path, init_mlp(3, (2,), 2, seed=0), {"seed": 1})
        original = path.read_bytes()
        expected = load_model(path, with_meta=True)
        named = 0
        for i in range(len(original)):
            data = bytearray(original)
            data[i] ^= 0xFF
            path.write_bytes(bytes(data))
            try:
                loaded = load_model(path, with_meta=True)
            except AecError as e:
                assert str(path) in str(e), (i, e)
                named += 1
            else:
                assert same_model(loaded, expected), i
            path.write_bytes(original[:i])
            with pytest.raises(AecError, match=rf"{path.name} is not an "
                                               rf"intact npz archive"):
                load_model(path)
        assert named > len(original) // 2

    def test_extra_meta(self, tmp_path):
        path = tmp_path / "e.aecf"
        save_model(path, DctSpec(n_points=8, n_keep=4),
                   extra_meta={"config_fingerprint": "deadbeef", "seed": 3})
        _, meta = load_model(path, with_meta=True)
        assert meta == {"config_fingerprint": "deadbeef", "seed": 3}
