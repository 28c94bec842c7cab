"""One archive format for every artifact: an npz file, a zip of stored
`.npy` members with a CRC-32 each. `write_npz` writes models and features
alike, and `open_npz` reads them, naming a damaged file.

A model file (`.aecf`) holds a `header` member, the JSON of its kind,
`VERSION`, meta and the caller's stamps (`extra`, which
`load_model(..., with_meta=True)` returns), then one little-endian float32
member per `_payload` block. Loading yields the stored values in float64,
so round trips are bit-exact after the first save. A file of another
version, as is every one written before version 2, is rejected. Every
network is kind `network`; the kinds `source_model` and `dnn_filter` of
earlier versions are rejected as unknown.
"""

import json
import zipfile
from contextlib import contextmanager

import numpy as np

from .errors import AecError
from .classifiers import BinarySvm, GmmClassModel, GmmModel, SvmModel
from .frontend import NormStats
from .network import Layer, Network
from .transforms import DctSpec, PcaModel

VERSION = 2


def write_npz(path, **arrays):
    """`np.savez(path, **arrays)` byte for byte, for C-contiguous arrays
    that hold no objects, without its copy: each member is a stored zip64
    entry of the array's format 1.0 header followed by the array's own
    buffer. Both get zip's fixed 1980 timestamp."""
    with zipfile.ZipFile(path, "w", zipfile.ZIP_STORED,
                         allowZip64=True) as zf:
        for key, value in arrays.items():
            value = np.require(value, requirements="C")
            with zf.open(key + ".npy", "w", force_zip64=True) as f:
                np.lib.format.write_array_header_1_0(
                    f, np.lib.format.header_data_from_array_1_0(value))
                f.write(value.reshape(-1).view(np.uint8))


@contextmanager
def open_npz(path):
    """The npz archive at `path`, open to decode the members read. A file
    that is not an intact archive, lacks a member read or holds one that
    fails its CRC-32 raises an AecError naming it; a missing one raises as
    `open` does."""
    with open(path, "rb") as f:
        try:
            with np.lib.npyio.NpzFile(f) as data:  # no pickle, no .npy
                yield data
        except AecError:
            raise
        except (zipfile.BadZipFile, EOFError, NotImplementedError, OSError,
                ValueError, KeyError) as e:
            raise AecError(f"{path} is not an intact npz archive ({e}); "
                           f"rerun the stage that wrote it") from e


def _payload(model):
    if isinstance(model, Network):
        layers = [{"in": l.in_dim, "out": l.out_dim, "activation": l.activation}
                  for l in model.layers]
        return "network", {"net": {"layers": layers}}, [
            (f"{name}{i}", a) for i, l in enumerate(model.layers)
            for name, a in (("w", l.w), ("b", l.b))]
    if isinstance(model, NormStats):
        return "norm_stats", {}, [("mean", model.mean), ("std", model.std)]
    if isinstance(model, DctSpec):
        return "dct", {"n_points": model.n_points, "n_keep": model.n_keep}, \
               [("basis", model.basis)]
    if isinstance(model, PcaModel):
        return "pca", {}, [("mean", model.mean),
                           ("components", model.components),
                           ("eigenvalues", model.eigenvalues)]
    if isinstance(model, GmmModel):
        arrays = []
        for i, label in enumerate(model.classes):
            m = model.per_class[label]
            arrays += [(f"weights{i}", m.weights), (f"means{i}", m.means),
                       (f"variances{i}", m.variances)]
        return "gmm", {"classes": model.classes}, arrays
    if isinstance(model, SvmModel):
        arrays = []
        for i, label in enumerate(model.classes):
            m = model.machines[label]
            arrays += [(f"sv{i}", m.support_vectors),
                       (f"dual{i}", m.dual_coef),
                       (f"bias{i}", np.array([m.bias]))]
        return "svm", {"classes": model.classes, "gamma": model.gamma,
                       "c": model.c}, arrays
    raise AecError(f"cannot serialize {type(model).__name__}")


def _restore(kind, meta, arrays):
    if kind == "network":
        # each layer's "activation" is its only key read: any other key an
        # earlier version wrote per layer is ignored
        return Network([Layer(arrays[f"w{i}"], arrays[f"b{i}"], spec["activation"])
                        for i, spec in enumerate(meta["net"]["layers"])])
    if kind == "norm_stats":
        return NormStats(arrays["mean"], arrays["std"])
    if kind == "dct":
        return DctSpec(meta["n_points"], meta["n_keep"], basis=arrays["basis"])
    if kind == "pca":
        return PcaModel(arrays["mean"], arrays["components"],
                        arrays["eigenvalues"])
    if kind == "gmm":
        per_class = {}
        for i, label in enumerate(meta["classes"]):
            per_class[label] = GmmClassModel(arrays[f"weights{i}"],
                                             arrays[f"means{i}"],
                                             arrays[f"variances{i}"])
        return GmmModel(classes=meta["classes"], per_class=per_class)
    if kind == "svm":
        machines = {}
        for i, label in enumerate(meta["classes"]):
            machines[label] = BinarySvm(arrays[f"sv{i}"], arrays[f"dual{i}"],
                                        float(arrays[f"bias{i}"][0]))
        return SvmModel(classes=meta["classes"], machines=machines,
                        gamma=meta["gamma"], c=meta["c"])
    raise AecError(f"unknown model kind {kind!r}")


def save_model(path, model, extra_meta=None):
    kind, meta, arrays = _payload(model)
    header = {"kind": kind, "version": VERSION, "meta": meta,
              "extra": extra_meta or {}}
    write_npz(path, header=np.array(json.dumps(header, sort_keys=True)),
              **{name: np.asarray(a, dtype="<f4") for name, a in arrays})


def load_model(path, with_meta=False):
    with open_npz(path) as data:
        header = json.loads(str(data["header"]))
        if header["version"] != VERSION:
            raise AecError(f"{path}: file version {header['version']}, "
                           f"expected {VERSION}; rerun the stage that wrote it")
        model = _restore(header["kind"], header["meta"],
                         {name: data[name].astype(np.float64)
                          for name in data.files if name != "header"})
    if with_meta:
        return model, header["extra"]
    return model
