"""Binary model files for every fitted artifact.

Layout: magic ``AECF`` | version u32 LE | header length u32 LE | JSON
header (UTF-8) | raw little-endian float32 parameter blocks, row-major, in
header order | CRC32 (u32 LE) over everything before it.

Parameters are stored in 32-bit floats; loading yields exactly the stored
values, so save/load round-trips are bit-exact after the first save.
Every network (the source network, the filter and the DNN back end) is
kind ``network``; the kinds ``source_model`` and ``dnn_filter`` of earlier
versions are rejected as unknown. The header's ``extra`` mapping carries
the caller's stamps, returned by ``load_model(..., with_meta=True)``.
"""

import json
import struct
import zlib

import numpy as np

from .errors import AecError
from .classifiers import BinarySvm, GmmClassModel, GmmModel, SvmModel
from .frontend import NormStats
from .network import Layer, Network
from .transforms import DctSpec, PcaModel

MAGIC = b"AECF"
VERSION = 1


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
    header = {
        "kind": kind,
        "meta": meta,
        "extra": extra_meta or {},
        "arrays": [{"name": n, "shape": list(np.asarray(a).shape)}
                   for n, a in arrays],
    }
    head = json.dumps(header, sort_keys=True).encode("utf-8")
    body = b"".join(np.ascontiguousarray(a, dtype="<f4").tobytes()
                    for _, a in arrays)
    payload = MAGIC + struct.pack("<II", VERSION, len(head)) + head + body
    crc = zlib.crc32(payload) & 0xFFFFFFFF
    with open(path, "wb") as f:
        f.write(payload + struct.pack("<I", crc))


def load_model(path, with_meta=False):
    with open(path, "rb") as f:
        data = f.read()
    if len(data) < 12 or data[:4] != MAGIC:
        raise AecError(f"{path}: not an AECF model file")
    version, head_len = struct.unpack("<II", data[4:12])
    if version != VERSION:
        raise AecError(f"{path}: file version {version}, expected {VERSION}")
    if len(data) < 12 + head_len + 4:
        raise AecError(f"{path}: truncated file")
    stored_crc = struct.unpack("<I", data[-4:])[0]
    if zlib.crc32(data[:-4]) & 0xFFFFFFFF != stored_crc:
        raise AecError(f"{path}: CRC mismatch")
    header = json.loads(data[12 : 12 + head_len].decode("utf-8"))
    arrays = {}
    offset = 12 + head_len
    for spec in header["arrays"]:
        count = int(np.prod(spec["shape"]))
        nbytes = 4 * count
        if offset + nbytes > len(data) - 4:
            raise AecError(f"{path}: parameter block overruns file")
        block = np.frombuffer(data[offset : offset + nbytes], dtype="<f4")
        arrays[spec["name"]] = block.reshape(spec["shape"]).astype(np.float64)
        offset += nbytes
    model = _restore(header["kind"], header["meta"], arrays)
    if with_meta:
        return model, header.get("extra", {})
    return model
