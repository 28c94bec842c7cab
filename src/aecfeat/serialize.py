"""Binary model files for every fitted artifact.

Layout: magic ``AECF`` | version u32 LE | header length u32 LE | JSON
header (UTF-8) | raw little-endian float32 parameter blocks, row-major, in
header order | CRC32 (u32 LE) over everything before it.

Parameters are stored in 32-bit floats; loading yields exactly the stored
values, so save/load round-trips are bit-exact after the first save.
"""

import json
import struct
import zlib

import numpy as np

from .errors import BadMagic, ChecksumFail, VersionMismatch
from .classifiers import BinarySvm, GmmClassModel, GmmModel, SvmModel
from .frontend import NormStats
from .network import Layer, Network
from .transfer import DnnFilter, SourceModel
from .transforms import DctSpec, PcaModel

MAGIC = b"AECF"
VERSION = 1


def _net_payload(net):
    meta = {"layers": [{"in": l.in_dim, "out": l.out_dim,
                        "activation": l.activation, "frozen": l.frozen}
                       for l in net.layers]}
    arrays = []
    for i, l in enumerate(net.layers):
        arrays.append((f"w{i}", l.w))
        arrays.append((f"b{i}", l.b))
    return meta, arrays


def _net_restore(meta, arrays):
    layers = []
    for i, spec in enumerate(meta["layers"]):
        layers.append(Layer(arrays[f"w{i}"], arrays[f"b{i}"],
                            spec["activation"], spec["frozen"]))
    return Network(layers)


def _payload(model):
    if isinstance(model, SourceModel):
        meta, arrays = _net_payload(model.network)
        return "source_model", {"net": meta, "classes": model.classes,
                                "fingerprint": model.fingerprint}, arrays
    if isinstance(model, DnnFilter):
        meta, arrays = _net_payload(model.network)
        return "dnn_filter", {"net": meta, "variant": model.variant,
                              "fingerprint": model.fingerprint}, arrays
    if isinstance(model, Network):
        meta, arrays = _net_payload(model)
        return "network", {"net": meta}, arrays
    if isinstance(model, NormStats):
        return "norm_stats", {"n_frames": model.n_frames,
                              "source_tags": list(model.source_tags)}, \
               [("mean", model.mean), ("std", model.std)]
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
    raise TypeError(f"cannot serialize {type(model).__name__}")


def _restore(kind, meta, arrays):
    if kind == "source_model":
        return SourceModel(_net_restore(meta["net"], arrays),
                           classes=meta["classes"],
                           fingerprint=meta["fingerprint"])
    if kind == "dnn_filter":
        return DnnFilter(_net_restore(meta["net"], arrays),
                         variant=meta["variant"],
                         fingerprint=meta["fingerprint"])
    if kind == "network":
        return _net_restore(meta["net"], arrays)
    if kind == "norm_stats":
        return NormStats(arrays["mean"], arrays["std"],
                         n_frames=meta["n_frames"],
                         source_tags=tuple(meta["source_tags"]))
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
    raise BadMagic(f"unknown model kind {kind!r}")


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
        raise BadMagic(f"{path}: not an AECF model file")
    version, head_len = struct.unpack("<II", data[4:12])
    if version != VERSION:
        raise VersionMismatch(f"{path}: file version {version}, expected {VERSION}")
    if len(data) < 12 + head_len + 4:
        raise ChecksumFail(f"{path}: truncated file")
    stored_crc = struct.unpack("<I", data[-4:])[0]
    if zlib.crc32(data[:-4]) & 0xFFFFFFFF != stored_crc:
        raise ChecksumFail(f"{path}: CRC mismatch")
    header = json.loads(data[12 : 12 + head_len].decode("utf-8"))
    arrays = {}
    offset = 12 + head_len
    for spec in header["arrays"]:
        count = int(np.prod(spec["shape"])) if spec["shape"] else 1
        nbytes = 4 * count
        if offset + nbytes > len(data) - 4:
            raise ChecksumFail(f"{path}: parameter block overruns file")
        block = np.frombuffer(data[offset : offset + nbytes], dtype="<f4")
        arrays[spec["name"]] = block.reshape(spec["shape"]).astype(np.float64)
        offset += nbytes
    model = _restore(header["kind"], header["meta"], arrays)
    if with_meta:
        return model, header.get("extra", {})
    return model
