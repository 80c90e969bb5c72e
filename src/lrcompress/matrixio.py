"""On-disk formats: LRMX matrix files, model/calibration packages, reports.

LRMX is a 24-byte little-endian header followed by the row-major payload:

    offset  size  field
    0       4     magic "LRMX"
    4       2     version (u16) = 1
    6       1     dtype   (u8)  0 = float64, 1 = float32
    7       1     reserved (u8) = 0
    8       8     rows (u64)
    16      8     cols (u64)
    24      -     payload, rows*cols values, row-major, little-endian

Round-tripping a float64 matrix is bit-exact. Every matrix the toolkit
stores (weights, factors, calibration matrices) is finite, so a payload
holding NaN or Inf is refused on read as a damaged file. Permutation index
files are raw little-endian u64 sequences. A model package is a directory with a
manifest.json naming every layer, its shape and representation
(dense | lowrank | pivga) and the files holding its factors. A calibration
package holds each layer's C matrix and full-rank data-aware factors, plus
the digest of the teacher they belong to. A manifest of a version other than 1
is refused. Both package kinds store their arrays through one table of files
and shapes (``_stored_shapes``) and read them back through one checked reader.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import fermigrad
from .errors import PackageFormatError
from .pivga import PivGaFactors
from .svdcompress import LowRankFactors
from .toymodels import ToyModel, ToyModelSpec

MAGIC = b"LRMX"
VERSION = 1
DTYPE_F64 = 0
DTYPE_F32 = 1
_HEADER = struct.Struct("<4sHBBQQ")
_DTYPES = {DTYPE_F64: np.dtype("<f8"), DTYPE_F32: np.dtype("<f4")}

MODEL_FORMAT = "lrcompress-model"
CALIB_FORMAT = "lrcompress-calib"
_MANIFEST_VERSION = 1


def write_matrix(path, M) -> None:
    """Write a 2-D array as an LRMX file with an exact f64 payload."""
    M = np.asarray(M, dtype=_DTYPES[DTYPE_F64])
    if M.ndim != 2:
        raise PackageFormatError(f"can only store 2-D matrices, got ndim={M.ndim}")
    header = _HEADER.pack(MAGIC, VERSION, DTYPE_F64, 0, M.shape[0], M.shape[1])
    with open(path, "wb") as fh:
        fh.write(header)
        # the buffer of a C-contiguous array is its row-major bytes: no copy
        fh.write(np.ascontiguousarray(M))


def _read_header(fh, path):
    """The payload dtype and (rows, cols) of the open LRMX file ``fh``, after
    checking its header and that the file holds exactly that payload."""
    head = fh.read(_HEADER.size)
    if len(head) < _HEADER.size:
        raise PackageFormatError(f"{path}: truncated header")
    magic, version, code, reserved, rows, cols = _HEADER.unpack(head)
    if magic != MAGIC:
        raise PackageFormatError(f"{path}: bad magic {magic!r}")
    if version != VERSION:
        raise PackageFormatError(f"{path}: unsupported version {version}")
    if code not in _DTYPES:
        raise PackageFormatError(f"{path}: unknown dtype code {code}")
    if reserved != 0:
        raise PackageFormatError(f"{path}: reserved byte is {reserved}, expected 0")
    dt = _DTYPES[code]
    expected = rows * cols * dt.itemsize
    size = os.fstat(fh.fileno()).st_size - _HEADER.size
    if size != expected:
        raise PackageFormatError(f"{path}: payload is {size} bytes, expected {expected}")
    return dt, (rows, cols)


def _matrix_shape(path) -> tuple:
    """The (rows, cols) of an LRMX file, checked as ``read_matrix`` checks it
    apart from the payload's values, which are not read."""
    with open(path, "rb") as fh:
        return _read_header(fh, path)[1]


def read_matrix(path) -> np.ndarray:
    """Read an LRMX file back as a float64 array (f32 payloads are upcast).
    A malformed header or payload, NaN or Inf included, raises PackageFormatError."""
    with open(path, "rb") as fh:
        dt, (rows, cols) = _read_header(fh, path)
        expected = rows * cols * dt.itemsize
        # the payload is read straight into the array it is returned in
        data = np.empty((rows, cols), dtype=dt)
        got = fh.readinto(data)
    if got != expected:
        raise PackageFormatError(f"{path}: payload is {got} bytes, expected {expected}")
    if not np.isfinite(data).all():
        raise PackageFormatError(f"{path}: payload holds NaN or Inf")
    return data.astype(np.float64, copy=False)


def write_indices(path, idx) -> None:
    """Write an index vector as raw little-endian u64."""
    idx = np.asarray(idx, dtype="<u8")
    with open(path, "wb") as fh:
        fh.write(idx.tobytes())


def read_indices(path) -> np.ndarray:
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) % 8 != 0:
        raise PackageFormatError(f"{path}: index file length {len(raw)} not a multiple of 8")
    return np.frombuffer(raw, dtype="<u8").astype(np.int64)


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool) and -2**63 <= v < 2**63


def _is_number(v) -> bool:
    return _is_int(v) or (isinstance(v, float) and math.isfinite(v))


def _is_int_pair(v) -> bool:
    return isinstance(v, list) and len(v) == 2 and all(map(_is_int, v))


# The value kinds check_fields knows; "int" means a JSON integer that fits
# int64, "number" such an integer or a finite float, and "file name" the name
# of a file in the package directory itself.
_KINDS = {
    "object": lambda v: isinstance(v, dict),
    "list": lambda v: isinstance(v, list),
    "str": lambda v: isinstance(v, str),
    "file name": lambda v: (isinstance(v, str) and v not in ("", ".", "..")
                            and "/" not in v and "\0" not in v),
    "int": _is_int,
    "int or null": lambda v: v is None or _is_int(v),
    "non-negative int": lambda v: _is_int(v) and v >= 0,
    "number": _is_number,
    "number or number list": lambda v: _is_number(v) or (
        isinstance(v, list) and all(map(_is_number, v))),
    "int list": lambda v: isinstance(v, list) and all(map(_is_int, v)),
    "int pair": _is_int_pair,
    "int pair list": lambda v: isinstance(v, list) and all(map(_is_int_pair, v)),
}


def check_fields(obj, where, **fields) -> dict:
    """Return ``obj`` if it is a JSON object holding each field with its kind.

    ``fields`` maps a key to one of the kinds in ``_KINDS``. A non-object,
    a missing key or a value of another kind raises PackageFormatError.
    """
    if not isinstance(obj, dict):
        raise PackageFormatError(f"{where}: expected a JSON object, got {type(obj).__name__}")
    for key, kind in fields.items():
        if key not in obj:
            raise PackageFormatError(f"{where}: missing {key!r}")
        if not _KINDS[kind](obj[key]):
            raise PackageFormatError(f"{where}: {key!r} must be {kind}, got {obj[key]!r}")
    return obj


def read_json(path):
    """Parse a JSON file; malformed content raises PackageFormatError."""
    with open(path, "rb") as fh:
        try:
            return json.load(fh)
        except ValueError as exc:
            raise PackageFormatError(f"{path}: invalid JSON: {exc}") from None


def _read_manifest(path: Path, expected_format: str) -> dict:
    manifest = check_fields(read_json(path), path)
    if manifest.get("format") != expected_format:
        raise PackageFormatError(
            f"{path}: format is {manifest.get('format')!r}, expected {expected_format!r}"
        )
    check_fields(manifest, path, version="int", layers="list")
    if manifest["version"] != _MANIFEST_VERSION:
        raise PackageFormatError(f"{path}: unsupported version {manifest['version']}")
    return manifest


def _write_manifest(out: Path, fmt: str, **fields) -> None:
    write_report(out / "manifest.json", {"format": fmt, "version": _MANIFEST_VERSION, **fields})


def _stored_shapes(kind: str, m: int, n: int, r) -> dict:
    """The files an m x n layer stored as ``kind`` (at rank ``r``) has, by their
    key in "files", and the shape each must have."""
    if kind == "dense":
        return {"W": (m, n)}
    if kind == "lowrank":
        return {"A": (m, r), "B": (r, n)}
    if kind == "pivga":
        return {"C": (m, r), "D": (r, n - r), "perm": (n,)}
    raise PackageFormatError(f"unknown layer repr {kind!r}")


def _write_files(out: Path, name: str, arrays: dict) -> dict:
    """Write each array to ``<name>.<key>.lrmx``, a permutation to ``<name>.perm.idx``;
    returns the file names by key."""
    files = {key: f"{name}.{key}.{'idx' if key == 'perm' else 'lrmx'}" for key in arrays}
    for key, M in arrays.items():
        (write_indices if key == "perm" else write_matrix)(out / files[key], M)
    return files


def _read_files(src: Path, files, where: str, shapes: dict) -> dict:
    """Read the file named in ``files`` for each key of ``shapes`` from ``src``.
    A missing name, one that is not a file name in ``src``, or any file whose
    shape is not the one in ``shapes`` raises PackageFormatError."""
    check_fields(files, f"{where} files", **dict.fromkeys(shapes, "file name"))
    arrays = {key: (read_indices if key == "perm" else read_matrix)(src / files[key])
              for key in shapes}
    if any(arrays[key].shape != shape for key, shape in shapes.items()):
        found = " and ".join(f"{key} is {arrays[key].shape}" for key in shapes)
        raise PackageFormatError(
            f"{where}: {found}; needs {' and '.join(map(str, shapes.values()))}")
    return arrays


@dataclass
class PackageLayer:
    """One layer of a loaded model package."""

    name: str
    shape: tuple
    kind: str                      # dense | lowrank | pivga
    payload: object                # ndarray | LowRankFactors | PivGaFactors


@dataclass
class LoadedPackage:
    spec: ToyModelSpec | None
    n_inc: int
    layers: list

    def to_toy_model(self) -> ToyModel:
        """Reassemble a dense ToyModel (requires all layers dense + a spec)."""
        if self.spec is None:
            raise PackageFormatError("package has no model spec")
        if any(l.kind != "dense" for l in self.layers):
            raise PackageFormatError("package is not a dense teacher package")
        shapes = [l.shape for l in self.layers]
        if shapes != self.spec.layer_shapes:
            raise PackageFormatError(
                f"weight shapes {shapes} disagree with spec layer_shapes {self.spec.layer_shapes}"
            )
        return ToyModel(spec=self.spec, dense_weights=[l.payload for l in self.layers],
                        n_inc=self.n_inc)


def save_model_package(out_dir, spec: ToyModelSpec | None, layers, n_inc: int = 0) -> None:
    """Write a model package: ``layers`` holds per-layer payloads.

    Each entry is an ndarray (dense), LowRankFactors, or PivGaFactors; the
    representation is recorded per layer and the factor matrices go to one
    LRMX file each (plus a u64 index file for a PivGa permutation).
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    entries = []
    for l, payload in enumerate(layers):
        name = f"layer_{l:02d}"
        if isinstance(payload, np.ndarray):
            entry, arrays = {"repr": "dense", "shape": payload.shape}, {"W": payload}
        elif isinstance(payload, LowRankFactors):
            entry = {"repr": "lowrank", "shape": payload.shape, "rank": payload.rank}
            arrays = {"A": payload.A, "B": payload.B}
        elif isinstance(payload, PivGaFactors):
            entry = {"repr": "pivga", "shape": (payload.Cmat.shape[0], payload.n_cols),
                     "rank": payload.rank}
            arrays = {"C": payload.Cmat, "D": payload.D, "perm": payload.perm}
        else:
            raise PackageFormatError(f"unsupported layer payload {type(payload)!r}")
        entries.append({**entry, "name": name, "shape": list(entry["shape"]),
                        "files": _write_files(out, name, arrays)})
    _write_manifest(out, MODEL_FORMAT, n_inc=n_inc, layers=entries,
                    spec=spec.to_dict() if spec is not None else None)


def load_model_package(in_dir) -> LoadedPackage:
    src = Path(in_dir)
    path = src / "manifest.json"
    manifest = _read_manifest(path, MODEL_FORMAT)
    manifest.setdefault("n_inc", 0)
    check_fields(manifest, path, n_inc="non-negative int")
    if not manifest["layers"]:
        raise PackageFormatError(f"{path}: model has no layers")
    spec = None
    if manifest.get("spec") is not None:
        spec = ToyModelSpec.from_dict(manifest["spec"])
    layers = []
    for l, entry in enumerate(manifest["layers"]):
        check_fields(entry, f"{path}: layer {l}", name="str", repr="str", shape="int pair",
                     files="object")
        where, kind = f"{path}: {entry['name']}", entry["repr"]
        m, n = shape = tuple(entry["shape"])
        r = None
        if kind != "dense":
            r = check_fields(entry, where, rank="int")["rank"]
            if not 1 <= r <= min(m, n):
                raise PackageFormatError(f"{where}: rank {r} outside [1, {min(m, n)}]")
        arrays = _read_files(src, entry["files"], where, _stored_shapes(kind, m, n, r))
        if kind == "dense":
            payload = arrays["W"]
        elif kind == "lowrank":
            payload = LowRankFactors(**arrays)
        else:
            if sorted(arrays["perm"].tolist()) != list(range(n)):
                raise PackageFormatError(f"{where}: invalid permutation")
            payload = PivGaFactors(Cmat=arrays["C"], D=arrays["D"], perm=arrays["perm"],
                                   rank=r, n_cols=n, cond_b0=float("nan"))
        layers.append(PackageLayer(name=entry["name"], shape=shape, kind=kind,
                                   payload=payload))
    return LoadedPackage(spec=spec, n_inc=manifest["n_inc"], layers=layers)


def package_forward(pkg: LoadedPackage, X) -> np.ndarray:
    """Run a loaded package on a batch (columns are samples)."""
    nonlin = pkg.spec.nonlinearity if pkg.spec is not None else "tanh"
    return fermigrad.run([l.payload for l in pkg.layers], nonlin,
                         np.asarray(X, dtype=np.float64))


def teacher_digest(model: ToyModel) -> str:
    """sha256 over the teacher's canonical spec JSON, n_inc, and each dense weight's
    shape (two u64) and little-endian float64 bytes."""
    h = hashlib.sha256()
    spec = json.dumps(model.spec.to_dict(), sort_keys=True, separators=(",", ":")).encode()
    h.update(struct.pack("<Q", len(spec)))
    h.update(spec)
    h.update(struct.pack("<q", model.n_inc))
    for W in model.dense_weights:
        W = np.ascontiguousarray(W, dtype="<f8")
        h.update(struct.pack("<QQ", *W.shape))
        h.update(W)
    return h.hexdigest()


def save_calibration_package(out_dir, mats, samples: int, seed: int,
                             model: ToyModel) -> None:
    """Write per-layer calibration matrices C_l and the full-rank factors A_l, B_l
    of ``model``, one LRMX file each, with the teacher digest (spec, n_inc,
    dense weights) that load_calibration_factors checks.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    entries = []
    for l, (C, f) in enumerate(zip(mats, model.factors, strict=True)):
        name = f"layer_{l:02d}"
        files = _write_files(out, name, {"C": C, "A": f.A, "B": f.B})
        entries.append({"name": name, "file": files.pop("C"), "dim": int(C.shape[0]),
                        "factors": files})
    _write_manifest(out, CALIB_FORMAT, samples=samples, seed=seed, layers=entries,
                    teacher_sha256=teacher_digest(model))


def _read_calibration_manifest(path: Path) -> dict:
    manifest = _read_manifest(path, CALIB_FORMAT)
    for l, entry in enumerate(manifest["layers"]):
        check_fields(entry, f"{path}: layer {l}", name="str", file="file name", dim="int")
    return manifest


def load_calibration_package(in_dir) -> list:
    src = Path(in_dir)
    path = src / "manifest.json"
    return [_read_files(src, {"C": entry["file"]}, f"{path}: {entry['name']}",
                        {"C": (entry["dim"], entry["dim"])})["C"]
            for entry in _read_calibration_manifest(path)["layers"]]


def load_calibration_factors(in_dir, model: ToyModel) -> list:
    """The full-rank data-aware factors calibrate stored for the teacher ``model``.

    Raises PackageFormatError if the package holds no factors, was made for
    another teacher (its spec, n_inc or dense weights differ: digest
    mismatch), holds a factor that is not m x k (A) or k x n (B) with
    k = min(m, n), or a C file whose header, size or shape (n x n) is
    wrong; C's payload is not read. A missing file is an OSError.
    """
    src = Path(in_dir)
    path = src / "manifest.json"
    manifest = _read_calibration_manifest(path)
    if "teacher_sha256" not in manifest:
        raise PackageFormatError(
            f"{path}: no stored factors (package written without a teacher); re-run calibrate"
        )
    check_fields(manifest, path, teacher_sha256="str")
    if manifest["teacher_sha256"] != teacher_digest(model):
        raise PackageFormatError(
            f"{path}: calibrated for another teacher (spec, n_inc or weights differ); "
            "re-run calibrate"
        )
    weights = model.dense_weights
    if len(manifest["layers"]) != len(weights):
        raise PackageFormatError(
            f"{path}: {len(manifest['layers'])} layers for {len(weights)} teacher layers"
        )
    factors = []
    for entry, W in zip(manifest["layers"], weights):
        where = f"{path}: {entry['name']}"
        check_fields(entry, where, factors="object")
        m, n = W.shape
        C_shape = _matrix_shape(src / entry["file"])
        if C_shape != (n, n):
            raise PackageFormatError(f"{where}: C is {C_shape}; needs {(n, n)}")
        shapes = _stored_shapes("lowrank", m, n, min(m, n))
        factors.append(LowRankFactors(**_read_files(src, entry["factors"], where, shapes)))
    return factors


def format_float(x: float) -> str:
    """Shortest round-trip decimal form; deterministic for identical bits."""
    return repr(float(x))


def write_trajectory_csv(path, trajectory) -> None:
    """CSV columns: iter, mu_0..mu_{L-1}, rho, kl, n_param."""
    if not trajectory:
        raise ValueError("empty trajectory")
    n_layers = len(trajectory[0].mu)
    header = ["iter"] + [f"mu_{l}" for l in range(n_layers)] + ["rho", "kl", "n_param"]
    lines = [",".join(header)]
    for pt in trajectory:
        row = [str(pt.iteration)]
        row += [format_float(v) for v in pt.mu]
        row += [format_float(pt.rho), format_float(pt.kl), format_float(pt.n_param)]
        lines.append(",".join(row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def read_trajectory_csv(path):
    """Rows back as a list of dicts (floats); inverse of write_trajectory_csv."""
    with open(path) as fh:
        lines = fh.read().strip().split("\n")
    header = lines[0].split(",")
    rows = []
    for line in lines[1:]:
        vals = line.split(",")
        rows.append({k: (int(v) if k == "iter" else float(v))
                     for k, v in zip(header, vals)})
    return rows


def write_report(path, report: dict) -> None:
    """Indented JSON with sorted keys, so equal content gives equal bytes: run
    reports, package manifests and ranks files."""
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_ranks_file(path, allocation) -> None:
    write_report(path, {
        "ranks": [int(r) for r in allocation.ranks],
        "achieved_params": int(allocation.achieved_params),
        "target_params": int(allocation.target_params),
    })


def read_ranks_file(path) -> np.ndarray:
    """Ranks from a fermigrad ranks file or from a plain JSON list of integers."""
    payload = read_json(path)
    if isinstance(payload, list):
        payload = {"ranks": payload}
    return np.asarray(check_fields(payload, path, ranks="int list")["ranks"], dtype=np.int64)
