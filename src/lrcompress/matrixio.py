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

Round-tripping a float64 matrix is bit-exact. Permutation index files are
raw little-endian u64 sequences. A model package is a directory with a
manifest.json naming every layer, its shape and representation
(dense | lowrank | pivga) and the files holding its factors.
"""

from __future__ import annotations

import json
import math
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


def write_matrix(path, M, dtype: str = "f64") -> None:
    """Write a 2-D array as an LRMX file; dtype "f64" (exact) or "f32"."""
    M = np.asarray(M, dtype=np.float64)
    if M.ndim != 2:
        raise PackageFormatError(f"can only store 2-D matrices, got ndim={M.ndim}")
    code = {"f64": DTYPE_F64, "f32": DTYPE_F32}.get(dtype)
    if code is None:
        raise PackageFormatError(f"dtype must be 'f64' or 'f32', got {dtype!r}")
    header = _HEADER.pack(MAGIC, VERSION, code, 0, M.shape[0], M.shape[1])
    payload = np.ascontiguousarray(M).astype(_DTYPES[code]).tobytes()
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)


def read_matrix(path) -> np.ndarray:
    """Read an LRMX file back as a float64 array (f32 payloads are upcast)."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _HEADER.size:
        raise PackageFormatError(f"{path}: truncated header")
    magic, version, code, reserved, rows, cols = _HEADER.unpack_from(raw)
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
    payload = raw[_HEADER.size:]
    if len(payload) != expected:
        raise PackageFormatError(
            f"{path}: payload is {len(payload)} bytes, expected {expected}"
        )
    data = np.frombuffer(payload, dtype=dt).reshape(rows, cols)
    return data.astype(np.float64)


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
# int64 and "number" such an integer or a finite float.
_KINDS = {
    "object": lambda v: isinstance(v, dict),
    "list": lambda v: isinstance(v, list),
    "str": lambda v: isinstance(v, str),
    "int": _is_int,
    "int or null": lambda v: v is None or _is_int(v),
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


def _write_manifest(path: Path, manifest: dict) -> None:
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _read_manifest(path: Path, expected_format: str) -> dict:
    manifest = check_fields(read_json(path), path)
    if manifest.get("format") != expected_format:
        raise PackageFormatError(
            f"{path}: format is {manifest.get('format')!r}, expected {expected_format!r}"
        )
    return check_fields(manifest, path, layers="list")


# The files each layer representation stores, by their key in "files".
_LAYER_FILES = {"dense": ("W",), "lowrank": ("A", "B"), "pivga": ("C", "D", "perm")}


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
            fname = f"{name}.W.lrmx"
            write_matrix(out / fname, payload)
            entries.append({"name": name, "shape": list(payload.shape),
                            "repr": "dense", "files": {"W": fname}})
        elif isinstance(payload, LowRankFactors):
            fa, fb = f"{name}.A.lrmx", f"{name}.B.lrmx"
            write_matrix(out / fa, payload.A)
            write_matrix(out / fb, payload.B)
            entries.append({"name": name, "shape": list(payload.shape),
                            "repr": "lowrank", "rank": payload.rank,
                            "files": {"A": fa, "B": fb}})
        elif isinstance(payload, PivGaFactors):
            fc, fd, fp = f"{name}.C.lrmx", f"{name}.D.lrmx", f"{name}.perm.idx"
            write_matrix(out / fc, payload.Cmat)
            write_matrix(out / fd, payload.D)
            write_indices(out / fp, payload.perm)
            entries.append({"name": name,
                            "shape": [payload.Cmat.shape[0], payload.n_cols],
                            "repr": "pivga", "rank": payload.rank,
                            "files": {"C": fc, "D": fd, "perm": fp}})
        else:
            raise PackageFormatError(f"unsupported layer payload {type(payload)!r}")
    manifest = {
        "format": MODEL_FORMAT,
        "version": 1,
        "n_inc": n_inc,
        "spec": spec.to_dict() if spec is not None else None,
        "layers": entries,
    }
    _write_manifest(out / "manifest.json", manifest)


def load_model_package(in_dir) -> LoadedPackage:
    src = Path(in_dir)
    path = src / "manifest.json"
    manifest = _read_manifest(path, MODEL_FORMAT)
    manifest.setdefault("n_inc", 0)
    check_fields(manifest, path, n_inc="int")
    if not manifest["layers"]:
        raise PackageFormatError(f"{path}: model has no layers")
    spec = None
    if manifest.get("spec") is not None:
        spec = ToyModelSpec.from_dict(manifest["spec"])
    layers = []
    for l, entry in enumerate(manifest["layers"]):
        where = f"{path}: layer {l}"
        check_fields(entry, where, name="str", repr="str", shape="int pair", files="object")
        kind = entry["repr"]
        if kind not in _LAYER_FILES:
            raise PackageFormatError(f"unknown layer repr {kind!r}")
        files = check_fields(entry["files"], f"{where} files",
                             **dict.fromkeys(_LAYER_FILES[kind], "str"))
        m, n = shape = tuple(entry["shape"])
        if kind == "dense":
            payload = read_matrix(src / files["W"])
            if payload.shape != shape:
                raise PackageFormatError(
                    f"{entry['name']}: file shape {payload.shape} != manifest {shape}"
                )
        elif kind == "lowrank":
            r = check_fields(entry, where, rank="int")["rank"]
            A, B = read_matrix(src / files["A"]), read_matrix(src / files["B"])
            if A.shape != (m, r) or B.shape != (r, n):
                raise PackageFormatError(f"{entry['name']}: factor shapes disagree with manifest")
            payload = LowRankFactors(A=A, B=B)
        else:
            r = check_fields(entry, where, rank="int")["rank"]
            Cmat, D = read_matrix(src / files["C"]), read_matrix(src / files["D"])
            if Cmat.shape != (m, r) or D.shape != (r, n - r):
                raise PackageFormatError(
                    f"{entry['name']}: C is {Cmat.shape} and D is {D.shape}, manifest "
                    f"shape {shape} at rank {r} needs {(m, r)} and {(r, n - r)}"
                )
            perm = read_indices(src / files["perm"])
            if len(perm) != n or sorted(perm.tolist()) != list(range(n)):
                raise PackageFormatError(f"{entry['name']}: invalid permutation")
            payload = PivGaFactors(Cmat=Cmat, D=D, perm=perm, rank=r, n_cols=n,
                                   cond_b0=float("nan"))
        layers.append(PackageLayer(name=entry["name"], shape=shape, kind=kind,
                                   payload=payload))
    return LoadedPackage(spec=spec, n_inc=manifest["n_inc"], layers=layers)


def package_forward(pkg: LoadedPackage, X) -> np.ndarray:
    """Run a loaded package on a batch (columns are samples)."""
    nonlin = pkg.spec.nonlinearity if pkg.spec is not None else "tanh"
    return fermigrad.run([l.payload for l in pkg.layers], nonlin,
                         np.asarray(X, dtype=np.float64))


def save_calibration_package(out_dir, mats, samples: int, seed: int) -> None:
    """Write per-layer calibration matrices C_l, one LRMX file each."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    entries = []
    for l, C in enumerate(mats):
        name = f"layer_{l:02d}"
        fname = f"{name}.C.lrmx"
        write_matrix(out / fname, C)
        entries.append({"name": name, "file": fname, "dim": int(C.shape[0])})
    manifest = {"format": CALIB_FORMAT, "version": 1, "samples": samples,
                "seed": seed, "layers": entries}
    _write_manifest(out / "manifest.json", manifest)


def load_calibration_package(in_dir) -> list:
    src = Path(in_dir)
    path = src / "manifest.json"
    manifest = _read_manifest(path, CALIB_FORMAT)
    mats = []
    for l, entry in enumerate(manifest["layers"]):
        check_fields(entry, f"{path}: layer {l}", name="str", file="str", dim="int")
        C = read_matrix(src / entry["file"])
        if C.shape != (entry["dim"], entry["dim"]):
            raise PackageFormatError(f"{entry['name']}: calibration matrix shape mismatch")
        mats.append(C)
    return mats


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
    """Machine-parseable run report; key order is fixed for diffability."""
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_ranks_file(path, allocation) -> None:
    payload = {
        "ranks": [int(r) for r in allocation.ranks],
        "achieved_params": int(allocation.achieved_params),
        "target_params": int(allocation.target_params),
    }
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_ranks_file(path) -> np.ndarray:
    """Ranks from a fermigrad ranks file or from a plain JSON list of integers."""
    payload = read_json(path)
    if isinstance(payload, list):
        payload = {"ranks": payload}
    return np.asarray(check_fields(payload, path, ranks="int list")["ranks"], dtype=np.int64)
