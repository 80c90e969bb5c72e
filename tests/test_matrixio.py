"""File formats: LRMX round trips, package manifests, CSV and reports."""

import hashlib
import json
import re
import struct

import numpy as np
import pytest

from lrcompress import (LowRankFactors, PackageFormatError, PivGaFactors, pivga_factorize,
                         plain_svd_compress)
from lrcompress import matrixio as mio
from lrcompress import toymodels as tm
from lrcompress.fermigrad import TrajectoryPoint, dense_forward


def save_small_calibration(pkg):
    """Calibrate a two-layer toy teacher, store its package in ``pkg`` and
    return the teacher."""
    spec = tm.ToyModelSpec(layer_shapes=[(4, 6), (3, 4)], planted_ranks=[2, 2])
    model = tm.build_teacher(spec)
    mats = tm.layer_calibration_matrices(model, tm.gen_calibration(spec, 20, seed=3))
    tm.attach_factors_from_calibration(model, mats)
    mio.save_calibration_package(pkg, mats, samples=20, seed=3, model=model)
    return model


class TestMatrixFile:
    def test_f64_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(1)
        M = rng.standard_normal((7, 11))
        path = tmp_path / "m.lrmx"
        mio.write_matrix(path, M)
        back = mio.read_matrix(path)
        assert back.dtype == np.float64
        assert np.array_equal(back, M)
        assert back.tobytes() == M.tobytes()

    def test_write_is_deterministic(self, tmp_path):
        rng = np.random.default_rng(2)
        M = rng.standard_normal((5, 3))
        mio.write_matrix(tmp_path / "a.lrmx", M)
        mio.write_matrix(tmp_path / "b.lrmx", M)
        assert (tmp_path / "a.lrmx").read_bytes() == (tmp_path / "b.lrmx").read_bytes()

    def test_header_layout(self, tmp_path):
        M = np.arange(6.0).reshape(2, 3)
        path = tmp_path / "m.lrmx"
        mio.write_matrix(path, M)
        raw = path.read_bytes()
        assert raw[:4] == b"LRMX"
        version, dtype, reserved = struct.unpack_from("<HBB", raw, 4)
        rows, cols = struct.unpack_from("<QQ", raw, 8)
        assert (version, dtype, reserved, rows, cols) == (1, 0, 0, 2, 3)
        assert len(raw) == 24 + 2 * 3 * 8

    def test_f32_boundary(self, tmp_path):
        rng = np.random.default_rng(3)
        M = rng.standard_normal((4, 4))
        path = tmp_path / "m32.lrmx"
        header = mio._HEADER.pack(mio.MAGIC, mio.VERSION, mio.DTYPE_F32, 0, 4, 4)
        path.write_bytes(header + M.astype("<f4").tobytes())
        back = mio.read_matrix(path)
        assert back.dtype == np.float64
        assert np.array_equal(back, M.astype(np.float32).astype(np.float64))

    def test_zero_column_matrix(self, tmp_path):
        path = tmp_path / "empty.lrmx"
        mio.write_matrix(path, np.zeros((4, 0)))
        assert mio.read_matrix(path).shape == (4, 0)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.lrmx"
        path.write_bytes(b"NOPE" + b"\x00" * 40)
        with pytest.raises(PackageFormatError):
            mio.read_matrix(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "trunc.lrmx"
        mio.write_matrix(path, np.ones((3, 3)))
        raw = path.read_bytes()
        path.write_bytes(raw[:-8])
        with pytest.raises(PackageFormatError):
            mio.read_matrix(path)

    def test_bad_reserved_byte(self, tmp_path):
        path = tmp_path / "resv.lrmx"
        mio.write_matrix(path, np.ones((2, 2)))
        raw = bytearray(path.read_bytes())
        raw[7] = 9
        path.write_bytes(bytes(raw))
        with pytest.raises(PackageFormatError):
            mio.read_matrix(path)

    @pytest.mark.parametrize("offset, fmt, value, message", [
        (4, "<H", 2, "unsupported version 2"),
        (6, "<B", 7, "unknown dtype code 7"),
    ], ids=["version", "dtype"])
    def test_bad_header_field(self, tmp_path, offset, fmt, value, message):
        path = tmp_path / "hdr.lrmx"
        mio.write_matrix(path, np.ones((2, 2)))
        raw = bytearray(path.read_bytes())
        struct.pack_into(fmt, raw, offset, value)
        path.write_bytes(bytes(raw))
        with pytest.raises(PackageFormatError, match=message):
            mio.read_matrix(path)

    @pytest.mark.parametrize("dtype", ["<f8", "<f4"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_nonfinite_payload(self, tmp_path, dtype, value):
        M = np.ones((3, 4))
        M[2, 1] = value
        path = tmp_path / "nonfinite.lrmx"
        code = mio.DTYPE_F64 if dtype == "<f8" else mio.DTYPE_F32
        path.write_bytes(mio._HEADER.pack(mio.MAGIC, mio.VERSION, code, 0, 3, 4)
                         + M.astype(dtype).tobytes())
        with pytest.raises(PackageFormatError, match="nonfinite.lrmx: payload holds NaN or Inf"):
            mio.read_matrix(path)

    @pytest.mark.parametrize("layout", ["C", "F", "transposed", "strided", "f32", "int"])
    def test_written_bytes_are_the_row_major_f64_values(self, tmp_path, layout):
        M = np.random.default_rng(4).standard_normal((6, 5))
        stored = {"C": M, "F": np.asfortranarray(M), "transposed": M.T.copy().T,
                  "strided": np.repeat(M, 2, axis=1)[:, ::2], "f32": M.astype(np.float32),
                  "int": np.arange(30).reshape(6, 5)}[layout]
        path = tmp_path / "m.lrmx"
        mio.write_matrix(path, stored)
        header = mio._HEADER.pack(mio.MAGIC, mio.VERSION, mio.DTYPE_F64, 0, 6, 5)
        assert path.read_bytes() == header + np.asarray(stored).astype("<f8").tobytes()

    def test_read_returns_an_owned_writable_array(self, tmp_path):
        path = tmp_path / "m.lrmx"
        mio.write_matrix(path, np.arange(6.0).reshape(2, 3))
        back = mio.read_matrix(path)
        assert back.flags.owndata and back.flags.writeable and back.flags.c_contiguous

    @pytest.mark.parametrize("change, size", [(-8, 64), (1, 73), (8, 80)],
                             ids=["short", "one-byte-long", "one-value-long"])
    def test_payload_length_refused_with_its_size(self, tmp_path, change, size):
        path = tmp_path / "len.lrmx"
        mio.write_matrix(path, np.ones((3, 3)))
        raw = path.read_bytes()
        path.write_bytes(raw[:change] if change < 0 else raw + b"\x00" * change)
        with pytest.raises(PackageFormatError,
                           match=f"len.lrmx: payload is {size} bytes, expected 72"):
            mio.read_matrix(path)


class TestIndices:
    def test_round_trip(self, tmp_path):
        idx = np.array([4, 0, 2, 3, 1], dtype=np.int64)
        path = tmp_path / "p.idx"
        mio.write_indices(path, idx)
        assert np.array_equal(mio.read_indices(path), idx)
        assert path.read_bytes() == idx.astype("<u8").tobytes()

    def test_bad_length(self, tmp_path):
        path = tmp_path / "bad.idx"
        path.write_bytes(b"\x01\x02\x03")
        with pytest.raises(PackageFormatError):
            mio.read_indices(path)


class TestModelPackage:
    def test_dense_round_trip(self, tmp_path):
        spec = tm.default_spec(seed=4)
        model = tm.build_teacher(spec)
        mio.save_model_package(tmp_path / "pkg", spec, model.dense_weights)
        pkg = mio.load_model_package(tmp_path / "pkg")
        assert pkg.spec.to_dict() == spec.to_dict()
        for layer, W in zip(pkg.layers, model.dense_weights):
            assert layer.kind == "dense"
            assert np.array_equal(layer.payload, W)
        again = pkg.to_toy_model()
        assert len(again.dense_weights) == 4

    def test_mixed_representations(self, tmp_path):
        rng = np.random.default_rng(5)
        W = rng.standard_normal((12, 12))
        f = plain_svd_compress(W, 4)
        pf = pivga_factorize(f)
        mio.save_model_package(tmp_path / "pkg", None, [W, f, pf])
        pkg = mio.load_model_package(tmp_path / "pkg")
        kinds = [l.kind for l in pkg.layers]
        assert kinds == ["dense", "lowrank", "pivga"]
        assert np.array_equal(pkg.layers[1].payload.A, f.A)
        assert np.array_equal(pkg.layers[2].payload.perm, pf.perm)
        rec = pkg.layers[2].payload.reconstruct()
        assert np.allclose(rec, pf.reconstruct())
        X = rng.standard_normal((12, 7))
        y = mio.package_forward(pkg, X)
        ref = dense_forward([W, f.reconstruct(), pf.reconstruct()], "tanh", X)
        assert np.linalg.norm(y - ref) <= 1e-10 * np.linalg.norm(ref)

    @pytest.mark.parametrize("rank", [0, 70])
    def test_lowrank_rank_outside_box_refused(self, tmp_path, rank):
        # the files agree with the manifest, so only the rank bound refuses them
        rng = np.random.default_rng(7)
        f = LowRankFactors(A=rng.standard_normal((64, rank)), B=rng.standard_normal((rank, 64)))
        mio.save_model_package(tmp_path / "pkg", None, [f])
        with pytest.raises(PackageFormatError, match=f"rank {rank} outside \\[1, 64\\]"):
            mio.load_model_package(tmp_path / "pkg")

    def test_pivga_rank_zero_refused(self, tmp_path):
        pf = PivGaFactors(Cmat=np.zeros((64, 0)), D=np.zeros((0, 64)),
                          perm=np.arange(64, dtype=np.int64), rank=0, n_cols=64,
                          cond_b0=1.0)
        mio.save_model_package(tmp_path / "pkg", None, [pf])
        with pytest.raises(PackageFormatError, match=r"rank 0 outside \[1, 64\]"):
            mio.load_model_package(tmp_path / "pkg")

    def test_manifest_shape_mismatch_detected(self, tmp_path):
        spec = tm.default_spec(seed=6)
        model = tm.build_teacher(spec)
        mio.save_model_package(tmp_path / "pkg", spec, model.dense_weights)
        manifest = json.loads((tmp_path / "pkg" / "manifest.json").read_text())
        manifest["layers"][0]["shape"] = [63, 64]
        (tmp_path / "pkg" / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(PackageFormatError):
            mio.load_model_package(tmp_path / "pkg")

    @pytest.mark.parametrize("package, version", [
        ("model", "banana"), ("calib", 7), ("model", True), ("calib", 1.0), ("model", None),
    ], ids=["str", "seven", "bool", "float", "missing"])
    def test_manifest_version_other_than_1_refused(self, tmp_path, package, version):
        if package == "model":
            mio.save_model_package(tmp_path / "pkg", None, [np.ones((3, 4))])
            load = mio.load_model_package
        else:
            save_small_calibration(tmp_path / "pkg")
            load = mio.load_calibration_package
        manifest = json.loads((tmp_path / "pkg" / "manifest.json").read_text())
        if version is None:
            del manifest["version"]
        else:
            manifest["version"] = version
        (tmp_path / "pkg" / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(PackageFormatError, match="version"):
            load(tmp_path / "pkg")

    def test_empty_layer_list_rejected(self, tmp_path):
        mio.save_model_package(tmp_path / "pkg", None, [])
        with pytest.raises(PackageFormatError, match="no layers"):
            mio.load_model_package(tmp_path / "pkg")

    def test_package_forward_matches_dense(self, tmp_path):
        spec = tm.default_spec(seed=7)
        model = tm.build_teacher(spec)
        mio.save_model_package(tmp_path / "pkg", spec, model.dense_weights)
        pkg = mio.load_model_package(tmp_path / "pkg")
        X = tm.gen_calibration(spec, 16, seed=8)
        y1 = mio.package_forward(pkg, X)
        y2 = dense_forward(model.dense_weights, model.nonlinearity, X)
        assert np.allclose(y1, y2, atol=1e-12)


# Every key a package stores, with the layer that holds it: the model package
# below stores a dense, a lowrank and a pivga layer.
STORED_KEYS = [
    ("model", "layer_00", "W"), ("model", "layer_01", "A"), ("model", "layer_01", "B"),
    ("model", "layer_02", "C"), ("model", "layer_02", "D"), ("model", "layer_02", "perm"),
    ("calib", "layer_01", "C"), ("calib", "layer_01", "A"), ("calib", "layer_01", "B"),
]


@pytest.mark.parametrize("package, layer, key", STORED_KEYS,
                         ids=[f"{package}-{key}" for package, _, key in STORED_KEYS])
def test_every_stored_key_is_shape_checked_on_load(tmp_path, package, layer, key):
    """A stored file one row (or, for the permutation, one entry) short is
    refused with a message naming its layer, its key and its shape."""
    rng = np.random.default_rng(6)
    if package == "model":
        f = plain_svd_compress(rng.standard_normal((10, 12)), 4)
        mio.save_model_package(tmp_path / "pkg", None,
                               [rng.standard_normal((10, 12)), f, pivga_factorize(f)])
        load = mio.load_model_package
    else:
        model = save_small_calibration(tmp_path / "pkg")

        def load(pkg_dir):
            mio.load_calibration_package(pkg_dir)
            mio.load_calibration_factors(pkg_dir, model)

    if key == "perm":
        path = tmp_path / "pkg" / f"{layer}.perm.idx"
        short = mio.read_indices(path)[:-1]
        mio.write_indices(path, short)
    else:
        path = tmp_path / "pkg" / f"{layer}.{key}.lrmx"
        short = mio.read_matrix(path)[:-1]
        mio.write_matrix(path, short)
    message = rf"{layer}: .*\b{key} is {re.escape(str(short.shape))}"
    with pytest.raises(PackageFormatError, match=message):
        load(tmp_path / "pkg")


class TestCalibrationPackage:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(9)
        mats = [X @ X.T for X in (rng.standard_normal((6, 20)),
                                  rng.standard_normal((4, 15)))]
        model = tm.build_teacher(tm.ToyModelSpec(layer_shapes=[(4, 6), (3, 4)],
                                                 planted_ranks=[2, 2]))
        tm.attach_factors_from_calibration(model, mats)
        mio.save_calibration_package(tmp_path / "calib", mats, samples=20, seed=3, model=model)
        back = mio.load_calibration_package(tmp_path / "calib")
        for a, b in zip(mats, back):
            assert np.array_equal(a, b)

    def test_calibration_matrix_shape_checked_on_load(self, tmp_path):
        spec = tm.ToyModelSpec(layer_shapes=[(4, 6), (3, 4)], planted_ranks=[2, 2])
        model = tm.build_teacher(spec)
        mats = tm.layer_calibration_matrices(model, tm.gen_calibration(spec, 20, seed=3))
        tm.attach_factors_from_calibration(model, mats)
        mio.save_calibration_package(tmp_path / "calib", mats, samples=20, seed=3, model=model)
        mio.write_matrix(tmp_path / "calib" / "layer_01.C.lrmx", mats[1][:, :-1])
        with pytest.raises(PackageFormatError,
                           match=r"layer_01: C is \(4, 3\); needs \(4, 4\)"):
            mio.load_calibration_package(tmp_path / "calib")

    def test_factors_round_trip_and_teacher_digest(self, tmp_path):
        spec = tm.ToyModelSpec(layer_shapes=[(6, 8), (5, 6)], planted_ranks=[2, 3])
        model = tm.build_teacher(spec)
        mats = tm.layer_calibration_matrices(model, tm.gen_calibration(spec, 40, seed=1))
        tm.attach_factors_from_calibration(model, mats)
        mio.save_calibration_package(tmp_path / "calib", mats, samples=40, seed=1, model=model)
        back = mio.load_calibration_factors(tmp_path / "calib", model)
        assert [f.A.shape + f.B.shape for f in back] == [(6, 6, 6, 8), (5, 5, 5, 6)]
        for f, g in zip(back, model.factors):
            assert np.array_equal(f.A, g.A) and np.array_equal(f.B, g.B)
        for a, b in zip(mats, mio.load_calibration_package(tmp_path / "calib")):
            assert np.array_equal(a, b)
        other = [model.dense_weights[0], model.dense_weights[1].reshape(6, 5)]
        with pytest.raises(PackageFormatError, match="another teacher"):
            mio.load_calibration_factors(tmp_path / "calib", tm.ToyModel(spec, other))

    def test_digest_covers_shape_and_every_bit(self):
        spec = tm.ToyModelSpec(layer_shapes=[(3, 4)], planted_ranks=[2])

        def weights_digest(weights):
            return mio.teacher_digest(tm.ToyModel(spec, weights))

        W = np.arange(12.0).reshape(3, 4)
        base = weights_digest([W])
        assert base == weights_digest([W.copy(order="F")])
        assert base != weights_digest([W.reshape(4, 3)])
        bumped = W.copy()
        bumped[2, 3] = np.nextafter(bumped[2, 3], np.inf)
        assert base != weights_digest([bumped])


    def test_digest_hashes_the_documented_bytes(self):
        spec = tm.ToyModelSpec(layer_shapes=[(3, 4), (2, 3)], planted_ranks=[2, 1])
        weights = [np.asfortranarray(np.arange(12.0).reshape(3, 4)),
                   np.arange(6.0).reshape(3, 2).T]
        h = hashlib.sha256()
        text = json.dumps(spec.to_dict(), sort_keys=True, separators=(",", ":")).encode()
        h.update(struct.pack("<Q", len(text)) + text + struct.pack("<q", 5))
        for W in weights:
            h.update(struct.pack("<QQ", *W.shape) + W.astype("<f8").tobytes(order="C"))
        assert mio.teacher_digest(tm.ToyModel(spec, weights, n_inc=5)) == h.hexdigest()

    def test_digest_covers_spec_and_n_inc(self):
        spec = tm.ToyModelSpec(layer_shapes=[(3, 4)], planted_ranks=[2])
        W = [np.arange(12.0).reshape(3, 4)]
        base = mio.teacher_digest(tm.ToyModel(spec, W))
        assert base == mio.teacher_digest(tm.ToyModel(tm.ToyModelSpec(**spec.to_dict()), W))
        for changed in ({"nonlinearity": "identity"}, {"seed": 1}, {"planted_ranks": [3]},
                        {"spectrum_decay": 2.5}, {"noise_floor": 2e-3}, {"signal_gain": 4.0}):
            other = tm.ToyModelSpec(**{**spec.to_dict(), **changed})
            assert mio.teacher_digest(tm.ToyModel(other, W)) != base, changed
        assert mio.teacher_digest(tm.ToyModel(spec, W, n_inc=1)) != base


class TestTrajectoryCsv:
    def test_round_trip_and_header(self, tmp_path):
        traj = [
            TrajectoryPoint(iteration=0, mu=np.array([64.0, 63.5]), rho=1.0,
                            kl=1.25e-7, n_param=32000.0),
            TrajectoryPoint(iteration=1, mu=np.array([60.1, 59.993]), rho=1.02,
                            kl=3.5e-6, n_param=31000.5),
        ]
        path = tmp_path / "traj.csv"
        mio.write_trajectory_csv(path, traj)
        text = path.read_text().splitlines()
        assert text[0] == "iter,mu_0,mu_1,rho,kl,n_param"
        rows = mio.read_trajectory_csv(path)
        assert rows[0]["iter"] == 0
        assert rows[1]["mu_1"] == 59.993
        assert rows[1]["rho"] == 1.02

    def test_float_format_round_trips_exactly(self, tmp_path):
        vals = np.array([1 / 3, np.pi, 1e-300, 123456.789012345])
        traj = [TrajectoryPoint(iteration=0, mu=vals, rho=2.0 / 3.0,
                                kl=1e-17, n_param=9830.000000001)]
        path = tmp_path / "t.csv"
        mio.write_trajectory_csv(path, traj)
        row = mio.read_trajectory_csv(path)[0]
        for i, v in enumerate(vals):
            assert row[f"mu_{i}"] == v
        assert row["rho"] == 2.0 / 3.0
        assert row["n_param"] == 9830.000000001


class TestReportsAndRanks:
    def test_report_deterministic_key_order(self, tmp_path):
        report = {"b": 1, "a": {"z": 2, "y": 3}}
        mio.write_report(tmp_path / "r1.json", report)
        mio.write_report(tmp_path / "r2.json", {"a": {"y": 3, "z": 2}, "b": 1})
        assert (tmp_path / "r1.json").read_bytes() == (tmp_path / "r2.json").read_bytes()

    def test_ranks_file_round_trip(self, tmp_path):
        from lrcompress.fermigrad import RankAllocation
        alloc = RankAllocation(ranks=np.array([5, 9, 17]), achieved_params=3968,
                               target_params=4000)
        mio.write_ranks_file(tmp_path / "ranks.json", alloc)
        back = mio.read_ranks_file(tmp_path / "ranks.json")
        assert back.tolist() == [5, 9, 17]

    def test_plain_list_ranks_accepted(self, tmp_path):
        (tmp_path / "r.json").write_text("[1, 2, 3]")
        assert mio.read_ranks_file(tmp_path / "r.json").tolist() == [1, 2, 3]
