"""scripts/equiv_ab.py: its file comparison on canned trees, and one desk
teacher's chain run from this checkout on both sides."""

import importlib.util
import json
import math
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "equiv_ab.py"


@pytest.fixture(scope="module")
def equiv_ab():
    spec = importlib.util.spec_from_file_location("equiv_ab", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_tree(root: Path, kl: float, wall: float, mu: str, weight: bytes, extra: bool,
               added=None):
    root.mkdir()
    (root / "same.lrmx").write_bytes(b"LRMX same")
    (root / "w.lrmx").write_bytes(weight)
    report = {"kl_eval": kl, "final_ranks": [3, 4], "stop_reason": "converged",
              "wall_time_s": wall, "timings_s": {"load": wall / 2}, **(added or {})}
    (root / "fermigrad.json").write_text(json.dumps(report))
    (root / "timing_only.json").write_text(json.dumps({"ranks": [3], "wall_time_s": wall}))
    (root / "trajectory.csv").write_text(f"iter,mu_0,kl\n0,{mu},0.25\n1,3.0,0.125\n")
    if extra:
        (root / "only_parent.json").write_text("{}")


def test_finds_each_kind_of_difference(equiv_ab, tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    write_tree(parent, kl=1.0, wall=2.0, mu="4.0", weight=b"LRMX a", extra=True)
    write_tree(change, kl=1.25, wall=3.0, mu="4.004", weight=b"LRMX b", extra=False,
               added={"equals_uniform": True})
    files, diffs = equiv_ab.compare_trees(parent, change)

    assert files["same.lrmx"] == {"identical_bytes": True, "match": True}
    assert files["w.lrmx"] == {"identical_bytes": False, "match": False}
    assert files["only_parent.json"]["missing_in"] == "change"
    # differing timing fields alone make the bytes differ but not the content
    assert files["timing_only.json"] == {"identical_bytes": False, "match": True}
    assert "wall_time_s" not in diffs["timing_only.json"]
    assert not files["fermigrad.json"]["match"]
    assert files["fermigrad.json"]["only_in_change"] == ["equals_uniform"]
    assert "only_in_parent" not in files["fermigrad.json"]
    assert diffs["fermigrad.json"]["kl_eval"] == pytest.approx(0.2)
    assert diffs["fermigrad.json"]["final_ranks[1]"] == 0.0
    assert not any(key.startswith("timings_s") for key in diffs["fermigrad.json"])
    assert not files["trajectory.csv"]["match"]
    assert diffs["trajectory.csv"]["mu_0"] == pytest.approx(0.004 / 4.004)
    assert diffs["trajectory.csv"]["kl"] == 0.0

    commands = {side: [{"argv": ["x"], "exit": 0}] for side in equiv_ab.SIDES}
    summary = equiv_ab.summarize(commands, files, diffs)
    assert summary["mismatched"] == ["fermigrad.json", "only_parent.json",
                                     "trajectory.csv", "w.lrmx"]
    assert summary["largest_rel_diff"] == pytest.approx(0.2)
    assert not summary["equivalent"]


def test_rel_diff(equiv_ab):
    assert equiv_ab.rel_diff(2.0, 2.0) == 0.0
    assert equiv_ab.rel_diff(0.0, 0.0) == 0.0
    assert equiv_ab.rel_diff(math.nan, math.nan) == 0.0
    assert equiv_ab.rel_diff(math.nan, 1.0) == math.inf
    assert equiv_ab.rel_diff(-1.0, 1.0) == 2.0


def test_one_desk_teacher_against_itself(equiv_ab, tmp_path):
    # linear mode only: parabolic mode's 1500 iterations and oracle double the time
    out = tmp_path / "equiv.json"
    doc = equiv_ab.check(ROOT, ROOT, out, [0], ["linear"], False)
    assert json.loads(out.read_text()) == doc
    summary = doc["summary"]
    assert summary["equivalent"], summary
    assert summary["failed_commands"] == [] and summary["mismatched"] == []
    assert summary["largest_rel_diff"] == 0.0
    assert len(doc["commands"]["parent"]) == 6
    d = "desk/teacher0/linear"
    for name in ("ranks.json", "trajectory.csv", "student/manifest.json",
                 "student_plain/manifest.json"):
        assert doc["files"][f"{d}/{name}"]["identical_bytes"], name
    assert doc["max_rel_diff"][f"{d}/fermigrad.json"]["kl_eval"] == 0.0
    assert doc["max_rel_diff"][f"{d}/trajectory.csv"]["mu_0"] == 0.0


def test_pivga_serve_seed_against_itself(equiv_ab, tmp_path):
    out = tmp_path / "equiv.json"
    doc = equiv_ab.check(ROOT, ROOT, out, [], [], False, [0])
    assert doc["scope"]["pivga_serve_seeds"] == [0]
    summary = doc["summary"]
    assert summary["equivalent"], summary
    command, = doc["commands"]["change"]
    assert command["exit"] == 0, command
    d = "pivga-serve/seed0/student"
    assert {name for name in doc["files"] if name.startswith(d)} == {
        f"{d}/{name}" for name in ("manifest.json", "layer_00.C.lrmx", "layer_00.D.lrmx",
                                   "layer_00.perm.idx")}
    assert all(f["identical_bytes"] for f in doc["files"].values())
