"""The Python demos run to completion against the package in src/."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
# 04_cli_pipeline.sh needs the installed lrcompress entry point, so it is not run here.
DEMOS = sorted((ROOT / "demos").glob("0[1-3]_*.py"))


def test_three_python_demos_found():
    assert [d.name[:2] for d in DEMOS] == ["01", "02", "03"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_exits_zero(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
