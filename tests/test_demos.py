"""The demos and the README's library quickstart run to completion against the
package in src/."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("0[1-3]_*.py"))


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return env


def test_three_python_demos_found():
    assert [d.name[:2] for d in DEMOS] == ["01", "02", "03"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda d: d.stem)
def test_demo_exits_zero(demo):
    proc = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=_env(),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_readme_library_quickstart_exits_zero():
    """The python block under the README's "Quickstart (library)" heading."""
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Quickstart (library)\n", 1)[1].split("\n## ", 1)[0]
    code = section.split("```python\n", 1)[1].split("\n```", 1)[0]
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=_env(),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


def test_cli_pipeline_demo_exits_zero(tmp_path):
    """04_cli_pipeline.sh, with an `lrcompress` shim on PATH running the CLI from src/."""
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    shim = bin_dir / "lrcompress"
    shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m lrcompress.cli "$@"\n')
    shim.chmod(0o755)
    env = _env()
    env["PATH"] = os.pathsep.join((str(bin_dir), env.get("PATH", "")))
    env["TMPDIR"] = str(tmp_path)  # the demo's mktemp -d directory goes under tmp_path
    proc = subprocess.run(["sh", str(ROOT / "demos" / "04_cli_pipeline.sh")], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
