"""scripts/cold_cli.py: one pair on this checkout."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_one_pair_times_every_command(tmp_path):
    spec = importlib.util.spec_from_file_location("cold_cli", ROOT / "scripts" / "cold_cli.py")
    cold_cli = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(cold_cli)
    out = tmp_path / "cold.json"
    assert cold_cli.main(["--tree", str(ROOT), "--pairs", "1", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    entry = doc["trees"][str(ROOT)]
    names = [*cold_cli.COMMANDS, "chain"]
    assert sorted(entry["median_s"]) == sorted(names)
    assert all(len(entry["samples_s"][n]) == 1 for n in names)
    assert all(entry["median_s"][n] > 0.0 for n in names)
    assert entry["median_s"]["chain"] == sum(entry["median_s"][n] for n in cold_cli.COMMANDS)
