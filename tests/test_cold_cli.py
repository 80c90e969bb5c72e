"""scripts/cold_cli.py: its chain's flags, and one pair on this checkout."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_cold_cli():
    spec = importlib.util.spec_from_file_location("cold_cli", ROOT / "scripts" / "cold_cli.py")
    cold_cli = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(cold_cli)
    return cold_cli


def contains(argv, flags) -> bool:
    """Whether ``flags`` occurs in ``argv`` as one contiguous run."""
    return any(argv[i:i + len(flags)] == flags for i in range(len(argv)))


def test_chain_carries_the_benchmark_flags():
    cold_cli = load_cold_cli()
    c = cold_cli.wl.desk_configs(cold_cli.equiv_ab.COMPARE_SEED)[0]
    argvs = dict(zip(cold_cli.COMMANDS, cold_cli.chain_argvs()))
    assert all(argv[0] == name for name, argv in argvs.items())
    assert contains(argvs["gen-teacher"], c.gen)
    assert contains(argvs["calibrate"], c.calibrate)
    assert contains(argvs["fermigrad"], c.fermigrad)
    assert contains(argvs["fermigrad"], ["--mode", "linear"])
    assert contains(argvs["compare"], c.compare)
    assert contains(argvs["compare"], ["--mode", "linear"])


def test_one_pair_times_every_command(tmp_path):
    cold_cli = load_cold_cli()
    out = tmp_path / "cold.json"
    assert cold_cli.main(["--tree", str(ROOT), "--pairs", "1", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    entry = doc["trees"][str(ROOT)]
    names = [*cold_cli.COMMANDS, "chain"]
    assert sorted(entry["median_s"]) == sorted(names)
    assert all(len(entry["samples_s"][n]) == 1 for n in names)
    assert all(entry["median_s"][n] > 0.0 for n in names)
    assert entry["median_s"]["chain"] == sum(entry["median_s"][n] for n in cold_cli.COMMANDS)
