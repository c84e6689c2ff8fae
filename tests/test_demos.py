"""The demo scripts run end to end, and the traffic demo's CSVs match the
committed copies byte for byte (they pin the DCN stepper's output)."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ROOT / "demos"


def _run(script: Path, tmp_path: Path) -> subprocess.CompletedProcess:
    """Runs a copy of ``script`` in tmp_path, so its outputs land there."""
    copy = tmp_path / script.name
    shutil.copy(script, copy)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, str(copy)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)


# CSVs each demo writes next to itself, committed as goldens
WRITES = {"traffic_trajectories": ["traffic_steady_state.csv", "traffic_two_weeks.csv"]}


@pytest.mark.parametrize("script", sorted(DEMOS.glob("*.py")), ids=lambda p: p.stem)
def test_demo_runs(script, tmp_path):
    done = _run(script, tmp_path)
    assert done.returncode == 0, done.stderr
    written = sorted(p.name for p in tmp_path.glob("*.csv"))
    assert written == WRITES.get(script.stem, [])
    for name in written:
        assert (tmp_path / name).read_bytes() == (DEMOS / name).read_bytes()
