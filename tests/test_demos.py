"""The demo scripts run to completion from a copy of the demos folder."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ROOT / "demos"


@pytest.mark.parametrize("script", ["model_tour.py", "orbit_run.py", "so2n_tour.py"])
def test_demo_runs(tmp_path, script):
    # a copy, so so2n_tour.py writes its figure beside the copy
    shutil.copy(DEMOS / script, tmp_path / script)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, script], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stdout + proc.stderr
    if script == "so2n_tour.py":
        svg = tmp_path / "so25_hulls.svg"
        assert svg.read_bytes() == (DEMOS / "so25_hulls.svg").read_bytes()
