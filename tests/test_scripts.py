import os
import subprocess
import sys
from pathlib import Path

import firewatch

ROOT = Path(__file__).resolve().parents[1]


def test_run_emergency_script_smoke():
    """The drill script runs end to end on one small seed: planning, event
    generation, simulate, the analytic bound and the response table."""
    src = str(Path(firewatch.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_emergency.py"),
         "--seeds", "1", "--sensors", "40"],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "seed  0 fleet" in done.stdout
    assert "events, policy nearest" in done.stdout
