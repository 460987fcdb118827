"""Smoke tests of the scripts under scripts/, run as their users run them."""

import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_metric_demo_runs_and_reverifies():
    # the demo puts src/ on its own path, composes two witnesses and
    # re-verifies the composite exactly
    done = subprocess.run([sys.executable, str(SCRIPTS / "metric_demo.py")],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "re-verified: True" in done.stdout
