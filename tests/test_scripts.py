"""Smoke tests of the scripts under scripts/, run as their users run them."""

import subprocess
import sys
from pathlib import Path

from crystile.serialize import load_json_file, tiling_from_json

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def test_metric_demo_runs_and_reverifies():
    # the demo puts src/ on its own path, composes two witnesses and
    # re-verifies the composite exactly
    done = subprocess.run([sys.executable, str(SCRIPTS / "metric_demo.py")],
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert "re-verified: True" in done.stdout


def test_build_gallery_writes_every_group(tmp_path):
    # one JSON file and two SVG files (construction and Voronoi) per
    # wallpaper group, and every JSON file loads back as a valid tiling
    done = subprocess.run([sys.executable, str(SCRIPTS / "build_gallery.py"), str(tmp_path)],
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    jsons, svgs = sorted(tmp_path.glob("*.json")), sorted(tmp_path.glob("*.svg"))
    assert (len(jsons), len(svgs)) == (17, 34)
    for path in jsons:
        assert tiling_from_json(load_json_file(str(path))).dim == 2
