"""Every script under ``demos/`` runs to completion.

Each demo runs in a subprocess of its own with ``PYTHONPATH=src``, as its
docstring tells a reader to run it, and must exit with code 0; the
crossing study also renders its figures.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_exits_cleanly(demo, tmp_path):
    args = ["--plots", str(tmp_path)] if demo.stem == "crossing_collision_study" else []
    done = subprocess.run([sys.executable, str(demo), *args], cwd=ROOT,
                          env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    if args:
        assert (tmp_path / "domain_grid.csv").is_file()
        assert (tmp_path / "trajectories_000.csv").is_file()
