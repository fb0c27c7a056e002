"""Every script under ``demos/`` and the README's Python quick start run
to completion.

Each runs in a subprocess of its own with ``PYTHONPATH=src``, as a reader
would run it, and must exit with code 0; the crossing study also renders
its figures, and the quick start writes its checkpoint and report.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from scantraj.metrics import MetricReport

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))
ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src")}


@pytest.mark.parametrize("demo", DEMOS, ids=lambda path: path.stem)
def test_demo_exits_cleanly(demo, tmp_path):
    args = ["--plots", str(tmp_path)] if demo.stem == "crossing_collision_study" else []
    done = subprocess.run([sys.executable, str(demo), *args], cwd=ROOT, env=ENV,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    if args:
        assert (tmp_path / "domain_grid.csv").is_file()
        assert (tmp_path / "trajectories_000.csv").is_file()


def test_readme_python_quick_start_runs_as_written(tmp_path):
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"## Quick start \(Python\)\n\n```python\n(.*?)```", readme, re.S)
    assert block, "README has no Python quick start block"
    done = subprocess.run([sys.executable, "-c", block.group(1)], cwd=tmp_path, env=ENV,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "model.ckpt").is_file()
    MetricReport.from_csv(done.stdout)
