"""The benchmark harness in ``bench/`` against the current program.

Each workload's correctness gate runs in-process against
``bench/reference.json`` at the reference's own tolerance, and one operation
of each workload runs under the benchmark's tracer. A change that moves a
gate value past its tolerance, or renames a function the tracer binds,
fails here and not only in a benchmark run. Nothing under ``bench/`` is
written: not even bytecode caches.
"""

import sys
from pathlib import Path

import pytest

from scantraj import training

BENCH = Path(__file__).resolve().parents[1] / "bench"
ENTRY_SPANS = {"crowd_train": "training.train_deterministic",
               "gan_synth": "training.train_gan",
               "eval_crowd": "training.evaluate"}


def bench_files() -> dict:
    """Size and modification time of every file under bench/, except the
    benchmark's own run output."""
    return {str(p.relative_to(BENCH)): (p.stat().st_size, p.stat().st_mtime_ns)
            for p in BENCH.rglob("*")
            if p.is_file() and p.relative_to(BENCH).parts[0] != "out"}


@pytest.fixture(scope="module")
def harness():
    before = bench_files()
    saved = sys.dont_write_bytecode, list(sys.path)
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(BENCH))
    try:
        import child
        import tracer
        import workloads
        yield child, tracer, workloads
    finally:
        sys.dont_write_bytecode, sys.path[:] = saved
    assert bench_files() == before


@pytest.mark.parametrize("name", sorted(ENTRY_SPANS))
def test_gate_values_match_the_reference(harness, name, tmp_path):
    child, _, workloads = harness
    reference = child.json.loads(child.REFERENCE.read_text())
    values = workloads.WORKLOADS[name].gate_values(tmp_path)
    assert child.compare(values, reference[name], reference["rtol"]) == []


@pytest.mark.parametrize("name", sorted(ENTRY_SPANS))
def test_one_traced_operation_runs(harness, name, tmp_path):
    _, tracer, workloads = harness
    original = training.train_deterministic
    wl = workloads.WORKLOADS[name](1)
    wl.prepare(tmp_path)
    spans = tracer.Tracer()
    spans.install()
    try:
        _, op = wl.op(0)
        error = op()
    finally:
        spans.uninstall()
    assert error is None
    assert wl.checks() == []
    assert training.train_deterministic is original
    [rep] = spans.per_rep()
    assert rep["calls"][ENTRY_SPANS[name]] == 1
    assert sum(rep["calls"].values()) > 1
