"""One benchmark process: set up a workload, then measure, trace or check it.

``run.py`` starts a fresh child for every measurement, so each one pays
its own import, runs single-threaded and keeps the cyclic garbage
collector on. The child prints one JSON object as its last line.

Modes:

``setup``    set up and stop; reports ``setup_s``
``measure``  set up, then run operations until ``--seconds`` have passed,
             then the correctness gate
``trace``    alternate untraced and traced repetitions of set-up plus
             operation 0 until ``--seconds`` have passed, then the gate
``gate``     the correctness gate alone, against ``--reference``

``python3 bench/child.py --write-reference`` recomputes the gate values
at the current source and writes them to ``bench/reference.json``.
"""

import time

T_START = time.perf_counter()   # set-up time counts from before any import

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"
REFERENCE = BENCH / "reference.json"
DEFAULT_RTOL = 1e-7

if not (SRC / "scantraj" / "__init__.py").is_file():
    sys.exit(f"child.py: no scantraj sources under {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import workloads  # noqa: E402


def run_op(op) -> str | None:
    """Run one operation; any exception or failed check is its failure."""
    try:
        return op()
    except Exception as exc:  # a failed operation is counted, not fatal
        return f"{type(exc).__name__}: {exc}"


def compare(values: dict, reference: dict, rtol: float) -> list[str]:
    problems = []
    if set(values) != set(reference):
        problems.append(f"gate values {sorted(set(values) ^ set(reference))} "
                        "missing on one side")
    for key in sorted(set(values) & set(reference)):
        got, want = values[key], reference[key]
        if not abs(got - want) <= rtol * max(1.0, abs(want)):
            problems.append(f"{key} = {got!r}, reference {want!r}")
    return problems


def correctness(wl, reference_path: Path, workdir: Path) -> list[str]:
    """Per-seed invariants from set-up plus the fixed-seed reference gate."""
    problems = wl.checks()
    reference = json.loads(reference_path.read_text())
    gate_dir = workdir / "gate"
    gate_dir.mkdir()
    try:
        values = type(wl).gate_values(gate_dir)
    except Exception as exc:  # the gate itself failing is a gate failure
        return problems + [f"gate raised {type(exc).__name__}: {exc}"]
    return problems + compare(values, reference[wl.name], reference["rtol"])


def run_counted(wl, r: int, tally: dict) -> int:
    """Run operation ``r``; returns the scenes it consumed."""
    n_scenes, op = wl.op(r)
    t = time.perf_counter()
    error = run_op(op)
    tally["op_s"].append(time.perf_counter() - t)
    tally["attempted"] += 1
    if error is not None:
        tally["failed"] += 1
        tally["errors"].append(error)
    return n_scenes


def new_tally() -> dict:
    return {"op_s": [], "attempted": 0, "failed": 0, "errors": []}


def finish(tally: dict, problems: list[str]) -> None:
    tally["attempted"] += 1           # the correctness gate is one operation
    if problems:
        tally["failed"] += 1
        tally["errors"].extend(problems)


def measure(wl, seconds: float, workdir: Path, reference: Path) -> dict:
    wl.prepare(workdir)
    setup_s = time.perf_counter() - T_START
    gc.collect()
    tally = new_tally()
    scenes, r = 0, 0
    start = time.perf_counter()
    while r == 0 or time.perf_counter() - start < seconds:
        scenes += run_counted(wl, r, tally)
        r += 1
    loop_s = time.perf_counter() - start
    finish(tally, correctness(wl, reference, workdir))
    return {"setup_s": setup_s, "loop_s": loop_s, "scenes": scenes, **tally}


class GcClock:
    """gc.callbacks hook: pause seconds and generation-2 collections."""

    def __init__(self):
        self.pause_s = 0.0
        self.gen2 = 0
        self._t = 0.0

    def __call__(self, phase, info):
        if phase == "start":
            self._t = time.perf_counter()
        else:
            self.pause_s += time.perf_counter() - self._t
            self.gen2 += info["generation"] == 2


def trace(wl, seconds: float, workdir: Path, reference: Path) -> dict:
    import tracer as tr

    spans = tr.Tracer()
    tally = new_tally()
    walls = {False: [], True: []}
    gc_runs, counts, outcomes = [], [], []
    start = time.perf_counter()
    rep = 0
    while rep == 0 or time.perf_counter() - start < seconds:
        for traced in (False, True):
            gc.collect()
            if traced:
                spans.rep_index = rep
                spans.install()
                made0, replayed0 = spans.records_made(), spans.replayed
                scored0, admitted0 = spans.scored, spans.admitted
            else:
                clock = GcClock()
                gc.callbacks.append(clock)
            t = time.perf_counter()
            wl.prepare(workdir)
            run_counted(wl, 0, tally)
            walls[traced].append(time.perf_counter() - t)
            if traced:
                made = spans.records_made() - made0
                counts.append((made, spans.replayed - replayed0,
                               spans.scored - scored0,
                               spans.admitted - admitted0))
                spans.uninstall()
            else:
                gc.callbacks.remove(clock)
                gc_runs.append((clock.pause_s, clock.pause_s / walls[False][-1],
                                clock.gen2))
            outcomes.append(wl.outcome())
        rep += 1

    problems = []
    if any(o != outcomes[0] for o in outcomes):
        problems.append("repeated or traced operation 0 changed its results")
    reps = spans.per_rep()
    exact = [(r["calls"], r["records"], r["forward_records"]) for r in reps]
    if any(e != exact[0] for e in exact) or len(set(counts)) != 1:
        problems.append("call or record counts differ between repetitions")
    finish(tally, problems + correctness(wl, reference, workdir))
    spans.write_csv(OUT / f"spans-{wl.name}.csv")

    med = statistics.median
    made, replayed, scored, admitted = counts[0]
    first = reps[0]
    metrics = {}
    for name in tr.NAMES:
        metrics[f"{name}.calls"] = first["calls"][name]
        metrics[f"{name}.self_s"] = med([r["self_s"][name] for r in reps])
        if name == "autodiff.Tape.backward":
            metrics[f"{name}.records"] = replayed
        elif name in tr.RECORDING:
            metrics[f"{name}.records"] = first["records"][name]
    metrics["autodiff.records"] = made
    metrics["autodiff.backward_ratio"] = replayed / made if made else 0.0
    for n in tr.CROWD_SIZES:
        metrics[f"model.forward_records.n{n}"] = first["forward_records"][n]
        metrics[f"cells.spatial_round.self_s.n{n}"] = med(
            [r["round_self_s"][n] for r in reps])
    metrics["spatial.admitted_ratio"] = admitted / scored if scored else 0.0
    metrics["gc.pause_s"] = med([g[0] for g in gc_runs])
    metrics["gc.pause_share"] = med([g[1] for g in gc_runs])
    metrics["gc.collections_gen2"] = med([g[2] for g in gc_runs])
    metrics["trace.overhead"] = med(walls[True]) / med(walls[False])
    return {"metrics": metrics, "reps": rep, **tally}


def write_reference() -> None:
    old = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    out = {"rtol": old.get("rtol", DEFAULT_RTOL)}
    with tempfile.TemporaryDirectory(dir=OUT) as tmp:
        for name, cls in workloads.WORKLOADS.items():
            workdir = Path(tmp) / name
            workdir.mkdir()
            out[name] = cls.gate_values(workdir)
    REFERENCE.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--mode", choices=("setup", "measure", "trace", "gate"))
    ap.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--reference", type=Path, default=REFERENCE)
    ap.add_argument("--write-reference", action="store_true")
    args = ap.parse_args()
    OUT.mkdir(exist_ok=True)
    if args.write_reference:
        write_reference()
        return
    if args.mode is None or args.workload is None:
        ap.error("--mode and --workload are required")
    wl = workloads.WORKLOADS[args.workload](args.seed)
    workdir = Path(tempfile.mkdtemp(dir=OUT, prefix=f"{args.workload}-"))
    try:
        if args.mode == "setup":
            wl.prepare(workdir)
            result = {"setup_s": time.perf_counter() - T_START}
        elif args.mode == "measure":
            result = measure(wl, args.seconds, workdir, args.reference)
        elif args.mode == "trace":
            result = trace(wl, args.seconds, workdir, args.reference)
        else:
            result = {"problems": correctness(wl, args.reference, workdir)}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["numpy"] = np.__version__
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
