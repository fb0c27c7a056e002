"""scantraj benchmark: three workloads measured end to end, or traced by layer.

    python3 bench/run.py --workload crowd_train --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1      # every workload, one table

Workloads (see workloads.py): ``crowd_train`` trains the point forecaster on
random-walk crowds of 2, 8 and 32 people; ``gan_synth`` trains the
adversarial sampler on synthetic two- and three-person scenes;
``eval_crowd`` scores a generative checkpoint best-of-20 on a raw
recording where people enter and leave.

Every measurement runs in a fresh child process (child.py) with one BLAS
thread and the garbage collector on. ``--trace 0`` starts one measuring
child between SETUP_RUNS - 1 set-up-only children and reports the metrics
named in BENCHMARK.json's ``end_to_end``; ``--trace 1`` starts one tracing child
and reports its ``per_layer`` metrics. Before the result, which is the last
line, a ``# meta`` line stamps the Python and numpy versions, ``nproc``,
the seed and the ``src/`` line count.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("crowd_train", "gan_synth", "eval_crowd")
SETUP_RUNS = 9
TIME_LIMIT_S = 170.0      # the whole invocation must end within 180 s

CHILD_ENV = {
    "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0",
}


class ChildFailed(RuntimeError):
    pass


def run_child(args: list[str], deadline: float) -> tuple[dict, float]:
    """Run child.py; return its JSON result and its peak RSS in MB."""
    cmd = [sys.executable, str(BENCH / "child.py"), *args]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT,
                            env={**os.environ, **CHILD_ENV})
    killer = threading.Timer(max(deadline - time.monotonic(), 1.0), proc.kill)
    killer.start()
    try:
        out = proc.stdout.read()
    finally:
        killer.cancel()
        proc.stdout.close()
    # wait4 reaps the child and returns its own resource usage.
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    lines = out.decode("utf-8", "replace").strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"child {' '.join(args)} exited {proc.returncode}")
    return json.loads(lines[-1]), usage.ru_maxrss / 1024.0


def src_lines() -> int:
    return sum(len(p.read_bytes().splitlines()) for p in SRC.rglob("*.py"))


def measure(workload: str, seed: int, seconds: float, deadline: float):
    common = ["--workload", workload, "--seed", str(seed)]

    def setup_s() -> float:
        return run_child(["--mode", "setup", *common], deadline)[0]["setup_s"]

    # Set-up takes a fraction of a second while a shared machine's speed
    # can drift over tens of seconds, so half the set-ups run before the
    # measuring child and half after it.
    before = [setup_s() for _ in range(SETUP_RUNS // 2)]
    result, peak_mb = run_child(["--mode", "measure", *common,
                                 "--seconds", str(seconds)], deadline)
    after = [setup_s() for _ in range(SETUP_RUNS - 1 - len(before))]
    setups = [*before, result["setup_s"], *after]
    metrics = {
        "setup_s": statistics.median(setups),
        "scenes_per_s": result["scenes"] / result["loop_s"],
        "step_s_p50": statistics.median(result["op_s"]),
        "peak_rss_mb": peak_mb,
    }
    extra = {"steps": len(result["op_s"])}
    return metrics, result, extra


def trace(workload: str, seed: int, seconds: float, deadline: float):
    result, _ = run_child(["--mode", "trace", "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds)],
                          deadline)
    return result["metrics"], result, {"repetitions": result["reps"]}


def run_workload(workload: str, seed: int, seconds: float, traced: bool,
                 spec: dict, deadline: float) -> tuple[dict, dict]:
    """Returns the result object and the metadata stamped beside it."""
    kind = "per_layer" if traced else "end_to_end"
    values, child, extra = (trace if traced else measure)(
        workload, seed, seconds, deadline)
    missing = [m["name"] for m in spec[kind] if m["name"] not in values]
    if missing:
        raise ChildFailed(f"{workload}: no value for {missing}")
    for error in child["errors"][:10]:
        print(f"{workload}: FAILED {error}", file=sys.stderr)
    result = {
        "correct": child["failed"] == 0,
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in spec[kind]},
    }
    meta = {"workload": workload, "seed": seed, "trace": int(traced),
            "python": platform.python_version(), "numpy": child["numpy"],
            "nproc": os.cpu_count(), "src_lines": src_lines(), **extra}
    return result, meta


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="timed seconds per run (default: BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "scantraj" / "__init__.py").is_file():
        print(f"run.py: no scantraj sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    deadline = time.monotonic() + TIME_LIMIT_S
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            # "all" is for people: give each workload its own time limit.
            if args.workload == "all":
                deadline = time.monotonic() + TIME_LIMIT_S
            result, meta = run_workload(name, args.seed, seconds,
                                        bool(args.trace), spec, deadline)
            results[name] = result
            print("# meta " + json.dumps(meta), flush=True)
            if args.workload == "all":
                ratio = result["failed"] / result["attempted"]
                for metric, entry in result["metrics"].items():
                    print(f"{name:12s} {metric:40s} {entry['value']:<14.6g} "
                          f"{entry['unit']}")
                print(f"{name:12s} {'fail_ratio':40s} {ratio:<14.6g} 1",
                      flush=True)
    except ChildFailed as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(results if args.workload == "all" else results[names[0]]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
