"""Self-check of the benchmark at the smallest scale it runs.

For every workload, runs ``run.py`` for one second untraced and traced and
checks that the result line carries every BENCHMARK.json metric with its
unit and that the run passed its correctness gate. Then runs each gate
against a copy of reference.json with one value moved by a hundred times
the tolerance and checks that the gate fails. Takes about two minutes.

    python3 bench/selfcheck.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("crowd_train", "gan_synth", "eval_crowd")


def python(*args: str) -> str:
    done = subprocess.run([sys.executable, *args], cwd=ROOT, check=True,
                          stdout=subprocess.PIPE, text=True, timeout=300)
    return done.stdout


def check_printed(spec: dict, failures: list[str]) -> None:
    for workload in WORKLOADS:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            out = python("bench/run.py", "--workload", workload, "--seed",
                         "3", "--seconds", "1", "--trace", str(trace))
            lines = out.strip().splitlines()
            result = json.loads(lines[-1])
            where = f"{workload} --trace {trace}"
            if not lines[-2].startswith("# meta "):
                failures.append(f"{where}: no metadata line")
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                failures.append(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"]:
                failures.append(f"{where}: correctness gate failed")
            wanted = {m["name"]: m["unit"] for m in spec[kind]}
            printed = {name: entry["unit"]
                       for name, entry in result["metrics"].items()}
            if printed != wanted:
                failures.append(f"{where}: metrics or units differ from "
                                "BENCHMARK.json")


def check_gate_trips(failures: list[str]) -> None:
    reference = json.loads((BENCH / "reference.json").read_text())
    rtol = reference["rtol"]
    perturbed_path = BENCH / "out" / "reference-perturbed.json"
    perturbed_path.parent.mkdir(exist_ok=True)
    for workload in WORKLOADS:
        perturbed = json.loads(json.dumps(reference))
        key = sorted(perturbed[workload])[0]
        perturbed[workload][key] += 100 * rtol * max(1.0, abs(reference[workload][key]))
        perturbed_path.write_text(json.dumps(perturbed))
        out = python("bench/child.py", "--mode", "gate", "--workload",
                     workload, "--reference", str(perturbed_path))
        problems = json.loads(out.strip().splitlines()[-1])["problems"]
        if not any(key in p for p in problems):
            failures.append(f"{workload}: gate passed with {key} perturbed")
    perturbed_path.unlink()


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures: list[str] = []
    check_printed(spec, failures)
    check_gate_trips(failures)
    for failure in failures:
        print("FAIL", failure)
    print("selfcheck:", "failed" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
