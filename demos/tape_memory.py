"""Print the README's tape-memory table: what a training step's tape holds.

For one deterministic scene of N walkers at the default configuration it
measures, with ``tracemalloc``, the bytes the tape holds after the forward
pass and trajectory loss, and the peak over them and the backward sweep,
on a tape for the model's parameters as a training step builds it. Then
the bytes per neighbour pair and step and per pedestrian row and step,
from the growth between two crowd sizes and between batches of 16 and 32
two-person scenes. The measuring helpers are those of
``tests/test_model.py::TestTapeMemory``, imported from there, so the
numbers printed are the ones the tests bound.

    python demos/tape_memory.py
    python demos/tape_memory.py --sizes 8 32
"""

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

from test_model import build, pair_bytes, random_crowd, row_bytes, tape_bytes  # noqa: E402

from scantraj import model as sm  # noqa: E402

MIB = 1024 * 1024


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sizes", type=int, nargs="+", default=[8, 32, 128, 256],
                    help="crowd sizes N of the table's rows")
    args = ap.parse_args()

    cfg = sm.ModelConfig()
    model, rng = build(cfg, seed=1), np.random.default_rng(4)
    print("| N | held after the forward pass | peak over forward and backward |")
    print("|---|---|---|")
    for n in args.sizes:
        held, peak = tape_bytes(model, [random_crowd(rng, n, cfg)])
        print(f"| {n} | {held / MIB:.1f} MiB | {peak / MIB:.1f} MiB |")
    held, peak = pair_bytes(cfg)
    print(f"\nper neighbour pair and step: {held:.0f} bytes held, {peak:.0f} at the peak")
    held, peak = row_bytes(cfg)
    print(f"per pedestrian row and step: {held:,.0f} bytes held, {peak:,.0f} at the peak")


if __name__ == "__main__":
    main()
