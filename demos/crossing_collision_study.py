"""Does the learned domain keep crossing pedestrians apart?

Trains the attention forecaster on synthetic two-person crossings whose
ground truth always sidesteps, then scores held-out crossings three ways:
the model, a constant-velocity extrapolation (which ploughs straight
through the meeting point), and the truth itself. The interesting number
is the near-collision rate of each. Optionally renders trajectory fans and
the learned domain heatmap for the first few held-out scenes.

    python demos/crossing_collision_study.py --plots out/
"""

import argparse
import os
import tempfile
import time

import numpy as np

from scantraj import autodiff as ad
from scantraj import data as sd
from scantraj import metrics as mx
from scantraj import model as sm
from scantraj import plots as pl
from scantraj import training as tr


def pooled_ncr(model, scenes):
    model_fr, base_fr, truth_fr = [], [], []
    for scene in scenes:
        observed = scene.positions[:scene.obs_len].transpose(1, 0, 2)
        truth = scene.positions[scene.obs_len:].transpose(1, 0, 2)
        with ad.no_grad():
            predicted = model.forward(scene).positions()
        baseline = mx.linear_extrapolation(observed, scene.pred_len)
        model_fr.extend(mx.frame_collision_fractions(predicted))
        base_fr.extend(mx.frame_collision_fractions(baseline))
        truth_fr.extend(mx.frame_collision_fractions(truth))
    return tuple(float(np.mean(f)) * 100.0 for f in (model_fr, base_fr, truth_fr))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--train-scenes", type=int, default=30)
    ap.add_argument("--eval-scenes", type=int, default=100)
    ap.add_argument("--epochs", type=int, default=30)
    ap.add_argument("--plots", metavar="DIR", default="",
                    help="also render SVG fans + domain heatmap into DIR")
    args = ap.parse_args()

    cfg = sm.ModelConfig(variant="scan", embed_dim=8, hidden_dim=16,
                         bearing_bin_deg=45.0, heading_bin_deg=90.0)
    train_scenes = sd.synth_scenarios("crossing", args.train_scenes, seed=11)
    held_out = sd.synth_scenarios("crossing", args.eval_scenes, seed=901)

    start = time.monotonic()
    conf = tr.TrainConfig(batch_size=15, lr=0.01, epochs=args.epochs, seed=4)
    state, curve = tr.train_deterministic(train_scenes, cfg, conf)
    print(f"trained {args.epochs} epochs in {time.monotonic() - start:.1f}s "
          f"(final loss {curve[-1][2]:.4f})")

    model = sm.ScanModel(cfg, state.params)
    ncr_model, ncr_base, ncr_truth = pooled_ncr(model, held_out)
    print(f"near-collision rate over {len(held_out)} held-out crossings:")
    print(f"  truth            {ncr_truth:7.3f}%")
    print(f"  constant speed   {ncr_base:7.3f}%")
    print(f"  forecaster       {ncr_model:7.3f}%")

    if args.plots:
        ckpt = os.path.join(tempfile.mkdtemp(), "crossing.ckpt")
        tr.save_checkpoint(ckpt, state)
        written = pl.emit_plots(ckpt, held_out[:3], args.plots, max_scenes=3)
        print("wrote:")
        for path in written:
            print(f"  {path}")


if __name__ == "__main__":
    main()
