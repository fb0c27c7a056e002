"""How much does the diversity term actually spread the samples?

Runs the adversarial trainer twice on the same crossings with the same
seeds — once with the sample-repulsion term switched off, once at full
weight — then measures the mean pairwise distance between k sampled
futures on fresh scenes. Expect a visibly wider fan in the second run.

    python demos/diversity_fan.py --epochs 8
"""

import argparse
import time

import numpy as np

from scantraj import autodiff as ad
from scantraj import data as sd
from scantraj import generative as gn
from scantraj import model as sm
from scantraj import training as tr


def spread_after(lam, epochs, k):
    cfg = sm.ModelConfig(variant="scan", embed_dim=8, hidden_dim=16,
                         bearing_bin_deg=90.0, heading_bin_deg=90.0,
                         generative=True, noise_dim=4)
    scenes = sd.synth_scenarios("crossing", 12, seed=21)
    gcfg = gn.GanConfig(k=k, adversarial_weight=1.0, variety_weight=1.0,
                        diversity_weight=lam)
    conf = tr.TrainConfig(batch_size=6, lr=0.005, epochs=epochs, seed=9,
                          gan=gcfg)
    state, _ = tr.train_gan(scenes, cfg, conf)

    model = sm.ScanModel(cfg, state.params)
    hub = ad.RngHub(777)
    spreads = []
    for i, scene in enumerate(sd.synth_scenarios("crossing", 20, seed=555)):
        with ad.no_grad():
            sample_set = gn.sample_predictions(model, scene, k,
                                               hub.derive("demo", i))
        spreads.append(gn.sample_spread(sample_set.positions_array()))
    return float(np.mean(spreads))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--epochs", type=int, default=8)
    ap.add_argument("--k", type=int, default=4)
    args = ap.parse_args()

    start = time.monotonic()
    plain = spread_after(0.0, args.epochs, args.k)
    print(f"weight 0.0: mean sample spread {plain:.4f} m  "
          f"[{time.monotonic() - start:.1f}s]")
    pushed = spread_after(1.0, args.epochs, args.k)
    print(f"weight 1.0: mean sample spread {pushed:.4f} m  "
          f"[{time.monotonic() - start:.1f}s]")
    print(f"ratio {pushed / plain:.2f}x")


if __name__ == "__main__":
    main()
