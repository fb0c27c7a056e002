"""Seeded inputs and the three benchmark workloads.

Each workload turns a seed into inputs with the generators in this file and
hands only those inputs to scantraj's public API. Its work is a sequence
of operations that all cost about the same: every training step sees the
same mix of crowd sizes and every scored window holds the same number of
people, so a run measures the same mix however many operations the machine
gets through.

Every workload exposes the same small interface, used by ``child.py``:

``prepare(workdir)``  fresh model state (and, for ``eval_crowd``, the file
                      and checkpoint round trip); public calls only
``op(r)``             operation ``r`` as ``(scenes, run)``; ``run()`` returns
                      an error string or None
``outcome()``         the values a repeated operation 0 must reproduce
``checks()``          per-seed invariants found wrong during ``prepare``
``gate_values()``     run the fixed-seed correctness gate, return its values
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from scantraj import data, generative, metrics, model, training

OBS_LEN, PRED_LEN = 8, 12

# Fixed seed of the correctness gate; its values live in reference.json.
GATE_SEED = 20210201


def walk(rng: np.random.Generator, n: int, steps: int,
         density: float) -> np.ndarray:
    """(steps, n, 2) random-walk positions in meters, one frame per 0.4 s.

    Walkers start uniformly in a square holding ``density`` people per m²,
    move 0.3-0.6 m per frame (0.75-1.5 m/s) and turn by N(0, 0.25 rad)
    per frame.
    """
    side = math.sqrt(n / density)
    pos = np.empty((steps, n, 2))
    pos[0] = rng.uniform(0.0, side, size=(n, 2))
    heading = rng.uniform(0.0, 2.0 * math.pi, size=n)
    speed = rng.uniform(0.3, 0.6, size=n)
    for t in range(1, steps):
        heading = heading + rng.normal(0.0, 0.25, size=n)
        step = np.stack([np.cos(heading), np.sin(heading)], axis=1)
        pos[t] = pos[t - 1] + speed[:, None] * step
    return pos


def random_walk_crowd(rng: np.random.Generator, n: int,
                      density: float) -> data.SceneWindow:
    steps = OBS_LEN + PRED_LEN
    return data.SceneWindow(list(range(n)), walk(rng, n, steps, density),
                            np.ones((steps, n), dtype=bool), OBS_LEN,
                            source="bench:random_walk")


def digest(store) -> dict[str, float]:
    """Two order-sensitive sums per parameter, for the correctness gate."""
    out = {}
    for name, node in store.items():
        v = node.values.ravel()
        out[f"{name}.sumsq"] = float(v @ v)
        out[f"{name}.ramp"] = float(v @ np.linspace(1.0, 2.0, v.size))
    return out


def _finite(values) -> bool:
    return all(math.isfinite(v) for v in values)


class _Training:
    """Shared shape of the training workloads: operation ``r`` is one
    optimizer step on batch ``r % pool``, each call resuming the state."""

    pool = 8            # distinct batches; operations cycle through them

    def prepare(self, workdir: Path) -> None:
        self.state = training.init_state(self.cfg, self._tcfg(0))

    def op(self, r: int):
        batch = self.batches[r % self.pool]
        return len(batch), lambda: self._step(batch)

    def checks(self) -> list[str]:
        return []


class CrowdTrain(_Training):
    """``train_deterministic`` (scan variant) on random-walk crowds.

    One operation is one optimizer step on a batch holding one crowd of
    each size. At 0.25 people per m² roughly a third of the pairs start inside
    the 4 m initial domain, so the spatial layer does real work at N = 32.
    """

    name = "crowd_train"
    sizes = (2, 8, 32)
    density = 0.25
    gate_steps = 3

    def __init__(self, seed: int, sizes=None):
        self.sizes = tuple(sizes or self.sizes)
        rng = np.random.default_rng([seed, 1])
        self.batches = [[random_walk_crowd(rng, n, self.density)
                         for n in self.sizes] for _ in range(self.pool)]
        self.cfg = model.ModelConfig(variant="scan", obs_len=OBS_LEN,
                                     pred_len=PRED_LEN)
        self.state = None
        self.last_loss = math.nan

    def _tcfg(self, epochs: int) -> training.TrainConfig:
        return training.TrainConfig(batch_size=len(self.sizes), lr=0.01,
                                    epochs=epochs, seed=7)

    def _step(self, batch) -> str | None:
        self.state, curve = training.train_deterministic(
            batch, self.cfg, self._tcfg(self.state.epoch + 1),
            state=self.state)
        self.last_loss = curve[-1][2]
        return None if math.isfinite(self.last_loss) else "loss not finite"

    def outcome(self) -> dict[str, float]:
        return {"loss": self.last_loss, **digest(self.state.params)}

    @classmethod
    def gate_values(cls, workdir: Path) -> dict[str, float]:
        wl = cls(GATE_SEED, sizes=(2, 8))
        wl.prepare(workdir)
        losses = {}
        for step in range(cls.gate_steps):
            wl._step(wl.batches[0])
            losses[f"loss.{step + 1}"] = wl.last_loss
        return {**losses, **digest(wl.state.params)}


class GanSynth(_Training):
    """``train_gan`` with k = 4 and diversity weight 1 on synthetic scenes.

    One operation is an alternating critic/generator step on a batch of one
    crossing, head_on, overtake and three-person static_mix scene; the
    model mirrors ``demos/diversity_fan.py``.
    """

    name = "gan_synth"
    kinds = ("crossing", "head_on", "overtake", "static_mix")
    gate_steps = 2

    def __init__(self, seed: int, kinds=None):
        self.kinds = tuple(kinds or self.kinds)
        per_kind = {kind: self._scenes(kind, seed) for kind in self.kinds}
        self.batches = [[per_kind[kind][i] for kind in self.kinds]
                        for i in range(self.pool)]
        self.cfg = model.ModelConfig(
            variant="scan", embed_dim=8, hidden_dim=16, bearing_bin_deg=90.0,
            heading_bin_deg=90.0, generative=True, noise_dim=4,
            obs_len=OBS_LEN, pred_len=PRED_LEN)
        self.gan = generative.GanConfig(k=4, adversarial_weight=1.0,
                                        variety_weight=1.0,
                                        diversity_weight=1.0)
        self.state = None
        self.last_terms: dict[str, float] = {}

    def _scenes(self, kind: str, seed: int):
        # static_mix draws two or three people; keep the three-person ones
        # so that every batch costs the same.
        count = 8 * self.pool if kind == "static_mix" else self.pool
        scenes = data.synth_scenarios(kind, count, seed=seed,
                                      obs_len=OBS_LEN, pred_len=PRED_LEN)
        if kind == "static_mix":
            scenes = [s for s in scenes if s.n_peds == 3]
        return scenes[:self.pool]

    def _tcfg(self, epochs: int) -> training.TrainConfig:
        return training.TrainConfig(batch_size=len(self.kinds), lr=0.005,
                                    epochs=epochs, seed=9, gan=self.gan)

    def _step(self, batch) -> str | None:
        self.state, curve = training.train_gan(
            batch, self.cfg, self._tcfg(self.state.epoch + 1),
            state=self.state)
        self.last_terms = {term: value for _, term, value in curve}
        return None if _finite(self.last_terms.values()) else "loss not finite"

    def outcome(self) -> dict[str, float]:
        return {**self.last_terms, **digest(self.state.params),
                **digest(self.state.disc_params)}

    @classmethod
    def gate_values(cls, workdir: Path) -> dict[str, float]:
        wl = cls(GATE_SEED, kinds=("crossing", "static_mix"))
        wl.prepare(workdir)
        out = {}
        for step in range(cls.gate_steps):
            wl._step(wl.batches[0])
            out.update({f"{term}.{step + 1}": value
                        for term, value in wl.last_terms.items()})
        return {**out, **digest(wl.state.params),
                **digest(wl.state.disc_params)}


# Who is present in the raw eval_crowd recording: (ped id, first frame,
# last frame, frames absent). Pedestrian 2 drops out for one frame and
# pedestrian 4 leaves inside every window's prediction span; pedestrian 3
# leaves and pedestrian 5 enters, so windows starting at frames 0-2 and 3-5
# hold different people. Every window holds four, whatever the seed.
PRESENCE = ((1, 0, 24, ()), (2, 0, 24, (14,)), (3, 0, 9, ()),
            (4, 0, 17, ()), (5, 3, 24, ()))
WINDOW_PEDS = (4,) * 6
FRAME_STEP = 10     # raw frame ids advance by 10, as in ETH/UCY files
REPORT_FIELDS = tuple(metrics.MetricReport.__dataclass_fields__)


def write_crowd_file(path: Path, rng: np.random.Generator,
                     density: float) -> int:
    """Write the ``frame ped x y`` recording; returns the row count."""
    n_frames = max(last for _, _, last, _ in PRESENCE) + 1
    pos = walk(rng, len(PRESENCE), n_frames, density)
    rows = []
    for frame in range(n_frames):
        for col, (ped, first, last, absent) in enumerate(PRESENCE):
            if first <= frame <= last and frame not in absent:
                x, y = pos[frame, col].tolist()
                rows.append(f"{frame * FRAME_STEP} {ped} {x!r} {y!r}")
    path.write_text("\n".join(rows) + "\n")
    return len(rows)


class EvalCrowd:
    """``evaluate`` at k = 20 on a generative checkpoint and a raw file.

    Set-up saves an untrained generative checkpoint, loads it back, writes
    the raw recording and reads it through ``load_dataset`` and
    ``make_windows``. One operation scores one window with its own
    ``evaluate`` call; operations cycle through the windows.
    """

    name = "eval_crowd"
    density = 0.25
    k = 20
    checkpoint_seed = 11
    gate_windows = 2

    def __init__(self, seed: int):
        self.seed = seed
        self.cfg = model.ModelConfig(variant="scan", generative=True,
                                     obs_len=OBS_LEN, pred_len=PRED_LEN)
        self.windows: list = []
        self.params = None
        self.reports: list = []
        self.problems: list[str] = []

    def prepare(self, workdir: Path) -> None:
        self.problems = []
        tcfg = training.TrainConfig(seed=self.checkpoint_seed,
                                    gan=generative.GanConfig())
        saved = training.init_state(self.cfg, tcfg)
        ckpt = workdir / "model.ckpt"
        training.save_checkpoint(ckpt, saved)
        state = training.load_checkpoint(ckpt)
        for name, node in saved.params.items():
            if not np.array_equal(node.values, state.params[name].values):
                self.problems.append(f"checkpoint changed {name}")
        raw = workdir / "crowd.txt"
        rows = write_crowd_file(raw, np.random.default_rng([self.seed, 3]),
                                self.density)
        records = data.load_dataset(raw)
        if len(records) != rows:
            self.problems.append(f"load_dataset read {len(records)} of {rows} rows")
        self.windows = data.make_windows(records, obs_len=OBS_LEN,
                                         pred_len=PRED_LEN)
        if tuple(w.n_peds for w in self.windows) != WINDOW_PEDS:
            self.problems.append("make_windows produced an unexpected crowd")
        self.cfg, self.params = state.cfg, state.params
        self.reports = []

    def _score(self, window) -> str | None:
        report = training.evaluate(self.cfg, self.params, [window], k=self.k,
                                   seed=self.seed)
        self.reports.append(report)
        fields = (report.ade, report.fde, report.best_of_k_ade,
                  report.best_of_k_fde, report.near_collision_pct)
        if not _finite(fields):
            return "non-finite metric"
        if (report.n_scenes, report.n_peds) != (1, window.n_peds):
            return "report counts do not match the window"
        return None

    def op(self, r: int):
        window = self.windows[r % len(self.windows)]
        return 1, lambda: self._score(window)

    def outcome(self) -> dict[str, float]:
        return {f"{i}.{name}": getattr(report, name)
                for i, report in enumerate(self.reports)
                for name in REPORT_FIELDS}

    def checks(self) -> list[str]:
        return list(self.problems)

    @classmethod
    def gate_values(cls, workdir: Path) -> dict[str, float]:
        wl = cls(GATE_SEED)
        wl.prepare(workdir)
        if wl.problems:
            raise RuntimeError("; ".join(wl.problems))
        report = training.evaluate(wl.cfg, wl.params,
                                   wl.windows[:cls.gate_windows], k=cls.k,
                                   seed=GATE_SEED)
        return {name: float(getattr(report, name)) for name in REPORT_FIELDS}


WORKLOADS = {wl.name: wl for wl in (CrowdTrain, GanSynth, EvalCrowd)}
