"""In-memory spans around scantraj's public functions, recorded from outside.

The tracer rebinds each public function at every name a caller looks it up
by (``model.attend`` as well as ``temporal.attend``, for instance), so the
program itself is unchanged. A span holds its name, start, end, parent
span, scene id and the tape records made while it was open; spans live in
``array`` columns, which the cyclic garbage collector never scans, and are
written out as CSV when the run ends.

Tape records are counted from the tapes' lengths: the tracer follows
``Tape.__enter__``/``__exit__`` so that records made on a tape a span opens
and closes itself still count toward that span.
"""

from __future__ import annotations

import time
from array import array
from pathlib import Path

from scantraj import (autodiff, cells, data, generative, geometry, metrics,
                      model, spatial, temporal, training)

# span name -> every (namespace, attribute) that binds the function.
SPANS = {
    "training.train_deterministic": [(training, "train_deterministic")],
    "training.train_gan": [(training, "train_gan")],
    "training.evaluate": [(training, "evaluate")],
    "training.save_checkpoint": [(training, "save_checkpoint")],
    "training.load_checkpoint": [(training, "load_checkpoint")],
    "model.ScanModel.encode": [(model.ScanModel, "encode")],
    "model.ScanModel.decode": [(model.ScanModel, "decode")],
    "model.trajectory_loss": [(model, "trajectory_loss"),
                              (training, "trajectory_loss"),
                              (generative, "trajectory_loss")],
    "cells.spatial_round": [(cells, "spatial_round")],
    "cells.lstm_cell": [(cells, "lstm_cell")],
    "cells.linear": [(cells, "linear")],
    "spatial.raw_score": [(spatial, "raw_score")],
    "spatial.normalize_scores": [(spatial, "normalize_scores")],
    "spatial.context_vector": [(spatial, "context_vector")],
    "spatial.fuse_hidden": [(spatial, "fuse_hidden")],
    "temporal.attend": [(temporal, "attend"), (model, "attend")],
    "geometry.compute_encounter": [(geometry, "compute_encounter"),
                                   (cells, "compute_encounter")],
    "geometry.estimate_heading": [(geometry, "estimate_heading"),
                                  (model, "estimate_heading"),
                                  (generative, "estimate_heading")],
    "generative.gan_train_step": [(generative, "gan_train_step")],
    "generative.discriminator_logits": [(generative, "discriminator_logits")],
    "generative.sample_predictions": [(generative, "sample_predictions")],
    "generative.variety_loss": [(generative, "variety_loss")],
    "generative.diversity_loss": [(generative, "diversity_loss")],
    "autodiff.Tape.backward": [(autodiff.Tape, "backward")],
    "autodiff.Adam.step": [(autodiff.Adam, "step")],
    "data.load_dataset": [(data, "load_dataset")],
    "data.make_windows": [(data, "make_windows"), (training, "make_windows")],
    "metrics.best_of_k": [(metrics, "best_of_k")],
    "metrics.ade": [(metrics, "ade")],
    "metrics.fde": [(metrics, "fde")],
    "metrics.frame_collision_fractions": [(metrics, "frame_collision_fractions")],
}

# Spans whose own code can append to the tape. ``autodiff.Tape.backward``
# reports the tape length it replays instead.
RECORDING = (
    "training.train_deterministic", "model.ScanModel.encode",
    "model.ScanModel.decode", "model.trajectory_loss", "cells.spatial_round",
    "cells.lstm_cell", "cells.linear", "spatial.raw_score",
    "spatial.normalize_scores", "spatial.context_vector", "spatial.fuse_hidden",
    "temporal.attend", "generative.gan_train_step",
    "generative.discriminator_logits", "generative.diversity_loss",
    "autodiff.Tape.backward",
)

# Spans that take the scene they work on; the rest inherit their parent's.
SCENE_SPANS = ("training.evaluate", "model.ScanModel.encode",
               "model.ScanModel.decode", "model.trajectory_loss",
               "generative.sample_predictions", "generative.variety_loss")

NAMES = tuple(SPANS)
CROWD_SIZES = (2, 8, 32)


class Tracer:
    def __init__(self):
        self.name = array("h")
        self.parent = array("l")
        self.scene = array("l")
        self.rep = array("l")
        self.start = array("d")
        self.end = array("d")
        self.rec0 = array("q")
        self.rec1 = array("q")
        self.replayed = 0             # records walked by Tape.backward
        self.scored = 0               # neighbour pairs normalized
        self.admitted = 0             # of those, pairs with nonzero weight
        self.rep_index = 0
        self.scenes: list = []        # keeps ids stable while spans refer to them
        self._scene_ids: dict[int, int] = {}
        self._stack: list[int] = []
        self._tapes: list = []        # open tapes with their length on entry
        self._closed = 0              # records on tapes already exited
        self._saved: list = []

    # -- recording ---------------------------------------------------------

    def records_made(self) -> int:
        return self._closed + sum(len(t) - n0 for t, n0 in self._tapes)

    def _scene_of(self, args) -> int:
        for arg in args:
            if isinstance(arg, list) and len(arg) == 1:
                arg = arg[0]
            if isinstance(arg, data.SceneWindow):
                sid = self._scene_ids.get(id(arg))
                if sid is None:
                    sid = self._scene_ids[id(arg)] = len(self.scenes)
                    self.scenes.append(arg)
                return sid
        return -1

    def _open(self, name_id: int, scene: int) -> int:
        i = len(self.name)
        parent = self._stack[-1] if self._stack else -1
        if scene < 0 and parent >= 0:
            scene = self.scene[parent]
        self.name.append(name_id)
        self.parent.append(parent)
        self.scene.append(scene)
        self.rep.append(self.rep_index)
        self.rec0.append(self.records_made())
        self.rec1.append(0)
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self.rec1[i] = self.records_made()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        name_id = NAMES.index(name)
        takes_scene = name in SCENE_SPANS

        def traced(*args, **kwargs):
            i = self._open(name_id, self._scene_of(args) if takes_scene else -1)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(i)

        if name == "autodiff.Tape.backward":
            def traced_backward(tape, loss):
                self.replayed += len(tape)
                return traced(tape, loss)
            return traced_backward
        if name == "spatial.normalize_scores":
            def traced_normalize(*args, **kwargs):
                weights = traced(*args, **kwargs)
                self.scored += weights.normalized.values.size
                self.admitted += int((weights.normalized.values != 0.0).sum())
                return weights
            return traced_normalize
        return traced

    def _enter(self, enter):
        def traced_enter(tape):
            self._tapes.append((tape, len(tape)))
            return enter(tape)
        return traced_enter

    def _exit(self, exit_):
        def traced_exit(tape, *exc):
            _, n0 = self._tapes.pop()
            self._closed += len(tape) - n0
            return exit_(tape, *exc)
        return traced_exit

    def install(self) -> None:
        """Rebind every traced name; ``uninstall`` restores the originals."""
        self._tapes = [(autodiff.active_tape(), len(autodiff.active_tape()))]
        bindings = [(owner, attr, self._wrap(name, getattr(owner, attr)))
                    for name, places in SPANS.items() for owner, attr in places]
        bindings.append((autodiff.Tape, "__enter__",
                         self._enter(autodiff.Tape.__enter__)))
        bindings.append((autodiff.Tape, "__exit__",
                         self._exit(autodiff.Tape.__exit__)))
        for owner, attr, wrapper in bindings:
            self._saved.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        self._closed = self.records_made()
        self._tapes = []
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- reporting ---------------------------------------------------------

    def per_rep(self) -> list[dict]:
        """Per repetition: calls, self seconds and self records by span name,
        plus forward-pass records and spatial_round self time by crowd size.
        """
        n = len(self.name)
        child_time = [0.0] * n
        child_rec = [0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child_time[p] += self.end[i] - self.start[i]
                child_rec[p] += self.rec1[i] - self.rec0[i]
        reps: dict[int, dict] = {}
        forward: dict[tuple, list] = {}     # (rep, size) -> [scene, decoded]
        for i in range(n):
            if self.rep[i] not in reps:
                reps[self.rep[i]] = {
                    "calls": dict.fromkeys(NAMES, 0),
                    "self_s": dict.fromkeys(NAMES, 0.0),
                    "records": dict.fromkeys(NAMES, 0),
                    "forward_records": dict.fromkeys(CROWD_SIZES, 0),
                    "round_self_s": dict.fromkeys(CROWD_SIZES, 0.0)}
            rep = reps[self.rep[i]]
            name = NAMES[self.name[i]]
            self_s = self.end[i] - self.start[i] - child_time[i]
            inclusive = self.rec1[i] - self.rec0[i]
            rep["calls"][name] += 1
            rep["self_s"][name] += self_s
            rep["records"][name] += inclusive - child_rec[i]
            scene = self.scene[i]
            size = self.scenes[scene].n_peds if scene >= 0 else None
            if size not in CROWD_SIZES:
                continue
            if name == "cells.spatial_round":
                rep["round_self_s"][size] += self_s
            # A single-scene forward pass is the first encode of a scene of
            # this size plus the first decode of that same scene.
            key = (self.rep[i], size)
            if name == "model.ScanModel.encode" and key not in forward:
                forward[key] = [scene, False]
                rep["forward_records"][size] += inclusive
            elif name == "model.ScanModel.decode" and \
                    forward.get(key) == [scene, False]:
                forward[key][1] = True
                rep["forward_records"][size] += inclusive
        return [reps[r] for r in sorted(reps)]

    def write_csv(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("rep,span,name,parent,scene,start_s,end_s,records\n")
            t0 = self.start[0] if len(self.start) else 0.0
            for i in range(len(self.name)):
                fh.write(f"{self.rep[i]},{i},{NAMES[self.name[i]]},"
                         f"{self.parent[i]},{self.scene[i]},"
                         f"{self.start[i] - t0:.9f},{self.end[i] - t0:.9f},"
                         f"{self.rec1[i] - self.rec0[i]}\n")
