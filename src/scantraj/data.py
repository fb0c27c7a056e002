"""Trajectory ingestion, windowing, synthetic scenarios and file output.

Raw format: whitespace-delimited text rows ``frame_id ped_id x y``. Frame
ids advancing by a fixed step (e.g. 10) are re-indexed to consecutive
integers on load; gaps simply leave holes that the windowing rules refuse
to bridge. Positions are meters at 2.5 observations per second.

Windows slide with stride 1 over (obs_len + pred_len) consecutive frames.
A pedestrian enters a window only if present for the whole observation
span; one that vanishes during the prediction span is masked from its
first absence onward, even if it reappears.
"""

from __future__ import annotations

import math
import os
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .autodiff import RngHub
from .errors import DataError

FRAME_RATE_HZ = 2.5           # one kept frame every 0.4 s
SCENARIO_KINDS = ("straight", "head_on", "crossing", "overtake", "static_mix")
SYNTH_JITTER_M = 0.02


@dataclass(frozen=True)
class RawRecord:
    frame: int
    ped: int
    x: float
    y: float


@dataclass
class SceneWindow:
    """One (obs + pred)-step slice of a scene.

    positions: (T, N, 2) float64; mask: (T, N) bool. Pedestrians are kept
    in ascending id order, which fixes every neighbour iteration order in
    the model (bit-reproducibility depends on it).
    """
    ped_ids: list[int]
    positions: np.ndarray
    mask: np.ndarray
    obs_len: int
    source: str = ""

    @property
    def n_peds(self) -> int:
        return len(self.ped_ids)

    @property
    def total_len(self) -> int:
        return self.positions.shape[0]

    @property
    def pred_len(self) -> int:
        return self.total_len - self.obs_len

    def validate(self) -> None:
        T, N = self.mask.shape
        if self.positions.shape != (T, N, 2):
            raise DataError(f"positions {self.positions.shape} vs mask {self.mask.shape}")
        if len(self.ped_ids) != N:
            raise DataError("ped_ids length does not match arrays")
        if not 2 <= self.obs_len <= T:
            raise DataError(f"obs_len {self.obs_len} must lie in [2, total_len] "
                            f"for a window of total_len {T}")
        if not np.all(np.isfinite(self.positions)):
            raise DataError("non-finite positions in window")
        if not self.mask[:self.obs_len].all():
            raise DataError("every included pedestrian must span the observation")


def load_dataset(path) -> list[RawRecord]:
    """Parse a raw trajectory file, sorted by (frame, ped).

    Malformed rows and duplicate (frame, ped) pairs are hard errors naming
    the offending line numbers. An empty file parses to an empty list with
    a warning.
    """
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc

    records: list[RawRecord] = []
    seen: dict[tuple[int, int], int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped:
            continue
        fields = stripped.split()
        if len(fields) != 4:
            raise DataError(
                f"{path}:{lineno}: expected 4 fields (frame ped x y), got {len(fields)}")
        try:
            numbers = [float(f) for f in fields]
        except ValueError:
            raise DataError(f"{path}:{lineno}: non-numeric field in {stripped!r}") from None
        frame_f, ped_f, x, y = numbers
        if frame_f != int(frame_f) or ped_f != int(ped_f):
            raise DataError(f"{path}:{lineno}: frame and ped ids must be integers")
        key = (int(frame_f), int(ped_f))
        if key in seen:
            raise DataError(
                f"{path}:{lineno}: duplicate (frame, ped) {key} already on line {seen[key]}")
        seen[key] = lineno
        records.append(RawRecord(key[0], key[1], x, y))

    if not records:
        warnings.warn(f"{path}: no records", stacklevel=2)
    records.sort(key=lambda r: (r.frame, r.ped))
    return records


def _reindex_frames(records: list[RawRecord]) -> dict[int, int]:
    """Map raw frame ids to consecutive indices via the gcd of the gaps."""
    frames = sorted({r.frame for r in records})
    if len(frames) < 2:
        return {f: 0 for f in frames}
    step = 0
    for a, b in zip(frames, frames[1:]):
        step = math.gcd(step, b - a)
    return {f: (f - frames[0]) // step for f in frames}


def _check_lengths(obs_len: int, pred_len: int) -> None:
    """Refuse a window too short to forecast from: a heading needs two
    observed points, and a forecast at least one step."""
    if obs_len < 2 or pred_len < 1:
        raise ValueError(f"need obs_len >= 2 and pred_len >= 1, got {obs_len} and {pred_len}")


def make_windows(records: list[RawRecord], obs_len: int = 8, pred_len: int = 12,
                 stride: int = 1) -> list[SceneWindow]:
    """Slide fixed-length windows over the re-indexed frame axis."""
    _check_lengths(obs_len, pred_len)
    if stride < 1:
        raise ValueError(f"need stride >= 1, got {stride}")
    if not records:
        return []
    index_of = _reindex_frames(records)
    total = obs_len + pred_len

    at: dict[int, dict[int, tuple[float, float]]] = {}
    for r in records:
        at.setdefault(index_of[r.frame], {})[r.ped] = (r.x, r.y)
    last_index = max(at)

    windows = []
    for start in range(0, last_index - total + 2, stride):
        steps = [at.get(start + t, {}) for t in range(total)]
        ids = sorted(p for p in steps[0]
                     if all(p in steps[t] for t in range(obs_len)))
        if not ids:
            continue
        N = len(ids)
        positions = np.zeros((total, N, 2))
        mask = np.zeros((total, N), dtype=bool)
        for col, ped in enumerate(ids):
            alive = True
            last = None
            for t in range(total):
                here = steps[t].get(ped)
                if t >= obs_len and here is None:
                    alive = False  # vanished: masked from here on, no revival
                if alive and here is not None:
                    positions[t, col] = here
                    mask[t, col] = True
                    last = here
                else:
                    positions[t, col] = last if last is not None else (0.0, 0.0)
        win = SceneWindow(ids, positions, mask, obs_len, source="raw")
        win.validate()
        windows.append(win)
    return windows


def scene_to_records(window: SceneWindow, frame_start: int = 0) -> list[RawRecord]:
    """Rows for every unmasked (step, ped) of a window."""
    out = []
    for t in range(window.total_len):
        for col, ped in enumerate(window.ped_ids):
            if window.mask[t, col]:
                out.append(RawRecord(frame_start + t, ped,
                                     float(window.positions[t, col, 0]),
                                     float(window.positions[t, col, 1])))
    return out


def write_records(path, records: list[RawRecord]) -> None:
    """Write rows at 17 significant digits so reloads are bit-exact."""
    with open(path, "w") as fh:
        for r in records:
            fh.write(f"{r.frame} {r.ped} {r.x:.17g} {r.y:.17g}\n")


def write_text(path, text: str) -> str:
    """Write ``text`` to ``path``, a failure as DataError; returns the path."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from exc
    return str(path)


def make_dir(path) -> None:
    """Create directory ``path`` and its parents, a failure as DataError."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise DataError(f"cannot create {path}: {exc}") from exc


def scenes_to_records(windows: list[SceneWindow]) -> list[RawRecord]:
    """Rows of several windows on one frame axis, kept apart by empty frames.

    Scene k starts at frame k * spacing, where the spacing is the smallest
    multiple of 100 frames that leaves at least one empty frame after the
    longest scene. An empty frame ends every pedestrian's window, so
    ``make_windows`` never joins two scenes, whatever their pedestrian ids.
    """
    spacing = 100 * (max((win.total_len for win in windows), default=0) // 100 + 1)
    rows: list[RawRecord] = []
    for k, win in enumerate(windows):
        rows.extend(scene_to_records(win, frame_start=k * spacing))
    return rows


def write_scenes(path, windows: list[SceneWindow]) -> None:
    """Export windows into one raw file, spaced as ``scenes_to_records``."""
    write_records(path, scenes_to_records(windows))


def _rot90(xy: np.ndarray, quarter_turns: int) -> np.ndarray:
    for _ in range(quarter_turns % 4):
        xy = np.stack([-xy[..., 1], xy[..., 0]], axis=-1)
    return xy


def _displacement_path(start, displacements) -> np.ndarray:
    pos = [np.asarray(start, dtype=np.float64)]
    for d in displacements:
        pos.append(pos[-1] + d)
    return np.stack(pos)


def synth_scenarios(kind: str, n_scenes: int, seed: int,
                    obs_len: int = 8, pred_len: int = 12,
                    jitter: float = SYNTH_JITTER_M) -> list[SceneWindow]:
    """Seeded analytic scenes with Gaussian position jitter.

    straight     one walker at 1 m/step along +x from the origin
    head_on      two walkers approaching on offset lanes (opposite headings)
    crossing     orthogonal paths meeting mid-prediction; one walker makes a
                 constant-speed sidestep so the truth stays collision-free,
                 while straight-line extrapolation of the observed motion
                 passes through the meeting point
    overtake     same direction, offset lanes, rear walker faster
    static_mix   one standing pedestrian plus walkers passing by
    """
    if kind not in SCENARIO_KINDS:
        raise DataError(f"unknown scenario kind {kind!r}; expected one of {SCENARIO_KINDS}")
    if n_scenes < 0:
        raise ValueError(f"scene count must be >= 0, got {n_scenes}")
    _check_lengths(obs_len, pred_len)
    hub = RngHub(seed)
    T = obs_len + pred_len
    scenes = []
    for k in range(n_scenes):
        rng = hub.derive(f"synth/{kind}", k)
        if kind == "straight":
            t = np.arange(T, dtype=np.float64)
            tracks = [np.stack([t, np.zeros(T)], axis=1)]
        elif kind == "head_on":
            speed = 1.0 + rng.uniform(-0.1, 0.1)
            length = speed * (T - 1)
            t = np.arange(T, dtype=np.float64) * speed
            a = np.stack([t, np.full(T, 0.4)], axis=1)
            b = np.stack([length - t, np.full(T, -0.4)], axis=1)
            tracks = [a, b]
        elif kind == "crossing":
            t_meet = obs_len + pred_len // 2 - 1
            side = float(rng.choice([-1.0, 1.0]))
            c, s = math.sqrt(0.5), math.sqrt(0.5)
            detour = [np.array([c, side * s]), np.array([c, side * s]),
                      np.array([c, -side * s]), np.array([c, -side * s])]
            disp_a = [np.array([1.0, 0.0]) for _ in range(T - 1)]
            for i, t in enumerate(range(t_meet - 2, t_meet + 2)):
                if 1 <= t <= T - 1:
                    disp_a[t - 1] = detour[i]
            a = _displacement_path((-float(t_meet), 0.0), disp_a)
            t = np.arange(T, dtype=np.float64)
            b = np.stack([np.zeros(T), t - t_meet], axis=1)
            if rng.random() < 0.5:
                a, b = b[:, ::-1].copy(), a[:, ::-1].copy()  # swap roles via mirror
            tracks = [a, b]
        elif kind == "overtake":
            fast = 1.3 + rng.uniform(-0.1, 0.1)
            slow = 0.7 + rng.uniform(-0.1, 0.1)
            gap = (fast - slow) * (obs_len + pred_len // 2)
            t = np.arange(T, dtype=np.float64)
            a = np.stack([t * fast, np.zeros(T)], axis=1)
            b = np.stack([gap + t * slow, np.full(T, 0.5)], axis=1)
            tracks = [a, b]
        else:  # static_mix
            stand = np.tile(np.array([0.5 * T, 0.6]), (T, 1))
            t = np.arange(T, dtype=np.float64)
            walk = np.stack([t, np.zeros(T)], axis=1)
            tracks = [stand, walk]
            if rng.random() < 0.5:
                tracks.append(np.stack([T - 1.0 - t, np.full(T, -0.7)], axis=1))

        positions = np.stack(tracks, axis=1)            # (T, N, 2)
        if kind != "straight":  # straight is pinned to (t, 0) + jitter
            quarter = int(rng.integers(0, 4))
            shift = rng.uniform(-0.5, 0.5, size=2)
            positions = _rot90(positions, quarter) + shift
        if jitter > 0.0:
            positions = positions + rng.normal(0.0, jitter, size=positions.shape)

        N = positions.shape[1]
        scenes.append(SceneWindow(list(range(N)), positions,
                                  np.ones((T, N), dtype=bool), obs_len,
                                  source=f"synth:{kind}"))
    return scenes
