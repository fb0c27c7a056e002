"""Forecast quality measures: displacement errors, best-of-k, collisions.

All functions take plain float arrays shaped (N, T, 2) — N pedestrians, T
predicted steps — with an optional (N, T) boolean validity mask (missing
mask means everything counts). Angles, tapes, and nodes never appear here;
callers evaluate first, measure second.

Each metric scores its arrays in one pass: ``ade`` the (N, T) errors,
``best_sample`` the (k, N, T) errors of all k samples, ``fde`` the errors
at every pedestrian's last valid step, ``frame_collision_fractions`` the
(T, N, N) distances of every frame. A sample's ADE stays the 1-D mean of its
own valid errors: a 2-D mean along the last axis may add them in another
order, and a change in the last bit can change which sample wins.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import EmptyMetricError

NEAR_COLLISION_M = 0.10

CSV_HEADER = "ade,fde,bok_ade,bok_fde,ncr_pct,n_scenes,n_peds"


@dataclass
class MetricReport:
    """One evaluation's headline numbers plus the counts behind them."""

    ade: float
    fde: float
    best_of_k_ade: float
    best_of_k_fde: float
    near_collision_pct: float
    n_scenes: int
    n_peds: int

    def validate(self) -> None:
        for name in ("ade", "fde", "best_of_k_ade", "best_of_k_fde",
                     "near_collision_pct"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and >= 0, got {value}")
        if self.near_collision_pct > 100:
            raise ValueError(f"near_collision_pct must be <= 100, got {self.near_collision_pct}")
        if self.n_scenes < 0 or self.n_peds < 0:
            raise ValueError("counts must be >= 0")

    def csv_row(self) -> str:
        values = [self.ade, self.fde, self.best_of_k_ade, self.best_of_k_fde,
                  self.near_collision_pct]
        return ",".join(["%.17g" % v for v in values]
                        + [str(self.n_scenes), str(self.n_peds)])

    def to_csv(self) -> str:
        return CSV_HEADER + "\n" + self.csv_row() + "\n"

    @classmethod
    def from_csv(cls, text: str) -> "MetricReport":
        """The report ``to_csv`` wrote: the header and exactly one valid row."""
        lines = [ln for ln in text.strip().splitlines() if ln]
        if not lines or lines[0] != CSV_HEADER:
            raise ValueError("unrecognized metric CSV header")
        if len(lines) != 2:
            raise ValueError(f"metric CSV must hold one data row, got {len(lines) - 1}")
        parts = lines[1].split(",")
        if len(parts) != 7:
            raise ValueError("metric CSV row must have 7 fields")
        report = cls(float(parts[0]), float(parts[1]), float(parts[2]),
                     float(parts[3]), float(parts[4]), int(parts[5]), int(parts[6]))
        report.validate()
        return report


def _mask(mask, shape: tuple) -> np.ndarray:
    """``mask`` as a boolean array of ``shape``; None means all valid."""
    if mask is None:
        return np.ones(shape, dtype=bool)
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != shape:
        raise ValueError(f"mask {mask.shape} must be {shape}")
    return mask


def _prepare(pred, truth, mask):
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if pred.shape != truth.shape or pred.ndim != 3 or pred.shape[-1] != 2:
        raise ValueError(f"prediction {pred.shape} and truth {truth.shape} "
                         "must both be (N, T, 2)")
    return pred, truth, _mask(mask, pred.shape[:2])


def ade(pred, truth, mask=None) -> float:
    """Mean Euclidean error over every valid (pedestrian, step) pair."""
    pred, truth, mask = _prepare(pred, truth, mask)
    if not mask.any():
        raise EmptyMetricError("ade: no valid (pedestrian, step) pairs")
    err = np.linalg.norm(pred - truth, axis=-1)
    return float(err[mask].mean())


def fde(pred, truth, mask=None) -> float:
    """Mean Euclidean error at each pedestrian's last valid step.

    Pedestrians whose final step is masked fall back to their last valid
    one (reported via a warning); pedestrians with no valid steps are
    skipped. No pedestrian measurable at all raises EmptyMetricError.
    """
    value, fallbacks = _fde(pred, truth, mask)
    if fallbacks:
        warnings.warn(f"fde: {fallbacks} pedestrian(s) lacked a valid final "
                      "step; used their last valid step instead")
    return value


def _fde(pred, truth, mask) -> tuple[float, int]:
    """``fde`` without the warning: (value, number of fallbacks).

    Callers for whom the fallback is routine use this instead of silencing
    the warning, because ``warnings.catch_warnings`` swaps the filters of
    the whole process and so is not safe while other threads run.
    """
    pred, truth, mask = _prepare(pred, truth, mask)
    rows = np.flatnonzero(mask.any(axis=1))
    if rows.size == 0:
        raise EmptyMetricError("fde: no pedestrian has a valid step")
    t = mask.shape[1]
    last = t - 1 - np.argmax(mask[rows, ::-1], axis=1)
    d = pred[rows, last] - truth[rows, last]
    # Each row's (1, 2) @ (2, 1) product is the dot a 1-D ``np.linalg.norm``
    # takes; ``norm(axis=-1)`` can differ from it in the last place.
    finals = np.sqrt((d[:, None, :] @ d[:, :, None]).ravel())
    return float(np.mean(finals)), int(np.count_nonzero(last != t - 1))


def best_sample(samples, truth, mask=None) -> tuple[int, float]:
    """(index, ADE) of the minimum-ADE sample among ``samples``, the
    (k, N, T, 2) futures of one scene; ties go to the lowest index."""
    samples = np.asarray(samples, dtype=np.float64)
    if samples.ndim != 4 or samples.shape[0] < 1:
        raise ValueError(f"samples must be (k, N, T, 2), got {samples.shape}")
    _, truth, mask = _prepare(samples[0], truth, mask)
    if not mask.any():
        raise EmptyMetricError("ade: no valid (pedestrian, step) pairs")
    errors = np.linalg.norm(samples - truth, axis=-1)[:, mask]
    ades = [float(row.mean()) for row in errors]
    best = int(np.argmin(ades))
    return best, ades[best]


def best_of_k(samples, truth, mask=None) -> tuple[float, float]:
    """(ADE, FDE) of the ``best_sample`` among ``samples``.

    Selection is keyed on ADE alone; the chosen sample's FDE is reported
    even when another sample's final error is smaller. The FDE fallback is
    routine here and raises no warning.
    """
    best, best_ade = best_sample(samples, truth, mask)
    return best_ade, _fde(np.asarray(samples, dtype=np.float64)[best], truth, mask)[0]


def frame_collision_fractions(positions, mask=None,
                              threshold: float = NEAR_COLLISION_M) -> list[float]:
    """Per-frame fraction of present pedestrians with a neighbour < threshold.

    ``positions`` is (N, T, 2). Frames with nobody present are skipped;
    frames with one pedestrian contribute 0.0.
    """
    positions = np.asarray(positions, dtype=np.float64)
    if positions.ndim != 3 or positions.shape[-1] != 2:
        raise ValueError(f"positions must be (N, T, 2), got {positions.shape}")
    present = _mask(mask, positions.shape[:2]).T             # (T, N)
    # Absent pedestrians' coordinates are never read, as if they were zeros.
    x, y = np.where(present[..., None], positions.transpose(1, 0, 2), 0.0).transpose(2, 0, 1)
    # The (T, N, N) distances in place, by the float ops of norm(axis=-1).
    dist = np.square(x[:, :, None] - x[:, None])
    dist += np.square(y[:, :, None] - y[:, None])
    np.sqrt(dist, out=dist)
    dist[~(present[:, :, None] & present[:, None]) | np.eye(len(positions), dtype=bool)] = np.inf
    colliding = np.count_nonzero(dist.min(axis=-1, initial=np.inf) < threshold, axis=1)
    counts = present.sum(axis=1)
    return (colliding[counts > 0] / counts[counts > 0]).tolist()


def near_collision_rate(positions, mask=None) -> float:
    """Average over frames of the colliding-pedestrian percentage.

    A pedestrian collides in a frame when any other present pedestrian is
    strictly closer than ``NEAR_COLLISION_M`` (0.10 m).
    """
    fractions = frame_collision_fractions(positions, mask)
    if not fractions:
        return 0.0
    return float(np.mean(fractions) * 100.0)


def linear_extrapolation(observed, pred_len: int) -> np.ndarray:
    """Constant-velocity baseline: continue each pedestrian's mean velocity.

    ``observed`` is (N, obs, 2) with obs >= 2; the velocity is the total
    observed displacement divided by the number of observed intervals.
    Returns (N, pred_len, 2) future positions.
    """
    observed = np.asarray(observed, dtype=np.float64)
    if observed.ndim != 3 or observed.shape[-1] != 2:
        raise ValueError(f"observed must be (N, obs, 2), got {observed.shape}")
    n, obs = observed.shape[:2]
    if obs < 2:
        raise ValueError("linear extrapolation needs at least two observed steps")
    velocity = (observed[:, -1] - observed[:, 0]) / float(obs - 1)
    steps = np.arange(1, pred_len + 1, dtype=np.float64)
    return observed[:, -1, None, :] + steps[None, :, None] * velocity[:, None, :]
