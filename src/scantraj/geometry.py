"""Planar geometry between pedestrians: headings, encounters, angular bins.

Conventions (used everywhere in the package):

* angles are degrees in [0, 360), with 0 along +x and counterclockwise
  positive;
* an agent's heading is estimated from its latest displacement, falling
  back to the last valid heading (default 0 with ``heading_valid=False``)
  when the agent is stationary;
* the relative bearing of B seen from A is the world angle of (B - A)
  measured in A's body frame; the relative heading is B's heading minus
  A's, both wrapped into [0, 360).

All functions here are pure and operate on plain floats or float arrays;
nothing touches the autodiff tape. A crowd's kinematics travel as one
``CrowdKinematics`` of arrays: positions ``(..., N, 2)``, headings and
heading validity ``(..., N)``, for one row of N agents or one row per
sampled future of the same scene.

Every angle and length comes from one recipe, numpy's ``arctan2``,
``hypot`` and ``degrees``: over arrays in the batched functions, on 0-d
values in ``estimate_heading`` and ``compute_encounter``. Those two, with
``AgentKinematics``, are the scalar reference the array functions equal bit
for bit, since numpy gives a value alone the bits it gives it inside an
array. Nothing in the package calls them: they stay in ``src/`` only while
``bench/tracer.py`` binds its spans to them, and move to the tests with the
benchmark revision that rebinds those spans.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

STATIONARY_EPS = 1e-6  # m; displacements at or below this carry no heading


def normalize_deg(angle: float) -> float:
    """Wrap an angle in degrees into [0, 360)."""
    wrapped = math.fmod(angle, 360.0)
    if wrapped < 0.0:
        wrapped += 360.0
    return wrapped if wrapped < 360.0 else 0.0


@dataclass(frozen=True)
class AgentKinematics:
    """Position plus an estimated heading for one agent at one time step."""
    position: tuple[float, float]
    heading_deg: float = 0.0
    heading_valid: bool = False


@dataclass(frozen=True)
class EncounterGeometry:
    """How one agent sees another: range, bearing, and relative heading."""
    distance: float          # m
    bearing_deg: float       # [0, 360), 0 = straight along own heading
    rel_heading_deg: float   # [0, 360), 0 = moving the same way


@dataclass(frozen=True)
class BinSpec:
    """Uniform discretization of bearing x relative heading."""
    bearing_step_deg: float = 30.0
    heading_step_deg: float = 30.0

    def __post_init__(self):
        for step in (self.bearing_step_deg, self.heading_step_deg):
            if not (0.0 < step <= 360.0):
                raise ValueError(f"bin width must be in (0, 360], got {step}")
            if abs(360.0 / step - round(360.0 / step)) > 1e-9:
                raise ValueError(f"bin width {step} does not divide 360")

    @property
    def n_bearing(self) -> int:
        return round(360.0 / self.bearing_step_deg)

    @property
    def n_heading(self) -> int:
        return round(360.0 / self.heading_step_deg)


def estimate_heading(prev_pos, cur_pos,
                     fallback: AgentKinematics | None = None) -> AgentKinematics:
    """Kinematics at ``cur_pos`` given the displacement from ``prev_pos``.

    A displacement longer than ``STATIONARY_EPS`` defines the heading;
    otherwise the fallback's heading (and validity) is carried, defaulting
    to 0 degrees marked invalid.
    """
    dx = float(cur_pos[0]) - float(prev_pos[0])
    dy = float(cur_pos[1]) - float(prev_pos[1])
    pos = (float(cur_pos[0]), float(cur_pos[1]))
    if np.hypot(dx, dy) > STATIONARY_EPS:
        return AgentKinematics(pos, normalize_deg(float(np.degrees(np.arctan2(dy, dx)))), True)
    if fallback is not None:
        return AgentKinematics(pos, fallback.heading_deg, fallback.heading_valid)
    return AgentKinematics(pos, 0.0, False)


def compute_encounter(observer: AgentKinematics,
                      other: AgentKinematics) -> EncounterGeometry:
    """Geometry of ``other`` as seen by ``observer``.

    Coincident positions degrade to distance 0 with bearing 0.
    """
    dx = other.position[0] - observer.position[0]
    dy = other.position[1] - observer.position[1]
    distance = float(np.hypot(dx, dy))
    if distance == 0.0:
        bearing = 0.0
    else:
        world = float(np.degrees(np.arctan2(dy, dx)))
        bearing = normalize_deg(world - observer.heading_deg)
    rel_heading = normalize_deg(other.heading_deg - observer.heading_deg)
    return EncounterGeometry(distance, bearing, rel_heading)


def bin_index(geom: EncounterGeometry, spec: BinSpec) -> tuple[int, int]:
    """1-based (bearing, heading) bin of an encounter.

    Intervals are closed on the left: bin i covers [(i-1)*step, i*step).
    """
    i = int(math.floor(geom.bearing_deg / spec.bearing_step_deg)) + 1
    j = int(math.floor(geom.rel_heading_deg / spec.heading_step_deg)) + 1
    # Guard against bearing == 360 - ulp rounding up under division.
    return min(i, spec.n_bearing), min(j, spec.n_heading)


def _normalize_deg_array(angle: np.ndarray) -> np.ndarray:
    """``normalize_deg`` applied entrywise, with the same float operations."""
    wrapped = np.fmod(angle, 360.0)
    wrapped = np.where(wrapped < 0.0, wrapped + 360.0, wrapped)
    return np.where(wrapped < 360.0, wrapped, 0.0)


@dataclass(frozen=True)
class CrowdKinematics:
    """Positions ``(..., N, 2)`` plus estimated headings ``(..., N)`` (in
    degrees, with their validity flags) of every agent of a crowd.

    Indexing selects agents (or samples) on every array at once:
    ``kin[rows]`` for an integer array ``rows`` of shape ``(..., N)``.
    """
    position: np.ndarray
    heading_deg: np.ndarray
    heading_valid: np.ndarray

    def __getitem__(self, index) -> "CrowdKinematics":
        return CrowdKinematics(self.position[index], self.heading_deg[index],
                               self.heading_valid[index])


def _moves(prev: np.ndarray, cur: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Whether each ``prev -> cur`` displacement moves, and its heading:
    ``estimate_heading``'s numpy operations over the whole array."""
    dx, dy = cur[..., 0] - prev[..., 0], cur[..., 1] - prev[..., 1]
    return (np.hypot(dx, dy) > STATIONARY_EPS,
            _normalize_deg_array(np.degrees(np.arctan2(dy, dx))))


def advance_kinematics(prev_pos: np.ndarray, cur_pos: np.ndarray,
                       kinematics: CrowdKinematics) -> CrowdKinematics:
    """``estimate_heading`` for every agent at once, from ``(..., N, 2)``
    previous and current positions, carrying ``kinematics`` as the fallback;
    every agent equals its scalar ``estimate_heading`` bit for bit."""
    cur = np.array(cur_pos, dtype=np.float64)
    moving, angle = _moves(np.asarray(prev_pos, dtype=np.float64), cur)
    return CrowdKinematics(cur, np.where(moving, angle, kinematics.heading_deg),
                           moving | kinematics.heading_valid)


def track_kinematics(track: np.ndarray,
                     before: CrowdKinematics | None = None) -> CrowdKinematics:
    """The kinematics at every step of a ``(T, ..., N, 2)`` track in one sweep,
    equal bit for bit to heading-less kinematics at step 0 advanced step by
    step: a step's heading is that of its latest moving displacement, found
    as a running maximum of the moving steps.

    ``before``, the ``(N,)`` kinematics of the step just before the track,
    continues an earlier track instead: step 0 advances from it, and its
    heading is carried until the track moves, so the two halves of a split
    track give the kinematics of the whole, bit for bit."""
    track = np.asarray(track, dtype=np.float64)
    full = track if before is None else np.concatenate(
        [np.broadcast_to(before.position, (1,) + track.shape[1:]), track])
    moving, angle = _moves(full[:-1], full[1:])
    steps = np.arange(1, len(full)).reshape((-1,) + (1,) * (moving.ndim - 1))
    latest = np.maximum.accumulate(np.concatenate(
        [np.zeros((1,) + moving.shape[1:], dtype=np.int64), np.where(moving, steps, 0)]))
    heading = np.take_along_axis(np.concatenate([np.zeros((1,) + angle.shape[1:]), angle]),
                                 latest, axis=0)
    if before is None:
        return CrowdKinematics(track, heading, latest > 0)
    moved = latest[1:] > 0
    return CrowdKinematics(track, np.where(moved, heading[1:], before.heading_deg),
                           moved | before.heading_valid)


def pair_offsets(xy: np.ndarray, neighbors: np.ndarray) -> np.ndarray:
    """``(..., N, J, 2)`` offsets from ``(..., N, 2)`` positions: entry
    [..., a, j] points from agent a to agent ``neighbors[a, j]``."""
    return np.take(xy, neighbors, axis=-2) - xy[..., :, None, :]


def bin_indices(kinematics: CrowdKinematics, spec: BinSpec, neighbors: np.ndarray | None = None,
                offsets: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """1-based (bearing, heading) bins of every agent towards its neighbours.

    ``neighbors`` is an (N, J) integer table: entry [a, j] names the agent
    that agent a sees in its column j. The bins are two ``(..., N, J)``
    integer arrays whose entry [..., a, j] equals
    ``bin_index(compute_encounter(A, B), spec)`` for the
    ``AgentKinematics`` A of agent a and B of agent ``neighbors[a, j]``.
    Without a table every agent sees every agent: the (N, N) table whose
    row a is 0, 1, ..., N - 1. ``offsets``, when the caller has them, are
    the ``pair_offsets`` of the positions over the table, not recomputed.
    The bearings take ``compute_encounter``'s float operations over the
    whole array, so a pair on a bin edge lands where the scalar one does.
    """
    heading = kinematics.heading_deg
    if neighbors is None:
        n = heading.shape[-1]
        neighbors = np.broadcast_to(np.arange(n), (n, n))
    if offsets is None:
        offsets = pair_offsets(kinematics.position, neighbors)
    dx, dy = offsets[..., 0], offsets[..., 1]
    bearing = _normalize_deg_array(np.degrees(np.arctan2(dy, dx)) - heading[..., :, None])
    bearing[(dx == 0.0) & (dy == 0.0)] = 0.0
    rel_heading = _normalize_deg_array(heading[..., neighbors] - heading[..., :, None])
    i = np.floor(bearing / spec.bearing_step_deg).astype(np.int64) + 1
    j = np.floor(rel_heading / spec.heading_step_deg).astype(np.int64) + 1
    return np.minimum(i, spec.n_bearing), np.minimum(j, spec.n_heading)
