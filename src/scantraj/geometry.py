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
sampled future of the same scene. ``AgentKinematics`` with
``estimate_heading`` and ``compute_encounter`` is the scalar reference the
array functions equal bit for bit.
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
    if math.hypot(dx, dy) > STATIONARY_EPS:
        return AgentKinematics(pos, normalize_deg(math.degrees(math.atan2(dy, dx))), True)
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
    distance = math.hypot(dx, dy)
    if distance == 0.0:
        bearing = 0.0
    else:
        world = math.degrees(math.atan2(dy, dx))
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


# A bearing this close to a bin edge is recomputed with ``math.atan2``:
# ``numpy.arctan2`` may differ from it in the last place, which can only
# matter right at an edge (the gap is ~1e-13 degrees).
_EDGE_TOL_DEG = 1e-9


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


def kinematics_at(points: np.ndarray) -> CrowdKinematics:
    """Heading-less kinematics (0 degrees, invalid) at every point of a
    ``(..., N, 2)`` array."""
    points = np.array(points, dtype=np.float64)
    return CrowdKinematics(points, np.zeros(points.shape[:-1]),
                           np.zeros(points.shape[:-1], dtype=bool))


def advance_kinematics(prev_pos: np.ndarray, cur_pos: np.ndarray,
                       kinematics: CrowdKinematics) -> CrowdKinematics:
    """``estimate_heading`` for every agent at once, from ``(..., N, 2)``
    previous and current positions, carrying ``kinematics`` as the fallback.

    The stationary test and the angle use ``math.hypot`` and ``math.atan2``
    per agent (``numpy.arctan2`` may differ from ``math.atan2`` in the last
    place), so every agent equals its scalar ``estimate_heading`` bit for bit.
    """
    prev = np.asarray(prev_pos, dtype=np.float64)
    cur = np.array(cur_pos, dtype=np.float64)
    dx = (cur[..., 0] - prev[..., 0]).ravel().tolist()
    dy = (cur[..., 1] - prev[..., 1]).ravel().tolist()
    shape = cur.shape[:-1]
    moving = np.array(list(map(math.hypot, dx, dy))).reshape(shape) > STATIONARY_EPS
    angle = _normalize_deg_array(np.degrees(
        np.array(list(map(math.atan2, dy, dx))).reshape(shape)))
    return CrowdKinematics(cur, np.where(moving, angle, kinematics.heading_deg),
                           moving | kinematics.heading_valid)


def bin_indices(kinematics: CrowdKinematics,
                spec: BinSpec) -> tuple[np.ndarray, np.ndarray]:
    """1-based (bearing, heading) bins of every ordered pair of a crowd.

    The bins are two ``(..., N, N)`` integer arrays whose entry [..., a, b]
    equals ``bin_index(compute_encounter(A, B), spec)`` for the
    ``AgentKinematics`` A and B of agents a and b.
    """
    pos = kinematics.position
    heading = kinematics.heading_deg
    dx = pos[..., None, :, 0] - pos[..., :, None, 0]
    dy = pos[..., None, :, 1] - pos[..., :, None, 1]
    coincident = (dx == 0.0) & (dy == 0.0)
    bearing = _normalize_deg_array(np.degrees(np.arctan2(dy, dx))
                                   - heading[..., :, None])
    steps = bearing / spec.bearing_step_deg
    near_edge = np.abs(steps - np.round(steps)) * spec.bearing_step_deg < _EDGE_TOL_DEG

    def agent(idx) -> AgentKinematics:
        return AgentKinematics((float(pos[idx][0]), float(pos[idx][1])),
                               float(heading[idx]))

    for idx in zip(*np.nonzero(near_edge & ~coincident)):
        row = idx[:-2]
        bearing[idx] = compute_encounter(agent(row + idx[-2:-1]),
                                         agent(row + idx[-1:])).bearing_deg
    bearing[coincident] = 0.0
    rel_heading = _normalize_deg_array(heading[..., None, :] - heading[..., :, None])
    i = np.floor(bearing / spec.bearing_step_deg).astype(np.int64) + 1
    j = np.floor(rel_heading / spec.heading_step_deg).astype(np.int64) + 1
    return np.minimum(i, spec.n_bearing), np.minimum(j, spec.n_heading)
