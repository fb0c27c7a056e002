"""Shared step primitives: linear embed, LSTM cell, scene-wide spatial pass.

Both the forecaster and the adversarial critic run the same kind of
spatially attentive recurrence, so the per-step machinery lives here. Every
primitive takes a whole batch of pedestrians, one row each, so a step costs
the same number of tape records whatever the crowd size. The rows may come
from several scenes at once: a ``SceneLayout`` keeps each scene's rows
together and lets every pedestrian see only the pedestrians of its own
scene. A leading sample axis ``(S, N, ...)`` runs S futures of the same
scenes in the same records. Either way each scene (and each sample) equals
a pass over it alone, bit for bit.

A spatial round is a geometry half (``spatial_weights``), which reads no
hidden state, then a state half (``spatial_state``). ``observed_pass`` runs
the first once per known track; the decoder runs both per step.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import autodiff as ad
from . import spatial
# compute_encounter is the scalar reference for geometry.bin_indices; it
# stays importable here, where bench/tracer.py binds it.
from .geometry import (CrowdKinematics, advance_kinematics, bin_indices,  # noqa: F401
                       compute_encounter, kinematics_at)


def canonical_order(ped_ids: Sequence[int]) -> np.ndarray:
    """Column indices sorted by pedestrian id: the one true row order.

    Every pass permutes its scene into this order once, works on whole-scene
    batches, and permutes the outputs back. Reductions across pedestrians
    then run in the same order however the scene's columns are numbered, so
    renumbering permutes every result bit for bit.
    """
    return np.argsort(np.asarray(ped_ids, dtype=np.int64))


class SceneLayout:
    """Where the pedestrians of one or more scenes sit in a batched pass.

    Columns: the scenes' pedestrian columns side by side, scenes in the
    order given. Rows, the order every pass computes in: one block per
    scene, each in ascending pedestrian id order, the blocks grouped by
    scene size (smallest first, then in batch order), so that the scenes
    of one size sit in consecutive rows; ``order`` maps rows to columns
    and ``undo`` back.

    Pair quantities live in the ``neighbors`` table, (R, J) for R rows and
    J the largest scene: row r's entry j is the row of the j-th pedestrian
    of r's own scene. A pedestrian thus sees only its own scene, though
    scenes share coordinates, and pair work costs R * J entries, not R * R.
    Entries past a scene's size point at the row itself and are masked out
    like the row's own entry. ``blocks`` lists the size groups as
    ``(scenes, n, n)`` for ``ad.block_matmul``.
    """

    def __init__(self, ped_ids: Sequence[Sequence[int]]):
        sizes = [len(ids) for ids in ped_ids]
        columns = np.cumsum([0, *sizes])
        ranked = sorted(range(len(sizes)), key=lambda b: (sizes[b], b))
        self.sizes = tuple(sizes)
        self.order = np.concatenate(
            [columns[b] + canonical_order(ped_ids[b]) for b in ranked]
            + [np.zeros(0, dtype=np.int64)])
        self.undo = np.argsort(self.order)
        rank_sizes = np.array([sizes[b] for b in ranked], dtype=np.int64)
        self.scene_of_row = np.repeat(np.array(ranked, dtype=np.int64), rank_sizes)
        rows = np.arange(self.order.size)
        first = np.repeat(np.cumsum([0, *rank_sizes])[:-1], rank_sizes)
        cols = np.arange(max(sizes, default=0))
        own = cols < np.repeat(rank_sizes, rank_sizes)[:, None]
        self.neighbors = np.where(own, first[:, None] + cols, rows[:, None])
        self.blocks = [(sizes.count(n), n, n) for n in sorted(set(sizes) - {0})]

    @property
    def n_rows(self) -> int:
        return self.order.size

    def neighbor_mask(self, present: np.ndarray) -> np.ndarray:
        """(..., R, J) bool: which table entries may influence their row,
        from the (..., R) presence of every row. Absent pedestrians, a row's
        own entry and the padding never do."""
        rows = np.arange(self.n_rows)[:, None]
        return np.asarray(present, dtype=bool)[..., self.neighbors] & (self.neighbors != rows)


def linear(x: ad.TensorNode, weight: ad.TensorNode, bias: ad.TensorNode) -> ad.TensorNode:
    """``x @ weight.T + bias`` for every row of ``(..., in)``."""
    return ad.linear(x, weight, bias)


def lstm_cell(gates_in: ad.TensorNode, hidden: ad.TensorNode, cell: ad.TensorNode,
              w_hh: ad.TensorNode):
    """One LSTM update of every row, one record (``ad.lstm_step``).

    ``gates_in`` is the input's share ``x @ W_ih.T + b`` of the (..., 4H)
    gates, in the order input, forget, candidate, output; the op adds
    ``hidden @ w_hh.T``. Returns (new_hidden, new_cell).
    """
    return ad.lstm_step(gates_in, hidden, cell, w_hh)


def noise_conditioned_hidden(hidden: ad.TensorNode, noise: np.ndarray,
                             weight: ad.TensorNode, bias: ad.TensorNode) -> ad.TensorNode:
    """Append a noise draw to every hidden row and project back to hidden
    size.

    ``noise`` is one draw ``(noise_dim,)`` shared by every row, a block
    ``(S, noise_dim)`` for ``hidden`` of shape ``(S, N, H)`` (one draw per
    sample, shared by that sample's rows), or ``(S, N, noise_dim)``, one
    draw per row.
    """
    noise = np.asarray(noise, dtype=np.float64)
    if noise.ndim == 2:
        noise = noise[:, None, :]
    rows = np.broadcast_to(noise, hidden.shape[:-1] + noise.shape[-1:])
    return linear(ad.concat([hidden, ad.constant(rows)], axis=-1), weight, bias)


def pairwise_offsets(positions: ad.TensorNode, neighbors: np.ndarray) -> ad.TensorNode:
    """(..., R, 2) positions -> (..., R, J, 2) node whose [..., r, j] entry
    points from row r to row ``neighbors[r, j]``."""
    lead = (slice(None),) * (positions.values.ndim - 2)
    rows = np.broadcast_to(np.arange(neighbors.shape[0])[:, None], neighbors.shape)
    return ad.sub(ad.gather(positions, lead + (neighbors,)),
                  ad.gather(positions, lead + (rows,)))


def spatial_weights(offsets: ad.TensorNode, kinematics: CrowdKinematics,
                    mask: np.ndarray, layout: SceneLayout, grid: spatial.DomainGrid,
                    literal_softmax: bool = False) -> ad.TensorNode:
    """(..., R, J) normalized weights from (..., R, J, 2) ``offsets`` to each
    row's ``layout.neighbors``, the float ``kinematics`` (..., R) that pick
    each pair's grid cell and the (..., R, J) ``mask`` of entries that may
    act; leading axes (samples, steps) run in the same records."""
    distance = ad.l2norm(offsets)
    scores = spatial.raw_score(
        grid, bin_indices(kinematics, grid.spec, layout.neighbors), distance)
    return spatial.normalize_scores(scores, mask, literal_softmax=literal_softmax).normalized


def spatial_state(weights: ad.TensorNode | None, hiddens: ad.TensorNode,
                  layout: SceneLayout, fuse_w: ad.TensorNode, fuse_b: ad.TensorNode):
    """The state half of a spatial round: each scene's (..., R, H) hidden
    states blended by its (..., R, J) ``weights`` (None: a zero context)
    and fused into every row. Returns (fused, joints): the (..., R, H)
    fused states and the (..., R, 2H) pre-projection concatenations."""
    ctx = (ad.constant(np.zeros(hiddens.shape)) if weights is None
           else spatial.context_vector(weights, hiddens, layout.blocks))
    return spatial.fuse_hidden(hiddens, ctx, fuse_w, fuse_b)


def spatial_round(offsets: ad.TensorNode, kinematics: CrowdKinematics,
                  present: np.ndarray, hiddens: ad.TensorNode, layout: SceneLayout,
                  grid: spatial.DomainGrid, fuse_w: ad.TensorNode, fuse_b: ad.TensorNode,
                  literal_softmax: bool = False, force_zero_context: bool = False):
    """``spatial_weights`` then ``spatial_state`` over a snapshot of hidden
    states; returns (fused, joints). ``present`` (R,) is shared by any
    leading sample axis; live positions in ``offsets`` carry gradient.

    A pedestrian scores only its own scene's (R, J) table entries, never an
    absent one, itself or padding (a row with no neighbour gets the zero
    context exactly); totals run left to right and the context is one
    product per scene, so each scene equals a round over it alone, bit for
    bit, and renumbering a scene permutes its outputs bit-identically.
    """
    weights = None
    if not force_zero_context:
        mask = np.broadcast_to(layout.neighbor_mask(present), offsets.shape[:-1])
        weights = spatial_weights(offsets, kinematics, mask, layout, grid,
                                  literal_softmax=literal_softmax)
    return spatial_state(weights, hiddens, layout, fuse_w, fuse_b)


def observed_pass(track: ad.TensorNode, presence: np.ndarray, layout: SceneLayout,
                  grid: spatial.DomainGrid, embed: tuple, lstm: tuple, fuse: tuple,
                  absolute: bool, key: str = "fused", literal_softmax: bool = False,
                  force_zero_context: bool = False):
    """The spatially attentive LSTM over a track whose every step is known.

    ``track`` is the (..., C, T, 2) node of the batch columns' trajectories,
    ``presence`` the (T, R) presence of ``layout``'s rows; ``embed`` is
    (W, b), ``lstm`` (W_ih, W_hh, b), ``fuse`` (W, b). Step t embeds the
    position (``absolute``) or the displacement from t - 1 (zeros at t = 0),
    fuses the neighbours' context into the hidden state and runs the cell.
    All but the context, fusion and cell is computed once with a leading
    time axis (one time-major ``gather``, kinematics, bins, weights, step
    inputs, embedding, ``x @ W_ih.T + b``) and unstacked, so a step costs
    five records (four with ``force_zero_context``); stacked products run
    one step slice at a time, so values equal a step-by-step pass bit for
    bit. Returns the final (..., R, H) hidden and cell, the per-step fused
    states (``key="fused"``) or joints, and the last kinematics, in rows.
    """
    lead, T = track.shape[:-3], track.shape[-2]
    index = np.ix_(np.arange(T), *map(np.arange, lead), layout.order)
    pos = ad.gather(track, index[1:] + index[:1])
    kins = [kinematics_at(pos.values[0])]
    for t in range(1, T):
        kins.append(advance_kinematics(pos.values[t - 1], pos.values[t], kins[-1]))

    if force_zero_context:
        weights = [None] * T
    else:
        offsets = pairwise_offsets(pos, layout.neighbors)
        mask = layout.neighbor_mask(presence)[(slice(None),) + (None,) * len(lead)]
        weights = ad.unstack(spatial_weights(
            offsets, CrowdKinematics(pos.values, np.stack([k.heading_deg for k in kins]),
                                     np.stack([k.heading_valid for k in kins])),
            np.broadcast_to(mask, offsets.shape[:-1]), layout, grid, literal_softmax))
    step_in = pos if absolute else ad.concat(
        [ad.constant(np.zeros((1,) + pos.shape[1:])), ad.sub(pos[1:], pos[:-1])])
    w_ih, w_hh, bias = lstm
    gates_in = ad.unstack(linear(linear(step_in, *embed), w_ih, bias))

    hidden = ad.constant(np.zeros(pos.shape[1:-1] + (w_hh.shape[1],)))
    cell = ad.constant(np.zeros(hidden.shape))
    keys = []
    for step_weights, step_gates in zip(weights, gates_in):
        fused, joints = spatial_state(step_weights, hidden, layout, *fuse)
        keys.append(fused if key == "fused" else joints)
        hidden, cell = lstm_cell(step_gates, fused, cell, w_hh)
    return hidden, cell, keys, kins[-1]
