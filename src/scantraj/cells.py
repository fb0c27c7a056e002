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

A spatial round is a geometry half, the pair weights, which reads no
hidden state, then a state half that blends and fuses the hidden states.
``observed_pass`` runs a whole known track as two records,
``ad.pair_weights`` and ``ad.recurrence``. The decoder's geometry follows
its own predictions, so it runs both halves per step, as
``ad.pair_weights`` and ``ad.decoder_step`` (with the cell). How long
their saved state lives is told once, in the ``autodiff`` module
docstring. ``spatial_weights``, ``spatial_round`` and ``lstm_cell`` are
the composed records those equal bit for bit; no production pass calls
them.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import autodiff as ad
from . import spatial
# compute_encounter, numpy's angle recipe on 0-d values, is the scalar
# reference for geometry.bin_indices. Nothing calls it; it stays importable
# here only while bench/tracer.py binds it.
from .geometry import (CrowdKinematics, bin_indices, compute_encounter,  # noqa: F401
                       pair_offsets, track_kinematics)


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
        self._others = self.neighbors != rows[:, None]
        self.blocks = [(sizes.count(n), n, n) for n in sorted(set(sizes) - {0})]

    @property
    def n_rows(self) -> int:
        return self.order.size

    def neighbor_mask(self, present: np.ndarray) -> np.ndarray:
        """(..., R, J) bool: which table entries may influence their row,
        from the (..., R) presence of every row. Absent pedestrians, a row's
        own entry and the padding never do."""
        return np.asarray(present, dtype=bool)[..., self.neighbors] & self._others


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


def spatial_weights(offsets: ad.TensorNode, kinematics: CrowdKinematics,
                    mask: np.ndarray, layout: SceneLayout,
                    grid: spatial.DomainGrid) -> ad.TensorNode:
    """(..., R, J) normalized weights from (..., R, J, 2) ``offsets`` to each
    row's ``layout.neighbors``, the float ``kinematics`` (..., R) that pick
    each pair's grid cell and the (..., R, J) ``mask`` of entries that may
    act; leading axes (samples, steps) run in the same records."""
    distance = ad.l2norm(offsets)
    scores = spatial.raw_score(
        grid, bin_indices(kinematics, grid.spec, layout.neighbors), distance)
    return spatial.normalize_scores(scores, mask).normalized


def spatial_round(offsets: ad.TensorNode, kinematics: CrowdKinematics,
                  present: np.ndarray, hiddens: ad.TensorNode, layout: SceneLayout,
                  grid: spatial.DomainGrid, fuse_w: ad.TensorNode, fuse_b: ad.TensorNode):
    """``spatial_weights``, then the (..., R, H) hidden states blended by
    them and fused into every row; returns (fused, joints), the (..., R, H)
    fused states and (..., R, 2H) concatenations. ``present`` (R,) is
    shared by any leading sample axis; live positions in ``offsets`` carry
    gradient.

    A pedestrian scores only its own scene's (R, J) table entries, never an
    absent one, itself or padding (a row with no neighbour gets the zero
    context exactly); totals run left to right and the context is one
    product per scene, so each scene equals a round over it alone, bit for
    bit, and renumbering a scene permutes its outputs bit-identically.
    """
    mask = np.broadcast_to(layout.neighbor_mask(present), offsets.shape[:-1])
    ctx = spatial.context_vector(spatial_weights(offsets, kinematics, mask, layout, grid),
                                 hiddens, layout.blocks)
    return spatial.fuse_hidden(hiddens, ctx, fuse_w, fuse_b)


def observed_pass(track: ad.TensorNode | np.ndarray, presence: np.ndarray, layout: SceneLayout,
                  grid: spatial.DomainGrid, embed: tuple, lstm: tuple, fuse: tuple,
                  start: tuple | None = None):
    """The spatially attentive LSTM over a track whose every step is known.

    ``track`` holds the (..., C, T, 2) trajectories of the batch columns:
    a node (live or a leaf) whose positions get gradient through the pair
    offsets and step inputs, or a plain array when no gradient is wanted,
    whose offsets and step inputs are computed off the tape with the same
    float operations; an array track gives the outputs and parameter
    gradients of a constant-leaf one bit for bit. ``presence`` is the (T, R)
    presence of ``layout``'s rows; ``embed`` is (W, b), ``lstm`` (W_ih,
    W_hh, b), ``fuse`` (W, b). Step t embeds the displacement from t - 1
    (zeros at t = 0), fuses the neighbours' context into the hidden state
    and runs the cell. Everything but the loop runs once with a leading
    time axis; the weights of every step are one ``ad.pair_weights`` record
    and the loop one ``ad.recurrence`` record, equal to the composed
    records bit for bit. Returns the final (..., R, H) hidden and cell, the
    time-major (T, ..., R, H) fused states and the last kinematics, in
    rows.

    ``start`` continues the pass over the steps before the track: the
    ``(hidden, cell, kinematics)`` such a pass returned, with no leading
    axes. Every leading slice starts from those (R, H) states, which get
    the adjoints summed over the slices; step 0's displacement is taken
    from the kinematics' positions and their headings carry on, so a track
    split in two gives the values of the pass over the whole, bit for bit.
    Without it the pass starts from zero states and a zero displacement.
    """
    lead, T = track.shape[:-3], track.shape[-2]
    index = np.ix_(np.arange(T), *map(np.arange, lead), layout.order)
    index = index[1:] + index[:1]
    live = isinstance(track, ad.TensorNode)
    pos = ad.gather(track, index) if live else np.asarray(track, dtype=np.float64)[index]
    xy = pos.values if live else pos
    kins = track_kinematics(xy, None if start is None else start[2])
    mask = layout.neighbor_mask(presence)[(slice(None),) + (None,) * len(lead)]
    offsets = pair_offsets(xy, layout.neighbors)
    weights = ad.pair_weights(pos if live else None, grid.node, None if live else offsets,
                              layout.neighbors,
                              bin_indices(kins, grid.spec, layout.neighbors, offsets), mask)
    state = None
    if start is None:                       # a zero displacement at step 0
        first = np.zeros((1,) + xy.shape[1:])
        step_in = (ad.concat([ad.constant(first), ad.sub(pos[1:], pos[:-1])]) if live
                   else np.concatenate([first, xy[1:] - xy[:-1]]))
    else:                                   # step 0 moves on from the start's positions
        before = np.broadcast_to(start[2].position, (1,) + xy.shape[1:])
        step_in = (ad.sub(pos, ad.concat([ad.constant(before), pos[:-1]])) if live
                   else xy - np.concatenate([before, xy[:-1]]))
        rows = np.broadcast_to(np.arange(layout.n_rows), lead + (layout.n_rows,))
        state = ad.gather(start[0], rows), ad.gather(start[1], rows)
    hidden, cell, keys = ad.recurrence(linear(step_in, *embed), weights, lstm, *fuse,
                                       layout.blocks, state=state)
    return hidden, cell, keys, kins[-1]
