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
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import autodiff as ad
from . import spatial
# compute_encounter is the scalar reference for geometry.bin_indices; it
# stays importable here, where bench/tracer.py binds it.
from .geometry import CrowdKinematics, bin_indices, compute_encounter  # noqa: F401


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
        """(R, J) bool: which table entries may influence their row, from
        the (R,) presence of every row. Absent pedestrians, a row's own
        entry and the padding never do."""
        rows = np.arange(self.n_rows)[:, None]
        return np.asarray(present, dtype=bool)[self.neighbors] & (self.neighbors != rows)


def linear(x: ad.TensorNode, weight: ad.TensorNode, bias: ad.TensorNode) -> ad.TensorNode:
    """``x @ weight.T + bias`` for every row of ``(..., in)``."""
    return ad.linear(x, weight, bias)


def lstm_cell(x: ad.TensorNode, hidden: ad.TensorNode, cell: ad.TensorNode,
              w_ih: ad.TensorNode, w_hh: ad.TensorNode, bias: ad.TensorNode,
              hidden_dim: int):
    """One LSTM update of every row; gate order input, forget, candidate,
    output."""
    H = hidden_dim
    gates = ad.add(ad.linear(x, w_ih, bias), ad.linear(hidden, w_hh))
    squashed = ad.sigmoid(gates)        # the candidate block is unused here
    i = squashed[..., 0:H]
    f = squashed[..., H:2 * H]
    g = ad.tanh(gates[..., 2 * H:3 * H])
    o = squashed[..., 3 * H:4 * H]
    new_cell = ad.add(ad.mul(f, cell), ad.mul(i, g))
    new_hidden = ad.mul(o, ad.tanh(new_cell))
    return new_hidden, new_cell


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


def spatial_round(offsets: ad.TensorNode,
                  kinematics: CrowdKinematics,
                  present: np.ndarray,
                  hiddens: ad.TensorNode,
                  layout: SceneLayout,
                  grid: spatial.DomainGrid,
                  fuse_w: ad.TensorNode, fuse_b: ad.TensorNode,
                  literal_softmax: bool = False,
                  force_zero_context: bool = False):
    """One batch-wide spatial attention pass from a snapshot of hidden states.

    The rows are ``layout``'s: every scene's pedestrians in ascending id
    order, the scenes grouped by size. ``offsets`` is the (R, J, 2) node
    pointing from each row to the entries of its row of
    ``layout.neighbors``; passing live position nodes here is what lets
    predicted geometry receive gradient. ``kinematics`` gives the float positions (R, 2) and
    headings (R,) that pick each pair's grid cell. With a leading sample
    axis (offsets (S, R, J, 2), kinematics positions (S, R, 2) and headings
    (S, R), hiddens (S, R, H)) every sample runs its own round in the same
    records; ``present`` (R,) is shared by all of them.

    Distances, bins, scores and weights cover the (R, J) table, so a
    pedestrian scores only its own scene; absent pedestrians, its own entry
    and the padding of smaller scenes never act as neighbours, and a
    pedestrian with no neighbour gets the zero context exactly, because
    every weight in its row is 0. Softmax totals run left to right, so the
    padding adds exact zeros, and the context is one product per scene
    (``ad.block_matmul``), so every scene's outputs equal a round over that
    scene alone, bit for bit, and renumbering a scene permutes them
    bit-identically.

    Returns (fused, joints): (..., R, H) fused states and the (..., R, 2H)
    pre-projection concatenations.
    """
    neighbors = np.broadcast_to(layout.neighbor_mask(present),
                                hiddens.shape[:-1] + layout.neighbors.shape[-1:])
    if force_zero_context:
        ctx = ad.constant(np.zeros(hiddens.shape))
    else:
        distance = ad.l2norm(offsets)
        scores = spatial.raw_score(
            grid, bin_indices(kinematics, grid.spec, layout.neighbors), distance)
        weights = spatial.normalize_scores(scores, neighbors,
                                           literal_softmax=literal_softmax)
        ctx = spatial.context_vector(weights, hiddens, layout.blocks)
    return spatial.fuse_hidden(hiddens, ctx, fuse_w, fuse_b)
