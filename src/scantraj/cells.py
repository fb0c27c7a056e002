"""Shared step primitives: linear embed, LSTM cell, scene-wide spatial pass.

Both the forecaster and the adversarial critic run the same kind of
spatially attentive recurrence, so the per-step machinery lives here. Every
primitive takes the whole scene as one batch, one row per pedestrian, so a
step costs the same number of tape records whatever the crowd size.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import autodiff as ad
from . import spatial
# compute_encounter is the scalar reference for geometry.bin_indices; it
# stays importable here, where bench/tracer.py binds it.
from .geometry import AgentKinematics, bin_indices, compute_encounter  # noqa: F401


def linear(x: ad.TensorNode, weight: ad.TensorNode, bias: ad.TensorNode) -> ad.TensorNode:
    """``x @ weight.T + bias`` for one row ``(in,)`` or a batch ``(N, in)``."""
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
    """Append one noise draw to every hidden row and project back to hidden
    size."""
    rows = np.broadcast_to(noise, hidden.shape[:-1] + np.shape(noise))
    return linear(ad.concat([hidden, ad.constant(rows)], axis=-1), weight, bias)


def pairwise_offsets(positions: ad.TensorNode) -> ad.TensorNode:
    """(N, 2) positions -> (N, N, 2) node whose [a, b] entry points from a
    to b."""
    n = positions.shape[0]
    rows = np.repeat(np.arange(n)[:, None], n, axis=1)
    return ad.sub(ad.gather(positions, rows.T), ad.gather(positions, rows))


def spatial_round(offsets: ad.TensorNode,
                  kinematics: Sequence[AgentKinematics],
                  present: np.ndarray,
                  hiddens: ad.TensorNode,
                  grid: spatial.DomainGrid,
                  fuse_w: ad.TensorNode, fuse_b: ad.TensorNode,
                  literal_softmax: bool = False,
                  force_zero_context: bool = False):
    """One scene-wide spatial attention pass from a snapshot of hidden states.

    ``offsets`` is the (N, N, 2) node pointing from pedestrian a to
    pedestrian b; passing live position nodes here is what lets predicted
    geometry receive gradient. ``kinematics`` gives the float positions
    and headings that pick each pair's grid cell. Absent pedestrians never
    act as neighbours; a pedestrian with no neighbour gets the zero context
    exactly, because every weight in its row is 0. Callers keep the rows in
    ascending pedestrian id order, so renumbering a scene permutes the outputs
    bit-identically.

    Returns (fused, joints): (N, H) fused states and the (N, 2H)
    pre-projection concatenations.
    """
    n = hiddens.shape[0]
    neighbors = np.asarray(present, dtype=bool)[None, :] & ~np.eye(n, dtype=bool)
    if force_zero_context:
        ctx = ad.constant(np.zeros(hiddens.shape))
    else:
        distance = ad.l2norm(offsets)
        scores = spatial.raw_score(grid, bin_indices(kinematics, grid.spec),
                                   distance)
        weights = spatial.normalize_scores(scores, neighbors,
                                           literal_softmax=literal_softmax)
        ctx = spatial.context_vector(weights, hiddens)
    return spatial.fuse_hidden(hiddens, ctx, fuse_w, fuse_b)
