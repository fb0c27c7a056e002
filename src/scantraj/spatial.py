"""Spatial attention over a learnable pedestrian domain.

The domain is an m x n grid of ranges in meters, indexed by the discretized
relative bearing and relative heading of a neighbour. A neighbour scores
``relu(range - distance)``: inside the domain the score grows as it gets
closer, outside it is exactly zero, so the gradient never touches grid
entries for encounters that do not matter.

Everything here works on a whole batch at once: entry [a, j] of an (N, J)
array is how pedestrian a sees its j-th neighbour, and row a is a's crowd
(for one scene, J = N and the neighbours are the scene's pedestrians; a
batch of scenes uses ``cells.SceneLayout``'s table). A leading sample axis,
(S, N, J), scores S futures together.
Scores are normalized with a row-masked softmax so that beyond-domain
neighbours keep weight exactly 0 (an unmasked softmax would hand them
exp(0) = 1 and let them leak influence).

The known-track passes score pairs inside ``ad.recurrence`` and the
decoder inside ``ad.decoder_rollout``, with the same pair maths; both keep
a few bytes per pair. ``raw_score`` and ``normalize_scores`` are
their composed reference, which they equal bit for bit, and no production
pass calls them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .geometry import BinSpec


@dataclass
class DomainGrid:
    """Learnable bearing x heading range table (meters)."""
    node: ad.TensorNode
    spec: BinSpec

    @property
    def values(self) -> np.ndarray:
        return self.node.values


@dataclass
class SpatialWeights:
    """Raw and normalized scores of every (target, neighbour) pair."""
    raw: ad.TensorNode          # (..., N, J)
    normalized: ad.TensorNode   # (..., N, J), zeros where inactive
    active: np.ndarray          # (..., N, J) bool: entries the softmax covers


def raw_score(grid: DomainGrid, cells: np.ndarray, distance: ad.TensorNode) -> ad.TensorNode:
    """relu(range[cell] - distance) for every pair, shaped like ``distance``.

    ``cells`` holds the flat, 0-based grid cell of each pair
    (``geometry.bin_indices``), from the float geometry (piecewise constant,
    so it carries no gradient). The distance is a live node so that
    predicted positions receive gradient through the score.
    """
    reach = ad.gather(grid.node, np.unravel_index(cells, grid.values.shape))
    return ad.relu(ad.sub(reach, distance))


def normalize_scores(raw: ad.TensorNode, neighbors: np.ndarray) -> SpatialWeights:
    """Normalize each target's scores across its crowd.

    ``neighbors[a, j]`` says whether a's neighbour j may influence a at all
    (present, not a itself and not padding). The softmax runs over the
    neighbours with a strictly positive score; a row with none is all
    zeros.
    """
    active = np.asarray(neighbors, dtype=bool) & (raw.values > 0.0)
    return SpatialWeights(raw, ad.masked_softmax(raw, active), active)


def context_vector(weights: ad.TensorNode, hiddens: ad.TensorNode,
                   blocks=None) -> ad.TensorNode:
    """Neighbour hidden states (..., N, H) weighted by the (..., N, J)
    normalized scores (``SpatialWeights.normalized``).

    ``blocks`` are a batch layout's scene blocks (``SceneLayout.blocks``):
    each scene's rows take the product of their own (n, n) weights with
    their own n hidden states, exactly as a lone scene would. Without
    blocks, every weight row covers all hidden rows: ``weights @ hiddens``,
    one block of all rows.

    A neighbour with weight exactly zero adds ``0 * h``, an exact zero
    because hidden states are always finite, so it has no influence, bit
    for bit.
    """
    if blocks is None:
        blocks = [(1, weights.shape[-2], hiddens.shape[-2])]
    return ad.block_matmul(weights, hiddens, blocks)


def fuse_hidden(hidden: ad.TensorNode, context: ad.TensorNode,
                weight: ad.TensorNode, bias: ad.TensorNode):
    """Blend own hidden state with the crowd context, row by row.

    Returns (fused, joint): the tanh-projected fused state of hidden size,
    plus the raw concatenation for callers that want the wide vector.
    """
    joint = ad.concat([hidden, context], axis=-1)
    fused = ad.tanh(ad.linear(joint, weight, bias))
    return fused, joint
