"""Temporal attention over the encoder's fused-state history.

At each decoding step every pedestrian's fused state queries the fused
states saved for that pedestrian during observation (dot-product scores,
softmax over all observed steps, weighted sum), and the blended context is
projected back to hidden size:

    out = tanh(W @ concat(context, query) + b)

The whole scene attends at once: the keys are one (N, T_obs, H) node and
the query one (N, H) node. Sampled futures add a leading axis to both,
(S, N, T_obs, H) and (S, N, H), each sample reading its copy of the same
encoder history.
"""

from __future__ import annotations

from . import autodiff as ad
from .errors import ShapeError


def attend(query: ad.TensorNode, keys: ad.TensorNode,
           weight: ad.TensorNode, bias: ad.TensorNode) -> ad.TensorNode:
    """Blend each row of the (..., N, T, H) ``keys`` by similarity to its
    query row and project to hidden size, (..., N, H) -> (..., N, H), as one
    record (``ad.attention``). ``weight`` has shape (H, 2H)."""
    if keys.values.ndim < 3 or keys.shape[-2] == 0:
        raise ShapeError(f"attend: keys {keys.shape} must be a non-empty (..., N, T, H)")
    return ad.attention(query, keys, weight, bias)
