"""Temporal attention over the encoder's fused-state history.

At each decoding step every pedestrian's fused state queries the fused
states saved for that pedestrian during observation (dot-product scores,
softmax over the valid steps, weighted sum), and the blended context is
projected back to hidden size:

    out = tanh(W @ concat(context, query) + b)

The whole scene attends at once: the bank is one (N, T_obs, K) node and the
query one (N, K) node. Sampled futures add a leading axis to both,
(S, N, T_obs, K) and (S, N, K), each sample reading its copy of the same
encoder history. If every step of a row is masked its context is zero
and the projection still runs, so the decoder always receives a usable
state.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .errors import ShapeError


@dataclass
class AttentionBank:
    """The scene's fused states from the observation window.

    ``keys`` is an (N, T, K) node, one row of T keys per pedestrian;
    ``valid`` is (N, T) bool and masks steps out of the softmax. Both may
    carry leading sample axes, (..., N, T, K) and (..., N, T).
    """
    keys: ad.TensorNode
    valid: np.ndarray

    def __post_init__(self):
        self.valid = np.asarray(self.valid, dtype=bool)
        if self.keys.values.ndim < 3 or self.valid.shape != self.keys.shape[:-1]:
            raise ShapeError(
                f"attention bank: keys {self.keys.shape} and valid "
                f"{self.valid.shape} must be (..., N, T, K) and (..., N, T)")

    def __len__(self) -> int:
        return self.keys.shape[-2]


def attend(query: ad.TensorNode, bank: AttentionBank,
           weight: ad.TensorNode, bias: ad.TensorNode) -> ad.TensorNode:
    """Blend each row of the bank by similarity to its query row and
    project to hidden size, (..., N, K) -> (..., N, H).

    ``weight`` has shape (H, 2K) where K is the key/query width.
    """
    if len(bank) == 0:
        raise ShapeError("attend: empty attention bank")
    if query.shape != bank.keys.shape[:-2] + bank.keys.shape[-1:]:
        raise ShapeError(
            f"attend: query shape {query.shape} does not match bank keys "
            f"{bank.keys.shape}")
    scores = ad.matmul(bank.keys, query)
    weights = ad.masked_softmax(scores, bank.valid)
    context = ad.matmul(weights, bank.keys)
    return ad.tanh(ad.linear(ad.concat([context, query], axis=-1), weight, bias))
