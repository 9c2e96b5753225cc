"""Categorical (softmax) policies over a discrete action set. A policy is its
logits network, an `MlpModel`; this module turns logits into probabilities,
and `inverse_cdf` turns uniform draws into outcomes."""

from __future__ import annotations

import numpy as np

# forward is not called here; bench/spans.py times it under this name.
from .nets import forward


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - np.max(logits, axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def log_softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - logits.max(axis=-1, keepdims=True)  # np.max's bits
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def inverse_cdf(u: np.ndarray, cum: np.ndarray) -> np.ndarray:
    """The outcome each uniform u (N,) draws from cumulative probabilities
    cum (N, K).

    Counts the cumulative sums strictly below u (the index
    searchsorted(cum, u) gives), plus the zero leading sums, so a u of
    exactly 0.0 (raised to the least positive float) never draws a
    zero-probability outcome. Sums do not decrease, so counting only the
    first K-1 columns clamps to K-1 a u above a last sum that rounded below
    1. Columns are added one by one: reducing the short K axis is slower.
    """
    u = np.maximum(u, 5e-324)
    index = np.zeros(len(u), dtype=np.intp)
    for k in range(cum.shape[1] - 1):
        index += u > cum[:, k]
    return index
