"""Categorical (softmax) policies over a discrete action set, and batched
inverse-CDF sampling from their action probabilities."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nets import MlpModel, forward


def softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - np.max(logits, axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def log_softmax(logits: np.ndarray) -> np.ndarray:
    z = logits - np.max(logits, axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


@dataclass
class CategoricalPolicy:
    """Softmax policy over a discrete action set."""

    network: MlpModel

    @property
    def action_count(self) -> int:
        return self.network.output_dim

    @property
    def obs_dim(self) -> int:
        return self.network.input_dim


def action_probs(policy: CategoricalPolicy, observation: np.ndarray) -> np.ndarray:
    """Action probabilities for one observation or a batch."""
    return softmax(forward(policy.network, observation))


def sample_actions(probs: np.ndarray, rngs: list) -> np.ndarray:
    """One action per row of `probs` (N, A), row i drawn with rngs[i].

    Each generator is advanced by exactly one random() call, in row order.
    The inverse CDF counts the cumulative probabilities strictly below u
    (the index searchsorted(cumsum, u) gives), clamped to A-1 for a u above
    a last cumulative sum that rounded below 1.
    """
    u = np.array([rng.random() for rng in rngs])
    actions = (u[:, None] > np.cumsum(probs, axis=1)).sum(axis=1)
    return np.minimum(actions, probs.shape[1] - 1)
