"""Value reuse from prior computation.

A PriorArtifact is a frozen Q-network or value network from earlier training.
The combined baseline (`rlwean.ppo.combined_baseline`) blends the freshly
learned value function with the value recovered from the prior:

    b(s) = (1 - w_t) * V_current(s) + w_t * V_prior(s)

where V_prior is sum_a pi(a|s) Q(s, a) for Q-function priors or the frozen
value network's output for value priors, and w_t is produced by a weaning
schedule that decreases over training.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from decimal import Decimal

import numpy as np

from .errors import CompatibilityError, check_count, check_real, check_seed
from .nets import MlpModel, forward

FORMAT_VERSION = 1
# The prior each source algorithm leaves: DQN's Q-network, PPO's value net.
PRIOR_KIND = {"dqn": "q_function", "pg": "value_function"}
_KIND_TO_FILE = {"q_function": "q", "value_function": "v"}


@dataclass(frozen=True)
class WeaningSchedule:
    """Rule producing the prior weight w_t in [0, 1] over training timesteps."""

    kind: str  # "fixed" | "step_decay"
    w0: float
    decrement: float = 0.0
    interval_steps: int = 1

    def __post_init__(self):
        if self.kind not in ("fixed", "step_decay"):
            raise ValueError(f"unknown schedule kind {self.kind!r}")
        for name in ("w0", "decrement"):
            check_real(name, getattr(self, name))
        if not 0.0 <= self.w0 <= 1.0:
            raise ValueError("w0 must lie in [0, 1]")
        if self.decrement < 0.0:
            raise ValueError("decrement must be non-negative")
        if self.kind == "fixed" and self.decrement != 0.0:
            raise ValueError("a fixed schedule takes no decrement")
        check_count("interval_steps", self.interval_steps)


def weaning_weight(schedule: WeaningSchedule, t: int) -> float:
    """w_t: fixed -> w0; step_decay -> max(0, w0 - decrement*floor(t/interval)).

    Computed in decimal so boundary values like 0.5 - 2*0.1 come out exactly
    0.3 instead of drifting in binary."""
    if t < 0:
        raise ValueError("timestep must be non-negative")
    if schedule.kind == "fixed":
        return schedule.w0
    k = t // schedule.interval_steps
    w = Decimal(repr(schedule.w0)) - k * Decimal(repr(schedule.decrement))
    return max(0.0, float(w))


@dataclass
class PriorArtifact:
    """Frozen prior computation plus where it came from. Its kind and spaces
    are the network's: a one-output net is a value prior and a wider one a
    Q-network (every action space has at least two actions); obs_dim is its
    input width and action_count a Q-network's output width (0 for a value
    prior)."""

    network: MlpModel
    source_env_id: str = ""
    source_algorithm: str = ""
    source_seed: int = 0
    created_at: str = ""

    @property
    def kind(self) -> str:
        return "value_function" if self.network.output_dim == 1 \
            else "q_function"

    @property
    def obs_dim(self) -> int:
        return self.network.input_dim

    @property
    def action_count(self) -> int:
        return self.network.output_dim if self.kind == "q_function" else 0


def check_compatibility(prior: PriorArtifact, obs_dim: int,
                        action_count: int) -> None:
    """Fail fast on mismatched source/target spaces."""
    if prior.obs_dim != obs_dim:
        raise CompatibilityError(
            f"prior obs_dim {prior.obs_dim} != target obs_dim {obs_dim}")
    if prior.kind == "q_function" and prior.action_count != action_count:
        raise CompatibilityError(
            f"prior action_count {prior.action_count} != target {action_count}")


def save_artifact(prior: PriorArtifact, path) -> None:
    """Write the artifact as a JSON document with full round-trip decimals."""
    layers = [{"rows": int(w.shape[0]), "cols": int(w.shape[1]),
               "weights": [float(v) for v in w.reshape(-1)],
               "biases": [float(v) for v in b]}
              for w, b in zip(prior.network.weights, prior.network.biases)]
    doc = {
        "format_version": FORMAT_VERSION,
        "kind": _KIND_TO_FILE[prior.kind],
        "obs_dim": prior.obs_dim,
        "action_count": prior.action_count,
        "activation": "tanh",
        "layers": layers,
        "metadata": {
            "source_env_id": prior.source_env_id,
            "source_algorithm": prior.source_algorithm,
            "source_seed": int(prior.source_seed),
            "created_at": prior.created_at or time.strftime("%Y-%m-%dT%H:%M:%SZ",
                                                            time.gmtime()),
        },
    }
    with open(path, "w") as f:
        json.dump(doc, f)


def load_artifact(path) -> PriorArtifact:
    """Load and eagerly validate an artifact file; any malformed document,
    including fields of the wrong type, raises ValueError."""
    with open(path) as f:
        doc = json.load(f)
    try:
        return _artifact_from_doc(doc)
    except (TypeError, AttributeError, KeyError, OverflowError) as exc:
        raise ValueError(f"{path}: malformed artifact: {exc!r}") from exc


def _artifact_from_doc(doc) -> PriorArtifact:
    meta = doc.get("metadata", {})
    # ints, not floats, nor bools: True == 1 would pass every check below
    for name, value in (("format_version", doc.get("format_version")),
                        ("obs_dim", doc.get("obs_dim")),
                        ("action_count", doc.get("action_count", 0))):
        if isinstance(value, bool) or not isinstance(value, int):
            raise ValueError(f"{name} must be an integer, got {value!r}")
    check_seed("source_seed", meta.get("source_seed", 0))
    for name in ("source_env_id", "source_algorithm", "created_at"):
        if not isinstance(meta.get(name, ""), str):
            raise ValueError(f"{name} must be a string, got {meta[name]!r}")
    if doc["format_version"] != FORMAT_VERSION:
        raise ValueError(f"unsupported format_version {doc['format_version']}")
    if doc.get("activation") != "tanh":
        raise ValueError(f"unsupported activation {doc.get('activation')!r}")
    if not doc.get("layers"):
        raise ValueError("artifact has no layers")
    weights, biases = [], []
    for layer in doc["layers"]:
        rows, cols = layer["rows"], layer["cols"]
        # JSON numbers only: float() reads true as 1.0 and "0.5" as 0.5
        if not {*map(type, layer["weights"]),
                *map(type, layer["biases"])} <= {int, float}:
            raise ValueError("weights and biases must be JSON numbers")
        w = np.array(layer["weights"], dtype=np.float64).reshape(rows, cols)
        b = np.array(layer["biases"], dtype=np.float64)
        if b.shape != (rows,):
            raise ValueError("bias length does not match layer rows")
        if not (np.isfinite(w).all() and np.isfinite(b).all()):
            raise ValueError("artifact weights and biases must be finite")
        if weights and weights[-1].shape[0] != cols:
            raise ValueError("inconsistent layer dimensions")
        weights.append(w)
        biases.append(b)
    prior = PriorArtifact(
        network=MlpModel(weights, biases),
        source_env_id=meta.get("source_env_id", ""),
        source_algorithm=meta.get("source_algorithm", ""),
        source_seed=meta.get("source_seed", 0),
        created_at=meta.get("created_at", ""),
    )
    # A value prior's action_count is 0, so a save writes this document.
    stated = (doc.get("kind"), doc["obs_dim"], doc.get("action_count", 0))
    derived = (_KIND_TO_FILE[prior.kind], prior.obs_dim, prior.action_count)
    if stated != derived:
        raise CompatibilityError(f"kind, obs_dim, action_count {stated} != "
                                 f"{derived} of the layers")
    return prior


def q_to_value_from_probs(prior: PriorArtifact, probs: np.ndarray,
                          observations: np.ndarray) -> np.ndarray:
    """V_prior(s) = sum_a pi(a|s) Q(s, a) with the frozen prior Q-network,
    for probabilities (N, A) and observations (N, obs_dim); values (N,)."""
    if prior.kind != "q_function":
        raise ValueError("q_to_value_from_probs requires a q_function prior")
    return np.sum(probs * forward(prior.network, observations), axis=1)


def prior_value(prior: PriorArtifact, observations: np.ndarray) -> np.ndarray:
    """V_prior(s), the frozen value network's output passed through, for
    observations (N, obs_dim); values (N,)."""
    if prior.kind != "value_function":
        raise ValueError("prior_value requires a value_function prior")
    return forward(prior.network, observations)[:, 0]
