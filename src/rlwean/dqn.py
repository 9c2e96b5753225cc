"""Plain DQN used to produce Q-function prior artifacts, and the export of
any trained source network as a prior artifact.

Single-threaded, epsilon-greedy behavior with linear epsilon decay, uniform
replay sampling, hard target-network copies, and squared TD error. No
double/dueling/prioritized variants.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .envs import EnvConfig, make_env
from .errors import check_count, check_seed
from .nets import (MlpModel, adam_update, backward, forward, init_adam,
                   init_mlp, single_blas_thread)
from .priors import PriorArtifact, save_artifact

HIDDEN_DIMS = [64, 64]
DQN_LEARNING_RATE = 1e-3
BUFFER_CAPACITY = 50_000
BATCH_SIZE = 128
GAMMA = 0.99
TARGET_UPDATE_INTERVAL = 500
EPSILON_START = 1.0
EPSILON_END = 0.05
EPSILON_DECAY_FRACTION = 0.5  # of the run's total_timesteps
LEARNING_STARTS = 1000
TRAIN_FREQUENCY = 4


@dataclass(frozen=True)
class DqnConfig:
    total_timesteps: int = 100_000

    def __post_init__(self):
        check_count("total_timesteps", self.total_timesteps)


def epsilon_at(config: DqnConfig, t: int) -> float:
    """Linear decay from EPSILON_START to EPSILON_END over the first
    EPSILON_DECAY_FRACTION of training."""
    decay_steps = EPSILON_DECAY_FRACTION * config.total_timesteps
    frac = min(t / decay_steps, 1.0)
    return EPSILON_START + frac * (EPSILON_END - EPSILON_START)


class ReplayBuffer:
    """Fixed-capacity ring buffer of transitions."""

    def __init__(self, capacity: int, obs_dim: int):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.obs = np.zeros((capacity, obs_dim))
        self.actions = np.zeros(capacity, dtype=np.int64)
        self.rewards = np.zeros(capacity)
        self.next_obs = np.zeros((capacity, obs_dim))
        self.terminated = np.zeros(capacity, dtype=bool)
        self._next = 0
        self.size = 0

    def add(self, obs, action, reward, next_obs, terminated) -> None:
        i = self._next
        self.obs[i] = obs
        self.actions[i] = action
        self.rewards[i] = reward
        self.next_obs[i] = next_obs
        self.terminated[i] = terminated
        self._next = (i + 1) % self.capacity
        self.size = min(self.size + 1, self.capacity)

    def sample(self, batch_size: int, rng: np.random.Generator):
        """Uniform sample without replacement within the minibatch."""
        idx = rng.choice(self.size, size=min(batch_size, self.size),
                         replace=False)
        return (self.obs[idx], self.actions[idx], self.rewards[idx],
                self.next_obs[idx], self.terminated[idx])


def dqn_train(env_config: EnvConfig, config: DqnConfig, seed: int):
    """Train DQN; returns (q_network, learning curve of
    (timestep, episodic_return_mean) rows). Deterministic given seed."""
    check_seed("seed", seed)
    env = make_env(env_config, [seed])
    action_count = env.action_space.count
    rng = np.random.default_rng(seed)

    q_net = init_mlp([env.obs_dim] + HIDDEN_DIMS + [action_count], rng)
    target_net = q_net.copy()
    opt = init_adam(q_net, DQN_LEARNING_RATE)
    buffer = ReplayBuffer(BUFFER_CAPACITY, env.obs_dim)

    recent_returns: list[float] = []
    curve = []
    report_interval = max(config.total_timesteps // 50, 1)

    with single_blas_thread():
        for t in range(config.total_timesteps):
            obs = env.observations[0]
            if rng.random() < epsilon_at(config, t):
                action = int(rng.integers(action_count))
            else:
                action = int(np.argmax(forward(q_net, obs)))
            result = env.step(action)
            buffer.add(obs, action, result.reward[0], result.observation[0],
                       result.terminated[0])
            if result.terminated[0] or result.truncated[0]:
                recent_returns.append(float(result.episode_return[0]))

            if t >= LEARNING_STARTS and t % TRAIN_FREQUENCY == 0:
                b_obs, b_act, b_rew, b_next, b_term = buffer.sample(
                    BATCH_SIZE, rng)
                next_q = forward(target_net, b_next).max(axis=1)
                target = b_rew + GAMMA * (1.0 - b_term) * next_q
                activations = []
                q = forward(q_net, b_obs, activations)
                td_err = q[np.arange(len(b_act)), b_act] - target
                dq = np.zeros_like(q)
                dq[np.arange(len(b_act)), b_act] = td_err / len(b_act)
                grads = backward(q_net, b_obs, dq, activations)
                adam_update(q_net, opt, grads)

            if t % TARGET_UPDATE_INTERVAL == 0:
                target_net = q_net.copy()

            if (t + 1) % report_interval == 0 and recent_returns:
                window = recent_returns[-20:]
                curve.append((t + 1, float(np.mean(window))))

    return q_net, curve


def export_prior(network: MlpModel, metadata: dict, path) -> PriorArtifact:
    """Write a trained source network as a prior artifact: a Q-network as
    a q_function prior, a value net as a value_function prior. `metadata`
    holds PriorArtifact's source_* and created_at fields. load->evaluate is
    bit-exact."""
    artifact = PriorArtifact(network.copy(), **metadata)
    save_artifact(artifact, path)
    return artifact
