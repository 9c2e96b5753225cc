"""Plain DQN used to produce Q-function prior artifacts.

Single-threaded, epsilon-greedy behavior with linear epsilon decay, uniform
replay sampling, hard target-network copies, and squared TD error. No
double/dueling/prioritized variants.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .envs import EnvConfig, make_env
from .errors import check_count
from .nets import (MlpModel, adam_update, backward, forward, init_adam,
                   init_mlp, single_blas_thread)
from .priors import PriorArtifact, save_artifact

HIDDEN_DIMS = [64, 64]
DQN_LEARNING_RATE = 1e-3


@dataclass
class DqnConfig:
    total_timesteps: int = 100_000
    buffer_capacity: int = 50_000
    batch_size: int = 128
    gamma: float = 0.99
    target_update_interval: int = 500
    epsilon_start: float = 1.0
    epsilon_end: float = 0.05
    epsilon_decay_fraction: float = 0.5
    learning_starts: int = 1000
    train_frequency: int = 4
    learning_rate: float = DQN_LEARNING_RATE

    def validate(self) -> None:
        for name in ("total_timesteps", "buffer_capacity", "batch_size",
                     "target_update_interval", "train_frequency"):
            check_count(name, getattr(self, name))
        if self.learning_starts < 0:
            raise ValueError("learning_starts must be >= 0")
        if not 0.0 <= self.epsilon_end <= self.epsilon_start <= 1.0:
            raise ValueError("need 0 <= epsilon_end <= epsilon_start <= 1")
        if not 0.0 < self.epsilon_decay_fraction <= 1.0:
            raise ValueError("epsilon_decay_fraction must lie in (0, 1]")


def epsilon_at(config: DqnConfig, t: int) -> float:
    """Linear decay from epsilon_start to epsilon_end over the first
    decay_fraction of training."""
    decay_steps = config.epsilon_decay_fraction * config.total_timesteps
    frac = min(t / decay_steps, 1.0)
    return config.epsilon_start + frac * (config.epsilon_end - config.epsilon_start)


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
    config.validate()
    env = make_env(env_config)  # a bank of one
    action_count = env.action_space.count
    rng = np.random.default_rng(seed)

    q_net = init_mlp([env.obs_dim] + HIDDEN_DIMS + [action_count], rng)
    target_net = q_net.copy()
    opt = init_adam(q_net, config.learning_rate)
    buffer = ReplayBuffer(config.buffer_capacity, env.obs_dim)

    env.reset(seed=seed)
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
                recent_returns.append(float(env.episode_return[0]))
                env.reset()

            if t >= config.learning_starts and t % config.train_frequency == 0:
                b_obs, b_act, b_rew, b_next, b_term = buffer.sample(
                    config.batch_size, rng)
                next_q = forward(target_net, b_next).max(axis=1)
                target = b_rew + config.gamma * (1.0 - b_term) * next_q
                activations = []
                q = forward(q_net, b_obs, activations)
                td_err = q[np.arange(len(b_act)), b_act] - target
                dq = np.zeros_like(q)
                dq[np.arange(len(b_act)), b_act] = td_err / len(b_act)
                grads = backward(q_net, b_obs, dq, activations)
                adam_update(q_net, opt, grads)

            if t % config.target_update_interval == 0:
                target_net = q_net.copy()

            if (t + 1) % report_interval == 0 and recent_returns:
                window = recent_returns[-20:]
                curve.append((t + 1, float(np.mean(window))))

    return q_net, curve


def greedy_return(q_net: MlpModel, env_config: EnvConfig, seed: int = 0,
                  episodes: int = 20) -> float:
    """Mean undiscounted return of the greedy policy extracted from q_net."""
    env = make_env(env_config)
    totals = []
    for ep in range(episodes):
        env.reset(seed=seed + ep)
        done = False
        while not done:
            action = int(np.argmax(forward(q_net, env.observations[0])))
            result = env.step(action)
            done = result.terminated[0] or result.truncated[0]
        totals.append(env.episode_return[0])
    return float(np.mean(totals))


def export_prior(q_network: MlpModel, metadata: dict, path) -> PriorArtifact:
    """Write a kind="q" prior artifact; load->evaluate is bit-exact."""
    artifact = PriorArtifact(
        kind="q_function",
        network=q_network.copy(),
        obs_dim=q_network.input_dim,
        action_count=q_network.output_dim,
        source_env_id=metadata.get("source_env_id", ""),
        source_algorithm=metadata.get("source_algorithm", "dqn"),
        source_seed=int(metadata.get("source_seed", 0)),
        created_at=metadata.get("created_at", ""),
    )
    save_artifact(artifact, path)
    return artifact
