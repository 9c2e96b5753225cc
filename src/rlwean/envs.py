"""Three small deterministic-seedable environments and their exact tabular
forms.

- chain: 5 linear states, actions {left, right}, +1 on reaching the right end.
- windy-grid: 5x5 grid, 4 actions, optional stochastic +x wind after each
  move, +1 at the goal cell and -0.01 per step.
- goal-world: 2-D point mass with 4 discrete move actions; "reach" gives +1
  inside a 0.1 radius of the goal, "reach-fast" adds a velocity-toward-goal
  shaping bonus and a -0.01 living cost.

Observations are normalized coordinates in [0, 1] so priors transfer across
variants without rescaling.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import UnsupportedError

ENV_IDS = ("chain", "windy-grid", "goal-world")

CHAIN_N = 5
GRID_SIZE = 5
GRID_STEP_PENALTY = -0.01
GOAL_POS = np.array([0.7, 0.7])
GOAL_RADIUS = 0.1
GOAL_START = np.array([0.3, 0.3])
GOAL_START_NOISE = 0.05
GOAL_SPEED = 0.08
GOAL_LIVING_COST = -0.01
GOAL_SHAPING_COEF = 0.1


@dataclass
class ActionSpace:
    """A discrete action set {0, ..., count - 1}."""

    count: int

    def __post_init__(self):
        if self.count < 2:
            raise ValueError("discrete action count must be >= 2")


@dataclass
class StepResult:
    observation: np.ndarray
    reward: float
    terminated: bool
    truncated: bool


@dataclass
class EnvConfig:
    env_id: str
    wind_enabled: bool = False
    wind_strength: float = 0.0
    reward_variant: str = "reach"
    horizon: int = 64
    seed: int = 0

    def validate(self) -> None:
        if self.env_id not in ENV_IDS:
            raise ValueError(f"unknown env_id {self.env_id!r}")
        if not 0.0 <= self.wind_strength <= 1.0:
            raise ValueError("wind_strength must lie in [0, 1]")
        if self.reward_variant not in ("reach", "reach-fast"):
            raise ValueError(f"unknown reward_variant {self.reward_variant!r}")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")


@dataclass
class TabularModel:
    """Explicit finite MDP: P(s'|s,a) tensor and expected rewards r(s,a)."""

    state_count: int
    action_count: int
    transition: np.ndarray  # (S, A, S)
    reward: np.ndarray  # (S, A)
    initial_distribution: np.ndarray  # (S,)
    horizon: int
    terminal: np.ndarray | None = None  # (S,) bool, absorbing states

    def __post_init__(self):
        row_sums = self.transition.sum(axis=-1)
        if not np.allclose(row_sums, 1.0, atol=1e-12):
            raise ValueError("transition rows must sum to 1 within 1e-12")
        if abs(self.initial_distribution.sum() - 1.0) > 1e-12:
            raise ValueError("initial_distribution must sum to 1 within 1e-12")
        if self.terminal is None:
            self.terminal = np.zeros(self.state_count, dtype=bool)


class _BaseEnv:
    """Common bookkeeping: horizon truncation and terminal-step guarding."""

    def __init__(self, config: EnvConfig):
        config.validate()
        self.config = config
        self.horizon = config.horizon
        self._rng = np.random.default_rng(config.seed)
        self._steps = 0
        self._done = True

    def reset(self, seed: int | None = None) -> np.ndarray:
        if seed is not None:
            self._rng = np.random.default_rng(seed)
        self._steps = 0
        self._done = False
        return self._reset_state()

    def step(self, action) -> StepResult:
        if self._done:
            raise RuntimeError("step() called on a finished episode; reset first")
        obs, reward, terminated = self._step_state(action)
        self._steps += 1
        truncated = (not terminated) and self._steps >= self.horizon
        self._done = terminated or truncated
        return StepResult(obs, reward, terminated, truncated)

    def _check_discrete(self, action) -> int:
        a = int(action)
        if not 0 <= a < self.action_space.count:
            raise ValueError(f"action {a} outside [0, {self.action_space.count})")
        return a


class ChainEnv(_BaseEnv):
    """Deterministic 5-state chain; +1 on reaching the rightmost state."""

    obs_dim = 1
    action_space = ActionSpace(count=2)

    def _reset_state(self):
        self._state = 0
        return self._obs()

    def _obs(self):
        return np.array([self._state / (CHAIN_N - 1)])

    def _step_state(self, action):
        a = self._check_discrete(action)
        self._state = min(self._state + 1, CHAIN_N - 1) if a == 1 else max(self._state - 1, 0)
        reached = self._state == CHAIN_N - 1
        return self._obs(), (1.0 if reached else 0.0), reached


class WindyGridEnv(_BaseEnv):
    """5x5 grid from (0,0) to goal (4,4); optional +x wind after each move."""

    obs_dim = 2
    action_space = ActionSpace(count=4)
    # action -> (dx, dy)
    MOVES = ((1, 0), (-1, 0), (0, 1), (0, -1))

    def _reset_state(self):
        self._x, self._y = 0, 0
        return self._obs()

    def _obs(self):
        return np.array([self._x / (GRID_SIZE - 1), self._y / (GRID_SIZE - 1)])

    @property
    def _wind_prob(self) -> float:
        return self.config.wind_strength if self.config.wind_enabled else 0.0

    def _step_state(self, action):
        a = self._check_discrete(action)
        dx, dy = self.MOVES[a]
        self._x = min(max(self._x + dx, 0), GRID_SIZE - 1)
        self._y = min(max(self._y + dy, 0), GRID_SIZE - 1)
        p = self._wind_prob
        if p > 0.0 and self._rng.random() < p:
            self._x = min(self._x + 1, GRID_SIZE - 1)
        at_goal = (self._x, self._y) == (GRID_SIZE - 1, GRID_SIZE - 1)
        reward = GRID_STEP_PENALTY + (1.0 if at_goal else 0.0)
        return self._obs(), reward, at_goal


class GoalWorldEnv(_BaseEnv):
    """2-D point mass; not tabularizable (continuous state)."""

    obs_dim = 4
    action_space = ActionSpace(count=4)

    def _reset_state(self):
        noise = self._rng.uniform(-GOAL_START_NOISE, GOAL_START_NOISE, size=2)
        self._pos = GOAL_START + noise
        self._vel = np.zeros(2)
        return self._obs()

    def _obs(self):
        v = (self._vel / GOAL_SPEED + 1.0) / 2.0
        return np.concatenate([self._pos, v])

    def _step_state(self, action):
        a = self._check_discrete(action)
        direction = np.array(WindyGridEnv.MOVES[a], dtype=np.float64)
        self._vel = GOAL_SPEED * direction
        to_goal = GOAL_POS - self._pos
        dist_before = float(np.linalg.norm(to_goal))
        self._pos = np.clip(self._pos + self._vel, 0.0, 1.0)
        at_goal = float(np.linalg.norm(GOAL_POS - self._pos)) < GOAL_RADIUS
        if self.config.reward_variant == "reach":
            reward = 1.0 if at_goal else 0.0
        else:  # reach-fast
            reward = GOAL_LIVING_COST + (1.0 if at_goal else 0.0)
            if dist_before > 1e-12:
                ghat = to_goal / dist_before
                reward += GOAL_SHAPING_COEF * max(0.0, float(self._vel @ ghat))
        return self._obs(), reward, at_goal


def make_env(config: EnvConfig):
    config.validate()
    if config.env_id == "chain":
        return ChainEnv(config)
    if config.env_id == "windy-grid":
        return WindyGridEnv(config)
    return GoalWorldEnv(config)


def env_observation(config: EnvConfig, state: int) -> np.ndarray:
    """Observation vector for a tabular state index of chain or windy-grid."""
    if config.env_id == "chain":
        return np.array([state / (CHAIN_N - 1)])
    if config.env_id == "windy-grid":
        y, x = divmod(state, GRID_SIZE)
        return np.array([x / (GRID_SIZE - 1), y / (GRID_SIZE - 1)])
    raise UnsupportedError(f"{config.env_id} has no tabular states")


def as_tabular(config: EnvConfig) -> TabularModel:
    """Exact transition/reward tensors matching step() semantics."""
    config.validate()
    if config.env_id == "chain":
        return _chain_tabular(config)
    if config.env_id == "windy-grid":
        return _grid_tabular(config)
    raise UnsupportedError("goal-world has a continuous state space")


def _chain_tabular(config: EnvConfig) -> TabularModel:
    n, a_count = CHAIN_N, 2
    p = np.zeros((n, a_count, n))
    r = np.zeros((n, a_count))
    terminal = np.zeros(n, dtype=bool)
    terminal[n - 1] = True
    for s in range(n):
        if terminal[s]:
            p[s, :, s] = 1.0
            continue
        p[s, 0, max(s - 1, 0)] = 1.0
        nxt = min(s + 1, n - 1)
        p[s, 1, nxt] = 1.0
        if nxt == n - 1:
            r[s, 1] = 1.0
    init = np.zeros(n)
    init[0] = 1.0
    return TabularModel(n, a_count, p, r, init, config.horizon, terminal)


def _grid_tabular(config: EnvConfig) -> TabularModel:
    n = GRID_SIZE * GRID_SIZE
    a_count = 4
    goal = n - 1  # (4,4) with state index y*5+x
    wind_p = config.wind_strength if config.wind_enabled else 0.0
    p = np.zeros((n, a_count, n))
    r = np.zeros((n, a_count))
    terminal = np.zeros(n, dtype=bool)
    terminal[goal] = True
    for s in range(n):
        if terminal[s]:
            p[s, :, s] = 1.0
            continue
        y, x = divmod(s, GRID_SIZE)
        for a, (dx, dy) in enumerate(WindyGridEnv.MOVES):
            x1 = min(max(x + dx, 0), GRID_SIZE - 1)
            y1 = min(max(y + dy, 0), GRID_SIZE - 1)
            s_nowind = y1 * GRID_SIZE + x1
            s_wind = y1 * GRID_SIZE + min(x1 + 1, GRID_SIZE - 1)
            p[s, a, s_nowind] += 1.0 - wind_p
            p[s, a, s_wind] += wind_p
            goal_prob = p[s, a, goal]
            r[s, a] = GRID_STEP_PENALTY + goal_prob
    init = np.zeros(n)
    init[0] = 1.0
    return TabularModel(n, a_count, p, r, init, config.horizon, terminal)
