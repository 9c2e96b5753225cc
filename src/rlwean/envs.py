"""Three small deterministic-seedable environments and their exact tabular
forms.

- chain: 5 linear states, actions {left, right}, +1 on reaching the right end.
- windy-grid: 5x5 grid, 4 actions, optional stochastic +x wind after each
  move, +1 at the goal cell and -0.01 per step.
- goal-world: 2-D point mass with 4 discrete move actions; "reach" gives +1
  inside a 0.1 radius of the goal, "reach-fast" adds a velocity-toward-goal
  shaping bonus and a -0.01 living cost.

Chain and windy-grid are entries of `TABLES`, which holds each of their rules
once: `TableEnv` steps by it and `as_tabular` reads it.

Every env is a bank of one member per seed, held as arrays: row i of each
state array is member i, which draws from `default_rng(seeds[i])` exactly
as a lone env made from that seed would. Each member's first episode
starts when the bank is made. One `step(actions)` advances every member,
returns (num_envs, ...) arrays, and restarts each member whose episode
ended, so `observations` always holds live episodes' observations.

Observations are normalized coordinates in [0, 1] so priors transfer across
variants without rescaling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import check_count, check_real, check_seed

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
GRID_MOVES = ((1, 0), (-1, 0), (0, 1), (0, -1))  # action -> (dx, dy)


class Table(NamedTuple):
    """The rules of a discrete-state env over its states 0..S-1 (start 0)."""

    obs: np.ndarray  # (S, obs_dim): the observation of each state
    next: np.ndarray  # (S, A): the successor under each action, before wind
    gust: np.ndarray  # (S,): where a gust of wind takes each state
    goal: int  # absorbing; a step that reaches it earns step_reward + 1
    step_reward: float  # the reward of a step that does not reach the goal


def _chain_table() -> Table:
    s, top = np.arange(CHAIN_N), CHAIN_N - 1
    nxt = np.stack([np.maximum(s - 1, 0), np.minimum(s + 1, top)], axis=1)
    return Table(s[:, None] / top, nxt, s, top, 0.0)


def _grid_table() -> Table:
    """State s = y * GRID_SIZE + x; a gust pushes one cell in +x."""
    top = GRID_SIZE - 1
    obs, nxt, gust = [], [], []
    for s in range(GRID_SIZE * GRID_SIZE):
        y, x = divmod(s, GRID_SIZE)
        obs.append([x / top, y / top])
        nxt.append([min(max(y + dy, 0), top) * GRID_SIZE
                    + min(max(x + dx, 0), top) for dx, dy in GRID_MOVES])
        gust.append(y * GRID_SIZE + min(x + 1, top))
    return Table(np.array(obs), np.array(nxt), np.array(gust),
                 GRID_SIZE * GRID_SIZE - 1, GRID_STEP_PENALTY)


TABLES = {"chain": _chain_table(), "windy-grid": _grid_table()}


@dataclass
class ActionSpace:
    """A discrete action set {0, ..., count - 1}."""

    count: int

    def __post_init__(self):
        if self.count < 2:
            raise ValueError("discrete action count must be >= 2")


@dataclass
class StepResult:
    """One bank step; row i is member i's transition."""

    observation: np.ndarray  # (num_envs, obs_dim), before any restart
    reward: np.ndarray  # (num_envs,)
    terminated: np.ndarray  # (num_envs,) bool
    truncated: np.ndarray  # (num_envs,) bool
    episode_return: np.ndarray  # (num_envs,) each episode's return so far


@dataclass(frozen=True)
class EnvConfig:
    env_id: str
    wind_enabled: bool = False
    wind_strength: float = 0.0
    reward_variant: str = "reach"
    horizon: int = 64

    def __post_init__(self):
        if self.env_id not in ENV_IDS:
            raise ValueError(f"unknown env_id {self.env_id!r}")
        if not isinstance(self.wind_enabled, bool):
            raise ValueError("wind_enabled must be true or false")
        check_real("wind_strength", self.wind_strength)
        if not 0.0 <= self.wind_strength <= 1.0:
            raise ValueError("wind_strength must lie in [0, 1]")
        if self.wind_enabled and self.env_id != "windy-grid":
            raise ValueError(f"wind_enabled needs windy-grid, not {self.env_id}")
        if self.wind_strength > 0.0 and not self.wind_enabled:
            raise ValueError("wind_strength above 0 needs wind_enabled")
        if self.reward_variant not in ("reach", "reach-fast"):
            raise ValueError(f"unknown reward_variant {self.reward_variant!r}")
        if self.reward_variant != "reach" and self.env_id != "goal-world":
            raise ValueError(f"reward_variant {self.reward_variant!r} needs "
                             f"goal-world, not {self.env_id}")
        check_count("horizon", self.horizon)

    @property
    def wind_prob(self) -> float:
        """The chance that a gust follows each move."""
        return self.wind_strength if self.wind_enabled else 0.0


@dataclass
class TabularModel:
    """Explicit finite MDP: P(s'|s,a) tensor and expected rewards r(s,a).
    S and A are read from the transition tensor."""

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

    @property
    def state_count(self) -> int:
        return self.transition.shape[0]

    @property
    def action_count(self) -> int:
        return self.transition.shape[1]


class _BaseEnv:
    """Bank bookkeeping: per-member generators, horizon truncation,
    restarts of finished episodes, current observations and returns."""

    def __init__(self, config: EnvConfig, seeds):
        if not isinstance(seeds, (list, tuple, range)) or not seeds:
            raise ValueError("seeds must be a non-empty list, tuple or range "
                             f"of seeds, got {seeds!r}")
        for seed in seeds:
            check_seed("seed", seed)
        self.config = config
        self.num_envs = len(seeds)
        self.rngs = [np.random.default_rng(s) for s in seeds]
        self._elapsed = np.zeros(self.num_envs, dtype=np.int64)
        self._return = np.zeros(self.num_envs)
        self._init_state()
        self.reset(np.ones(self.num_envs, dtype=bool))

    def reset(self, members: np.ndarray) -> None:
        """Start new episodes for the members in the boolean mask."""
        rows = members.nonzero()[0]
        self._elapsed[rows] = 0
        self._return[rows] = 0.0
        self._reset_state(rows)
        self.observations = self._obs()

    def step(self, actions) -> StepResult:
        """Advance every member by its action ((num_envs,) ints; a scalar
        for a bank of one), then restart the members whose episode ended."""
        a = np.asarray(actions).reshape(self.num_envs)
        if a.dtype.kind not in "iu":
            raise ValueError(f"actions must be integers, got {a.dtype}")
        listed, count = a.tolist(), self.action_space.count
        if min(listed) < 0 or max(listed) >= count:
            raise ValueError(f"actions {listed} outside [0, {count})")
        reward, terminated = self._step_state(a)
        self._elapsed += 1
        self._return += reward
        truncated = ~terminated & (self._elapsed >= self.config.horizon)
        self.observations = self._obs()
        result = StepResult(self.observations, reward, terminated, truncated,
                            self._return.copy())
        done = terminated | truncated
        # np.count_nonzero is the cheapest any() on the small arrays here.
        if np.count_nonzero(done):
            self.reset(done)
        return result


class TableEnv(_BaseEnv):
    """Chain or windy-grid: each member's state is a state of the env's
    table, starting at 0, and a gust may follow each move."""

    def __init__(self, config: EnvConfig, seeds):
        self.table = TABLES[config.env_id]
        self.obs_dim = self.table.obs.shape[1]
        self.action_space = ActionSpace(count=self.table.next.shape[1])
        super().__init__(config, seeds)

    def _init_state(self):
        self._state = np.zeros(self.num_envs, dtype=np.int64)

    def _reset_state(self, rows):
        self._state[rows] = 0

    def _obs(self):
        return self.table.obs[self._state]

    def _step_state(self, a):
        table, p = self.table, self.config.wind_prob
        state = table.next[self._state, a]
        if p > 0.0:
            gust = np.array([rng.random() for rng in self.rngs]) < p
            state = np.where(gust, table.gust[state], state)
        self._state = state
        at_goal = state == table.goal
        return np.where(at_goal, table.step_reward + 1.0, table.step_reward), \
            at_goal


def _row_dots(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Row-wise dot products of (n, d) arrays. A 3-D matmul takes the same
    dot-product path, bit for bit, as `u[i] @ v[i]` and np.linalg.norm on
    one row; (u * v).sum(axis=1) rounds differently."""
    return np.matmul(u[:, None, :], v[:, :, None])[:, 0, 0]


class GoalWorldEnv(_BaseEnv):
    """2-D point mass; not tabularizable (continuous state)."""

    obs_dim = 4
    action_space = ActionSpace(count=4)
    _DIRECTIONS = np.array(GRID_MOVES, dtype=np.float64)

    def _init_state(self):
        self._pos = np.zeros((self.num_envs, 2))
        self._vel = np.zeros((self.num_envs, 2))

    def _reset_state(self, rows):
        for i in rows:
            noise = self.rngs[i].uniform(-GOAL_START_NOISE, GOAL_START_NOISE,
                                         size=2)
            self._pos[i] = GOAL_START + noise
        self._vel[rows] = 0.0

    def _obs(self):
        v = (self._vel / GOAL_SPEED + 1.0) / 2.0
        return np.concatenate([self._pos, v], axis=1)

    def _step_state(self, a):
        vel = GOAL_SPEED * self._DIRECTIONS[a]
        to_goal = GOAL_POS - self._pos
        pos = np.minimum(np.maximum(self._pos + vel, 0.0), 1.0)
        left = GOAL_POS - pos
        at_goal = np.sqrt(_row_dots(left, left)) < GOAL_RADIUS
        self._pos, self._vel = pos, vel
        reward = at_goal.astype(np.float64)
        if self.config.reward_variant == "reach-fast":
            reward = GOAL_LIVING_COST + reward
            dist_before = np.sqrt(_row_dots(to_goal, to_goal))
            moved = dist_before > 1e-12
            ghat = to_goal / np.where(moved, dist_before, 1.0)[:, None]
            bonus = GOAL_SHAPING_COEF * np.maximum(0.0, _row_dots(vel, ghat))
            reward = reward + np.where(moved, bonus, 0.0)
        return reward, at_goal


def make_env(config: EnvConfig, seeds=(0,)):
    """A bank of the configured env with one member per seed, every
    member's first episode started."""
    if config.env_id in TABLES:
        return TableEnv(config, seeds)
    return GoalWorldEnv(config, seeds)


def as_tabular(config: EnvConfig) -> TabularModel:
    """Exact transition/reward tensors of the table `TableEnv` steps by."""
    if config.env_id not in TABLES:
        raise ValueError("goal-world has a continuous state space")
    table, wind_p = TABLES[config.env_id], config.wind_prob
    n, a_count = table.next.shape
    terminal = np.arange(n) == table.goal
    p = np.zeros((n, a_count, n))
    s, a = np.ogrid[:n, :a_count]
    p[s, a, table.next] += 1.0 - wind_p
    np.add.at(p, (s, a, table.gust[table.next]), wind_p)  # a gust may stay
    p[terminal] = np.eye(n)[terminal, None]  # absorbing, with no reward
    r = table.step_reward + p[:, :, table.goal]
    r[terminal] = 0.0
    init = np.zeros(n)
    init[0] = 1.0
    return TabularModel(p, r, init, config.horizon, terminal)
