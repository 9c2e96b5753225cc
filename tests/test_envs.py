import hashlib

import numpy as np
import pytest

from rlwean.envs import (CHAIN_N, GOAL_LIVING_COST, GOAL_POS, GOAL_RADIUS,
                         GOAL_SHAPING_COEF, GOAL_SPEED, GOAL_START,
                         GOAL_START_NOISE, GRID_MOVES, GRID_SIZE,
                         GRID_STEP_PENALTY, TABLES, EnvConfig, as_tabular,
                         make_env)


def rollout_rewards(config, seed, actions):
    env = make_env(config, [seed])
    rewards = []
    for a in actions:
        result = env.step(a)
        rewards.append(result.reward[0])
        if result.terminated[0] or result.truncated[0]:
            break
    return rewards


def test_chain_determinism():
    cfg = EnvConfig("chain", horizon=20)
    actions = [1, 0, 1, 1, 1, 1]
    r1 = rollout_rewards(cfg, 7, actions)
    r2 = rollout_rewards(cfg, 7, actions)
    assert r1 == r2


def test_chain_step_semantics():
    cfg = EnvConfig("chain", horizon=20)
    env = make_env(cfg)
    result = env.step(1)  # state 0 -> 1
    assert result.reward[0] == 0.0
    assert not result.terminated[0]
    np.testing.assert_allclose(result.observation, [[0.25]])
    # three more rights reach the terminal rightmost state with +1
    env.step(1), env.step(1)
    result = env.step(1)
    assert result.reward[0] == 1.0 and result.terminated[0]


def test_zero_wind_equals_no_wind():
    actions = [0, 2, 0, 2, 1, 3, 0, 0, 2, 2]
    a = EnvConfig("windy-grid", wind_enabled=False, horizon=20)
    b = EnvConfig("windy-grid", wind_enabled=True, wind_strength=0.0, horizon=20)
    assert rollout_rewards(a, 3, actions) == rollout_rewards(b, 3, actions)


def test_forced_wind_pushes_x():
    cfg = EnvConfig("windy-grid", wind_enabled=True, wind_strength=1.0, horizon=20)
    env = make_env(cfg)
    x0 = env.observations[0, 0]
    result = env.step(2)  # move +y; wind adds +1 to x
    assert result.observation[0, 0] == pytest.approx(x0 + 0.25)
    result = env.step(3)  # move -y; wind again
    assert result.observation[0, 0] == pytest.approx(x0 + 0.5)


def test_goal_world_reach_single_reward():
    cfg = EnvConfig("goal-world", reward_variant="reach", horizon=50)
    env = make_env(cfg, [5])
    obs = env.observations[0]
    rewards = []
    done = False
    while not done:
        pos = obs[:2]
        action = 0 if pos[0] < pos[1] else 2  # alternate toward the goal
        if pos[0] >= GOAL_POS[0]:
            action = 2
        result = env.step(action)
        rewards.append(result.reward[0])
        obs = result.observation[0]
        done = result.terminated[0] or result.truncated[0]
    assert result.terminated[0]
    assert rewards[:-1] == [0.0] * (len(rewards) - 1)
    assert rewards[-1] == 1.0
    assert np.linalg.norm(obs[:2] - GOAL_POS) < GOAL_RADIUS


def test_goal_world_reach_fast_living_cost():
    cfg = EnvConfig("goal-world", reward_variant="reach-fast", horizon=50)
    env = make_env(cfg, [5])
    # moving straight away from the goal: no shaping bonus, pure living cost
    result = env.step(1)
    assert result.reward[0] == pytest.approx(-0.01)


def test_horizon_truncation():
    cfg = EnvConfig("chain", horizon=3)
    env = make_env(cfg)
    for _ in range(2):
        result = env.step(0)
        assert not (result.terminated[0] or result.truncated[0])
    result = env.step(0)
    assert result.truncated[0] and not result.terminated[0]


def test_termination_beats_truncation_at_horizon():
    cfg = EnvConfig("chain", horizon=4)
    env = make_env(cfg)
    for _ in range(3):
        env.step(1)
    result = env.step(1)
    assert result.terminated[0] and not result.truncated[0]


def test_bad_action_and_bad_config():
    env = make_env(EnvConfig("chain", horizon=5))
    with pytest.raises(ValueError):
        env.step(2)
    with pytest.raises(ValueError):
        EnvConfig("lunar-lander")
    for horizon in (0, 64.5, True):
        with pytest.raises(ValueError):
            EnvConfig("chain", horizon=horizon)
    for wind in ("no", 1, None):
        with pytest.raises(ValueError, match="wind_enabled"):
            EnvConfig("windy-grid", wind_enabled=wind,
                      wind_strength=0.3)


@pytest.mark.parametrize("fields", [
    {"env_id": "chain", "wind_enabled": True, "wind_strength": 0.5},
    {"env_id": "goal-world", "wind_enabled": True},
    {"env_id": "chain", "reward_variant": "reach-fast"},
    {"env_id": "windy-grid", "reward_variant": "reach-fast"},
    {"env_id": "chain", "wind_strength": 0.5},
], ids=["wind-chain", "wind-goal", "variant-chain", "variant-grid",
        "strength-without-wind"])
def test_config_rejects_fields_its_env_ignores(fields):
    with pytest.raises(ValueError):
        EnvConfig(**fields)
    with pytest.raises(ValueError):
        make_env(EnvConfig(**fields))


@pytest.mark.parametrize("seeds", [16, [], "0"],
                         ids=["count", "empty", "string"])
def test_bank_seeds_must_be_a_sequence(seeds):
    for env_id in ("chain", "goal-world"):
        with pytest.raises(ValueError,
                           match="non-empty list, tuple or range of seeds"):
            make_env(EnvConfig(env_id), seeds)


@pytest.mark.parametrize("seed", [2.5, True, -1, "3"])
def test_bank_rejects_a_seed_that_is_not_an_integer_at_least_0(seed):
    for env_id in ("chain", "goal-world"):
        with pytest.raises(ValueError, match="seed must be an integer >= 0"):
            make_env(EnvConfig(env_id), [0, seed])


def test_chain_tabular_deterministic():
    model = as_tabular(EnvConfig("chain", horizon=20))
    assert model.state_count == 5 and model.action_count == 2
    assert set(np.unique(model.transition)) <= {0.0, 1.0}
    assert model.reward[3, 1] == 1.0


def test_windy_tabular_rows_normalized():
    model = as_tabular(EnvConfig("windy-grid", wind_enabled=True,
                                 wind_strength=0.3, horizon=20))
    np.testing.assert_allclose(model.transition.sum(axis=-1), 1.0, atol=1e-12)


# SHA-256 of each model's arrays, dtypes, sizes and state observations,
# recorded at e39c5a2, before chain and windy-grid shared one table env.
GOLDEN_TABULAR = {
    "chain-h20": (EnvConfig("chain", horizon=20),
                  "83e0fad547268f53ff8363a05b4379fc798d92b3cc0043adf1d4ec329816edb1"),
    "grid-h64": (EnvConfig("windy-grid", horizon=64),
                 "f9dd1d4bd86c92806fad57761991a22e73e20b549010b615093e73c985c78d13"),
    "grid-wind0.3-h64": (
        EnvConfig("windy-grid", wind_enabled=True, wind_strength=0.3,
                  horizon=64),
        "bde493e8826dfbe63b7457c15f361a5c8a6ebf356d55bbd267425b56d839d237"),
    "grid-wind0.5-h12": (
        EnvConfig("windy-grid", wind_enabled=True, wind_strength=0.5,
                  horizon=12),
        "b3cd403b9590d15eea9c76612dcca3117bc077afc30627fe4e084451c7231d2e"),
}


@pytest.mark.parametrize("case", sorted(GOLDEN_TABULAR))
def test_tabular_models_match_golden_digests(case):
    cfg, expected = GOLDEN_TABULAR[case]
    m = as_tabular(cfg)
    h = hashlib.sha256()
    for a in (m.transition, m.reward, m.initial_distribution, m.terminal):
        h.update(a.tobytes())
        h.update(str(a.dtype).encode())
    h.update(repr((m.state_count, m.action_count, m.horizon)).encode())
    for s in range(m.state_count):
        h.update(TABLES[cfg.env_id].obs[s].tobytes())
    assert h.hexdigest() == expected


def test_goal_world_not_tabularizable():
    with pytest.raises(ValueError, match="continuous state space"):
        as_tabular(EnvConfig("goal-world", horizon=20))


def test_empirical_transitions_match_tensor():
    # sampling oracle vs tensor: first transition from the start state
    cfg = EnvConfig("windy-grid", wind_enabled=True, wind_strength=0.3,
                    horizon=20)
    model = as_tabular(cfg)
    n = 100_000
    counts = {}
    for ep in range(n):
        result = make_env(cfg, [ep]).step(0)
        key = tuple(np.round(result.observation[0], 6))
        counts[key] = counts.get(key, 0) + 1
    expected = model.transition[0, 0]
    for s2 in np.flatnonzero(expected):
        obs = tuple(np.round(TABLES[cfg.env_id].obs[s2], 6))
        p = expected[s2]
        se = np.sqrt(p * (1 - p) / n)
        assert abs(counts.get(obs, 0) / n - p) < 3 * se


def test_wind_state_distribution_longer_horizon():
    # chi-square-style sanity over a 4-step random rollout
    cfg = EnvConfig("windy-grid", wind_enabled=True, wind_strength=0.5,
                    horizon=20)
    model = as_tabular(cfg)
    rng = np.random.default_rng(0)
    n = 20_000
    actions = [0, 2, 0, 2]
    final_counts = np.zeros(model.state_count)
    for ep in range(n):
        env = make_env(cfg, [int(rng.integers(1 << 30))])
        for a in actions:
            result = env.step(a)
        x = round(result.observation[0, 0] * 4)
        y = round(result.observation[0, 1] * 4)
        final_counts[int(y * 5 + x)] += 1
    dist = np.zeros(model.state_count)
    dist[0] = 1.0
    for a in actions:
        dist = np.einsum("s,st->t", dist, model.transition[:, a, :])
    for s in np.flatnonzero(dist > 1e-9):
        p = dist[s]
        se = np.sqrt(p * (1 - p) / n)
        assert abs(final_counts[s] / n - p) < 4 * se


class ScalarReference:
    """One env member stepped with Python scalars, one member at a time:
    the per-env semantics the bank must reproduce bit for bit."""

    def __init__(self, config, seed):
        self.config = config
        self.rng = np.random.default_rng(seed)

    def reset(self):
        self.steps = 0
        if self.config.env_id == "chain":
            self.state = 0
        elif self.config.env_id == "windy-grid":
            self.x, self.y = 0, 0
        else:
            noise = self.rng.uniform(-GOAL_START_NOISE, GOAL_START_NOISE,
                                     size=2)
            self.pos, self.vel = GOAL_START + noise, np.zeros(2)
        return self.obs()

    def obs(self):
        if self.config.env_id == "chain":
            return np.array([self.state / (CHAIN_N - 1)])
        if self.config.env_id == "windy-grid":
            return np.array([self.x / (GRID_SIZE - 1), self.y / (GRID_SIZE - 1)])
        return np.concatenate([self.pos, (self.vel / GOAL_SPEED + 1.0) / 2.0])

    def step(self, a):
        cfg = self.config
        if cfg.env_id == "chain":
            self.state = min(self.state + 1, CHAIN_N - 1) if a == 1 \
                else max(self.state - 1, 0)
            terminated = self.state == CHAIN_N - 1
            reward = 1.0 if terminated else 0.0
        elif cfg.env_id == "windy-grid":
            dx, dy = GRID_MOVES[a]
            self.x = min(max(self.x + dx, 0), GRID_SIZE - 1)
            self.y = min(max(self.y + dy, 0), GRID_SIZE - 1)
            p = cfg.wind_strength if cfg.wind_enabled else 0.0
            if p > 0.0 and self.rng.random() < p:
                self.x = min(self.x + 1, GRID_SIZE - 1)
            terminated = (self.x, self.y) == (GRID_SIZE - 1, GRID_SIZE - 1)
            reward = GRID_STEP_PENALTY + (1.0 if terminated else 0.0)
        else:
            self.vel = GOAL_SPEED * np.array(GRID_MOVES[a], dtype=float)
            to_goal = GOAL_POS - self.pos
            dist_before = float(np.linalg.norm(to_goal))
            self.pos = np.clip(self.pos + self.vel, 0.0, 1.0)
            terminated = float(np.linalg.norm(GOAL_POS - self.pos)) < GOAL_RADIUS
            if cfg.reward_variant == "reach":
                reward = 1.0 if terminated else 0.0
            else:
                reward = GOAL_LIVING_COST + (1.0 if terminated else 0.0)
                if dist_before > 1e-12:
                    ghat = to_goal / dist_before
                    reward += GOAL_SHAPING_COEF * max(0.0,
                                                      float(self.vel @ ghat))
        self.steps += 1
        truncated = not terminated and self.steps >= cfg.horizon
        return self.obs(), reward, terminated, truncated


BANK_CONFIGS = {
    "chain": EnvConfig("chain", horizon=12),
    "windy-grid-wind": EnvConfig("windy-grid", wind_enabled=True,
                                 wind_strength=0.3, horizon=20),
    "goal-reach": EnvConfig("goal-world", reward_variant="reach", horizon=30),
    "goal-reach-fast": EnvConfig("goal-world", reward_variant="reach-fast",
                                 horizon=30),
}


# id suffix -> member seeds: consecutive ones, and an unordered list with gaps
BANK_SEEDS = {"": range(40, 56), "-unordered-seeds": [7, 3, 1_000_003, 11]}


@pytest.mark.parametrize("config, seeds", [
    pytest.param(config, seeds, id=name + suffix)
    for suffix, seeds in BANK_SEEDS.items()
    for name, config in BANK_CONFIGS.items()])
def test_bank_matches_scalar_reference(config, seeds):
    n, steps = len(seeds), 2000
    bank = make_env(config, seeds)
    refs = [ScalarReference(config, seed) for seed in seeds]
    np.testing.assert_array_equal(bank.observations,
                                  [ref.reset() for ref in refs])
    actions = np.random.default_rng(0).integers(
        bank.action_space.count, size=(steps, n))
    returns = np.zeros(n)
    resets = terminations = 0
    for t in range(steps):
        result = bank.step(actions[t])
        expected = [ref.step(int(a)) for ref, a in zip(refs, actions[t])]
        obs, rewards, terminated, truncated = map(np.array, zip(*expected))
        returns += rewards
        np.testing.assert_array_equal(result.observation, obs)
        np.testing.assert_array_equal(result.reward, rewards)
        np.testing.assert_array_equal(result.terminated, terminated)
        np.testing.assert_array_equal(result.truncated, truncated)
        np.testing.assert_array_equal(result.episode_return, returns)
        done = terminated | truncated
        terminations += terminated.sum()
        resets += done.sum()
        for i in np.flatnonzero(done):
            obs[i] = refs[i].reset()
            returns[i] = 0.0
        np.testing.assert_array_equal(bank.observations, obs)
    assert resets > n and terminations > 0
    # every member's generator has advanced exactly as its scalar twin's
    for rng, ref in zip(bank.rngs, refs):
        assert rng.bit_generator.state == ref.rng.bit_generator.state


def test_bank_guards_actions():
    bank = make_env(EnvConfig("chain", horizon=4), range(3))
    # out of range, or not integers: a float, a string or a bool
    for actions in ([0, 2, 1], [-1, 0, 1], [1.7, 0.2, 1.0], ["1", "0", "1"],
                    [True, False, True], np.array([1.0, 0.0, 1.0])):
        with pytest.raises(ValueError):
            bank.step(actions)
    np.testing.assert_array_equal(bank.observations, [[0.0]] * 3)
    for actions in ([1, 0, 1], np.array([1, 0, 1], dtype=np.intp),
                    np.array([1, 0, 1], dtype=np.uint8)):
        bank.step(actions)
    np.testing.assert_array_equal(bank.observations, [[0.75], [0.0], [0.75]])


def test_step_restarts_finished_members():
    bank = make_env(EnvConfig("chain", horizon=4), range(3))
    for actions in ([1, 1, 0], [1, 1, 0], [1, 0, 0]):
        bank.step(actions)
    result = bank.step([1, 1, 0])
    np.testing.assert_array_equal(result.terminated, [True, False, False])
    np.testing.assert_array_equal(result.truncated, [False, True, True])
    # the step's rows are the ended episodes' last ones, not the restarts
    np.testing.assert_array_equal(result.observation, [[1.0], [0.5], [0.0]])
    np.testing.assert_array_equal(result.episode_return, [1.0, 0.0, 0.0])
    np.testing.assert_array_equal(bank.observations, [[0.0]] * 3)
    result = bank.step([1, 1, 1])
    np.testing.assert_array_equal(result.observation, [[0.25]] * 3)
    np.testing.assert_array_equal(result.episode_return, [0.0, 0.0, 0.0])
    assert not (result.terminated | result.truncated).any()
