import hashlib

import numpy as np
import pytest

from rlwean.dqn import (DqnConfig, ReplayBuffer, dqn_train, epsilon_at,
                        export_prior)
from rlwean.envs import TABLES, EnvConfig, as_tabular, make_env
from rlwean.nets import _openblas_threads, adam_update, forward
from rlwean.oracle import value_iteration
from rlwean.priors import load_artifact


def greedy_return(q_net, env_config, seed=0, episodes=20) -> float:
    """Mean undiscounted return of the greedy policy extracted from q_net."""
    totals = []
    for ep in range(episodes):
        env = make_env(env_config, [seed + ep])
        done = False
        while not done:
            action = int(np.argmax(forward(q_net, env.observations[0])))
            result = env.step(action)
            done = result.terminated[0] or result.truncated[0]
        totals.append(result.episode_return[0])
    return float(np.mean(totals))


def test_epsilon_schedule_endpoints():
    config = DqnConfig(total_timesteps=10_000)
    assert epsilon_at(config, 0) == 1.0
    assert epsilon_at(config, 2500) == pytest.approx(0.525)
    assert epsilon_at(config, 5000) == pytest.approx(0.05)
    assert epsilon_at(config, 9999) == pytest.approx(0.05)


def test_dqn_config_validation():
    with pytest.raises(ValueError, match="total_timesteps"):
        DqnConfig(total_timesteps=0)
    # True == 1, but a bool is not a seed
    for seed in (True, 2.5, -1):
        with pytest.raises(ValueError, match="seed must be an integer >= 0"):
            dqn_train(EnvConfig("chain"), DqnConfig(total_timesteps=10), seed)


def test_replay_buffer_ring_eviction():
    buf = ReplayBuffer(capacity=3, obs_dim=1)
    for i in range(5):
        buf.add([float(i)], i, float(i), [float(i + 1)], False)
    assert buf.size == 3
    # oldest entries (0, 1) evicted; 2, 3, 4 remain
    assert sorted(buf.actions.tolist()) == [2, 3, 4]
    with pytest.raises(ValueError):
        ReplayBuffer(capacity=0, obs_dim=1)


def test_replay_buffer_sample_without_replacement():
    buf = ReplayBuffer(capacity=10, obs_dim=1)
    for i in range(10):
        buf.add([float(i)], i, 0.0, [0.0], False)
    rng = np.random.default_rng(0)
    _, actions, _, _, _ = buf.sample(10, rng)
    assert sorted(actions.tolist()) == list(range(10))
    _, actions, _, _, _ = buf.sample(4, rng)
    assert len(set(actions.tolist())) == 4


def test_dqn_deterministic_and_learns_chain():
    cfg = EnvConfig("chain", horizon=16)
    config = DqnConfig(total_timesteps=20_000)
    q1, curve1 = dqn_train(cfg, config, seed=0)
    q2, curve2 = dqn_train(cfg, config, seed=0)
    assert curve1 == curve2
    for a, b in zip(q1.weights + q1.biases, q2.weights + q2.biases):
        np.testing.assert_array_equal(a, b)
    assert greedy_return(q1, cfg) == pytest.approx(1.0)


def test_dqn_q_values_approach_optimal():
    cfg = EnvConfig("chain", horizon=16)
    q_net, _ = dqn_train(cfg, DqnConfig(total_timesteps=50_000), seed=1)
    model = as_tabular(cfg)
    q_star = value_iteration(model, 0.99)
    errs = []
    for s in range(model.state_count - 1):  # skip the terminal state
        obs = TABLES[cfg.env_id].obs[s]
        errs.append(np.max(np.abs(forward(q_net, obs) - q_star[s])))
    assert max(errs) < 0.15


def test_export_prior_round_trip(tmp_path):
    cfg = EnvConfig("chain", horizon=16)
    q_net, _ = dqn_train(cfg, DqnConfig(total_timesteps=3000), seed=2)
    path = tmp_path / "q.json"
    export_prior(q_net, {"source_env_id": "chain", "source_algorithm": "dqn",
                         "source_seed": 2}, path)
    prior = load_artifact(path)
    assert prior.kind == "q_function"
    assert prior.obs_dim == 1 and prior.action_count == 2
    assert prior.source_env_id == "chain" and prior.source_seed == 2
    rng = np.random.default_rng(0)
    obs = rng.random((100, 1))
    np.testing.assert_array_equal(forward(prior.network, obs),
                                  forward(q_net, obs))


def dqn_digest(env_config, seed) -> str:
    """SHA-256 of the learning curve and the final Q-network weights."""
    q_net, curve = dqn_train(env_config, DqnConfig(total_timesteps=3000), seed)
    h = hashlib.sha256(repr(curve).encode())
    for array in q_net.weights + q_net.biases:
        h.update(array.tobytes())
    return h.hexdigest()


# Like the PPO goldens: curves and weights must stay byte-identical under
# refactors and pure speed-ups of the env, backward and Adam.
DQN_GOLDEN_DIGESTS = {
    ("windy-grid", 0):
        "d3ac926dbde1418102f7e677092b9acf3a90c71c0e36dbaa7522f08d82ed108d",
    ("windy-grid", 1):
        "af5319f93014860703a7d3c39137f3e6f6f421465446671bf9f902875c24188b",
    ("chain", 0):
        "5729123d14912d67a6d4a37fb9b95fda45eb73fbb07a49e4aedcf3583b947770",
    ("chain", 1):
        "590c3719f31ff8bb4d9750a3f898f339a6c2834b80791dcaefe1055c49294aa2",
}


def test_dqn_train_matches_golden_digests():
    configs = {"windy-grid": EnvConfig("windy-grid", horizon=64),
               "chain": EnvConfig("chain", horizon=16)}
    got = {(name, seed): dqn_digest(configs[name], seed)
           for name in configs for seed in (0, 1)}
    assert got == DQN_GOLDEN_DIGESTS


def test_dqn_train_runs_on_one_blas_thread(monkeypatch):
    if _openblas_threads() is None:
        pytest.skip("numpy does not bundle OpenBLAS")
    get, _ = _openblas_threads()
    before, seen = get(), []

    def adam_spy(*args):
        seen.append(get())
        adam_update(*args)

    monkeypatch.setattr("rlwean.dqn.adam_update", adam_spy)
    # train steps fall at t = 1000 and 1004
    dqn_train(EnvConfig("chain", horizon=16), DqnConfig(1008), 0)
    assert seen == [1, 1]
    assert get() == before
