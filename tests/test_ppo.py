import hashlib
from dataclasses import replace

import numpy as np
import pytest

from rlwean.envs import (GRID_STEP_PENALTY, ActionSpace, EnvConfig, _BaseEnv,
                         make_env)
from rlwean.errors import CompatibilityError
from rlwean.nets import (AdamState, GradientBuffer, MlpModel,
                         _openblas_threads, adam_update, backward,
                         clip_grad_norm, forward, init_adam, init_mlp,
                         share_parameters)
from rlwean.policies import log_softmax, softmax
from rlwean.ppo import (TrainConfig, collect_rollout, combined_baseline,
                        compute_advantages, compute_returns, init_nets,
                        ppo_gradients, ppo_update, train)
from rlwean.priors import PriorArtifact, WeaningSchedule


def constant_value_net(obs_dim, value=0.0):
    return MlpModel([np.zeros((1, obs_dim))], [np.full(1, value)])


def forced_action_policy(obs_dim, action_count, action):
    """Logits network that picks `action` with probability 1."""
    bias = np.full(action_count, -1e4)
    bias[action] = 1e4
    return MlpModel([np.zeros((action_count, obs_dim))], [bias])


def test_compute_returns_hand_examples():
    last = np.array([[False, False, True]])
    np.testing.assert_allclose(
        compute_returns(np.ones((1, 3)), np.zeros((1, 3)), last, 1.0),
        [[3.0, 2.0, 1.0]])
    # a terminal end, and a truncated end bootstrapping 8.0 before a
    # terminal last step, in one sweep
    rewards = np.array([[1.0, 0.0, 4.0], [1.0, 0.0, 2.0]])
    ends = np.array([[False, False, True], [False, True, True]])
    next_values = np.array([[0.0, 0.0, 0.0], [0.0, 8.0, 0.0]])
    np.testing.assert_allclose(
        compute_returns(rewards, next_values, ends, 0.5),
        [[2.0, 2.0, 4.0], [3.0, 4.0, 2.0]])
    # two episodes in one row; a cut-off last step bootstrapping 5.0
    np.testing.assert_allclose(
        compute_returns(np.ones((1, 4)), np.array([[0.0, 0.0, 0.0, 5.0]]),
                        np.array([[False, True, False, True]]), 1.0),
        [[2.0, 1.0, 7.0, 6.0]])
    np.testing.assert_allclose(
        compute_returns(np.array([[2.0]]), np.zeros((1, 1)),
                        np.array([[True]]), 0.9), [[2.0]])


def reference_returns(rewards, next_values, ends, gamma):
    """Per-row scalar loop: each segment restarts from its next value."""
    out = np.empty_like(rewards)
    for i in range(rewards.shape[0]):
        g = 0.0
        for t in range(rewards.shape[1] - 1, -1, -1):
            if ends[i, t]:
                g = next_values[i, t]
            g = rewards[i, t] + gamma * g
            out[i, t] = g
    return out


def test_compute_returns_matches_per_row_reference():
    rng = np.random.default_rng(7)
    shape = (6, 50)
    rewards = rng.standard_normal(shape)
    terminated = rng.random(shape) < 0.1
    truncated = ~terminated & (rng.random(shape) < 0.1)
    ends = terminated | truncated
    cut_off = ~ends[:, -1]
    ends[:, -1] = True
    next_values = np.where(terminated, 0.0, rng.standard_normal(shape))
    assert terminated.any() and truncated.any() and cut_off.any()
    np.testing.assert_array_equal(
        compute_returns(rewards, next_values, ends, 0.97),
        reference_returns(rewards, next_values, ends, 0.97))


def test_collect_rollout_chain_forced_right():
    cfg = EnvConfig("chain", horizon=64)
    envs = make_env(cfg)
    policy = forced_action_policy(1, 2, action=1)
    rngs = [np.random.default_rng(0)]
    # both episodes terminate, so the value net's 5.0 must not be bootstrapped
    batch = collect_rollout(envs, policy, constant_value_net(1, 5.0), steps=8,
                            rngs=rngs, gamma=0.5)
    np.testing.assert_array_equal(batch.actions, np.ones(8, dtype=np.int64))
    np.testing.assert_allclose(batch.returns_to_go,
                               [0.125, 0.25, 0.5, 1.0] * 2)
    assert batch.episode_returns == [1.0, 1.0]


def test_collect_rollout_truncation_bootstraps_value():
    # horizon 6 < shortest path on windy-grid, so every episode truncates
    # and every step pays the step penalty
    cfg = EnvConfig("windy-grid", horizon=6)
    envs = make_env(cfg)
    rng = np.random.default_rng(1)
    policy = init_mlp([2, 8, 4], rng, output_scale=0.01)
    c, gamma = 3.0, 0.9
    batch = collect_rollout(envs, policy, constant_value_net(2, c), steps=12,
                            rngs=[np.random.default_rng(0)], gamma=gamma)
    # G_t = sum_{k=t}^{5} gamma^(k-t) * penalty + gamma^(6-t) * c
    left = 6 - np.arange(6)
    expected = (GRID_STEP_PENALTY * (1 - gamma ** left) / (1 - gamma)
                + gamma ** left * c)
    np.testing.assert_allclose(batch.returns_to_go, np.tile(expected, 2),
                               rtol=1e-12)


def test_collect_rollout_draws_one_uniform_per_step():
    # each worker's generator gives one random() per time step, in order,
    # and the action is the searchsorted pick of that draw
    cfg = EnvConfig("windy-grid", wind_enabled=True, wind_strength=0.3,
                    horizon=16)
    envs = make_env(cfg, range(3))
    policy = init_mlp([2, 16, 4], np.random.default_rng(2))
    rngs = [np.random.default_rng(30 + i) for i in range(3)]
    twins = [np.random.default_rng(30 + i) for i in range(3)]
    batch = collect_rollout(envs, policy, constant_value_net(2), steps=48,
                            rngs=rngs, gamma=0.99)
    cum = np.cumsum(batch.action_probs, axis=1).reshape(3, 16, 4)
    actions = batch.actions.reshape(3, 16)
    for i, twin in enumerate(twins):
        for t in range(16):
            expected = min(int(np.searchsorted(cum[i, t], twin.random())), 3)
            assert actions[i, t] == expected
        assert rngs[i].random() == twin.random()


def test_stored_log_probs_match_reevaluation():
    cfg = EnvConfig("windy-grid", wind_enabled=True, wind_strength=0.3,
                    horizon=16)
    envs = make_env(cfg, range(2))
    rng = np.random.default_rng(2)
    policy = init_mlp([2, 16, 4], rng)
    rngs = [np.random.default_rng(10 + i) for i in range(2)]
    batch = collect_rollout(envs, policy, constant_value_net(2), steps=64,
                            rngs=rngs, gamma=0.99)
    logp_all = log_softmax(forward(policy, batch.observations))
    recomputed = logp_all[np.arange(64), batch.actions]
    np.testing.assert_allclose(batch.log_probs, recomputed, atol=1e-12)
    probs_sum = batch.action_probs.sum(axis=1)
    np.testing.assert_allclose(probs_sum, 1.0, atol=1e-10)


def make_batch(seed=3, steps=64):
    cfg = EnvConfig("chain", horizon=16)
    envs = make_env(cfg, range(2))
    rng = np.random.default_rng(seed)
    policy = init_mlp([1, 16, 2], rng, output_scale=0.01)
    value_net = init_mlp([1, 16, 1], rng)
    rngs = [np.random.default_rng(20 + i) for i in range(2)]
    batch = collect_rollout(envs, policy, value_net, steps=steps, rngs=rngs,
                            gamma=0.99)
    return batch, policy, value_net


def test_advantage_identity():
    batch, policy, value_net = make_batch()
    advantages = compute_advantages(batch, value_net, None, 0.0)
    baselines = combined_baseline(value_net, None, 0.0, batch.observations,
                                  batch.action_probs)
    np.testing.assert_array_equal(advantages,
                                  batch.returns_to_go - baselines)
    np.testing.assert_allclose(advantages + baselines,
                               batch.returns_to_go, atol=1e-12)


def test_zero_baseline_gives_raw_returns():
    batch, policy, _ = make_batch()
    advantages = compute_advantages(batch, constant_value_net(1), None, 0.0)
    np.testing.assert_array_equal(advantages, batch.returns_to_go)
    np.testing.assert_array_equal(batch.returns_to_go - advantages,
                                  np.zeros(len(batch.actions)))


def test_q_prior_baseline_uses_stored_probs():
    batch, policy, value_net = make_batch()
    q_net = MlpModel([np.array([[0.5], [-0.25]])], [np.array([0.1, 0.7])])
    prior = PriorArtifact(q_net)
    baselines = batch.returns_to_go - compute_advantages(batch, value_net,
                                                         prior, 1.0)
    q = forward(q_net, batch.observations)
    expected = np.sum(batch.action_probs * q, axis=1)
    np.testing.assert_allclose(baselines, expected, atol=1e-12)


def test_combined_baseline_mixes_current_and_prior():
    batch, policy, value_net = make_batch()
    v_prior_net = MlpModel([np.array([[2.0]])], [np.array([0.5])])
    prior = PriorArtifact(v_prior_net)
    baselines = batch.returns_to_go - compute_advantages(batch, value_net,
                                                         prior, 0.3)
    vc = forward(value_net, batch.observations)[:, 0]
    vp = forward(v_prior_net, batch.observations)[:, 0]
    np.testing.assert_allclose(baselines, 0.7 * vc + 0.3 * vp, atol=1e-12)


def test_ppo_update_reduces_value_loss():
    batch, policy, value_net = make_batch(steps=256)
    advantages = compute_advantages(batch, value_net, None, 0.0)
    config = TrainConfig(steps_per_rollout=256, num_envs=2, minibatch_size=64,
                         update_epochs=1, learning_rate=1e-2)
    policy, value_net, opt = shared(policy, value_net, config.learning_rate)
    rng = np.random.default_rng(0)
    losses = [ppo_update(policy, value_net, batch, advantages, config, opt,
                         rng)["value_loss"] for _ in range(100)]
    # irreducible floor: returns for identical observations still differ,
    # so the best any value function can do is predict per-obs means
    obs_keys = [tuple(o) for o in batch.observations]
    floor = 0.0
    for key in set(obs_keys):
        idx = [i for i, k in enumerate(obs_keys) if k == key]
        g = batch.returns_to_go[idx]
        floor += np.sum((g - g.mean()) ** 2)
    floor = 0.5 * floor / len(batch.actions)
    assert losses[-1] < losses[0]
    assert losses[-1] < floor * 1.1 + 1e-3


def shared(policy, value_net, learning_rate):
    """Copies of both nets in one vector, and one Adam state over it, as
    train makes them."""
    params, policy, value_net = share_parameters(policy, value_net)
    return policy, value_net, init_adam(params, learning_rate)


def split_adam(opt, size):
    """Per-net copies of a joint Adam state: the first `size` entries, then
    the rest."""
    return [AdamState(opt.learning_rate, opt.first_moment[part].copy(),
                      opt.second_moment[part].copy(), opt.step_count)
            for part in (slice(None, size), slice(size, None))]


def adam_snapshot(state):
    return (state.first_moment.tobytes(), state.second_moment.tobytes(),
            state.step_count)


def two_step_update(policy, value_net, batch, advantages, config, p_opt,
                    v_opt, rng):
    """The update as two per-net optimizers take it: each minibatch clips
    each net's gradients, checks both, then steps the policy with p_opt and
    the value net with v_opt. Returns the minibatch stats and, per
    minibatch, which of the two gradients the clip scaled down."""
    n = len(batch.actions)
    adv = advantages
    if config.advantage_normalization:
        adv = (adv - adv.mean()) / (adv.std() + 1e-8)
    mb_stats, clipped = [], []
    for _ in range(config.update_epochs):
        perm = rng.permutation(n)
        for mb_start in range(0, n, config.minibatch_size):
            idx = perm[mb_start:mb_start + config.minibatch_size]
            stats, grads, v_grads = ppo_gradients(policy, value_net, batch,
                                                  idx, adv, config)
            clipped.append(tuple(
                clip_grad_norm(g, config.max_grad_norm) > config.max_grad_norm
                for g in (grads, v_grads)))
            if not (grads.is_finite() and v_grads.is_finite()):
                raise FloatingPointError("non-finite gradient in ppo_update")
            adam_update(policy, p_opt, grads)
            adam_update(value_net, v_opt, v_grads)
            mb_stats.append(stats)
    return mb_stats, clipped


def test_one_joint_adam_step_equals_two_per_net_steps():
    batch, policy, value_net = make_batch(steps=256)
    advantages = compute_advantages(batch, value_net, None, 0.0)
    config = TrainConfig(steps_per_rollout=256, num_envs=2, minibatch_size=64,
                         update_epochs=3, clip_coefficient=0.02,
                         learning_rate=1e-2)
    idx = np.arange(64)
    _, grads, v_grads = ppo_gradients(policy, value_net, batch, idx,
                                      advantages, config)
    # between the two nets' norms, so that one is clipped and one is not
    norms = sorted([grads.global_norm(), v_grads.global_norm()])
    config = replace(config, max_grad_norm=float(np.sqrt(np.prod(norms))))
    joint_policy, joint_value, opt = shared(policy, value_net,
                                            config.learning_rate)
    p_opt, v_opt = split_adam(opt, policy.flat.size)
    for seed in range(3):
        diag = ppo_update(joint_policy, joint_value, batch, advantages, config,
                          opt, np.random.default_rng(seed))
        mb_stats, clipped = two_step_update(
            policy, value_net, batch, advantages, config, p_opt, v_opt,
            np.random.default_rng(seed))
        assert diag == {k: float(np.mean([s[k] for s in mb_stats]))
                        for k in diag}
        assert joint_policy.flat.tobytes() == policy.flat.tobytes()
        assert joint_value.flat.tobytes() == value_net.flat.tobytes()
        for name in ("first_moment", "second_moment"):
            parts = [getattr(state, name) for state in (p_opt, v_opt)]
            assert getattr(opt, name).tobytes() == \
                np.concatenate(parts).tobytes()
        assert opt.step_count == p_opt.step_count == v_opt.step_count
    # the case held: ratios clipped, and exactly one net's gradient was
    assert any(s["clip_fraction"] > 0.0 for s in mb_stats)
    assert (True, False) in clipped or (False, True) in clipped


def test_ppo_gradients_are_pre_clip_and_change_nothing():
    batch, policy, value_net = make_batch(steps=256)
    advantages = compute_advantages(batch, value_net, None, 0.0)
    config = TrainConfig(steps_per_rollout=256, num_envs=2,
                         minibatch_size=256, update_epochs=1,
                         max_grad_norm=1e-6, advantage_normalization=False)
    policy, value_net, opt = shared(policy, value_net, config.learning_rate)
    ppo_update(policy, value_net, batch, advantages, config, opt,
               np.random.default_rng(4))  # ratios leave 1, moments nonzero
    nets_before = [policy.flat.tobytes(), value_net.flat.tobytes()]
    opt_before = adam_snapshot(opt)

    idx = np.random.default_rng(5).permutation(256)
    stats, grads, v_grads = ppo_gradients(policy, value_net, batch, idx,
                                          advantages, config)
    assert [policy.flat.tobytes(), value_net.flat.tobytes()] == nets_before
    assert adam_snapshot(opt) == opt_before
    assert grads.global_norm() > config.max_grad_norm
    assert v_grads.global_norm() > config.max_grad_norm

    # ppo_update's one minibatch is these gradients, clipped, then stepped
    p_opt, v_opt = split_adam(opt, policy.flat.size)
    expected = [(policy.copy(), p_opt, grads),
                (value_net.copy(), v_opt, v_grads)]
    for net, net_opt, g in expected:
        clip_grad_norm(g, config.max_grad_norm)
        adam_update(net, net_opt, g)
    diag = ppo_update(policy, value_net, batch, advantages, config, opt,
                      np.random.default_rng(5))
    assert diag == stats
    assert policy.flat.tobytes() == expected[0][0].flat.tobytes()
    assert value_net.flat.tobytes() == expected[1][0].flat.tobytes()


def reference_log_softmax(logits):
    """log_softmax as written with np.max, before the array method."""
    z = logits - np.max(logits, axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def reference_ppo_gradients(policy, value_net, batch, idx, adv, config):
    """ppo_gradients as written with np.mean, np.clip, np.sum and np.max."""
    b_size = len(idx)
    rows = np.arange(b_size)
    obs = batch.observations[idx]
    b_adv = adv[idx]
    eps = config.clip_coefficient
    policy_activations, value_activations = [], []
    logp_all = reference_log_softmax(forward(policy, obs, policy_activations))
    p = np.exp(logp_all)
    acts = batch.actions[idx]
    entropy = -np.sum(p * logp_all, axis=1)
    log_ratio = logp_all[rows, acts] - batch.log_probs[idx]
    ratio = np.exp(log_ratio)
    surr1 = ratio * b_adv
    surr2 = np.clip(ratio, 1.0 - eps, 1.0 + eps) * b_adv
    pg_loss = -float(np.mean(np.minimum(surr1, surr2)))
    ent_mean = float(np.mean(entropy))
    v = forward(value_net, obs, value_activations)[:, 0]
    v_err = v - batch.returns_to_go[idx]
    value_loss = 0.5 * float(np.mean(v_err * v_err))
    dlogp = np.where(surr1 <= surr2, -b_adv * ratio, 0.0) / b_size
    score = np.negative(p)
    score[rows, acts] += 1.0
    dlogits = dlogp[:, None] * score
    dlogits += config.entropy_coefficient * p \
        * (logp_all + entropy[:, None]) / b_size
    grads = backward(policy, obs, dlogits, policy_activations)
    v_grads = backward(value_net, obs,
                       (config.value_coefficient * v_err / b_size)[:, None],
                       value_activations)
    return ({"policy_loss": pg_loss, "value_loss": value_loss,
             "entropy": ent_mean,
             "approx_kl": float(np.mean(ratio - 1.0 - log_ratio)),
             "clip_fraction": float(np.mean(np.abs(ratio - 1.0) > eps))},
            grads, v_grads)


def test_ppo_gradients_keep_the_bits_of_numpy_wrappers():
    batch, policy, value_net = make_batch(steps=256)
    advantages = compute_advantages(batch, value_net, None, 0.0)
    config = TrainConfig(steps_per_rollout=256, num_envs=2, minibatch_size=64,
                         update_epochs=4, clip_coefficient=0.02,
                         learning_rate=1e-2)
    policy, value_net, opt = shared(policy, value_net, config.learning_rate)
    ppo_update(policy, value_net, batch, advantages, config, opt,
               np.random.default_rng(0))  # ratios leave 1, and some clip
    rng = np.random.default_rng(1)
    logits = forward(policy, batch.observations)
    assert log_softmax(logits).tobytes() == \
        reference_log_softmax(logits).tobytes()
    clip_fractions = []
    for _ in range(8):
        idx = rng.permutation(256)[:64]
        adv = rng.standard_normal(256)
        expected, *expected_grads = reference_ppo_gradients(
            policy, value_net, batch, idx, adv, config)
        out = share_parameters(GradientBuffer(policy.weights, policy.biases),
                               GradientBuffer(value_net.weights,
                                              value_net.biases))[1:]
        for buffers in ((None, None), out):
            stats, *grads = ppo_gradients(policy, value_net, batch, idx, adv,
                                          config, buffers)
            assert stats == expected
            for got, want in zip(grads, expected_grads):
                assert got.flat.tobytes() == want.flat.tobytes()
        clip_fractions.append(stats["clip_fraction"])
    assert 0.0 < max(clip_fractions) and min(clip_fractions) < 1.0


def test_first_epoch_kl_is_small():
    batch, policy, value_net = make_batch(steps=256)
    advantages = compute_advantages(batch, value_net, None, 0.0)
    config = TrainConfig(steps_per_rollout=256, num_envs=2,
                         minibatch_size=256, update_epochs=1)
    policy, value_net, opt = shared(policy, value_net, config.learning_rate)
    diag = ppo_update(policy, value_net, batch, advantages, config, opt,
                      np.random.default_rng(0))
    # the first full-batch minibatch evaluates at unchanged parameters,
    # so ratios are exactly 1 and nothing is clipped
    assert diag["clip_fraction"] == 0.0
    assert abs(diag["approx_kl"]) < 1e-8


def test_nonfinite_value_gradient_leaves_both_nets_unchanged():
    # W0 = 0 and b0 = 0 give h1 = 0, so h2 = tanh(1) is not saturated and the
    # loss is finite; backpropagating through W1 = 1e308 overflows, and only
    # the value gradient goes non-finite
    batch, policy, _ = make_batch()
    value_net = MlpModel([np.zeros((8, 1)), np.full((8, 8), 1e308),
                          np.full((1, 8), 10.0)],
                         [np.zeros(8), np.ones(8), np.zeros(1)])
    advantages = compute_advantages(batch, constant_value_net(1), None, 0.0)
    config = TrainConfig(steps_per_rollout=64, num_envs=2, minibatch_size=32,
                         update_epochs=1)
    policy, value_net, opt = shared(policy, value_net, 1e-3)
    nets_before = [policy.copy(), value_net.copy()]
    with np.errstate(over="ignore", invalid="ignore"), \
            pytest.raises(FloatingPointError):
        ppo_update(policy, value_net, batch, advantages, config, opt,
                   np.random.default_rng(0))
    for net, before in zip((policy, value_net), nets_before):
        for a, b in zip(net.weights + net.biases,
                        before.weights + before.biases):
            assert a.tobytes() == b.tobytes()
    assert opt.step_count == 0


class BanditEnv(_BaseEnv):
    """2-armed bandit: arm 0 pays 1, arm 1 pays 0; one-step episodes."""

    obs_dim = 1
    action_space = ActionSpace(count=2)

    def _init_state(self):
        pass

    def _reset_state(self, rows):
        pass

    def _obs(self):
        return np.zeros((self.num_envs, 1))

    def _step_state(self, a):
        return (a == 0).astype(np.float64), np.ones(self.num_envs, dtype=bool)


def test_bandit_policy_converges():
    rng = np.random.default_rng(0)
    envs = BanditEnv(EnvConfig("chain"), range(4))
    params, policy, value_net = init_nets(envs, rng)
    config = TrainConfig(steps_per_rollout=64, num_envs=4, minibatch_size=32,
                         update_epochs=4, gamma=1.0, learning_rate=5e-3,
                         entropy_coefficient=0.0)
    opt = init_adam(params, config.learning_rate)
    update_rng = np.random.default_rng(1)
    rngs = [np.random.default_rng(10 + i) for i in range(4)]
    for _ in range(200):
        batch = collect_rollout(envs, policy, value_net, 64, rngs, 1.0)
        advantages = compute_advantages(batch, value_net, None, 0.0)
        ppo_update(policy, value_net, batch, advantages, config, opt,
                   update_rng)
    assert softmax(forward(policy, np.zeros(1)))[0] > 0.99


def test_train_is_deterministic():
    cfg = EnvConfig("chain", horizon=16)
    config = TrainConfig(num_envs=4, steps_per_rollout=512,
                         minibatch_size=128, update_epochs=2)
    a = train(cfg, config, 1024, seed=3)
    b = train(cfg, config, 1024, seed=3)
    assert a.curve == b.curve
    for x, y in zip(a.policy.weights, b.policy.weights):
        np.testing.assert_array_equal(x, y)
    c = train(cfg, config, 1024, seed=4)
    assert c.curve != a.curve


def test_train_runs_on_one_blas_thread(monkeypatch):
    if _openblas_threads() is None:
        pytest.skip("numpy does not bundle OpenBLAS")
    get, _ = _openblas_threads()
    before, seen = get(), []

    def update_spy(*args):
        seen.append(get())
        return ppo_update(*args)

    monkeypatch.setattr("rlwean.ppo.ppo_update", update_spy)
    config = TrainConfig(num_envs=4, steps_per_rollout=512,
                         minibatch_size=128, update_epochs=1)
    train(EnvConfig("chain", horizon=16), config, 1024, seed=0)
    assert seen == [1, 1]
    assert get() == before


def test_train_takes_one_adam_step_per_minibatch(monkeypatch):
    steps = []

    def adam_spy(*args):
        steps.append(args[0].flat.size)
        adam_update(*args)

    monkeypatch.setattr("rlwean.ppo.adam_update", adam_spy)
    config = TrainConfig(num_envs=4, steps_per_rollout=512,
                         minibatch_size=128, update_epochs=3)
    result = train(EnvConfig("chain", horizon=16), config, 1024, seed=0)
    policy, value_net = result.policy, result.value_net
    assert len(steps) == 2 * 3 * 512 // 128
    assert set(steps) == {policy.flat.size + value_net.flat.size}
    assert policy.flat.base is not None
    assert value_net.flat.base is policy.flat.base


def test_ppo_update_rejects_nets_in_separate_vectors():
    batch, policy, value_net = make_batch()
    config = TrainConfig(steps_per_rollout=64, num_envs=2, minibatch_size=32)
    _, _, opt = shared(policy, value_net, 1e-3)
    with pytest.raises(ValueError, match="share one vector"):
        ppo_update(policy, value_net, batch, batch.returns_to_go, config, opt,
                   np.random.default_rng(0))


def test_train_records_phase_times():
    cfg = EnvConfig("chain", horizon=16)
    config = TrainConfig(num_envs=4, steps_per_rollout=512,
                         minibatch_size=128, update_epochs=1)
    result = train(cfg, config, 1024, seed=0)
    assert len(result.diagnostics) == 2
    for row in result.diagnostics:
        for key in ("rollout_s", "advantage_s", "update_s"):
            assert row[key] >= 0.0


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(gamma=0.0)
    with pytest.raises(ValueError):
        TrainConfig(steps_per_rollout=100, num_envs=16)
    with pytest.raises(ValueError):
        TrainConfig(steps_per_rollout=2048, minibatch_size=100)
    with pytest.raises(ValueError):
        TrainConfig(clip_coefficient=0.0)
    for name in ("num_envs", "steps_per_rollout", "minibatch_size",
                 "update_epochs"):
        for count in (0, -1):
            with pytest.raises(ValueError, match=name):
                TrainConfig(**{name: count})
    for budget in (0, -1, 2.5):
        with pytest.raises(ValueError, match="total_timesteps"):
            train(EnvConfig("chain"), TrainConfig(), budget, seed=0)
    # True == 1, but a bool is not a seed
    for seed in (True, 2.5, -1):
        with pytest.raises(ValueError, match="seed must be an integer >= 0"):
            train(EnvConfig("chain"), TrainConfig(), 2048, seed=seed)
    prior = PriorArtifact(constant_value_net(1))
    with pytest.raises(ValueError, match="schedule"):
        train(EnvConfig("chain"), TrainConfig(), 2048, 0, prior=prior)


def test_train_checks_the_prior_before_the_first_rollout(monkeypatch):
    def no_rollout(*args, **kwargs):
        raise AssertionError("a rollout ran before the prior was checked")

    monkeypatch.setattr("rlwean.ppo.collect_rollout", no_rollout)
    prior = PriorArtifact(constant_value_net(2))
    with pytest.raises(CompatibilityError, match="obs_dim"):
        train(EnvConfig("chain", horizon=16), TrainConfig(), 2048, 0,
              prior=prior, schedule=WeaningSchedule("fixed", 0.9))


def test_train_chain_learns():
    cfg = EnvConfig("chain", horizon=16)
    config = TrainConfig(num_envs=4, steps_per_rollout=512,
                         minibatch_size=128, update_epochs=4)
    result = train(cfg, config, 20_480, seed=0)
    assert result.curve[-1][1] > 0.95  # near the optimal return of 1.0


GOLDEN_TRAIN = dict(num_envs=4, steps_per_rollout=512, minibatch_size=128,
                    update_epochs=2)
GOLDEN_BUDGET = 2048


def golden_cases():
    """(env, schedule, prior) per case; priors are fixed-seed random nets."""
    q_prior = PriorArtifact(
        init_mlp([2, 64, 64, 4], np.random.default_rng(100)))
    v_prior = PriorArtifact(
        init_mlp([4, 64, 64, 1], np.random.default_rng(101)))
    return {
        "grid-q-fixed": (EnvConfig("windy-grid", horizon=64),
                         WeaningSchedule("fixed", 0.9), q_prior),
        "goal-v-decay": (EnvConfig("goal-world", reward_variant="reach-fast",
                                   horizon=100),
                         WeaningSchedule("step_decay", 0.5, 0.1, 512), v_prior),
        "grid-wind-none": (EnvConfig("windy-grid", wind_enabled=True,
                                     wind_strength=0.3, horizon=64),
                           WeaningSchedule("fixed", 0.0), None),
    }


def train_digest(env_config, schedule, prior, seed) -> str:
    """SHA-256 of the curve and the final policy and value weights."""
    result = train(env_config, TrainConfig(**GOLDEN_TRAIN), GOLDEN_BUDGET,
                   seed, prior, schedule)
    h = hashlib.sha256(repr(result.curve).encode())
    for net in (result.policy, result.value_net):
        for array in net.weights + net.biases:
            h.update(array.tobytes())
    return h.hexdigest()


# Per-seed curves and weights must stay byte-identical under refactors and
# pure speed-ups: any change to random-number use or arithmetic order shows
# here. Re-record only for a change meant to alter training.
GOLDEN_DIGESTS = {
    ("grid-q-fixed", 0):
        "aac0245a56c64fa02f29342fa7a774292b32d36b75e46557bd2b79bcd2773d75",
    ("grid-q-fixed", 1):
        "493b116c4f0203f09db990da677ca566b804acc308fdc8277a0b68770913469d",
    ("goal-v-decay", 0):
        "31d2b22b8d7b3fab101edcf7061a34201cf6e67cb7e20ae5ef432c333c318ec5",
    ("goal-v-decay", 1):
        "d33e9b2e6445a5a999ecd7f1f2d8efc28c8eddef5e81c81eca1f7915a9f5e27f",
    ("grid-wind-none", 0):
        "37fc58c4228b7163a420f39dad75a0718bc917e20ace44950c0f4ab21da53b59",
    ("grid-wind-none", 1):
        "e08d9ea0a6c6f889422b18b0d5e5415974925892de5d77cb217cd60e7c32c5b4",
}


def test_train_matches_golden_digests():
    cases = golden_cases()
    got = {(name, seed): train_digest(*cases[name], seed)
           for name in cases for seed in (0, 1)}
    assert got == GOLDEN_DIGESTS
