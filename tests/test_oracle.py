import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from rlwean.envs import EnvConfig, TabularModel, as_tabular
from rlwean.oracle import (BLOCK, exact_policy_gradient,
                           exact_value, expected_return, gradient_variance,
                           q_from_v, random_tabular_policy,
                           sample_trajectories, solve_linear, value_iteration)
from rlwean.policies import inverse_cdf, softmax
from rlwean.verify import demo_logits, demo_mdp


def uniform_policy(model):
    return np.full((model.state_count, model.action_count),
                   1.0 / model.action_count)


def test_solve_linear_small_systems():
    a = np.array([[2.0, 1.0], [1.0, 3.0]])
    b = np.array([5.0, 10.0])
    np.testing.assert_allclose(solve_linear(a, b), np.linalg.solve(a, b),
                               atol=1e-12)
    with pytest.raises(FloatingPointError):
        solve_linear(np.array([[1.0, 2.0], [2.0, 4.0]]), np.array([1.0, 2.0]))


def test_zero_reward_mdp_has_zero_values():
    model = as_tabular(EnvConfig("chain", horizon=64))
    zero = TabularModel(model.transition, np.zeros_like(model.reward),
                        model.initial_distribution, model.horizon,
                        model.terminal)
    policy = uniform_policy(model)
    np.testing.assert_allclose(exact_value(zero, policy, 0.9), 0.0, atol=1e-12)
    q = q_from_v(zero, exact_value(zero, policy, 0.9), 0.9)
    np.testing.assert_allclose(q, 0.0, atol=1e-12)


def test_self_loop_geometric_series():
    # one state, one action, r = 1, gamma = 0.5 -> V = 1 / (1 - 0.5) = 2
    model = TabularModel(np.ones((1, 1, 1)), np.ones((1, 1)), np.ones(1),
                         horizon=10)
    v = exact_value(model, np.ones((1, 1)), 0.5)
    assert v[0] == pytest.approx(2.0, abs=1e-12)


def test_linear_solve_matches_iterative_fixed_point():
    # two independent oracles for V^pi at gamma < 1
    model = as_tabular(EnvConfig("windy-grid", wind_enabled=True,
                                 wind_strength=0.3, horizon=64))
    rng = np.random.default_rng(2)
    pi = random_tabular_policy(model.state_count, model.action_count, rng)
    gamma = 0.99
    v_solve = exact_value(model, pi, gamma)
    r_pi = np.sum(pi * model.reward, axis=1)
    p_pi = np.einsum("sa,sat->st", pi, model.transition)
    v_iter = np.zeros(model.state_count)
    for _ in range(5000):
        v_iter = r_pi + gamma * p_pi @ v_iter
    np.testing.assert_allclose(v_solve, v_iter, atol=1e-8)


def test_q_next_to_terminal_equals_immediate_reward():
    model = as_tabular(EnvConfig("chain", horizon=64))
    policy = uniform_policy(model)
    q = q_from_v(model, exact_value(model, policy, 0.99), 0.99)
    # state 3, move right: lands in the terminal state, so Q = r = 1
    assert q[3, 1] == pytest.approx(1.0, abs=1e-12)
    assert np.all(q[model.terminal] == 0.0)


def test_value_iteration_chain_optimal():
    model = as_tabular(EnvConfig("chain", horizon=64))
    q_star = value_iteration(model, 0.99)
    # optimal: always right; V*(s) = 0.99^(3 - s) for s = 0..3
    for s in range(4):
        assert q_star[s].max() == pytest.approx(0.99 ** (3 - s), abs=1e-10)
        assert q_star[s].argmax() == 1


def test_expected_return_hand_enumeration():
    model = demo_mdp()
    logits = np.zeros((2, 2))  # uniform policy
    # from s0: a0 (r=0, stay) or a1 (r=1, go to s1); then another action.
    # E[R] = 0.25*(0+0) + 0.25*(0+1) + 0.25*(1+2) + 0.25*(1+0) = 1.25
    assert expected_return(model, logits, 1.0) == pytest.approx(1.25)


def test_constant_reward_gradient_is_zero():
    model = replace(demo_mdp(), horizon=3)
    const = TabularModel(model.transition, np.full((2, 2), 0.7),
                         model.initial_distribution, model.horizon)
    grad = exact_policy_gradient(const, demo_logits(), 1.0)
    np.testing.assert_allclose(grad, 0.0, atol=1e-10)


def test_exact_gradient_matches_finite_differences():
    model = replace(demo_mdp(), horizon=3)
    logits = demo_logits()
    grad = exact_policy_gradient(model, logits, 1.0)
    h = 1e-6
    for s in range(2):
        for a in range(2):
            up = logits.copy()
            up[s, a] += h
            down = logits.copy()
            down[s, a] -= h
            fd = (expected_return(model, up, 1.0)
                  - expected_return(model, down, 1.0)) / (2 * h)
            assert abs(fd - grad[s, a]) <= 1e-6 * max(1.0, abs(fd))


def enumerated_return_and_gradient(model, logits, horizon, gamma):
    """J(theta) and its score-function gradient, sum over every trajectory
    tau of P(tau) * R(tau) and of P(tau) * grad log P(tau) * R(tau): the
    recursive enumerator the dynamic program replaced, kept as a reference.
    Its cost grows as (S A)^horizon."""
    probs = softmax(logits)
    total = 0.0
    grad = np.zeros_like(probs)
    score = np.zeros_like(probs)

    def rec(s, t, path_prob, ret, disc):
        nonlocal total
        if t == horizon or model.terminal[s]:
            total += path_prob * ret
            grad[...] += path_prob * ret * score
            return
        for a in range(model.action_count):
            pa = probs[s, a]
            if pa == 0.0:
                continue
            delta = -probs[s]
            score[s] += delta
            score[s, a] += 1.0
            r = model.reward[s, a]
            for s2 in np.flatnonzero(model.transition[s, a]):
                rec(int(s2), t + 1, path_prob * pa * model.transition[s, a, s2],
                    ret + disc * r, disc * gamma)
            score[s, a] -= 1.0
            score[s] -= delta

    for s0 in np.flatnonzero(model.initial_distribution):
        rec(int(s0), 0, float(model.initial_distribution[s0]), 0.0, 1.0)
    return total, grad


def assert_matches_enumeration(model, logits, gamma):
    want_j, want_grad = enumerated_return_and_gradient(model, logits,
                                                       model.horizon, gamma)
    assert abs(expected_return(model, logits, gamma) - want_j) <= 1e-12
    np.testing.assert_allclose(exact_policy_gradient(model, logits, gamma),
                               want_grad, rtol=0, atol=1e-12)


@pytest.mark.parametrize("horizon", [1, 2, 5, 8])
@pytest.mark.parametrize("gamma", [1.0, 0.9])
def test_dynamic_program_matches_enumeration_on_demo_mdp(horizon, gamma):
    model = replace(demo_mdp(), horizon=horizon)
    logits = np.random.default_rng(horizon).standard_normal((2, 2))
    assert_matches_enumeration(model, logits, gamma)


@pytest.mark.parametrize("gamma", [1.0, 0.9])
def test_dynamic_program_matches_enumeration_on_chain(gamma):
    # the chain has a terminal state, reached within 6 steps
    model = as_tabular(EnvConfig("chain", horizon=6))
    logits = np.random.default_rng(6).standard_normal(
        (model.state_count, model.action_count))
    assert_matches_enumeration(model, logits, gamma)


@pytest.mark.parametrize("gamma", [1.0, 0.9])
def test_dynamic_program_ignores_terminal_rows(gamma):
    # state 1 is terminal, yet its row pays 2 and leads back to state 0:
    # an episode that reaches it must end there, as the enumerator has it
    demo = demo_mdp()
    model = TabularModel(demo.transition, demo.reward,
                         np.array([0.5, 0.5]), 5, np.array([False, True]))
    logits = np.random.default_rng(5).standard_normal((2, 2))
    assert_matches_enumeration(model, logits, gamma)


def test_exact_gradient_matches_finite_differences_on_windy_grid():
    # 25 states x 4 actions at H = 64: far past what enumeration can reach
    model = as_tabular(EnvConfig("windy-grid", wind_enabled=True,
                                 wind_strength=0.3, horizon=64))
    logits = np.random.default_rng(4).standard_normal(
        (model.state_count, model.action_count))
    grad = exact_policy_gradient(model, logits, 1.0)
    h = 1e-6
    fd = np.empty_like(grad)
    for s in range(model.state_count):
        for a in range(model.action_count):
            up = logits.copy()
            up[s, a] += h
            down = logits.copy()
            down[s, a] -= h
            fd[s, a] = (expected_return(model, up, 1.0)
                        - expected_return(model, down, 1.0)) / (2 * h)
    assert np.abs(grad).max() > 1e-2  # the check is not vacuous
    np.testing.assert_allclose(grad, fd, rtol=0, atol=1e-8)


@pytest.mark.parametrize("model", [
    as_tabular(EnvConfig("chain", horizon=20)),
    replace(demo_mdp(), horizon=5)], ids=["chain", "demo"])
def test_expected_return_is_initial_value_at_gamma_one(model):
    logits = np.random.default_rng(7).standard_normal(
        (model.state_count, model.action_count))
    v = exact_value(model, softmax(logits), 1.0)
    assert (expected_return(model, logits, 1.0)
            == model.initial_distribution @ v)


def test_sampled_return_matches_enumeration():
    model = demo_mdp()
    logits = demo_logits()
    exact = expected_return(model, logits, 1.0)
    probs = softmax(logits)
    _, _, rewards, _ = sample_trajectories(model, probs, 50_000,
                                           np.random.default_rng(0))
    returns = rewards.sum(axis=1)
    se = returns.std() / np.sqrt(len(returns))
    assert abs(returns.mean() - exact) < 3 * se


def test_sampled_trajectories_respect_termination():
    model = as_tabular(EnvConfig("chain", horizon=8))
    probs = uniform_policy(model)
    states, actions, rewards, alive = sample_trajectories(
        model, probs, 2000, np.random.default_rng(1))
    # no steps recorded after an episode dies, and no reward collected either
    for i in range(2000):
        dead = ~alive[i]
        assert np.all(rewards[i][dead] == 0.0)
        if dead.any():
            first = int(np.argmax(dead))
            assert not alive[i, first:].any()


class ZeroDraws:
    """Stands in for a generator whose every uniform draw is exactly 0.0."""

    def choice(self, count, size, p):
        return np.zeros(size, dtype=np.int64)

    def random(self, size):
        return np.zeros(size)


def test_zero_draws_skip_zero_probability_outcomes():
    # action 0 and the 0 -> 0 transition have probability zero
    transition = np.zeros((2, 2, 2))
    transition[:, :, 1] = 1.0
    model = TabularModel(transition, np.zeros((2, 2)),
                         np.array([1.0, 0.0]), horizon=3)
    probs = np.array([[0.0, 1.0], [0.0, 1.0]])
    states, actions, _, alive = sample_trajectories(model, probs, 4,
                                                    ZeroDraws())
    np.testing.assert_array_equal(states, [[0, 1, 1]] * 4)
    np.testing.assert_array_equal(actions, np.ones((4, 3)))
    assert alive.all()


def test_monte_carlo_value_matches_exact():
    model = as_tabular(EnvConfig("chain", horizon=8))
    policy = uniform_policy(model)
    v = exact_value(model, policy, 1.0)
    _, _, rewards, _ = sample_trajectories(model, policy,
                                           100_000, np.random.default_rng(2))
    returns = rewards.sum(axis=1)
    se = returns.std() / np.sqrt(len(returns))
    assert abs(returns.mean() - v[0]) < 3 * se


def test_exact_baseline_centers_advantages():
    # with b = V^pi, per-trajectory advantage sums average to zero
    model = as_tabular(EnvConfig("chain", horizon=8))
    policy = uniform_policy(model)
    v = exact_value(model, policy, 1.0)
    states, _, rewards, alive = sample_trajectories(
        model, policy, 10_000, np.random.default_rng(3))
    returns = rewards.sum(axis=1)
    # first-step advantage: G(tau) - V(s_0), exactly mean-zero in expectation
    adv0 = returns - v[states[:, 0]]
    se = adv0.std() / np.sqrt(len(adv0))
    assert abs(adv0.mean()) < 3 * se


def test_gradient_variance_mean_is_baseline_invariant():
    model = demo_mdp()
    logits = demo_logits()
    exact = exact_policy_gradient(model, logits, 1.0)
    v = exact_value(model, softmax(logits), 1.0)
    for i, baseline in enumerate((None, v, np.array([5.0, -3.0]))):
        mean, trace, se = gradient_variance(model, logits, baseline, 40_000,
                                            np.random.default_rng(10 + i))
        rel = np.linalg.norm(mean - exact) / np.linalg.norm(exact)
        assert rel < 0.05
        assert trace > 0 and se > 0


def test_gradient_variance_reduction_with_exact_v():
    model = demo_mdp()
    logits = demo_logits()
    v = exact_value(model, softmax(logits), 1.0)
    _, t_none, se_none = gradient_variance(model, logits, None, 40_000,
                                           np.random.default_rng(20))
    _, t_v, se_v = gradient_variance(model, logits, v, 40_000,
                                     np.random.default_rng(21))
    assert t_none - t_v > 3 * np.hypot(se_none, se_v)


def test_gradient_variance_input_validation():
    model = demo_mdp()
    for n_samples in (1, 2):  # the jackknife divides by n - 2
        with pytest.raises(ValueError):
            gradient_variance(model, demo_logits(), None, n_samples,
                              np.random.default_rng(0))
    with pytest.raises(ValueError):
        gradient_variance(model, demo_logits(), np.zeros(5), 100,
                          np.random.default_rng(0))


def reference_sample_trajectories(model, probs, n, rng):
    """The (n, H) column-by-column sampler that sample_trajectories
    replaced, kept to pin its draws and outputs bit for bit."""
    horizon = model.horizon
    cum_pi = np.cumsum(probs, axis=1)
    cum_p = np.cumsum(model.transition, axis=2)
    states = np.zeros((n, horizon), dtype=np.int64)
    actions = np.zeros((n, horizon), dtype=np.int64)
    rewards = np.zeros((n, horizon))
    alive = np.zeros((n, horizon), dtype=bool)
    s = rng.choice(model.state_count, size=n, p=model.initial_distribution)
    live = ~model.terminal[s]
    for t in range(horizon):
        a = inverse_cdf(rng.random(n), cum_pi[s])
        states[:, t] = s
        actions[:, t] = a
        alive[:, t] = live
        rewards[:, t] = np.where(live, model.reward[s, a], 0.0)
        s2 = inverse_cdf(rng.random(n), cum_p[s, a])
        s = np.where(live, s2, s)
        live = live & ~model.terminal[s]
    return states, actions, rewards, alive


def reference_gradient_variance(model, logits, baseline, n_samples, rng):
    """The np.add.at gradient_variance that the row scatter replaced."""
    probs = softmax(logits)
    states, actions, rewards, alive = reference_sample_trajectories(
        model, probs, n_samples, rng)
    horizon = model.horizon
    returns = rewards.sum(axis=1)
    grads = np.zeros((n_samples, model.state_count, model.action_count))
    onehot = np.eye(model.action_count)
    for t in range(horizon):
        idx = np.flatnonzero(alive[:, t])
        if idx.size == 0:
            break
        s_t = states[idx, t]
        coef = returns[idx]
        if baseline is not None:
            coef = coef - baseline[s_t]
        delta = coef[:, None] * (onehot[actions[idx, t]] - probs[s_t])
        np.add.at(grads, (idx, s_t), delta)

    flat = grads.reshape(n_samples, -1)
    mean = flat.mean(axis=0)
    centered = flat - mean
    sq_norms = np.einsum("ij,ij->i", flat, flat)
    trace = float(np.sum(centered * centered) / (n_samples - 1))
    n = n_samples
    s1 = flat.sum(axis=0)
    s2 = float(sq_norms.sum())
    s1_dot_g = flat @ s1
    s1_sq = float(s1 @ s1)
    loo_mean_sq = (s1_sq - 2.0 * s1_dot_g + sq_norms) / (n - 1)
    loo_trace = (s2 - sq_norms - loo_mean_sq) / (n - 2)
    se = float(np.sqrt((n - 1) / n * np.sum((loo_trace - loo_trace.mean()) ** 2)))
    return mean.reshape(model.state_count, model.action_count), trace, se


def reference_cases():
    """Models with logits and the exact undiscounted V^pi baseline: the demo
    MDP; the chain, with terminal states; and, at horizons past the 8 terms
    from which numpy sums a contiguous row pairwise, the demo MDP and the
    windy grid, whose rewards are dense."""
    rng = np.random.default_rng(5)
    models = [
        demo_mdp(),
        as_tabular(EnvConfig("chain", horizon=6)),
        replace(demo_mdp(), horizon=12),
        as_tabular(EnvConfig("windy-grid", wind_enabled=True,
                             wind_strength=0.3, horizon=12)),
    ]
    for model in models:
        logits = rng.standard_normal((model.state_count, model.action_count))
        v = exact_value(model, softmax(logits), 1.0)
        yield model, logits, v


def sample_dtypes(model):
    """The documented dtypes of sample_trajectories' states, actions,
    rewards and alive."""
    return (np.min_scalar_type(model.state_count - 1),
            np.min_scalar_type(model.action_count - 1),
            np.dtype(np.float64), np.dtype(bool))


def test_sample_trajectories_matches_reference():
    for model, logits, _ in reference_cases():
        probs = softmax(logits)
        got = sample_trajectories(model, probs, 3000,
                                  np.random.default_rng(8))
        want = reference_sample_trajectories(model, probs, 3000,
                                             np.random.default_rng(8))
        for g, w, dtype in zip(got, want, sample_dtypes(model)):
            assert g.shape == w.shape and g.dtype == dtype
            np.testing.assert_array_equal(g, w)


def test_gradient_variance_when_every_trajectory_ends_early():
    # state 1 is terminal and every action leads there, so each trajectory
    # ends after one step and the time loop stops long before H = 6
    transition = np.zeros((2, 2, 2))
    transition[:, :, 1] = 1.0
    model = TabularModel(transition, np.array([[1.0, 2.0], [0.0, 0.0]]),
                         np.array([1.0, 0.0]), 6, np.array([False, True]))
    logits = np.array([[0.2, -0.3], [0.0, 0.0]])
    for baseline in (None, np.array([1.5, 0.0])):
        got = gradient_variance(model, logits, baseline, BLOCK + 5,
                                np.random.default_rng(4))
        want = reference_gradient_variance(model, logits, baseline,
                                           BLOCK + 5, np.random.default_rng(4))
        np.testing.assert_array_equal(got[0], want[0])
        assert got[1] == want[1] and got[2] == want[2]
        np.testing.assert_allclose(
            got[0], exact_policy_gradient(model, logits, 1.0), atol=0.05)


def test_gradient_variance_matches_reference():
    for model, logits, v in reference_cases():
        for baseline in (None, v):
            got = gradient_variance(model, logits, baseline, 5000,
                                    np.random.default_rng(9))
            want = reference_gradient_variance(
                model, logits, baseline, 5000, np.random.default_rng(9))
            np.testing.assert_array_equal(got[0], want[0])
            assert got[1] == want[1] and got[2] == want[2]


@pytest.mark.parametrize("case, n", [(0, 2 * BLOCK + 17), (1, 2 * BLOCK + 17),
                                     (3, BLOCK + 1)],
                         ids=["demo", "chain", "windy-grid"])
def test_blocked_sampling_matches_reference_across_block_boundaries(case, n):
    # n past one or two blocks, with a short last block
    model, logits, v = list(reference_cases())[case]
    probs = softmax(logits)
    got = sample_trajectories(model, probs, n, np.random.default_rng(11))
    want = reference_sample_trajectories(model, probs, n,
                                         np.random.default_rng(11))
    for g, w, dtype in zip(got, want, sample_dtypes(model)):
        assert g.shape == w.shape and g.dtype == dtype
        np.testing.assert_array_equal(g, w)
    for baseline in (None, v):
        got = gradient_variance(model, logits, baseline, n,
                                np.random.default_rng(12))
        want = reference_gradient_variance(model, logits, baseline, n,
                                           np.random.default_rng(12))
        np.testing.assert_array_equal(got[0], want[0])
        assert got[1] == want[1] and got[2] == want[2]


def test_gradient_variance_memory_is_bounded():
    # 200k trajectories at H=2: the (H, n) buffers and the (n, S A)
    # estimates take about 16 MiB. Whole-n temporaries peaked at 41 MiB.
    tracemalloc.start()
    try:
        gradient_variance(demo_mdp(), demo_logits(), None, 200_000,
                          np.random.default_rng(0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 24 * 2 ** 20


def random_model(state_count, action_count, seed):
    """A random dense TabularModel at H = 6 with a few terminal states."""
    rng = np.random.default_rng(seed)
    p = rng.random((state_count, action_count, state_count))
    return TabularModel(p / p.sum(axis=2, keepdims=True),
                        rng.standard_normal((state_count, action_count)),
                        np.full(state_count, 1.0 / state_count), 6,
                        rng.random(state_count) < 0.05)


@pytest.mark.parametrize("state_count, action_count, state_dtype", [
    (70, 4, np.uint8), (300, 3, np.uint16)], ids=["sa-past-uint8", "uint16"])
def test_wide_models_match_reference(state_count, action_count, state_dtype):
    # S * A > 256, so s * A + a overflows unless widened to np.intp first;
    # and S > 256, where states need uint16
    model = random_model(state_count, action_count, state_count)
    logits = np.random.default_rng(1).standard_normal(
        (state_count, action_count))
    probs = softmax(logits)
    got = sample_trajectories(model, probs, 2000, np.random.default_rng(2))
    want = reference_sample_trajectories(model, probs, 2000,
                                         np.random.default_rng(2))
    assert got[0].dtype == state_dtype
    # the check is not vacuous: some s * A is past the uint8 range
    assert int(got[0].max()) * action_count > 255
    for g, w, dtype in zip(got, want, sample_dtypes(model)):
        assert g.shape == w.shape and g.dtype == dtype
        np.testing.assert_array_equal(g, w)
    v = exact_value(model, probs, 1.0)
    for baseline in (None, v):
        got = gradient_variance(model, logits, baseline, 2000,
                                np.random.default_rng(3))
        want = reference_gradient_variance(model, logits, baseline, 2000,
                                           np.random.default_rng(3))
        np.testing.assert_array_equal(got[0], want[0])
        assert got[1] == want[1] and got[2] == want[2]


def test_oracle_sampling_rejects_malformed_inputs():
    model, logits = demo_mdp(), demo_logits()
    # a (2, 3) baseline was read flattened, as [b[0, 0], b[0, 1]]
    with pytest.raises(ValueError):
        gradient_variance(model, logits, np.zeros((2, 3)), 100,
                          np.random.default_rng(0))
    for n in (100.0, True):
        with pytest.raises(ValueError):
            gradient_variance(model, logits, None, n,
                              np.random.default_rng(0))
        with pytest.raises(ValueError):
            sample_trajectories(model, softmax(logits), n,
                                np.random.default_rng(0))


def traced_peak(fn, *args):
    """Peak bytes tracemalloc sees while fn(*args) runs."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_sampling_memory_on_windy_grid():
    # 200k trajectories at H = 12: the uint8 states and actions take 4.6 MiB,
    # the float rewards 18.3 MiB; the peak is 30.6 MiB, against 64.0 MiB
    # with int64 indices
    model = as_tabular(EnvConfig("windy-grid", wind_enabled=True,
                                 wind_strength=0.3, horizon=12))
    peak = traced_peak(sample_trajectories, model, uniform_policy(model),
                       200_000, np.random.default_rng(0))
    assert peak <= 36 * 2 ** 20


def test_gradient_variance_memory_with_narrow_indices():
    # uint8 trajectories, and a jackknife run in place after the (n, S A)
    # estimates are freed: 10.9 MiB, against 16.3 MiB with int64 indices
    # and whole-array jackknife temporaries
    peak = traced_peak(gradient_variance, demo_mdp(), demo_logits(), None,
                       200_000, np.random.default_rng(0))
    assert peak <= 13 * 2 ** 20
