import numpy as np
import pytest

from rlwean.nets import MlpModel, backward, forward, init_mlp
from rlwean.policies import inverse_cdf, log_softmax, softmax


def fixed_logit_policy(logits):
    """Single-layer net with zero weights so the bias is the logit vector."""
    logits = np.asarray(logits, dtype=np.float64)
    n = len(logits)
    return MlpModel([np.zeros((n, 1))], [logits.copy()])


def test_uniform_logits_give_uniform_probs():
    policy = fixed_logit_policy([0.0, 0.0, 0.0, 0.0])
    obs = np.zeros(1)
    probs = softmax(forward(policy, obs))
    np.testing.assert_allclose(probs, 0.25, atol=1e-15)
    logp = log_softmax(forward(policy, obs))
    assert logp[2] == pytest.approx(np.log(0.25))
    assert -np.sum(np.exp(logp) * logp) == pytest.approx(np.log(4.0))


def test_extreme_logits_pick_one_action():
    policy = fixed_logit_policy([1000.0, 0.0])
    n = 10_000
    probs = softmax(forward(policy, np.zeros((n, 1))))
    actions = inverse_cdf(np.random.default_rng(0).random(n),
                          np.cumsum(probs, axis=1))
    assert set(actions.tolist()) == {0}


def test_sample_frequencies_match_softmax():
    logits = np.array([0.5, -0.3, 1.2])
    policy = fixed_logit_policy(logits)
    probs = softmax(logits)
    n = 100_000
    rows = softmax(forward(policy, np.zeros((n, 1))))
    actions = inverse_cdf(np.random.default_rng(1).random(n),
                          np.cumsum(rows, axis=1))
    counts = np.bincount(actions, minlength=3)
    for i in range(3):
        se = np.sqrt(probs[i] * (1 - probs[i]) / n)
        assert abs(counts[i] / n - probs[i]) < 3 * se


def test_probabilities_sum_to_one():
    rng = np.random.default_rng(2)
    net = init_mlp([3, 8, 5], rng)
    for _ in range(20):
        probs = softmax(forward(net, rng.standard_normal(3)))
        assert abs(probs.sum() - 1.0) < 1e-10
        logp = log_softmax(rng.standard_normal(5) * 10)
        assert abs(np.exp(logp).sum() - 1.0) < 1e-10


def test_sampled_log_prob_consistent_with_evaluation():
    # a batch sample's log-prob, gathered from the batch log_softmax as
    # collect_rollout stores it, equals a one-observation re-evaluation
    rng = np.random.default_rng(3)
    net = init_mlp([2, 8, 4], rng)
    obs = rng.standard_normal((16, 2))
    logp_all = log_softmax(forward(net, obs))
    actions = inverse_cdf(rng.random(len(obs)),
                          np.cumsum(np.exp(logp_all), axis=1))
    assert ((0 <= actions) & (actions < 4)).all()
    for i, a in enumerate(actions):
        assert logp_all[i, a] == pytest.approx(
            log_softmax(forward(net, obs[i]))[a], abs=1e-12)


def reference_action(probs_row, u):
    return min(int(np.searchsorted(np.cumsum(probs_row), u)),
               len(probs_row) - 1)


def test_inverse_cdf_matches_searchsorted_reference():
    rng = np.random.default_rng(6)
    probs = rng.dirichlet(np.ones(5), size=200)
    probs[::3, 1] = 0.0  # exact zeros, renormalized
    probs[::7, 4] = 0.0
    probs /= probs.sum(axis=1, keepdims=True)
    draws = rng.random(len(probs))
    actions = inverse_cdf(draws, np.cumsum(probs, axis=1))
    np.testing.assert_array_equal(
        actions, [reference_action(row, u) for row, u in zip(probs, draws)])

    # u on a cumulative-sum boundary, and u above a last cumsum below 1
    rows = np.array([[0.25, 0.25, 0.5], [0.0, 0.5, 0.5], [0.3, 0.3, 0.3]])
    draws = np.array([0.25, 0.3, 0.95])
    actions = inverse_cdf(draws, np.cumsum(rows, axis=1))
    np.testing.assert_array_equal(
        actions, [reference_action(r, u) for r, u in zip(rows, draws)])
    np.testing.assert_array_equal(actions, [0, 1, 2])


def test_zero_draw_skips_zero_probability_actions():
    # searchsorted would return the leading zero-probability action for u = 0
    rows = np.array([[0.0, 0.5, 0.5], [0.0, 0.0, 1.0], [0.5, 0.5, 0.0]])
    actions = inverse_cdf(np.zeros(3), np.cumsum(rows, axis=1))
    np.testing.assert_array_equal(actions, [1, 2, 0])


def test_categorical_log_prob_gradient_matches_fd():
    rng = np.random.default_rng(4)
    net = init_mlp([3, 6, 4], rng)
    obs = rng.standard_normal(3)
    action = 2
    probs = softmax(forward(net, obs))
    onehot = np.zeros(4)
    onehot[action] = 1.0
    # d logp / d logits, for a batch of one
    grads = backward(net, obs[None, :], (onehot - probs)[None, :])
    h = 1e-6
    for p, g in zip(net.weights + net.biases,
                    grads.weights + grads.biases):
        flat_p, flat_g = p.reshape(-1), g.reshape(-1)
        for j in range(0, flat_p.size, 3):  # spot-check a third of the params
            orig = flat_p[j]
            flat_p[j] = orig + h
            up = log_softmax(forward(net, obs))[action]
            flat_p[j] = orig - h
            down = log_softmax(forward(net, obs))[action]
            flat_p[j] = orig
            fd = (up - down) / (2 * h)
            assert abs(fd - flat_g[j]) <= 1e-4 * max(abs(fd), 1e-6)

