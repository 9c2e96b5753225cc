"""Exact ground truth on tabular MDPs.

Provides V^pi / Q^pi by linear solve or backward induction, Q* by value
iteration, the exact finite-horizon policy gradient by full trajectory
enumeration (softmax-parameterized tabular policy), and empirical
gradient-variance estimation for score-function estimators. This is the
verification backbone for the unbiasedness and variance-reduction checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .envs import TabularModel
from .errors import UnsupportedError
from .policies import inverse_cdf, softmax

ENUM_MAX_STATE_ACTIONS = 32
ENUM_MAX_HORIZON = 8
PIVOT_EPS = 1e-12
BLOCK = 8192  # trajectories per block in sampling and gradient statistics


@dataclass
class TabularPolicy:
    """Explicit pi(a|s) matrix with rows summing to 1."""

    probabilities: np.ndarray  # (S, A)

    def __post_init__(self):
        p = self.probabilities
        if np.any(p < 0) or not np.allclose(p.sum(axis=1), 1.0, atol=1e-12):
            raise ValueError("policy rows must be non-negative and sum to 1")


def random_tabular_policy(state_count: int, action_count: int,
                          rng: np.random.Generator) -> TabularPolicy:
    p = rng.random((state_count, action_count)) + 0.1
    return TabularPolicy(p / p.sum(axis=1, keepdims=True))


def solve_linear(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Gaussian elimination with partial pivoting; tiny systems only."""
    a = np.array(a, dtype=np.float64)
    b = np.array(b, dtype=np.float64)
    n = a.shape[0]
    for k in range(n):
        piv = k + int(np.argmax(np.abs(a[k:, k])))
        if abs(a[piv, k]) < PIVOT_EPS:
            raise FloatingPointError("singular linear system")
        if piv != k:
            a[[k, piv]] = a[[piv, k]]
            b[[k, piv]] = b[[piv, k]]
        factors = a[k + 1:, k] / a[k, k]
        a[k + 1:, k:] -= factors[:, None] * a[k, k:]
        b[k + 1:] -= factors * b[k]
    x = np.zeros(n)
    for k in range(n - 1, -1, -1):
        x[k] = (b[k] - a[k, k + 1:] @ x[k + 1:]) / a[k, k]
    return x


def exact_value(model: TabularModel, policy: TabularPolicy,
                gamma: float) -> np.ndarray:
    """V^pi: linear solve for gamma < 1, backward induction at gamma = 1."""
    pi = policy.probabilities
    r_pi = np.sum(pi * model.reward, axis=1)
    p_pi = np.einsum("sa,sat->st", pi, model.transition)
    if gamma < 1.0:
        eye = np.eye(model.state_count)
        return solve_linear(eye - gamma * p_pi, r_pi)
    v = np.zeros(model.state_count)
    for _ in range(model.horizon):
        v = r_pi + p_pi @ v
        v[model.terminal] = 0.0
    return v


def exact_q(model: TabularModel, policy: TabularPolicy,
            gamma: float) -> np.ndarray:
    """Q^pi(s,a) = r(s,a) + gamma * sum_s' P(s'|s,a) V^pi(s')."""
    v = exact_value(model, policy, gamma)
    q = model.reward + gamma * np.einsum("sat,t->sa", model.transition, v)
    q[model.terminal] = 0.0
    return q


def value_iteration(model: TabularModel, gamma: float, tol: float = 1e-12,
                    max_iters: int = 100_000) -> np.ndarray:
    """Optimal Q* by value iteration."""
    q = np.zeros((model.state_count, model.action_count))
    for _ in range(max_iters):
        v = q.max(axis=1)
        v[model.terminal] = 0.0
        q_new = model.reward + gamma * np.einsum("sat,t->sa", model.transition, v)
        q_new[model.terminal] = 0.0
        if np.max(np.abs(q_new - q)) < tol:
            return q_new
        q = q_new
    return q


def _check_enum_guard(model: TabularModel, horizon: int) -> None:
    if model.state_count * model.action_count > ENUM_MAX_STATE_ACTIONS:
        raise UnsupportedError("MDP too large for trajectory enumeration")
    if horizon > ENUM_MAX_HORIZON:
        raise UnsupportedError("horizon too long for trajectory enumeration")


def expected_return(model: TabularModel, logits: np.ndarray, horizon: int,
                    gamma: float) -> float:
    """J(theta) by full trajectory enumeration."""
    _check_enum_guard(model, horizon)
    probs = softmax(logits)
    total = 0.0

    def rec(s: int, t: int, path_prob: float, ret: float, disc: float):
        nonlocal total
        if t == horizon or model.terminal[s]:
            total += path_prob * ret
            return
        for a in range(model.action_count):
            pa = probs[s, a]
            if pa == 0.0:
                continue
            r = model.reward[s, a]
            for s2 in np.flatnonzero(model.transition[s, a]):
                rec(int(s2), t + 1, path_prob * pa * model.transition[s, a, s2],
                    ret + disc * r, disc * gamma)

    for s0 in np.flatnonzero(model.initial_distribution):
        rec(int(s0), 0, float(model.initial_distribution[s0]), 0.0, 1.0)
    return total


def exact_policy_gradient(model: TabularModel, logits: np.ndarray,
                          horizon: int, gamma: float) -> np.ndarray:
    """Exact score-function gradient: sum over all trajectories of
    P(tau) * grad log P(tau) * R(tau), as an (S, A) array with respect to
    the per-state softmax logits."""
    _check_enum_guard(model, horizon)
    probs = softmax(logits)
    grad = np.zeros_like(probs)
    score = np.zeros_like(probs)

    def rec(s: int, t: int, path_prob: float, ret: float, disc: float):
        if t == horizon or model.terminal[s]:
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
    return grad


def sample_trajectories(model: TabularModel, probs: np.ndarray, n: int,
                        rng: np.random.Generator):
    """Vectorized sampling of n trajectories of length <= model.horizon.

    Returns (states, actions, rewards, alive) arrays of shape (n, H); `alive`
    marks steps actually taken (False after termination). Each is the
    transposed view of an (H, n) buffer filled one contiguous row per time
    step; per-(s, a) tables are gathered from rows s * A + a. Each step
    draws its n action, then its n transition uniforms (so no draw depends
    on BLOCK), then works in blocks of BLOCK rows: O(H n) memory + 1 block.
    """
    horizon, action_count = model.horizon, model.action_count
    cum_pi = np.cumsum(probs, axis=1)
    cum_p = np.cumsum(model.transition, axis=2).reshape(-1, model.state_count)
    states = np.empty((horizon, n), dtype=np.int64)
    actions = np.empty((horizon, n), dtype=np.int64)
    rewards = np.empty((horizon, n))
    alive = np.empty((horizon, n), dtype=bool)
    s = rng.choice(model.state_count, size=n, p=model.initial_distribution)
    live = ~model.terminal[s]
    for t in range(horizon):
        u_a = rng.random(n)
        u_s = rng.random(n)
        states[t] = s
        alive[t] = live
        for b in range(0, n, BLOCK):
            blk = slice(b, b + BLOCK)
            s_b, live_b = s[blk], live[blk]
            a = inverse_cdf(u_a[blk], np.take(cum_pi, s_b, axis=0))
            sa = s_b * action_count + a
            actions[t, blk] = a
            rewards[t, blk] = np.where(live_b, np.take(model.reward, sa), 0.0)
            s2 = inverse_cdf(u_s[blk], np.take(cum_p, sa, axis=0))
            np.copyto(s_b, s2, where=live_b)
            live_b &= ~np.take(model.terminal, s_b)
    return states.T, actions.T, rewards.T, alive.T


def gradient_variance(model: TabularModel, logits: np.ndarray,
                      baseline: np.ndarray | None, n_samples: int,
                      rng: np.random.Generator, gamma: float = 1.0):
    """Empirical mean and covariance trace of per-trajectory score-function
    gradient estimates with a state-dependent baseline b(s_t).

    Each estimate is sum_t grad log pi(a_t|s_t) * (R(tau) - b(s_t)).
    Returns (mean_gradient (S, A), covariance_trace, jackknife standard error
    of the trace). Memory is O(H n + n S A) plus one block of BLOCK rows.
    """
    if n_samples < 3:
        raise ValueError("n_samples must be >= 3 for the jackknife")
    if baseline is not None and len(baseline) != model.state_count:
        raise ValueError("baseline length must equal state count")
    probs = softmax(logits)
    states, actions, rewards, alive = sample_trajectories(
        model, probs, n_samples, rng)
    horizon = model.horizon
    state_count, action_count = model.state_count, model.action_count
    disc = gamma ** np.arange(horizon)
    # score[k, s * A + a]: logit k of s in the score onehot(a) - pi(s)
    score = np.ascontiguousarray(
        (np.eye(action_count) - probs[:, None, :]).reshape(-1, action_count).T)
    grads = np.zeros((n_samples, state_count, action_count))
    for b in range(0, n_samples, BLOCK):
        blk = slice(b, b + BLOCK)
        # Summed over contiguous rows, as the (n, H) sampling buffers had.
        returns = np.ascontiguousarray(rewards[blk] * disc).sum(axis=1)
        # Entry (i * S + s) * A + k: logit k of s in the block's trajectory
        # i. One step's entries are distinct, so a plain indexed add is exact.
        grad_flat = grads[blk].reshape(-1)
        for t in range(horizon):
            idx = np.flatnonzero(alive[blk, t])
            if idx.size == 0:
                break
            s_t = np.take(states[blk, t], idx)
            coef = np.take(returns, idx)
            if baseline is not None:
                coef = coef - np.take(baseline, s_t)
            sa = s_t * action_count + np.take(actions[blk, t], idx)
            entry = (idx * state_count + s_t) * action_count
            for k in range(action_count):
                grad_flat[entry + k] += coef * np.take(score[k], sa)
    del states, actions, rewards, alive

    n = n_samples
    flat = grads.reshape(n, -1)
    s1 = flat.sum(axis=0)
    sq_norms = np.einsum("ij,ij->i", flat, flat)
    s1_dot_g = flat @ s1
    mean = s1 / n  # what flat.mean(axis=0) computes
    flat -= mean  # centered and squared in place: no second (n, d) buffer
    flat *= flat
    trace = float(np.sum(flat) / (n - 1))

    # Jackknife over leave-one-out trace estimates, computed in O(n d).
    s2 = float(sq_norms.sum())
    s1_sq = float(s1 @ s1)
    loo_mean_sq = (s1_sq - 2.0 * s1_dot_g + sq_norms) / (n - 1)
    loo_trace = (s2 - sq_norms - loo_mean_sq) / (n - 2)
    se = float(np.sqrt((n - 1) / n * np.sum((loo_trace - loo_trace.mean()) ** 2)))
    return mean.reshape(model.state_count, model.action_count), trace, se
