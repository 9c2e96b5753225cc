"""Exact ground truth on tabular MDPs.

Provides V^pi / Q^pi by linear solve or backward induction, Q* by value
iteration, the exact finite-horizon return and policy gradient of a
softmax-parameterized tabular policy by dynamic programming (one backward
pass for Q_t, one forward pass for the occupancy d_t; O(H S^2 A), no size
limit), and empirical gradient-variance estimation for score-function
estimators. This is the verification backbone for the unbiasedness and
variance-reduction checks.
"""

from __future__ import annotations

import numpy as np

from .envs import TabularModel
from .errors import check_count
from .policies import inverse_cdf, softmax

PIVOT_EPS = 1e-12
BLOCK = 8192  # trajectories per block in sampling and gradient statistics


def random_tabular_policy(state_count: int, action_count: int,
                          rng: np.random.Generator) -> np.ndarray:
    """A random (S, A) table pi(a|s) with every entry positive."""
    p = rng.random((state_count, action_count)) + 0.1
    return p / p.sum(axis=1, keepdims=True)


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


def q_from_v(model: TabularModel, v: np.ndarray,
             gamma: float) -> np.ndarray:
    """One Bellman backup: r(s,a) + gamma * sum_s' P(s'|s,a) v(s'), and 0
    at terminal states. Backing up v = V^pi gives Q^pi."""
    q = model.reward + gamma * np.einsum("sat,t->sa", model.transition, v)
    q[model.terminal] = 0.0
    return q


def _backward_pass(model: TabularModel, probs: np.ndarray,
                   gamma: float) -> tuple[np.ndarray, np.ndarray]:
    """Q_t(s,a) for t < H = model.horizon, shape (H, S, A), by backward
    induction from V_H = 0; and V_0."""
    q = np.empty((model.horizon, model.state_count, model.action_count))
    v = np.zeros(model.state_count)
    for t in range(model.horizon - 1, -1, -1):
        q[t] = q_from_v(model, v, gamma)
        v = np.sum(probs * q[t], axis=1)
    return q, v


def exact_value(model: TabularModel, pi: np.ndarray,
                gamma: float) -> np.ndarray:
    """V^pi of the (S, A) policy table pi: linear solve for gamma < 1,
    backward induction over model.horizon steps at gamma = 1."""
    if gamma < 1.0:
        r_pi = np.sum(pi * model.reward, axis=1)
        p_pi = np.einsum("sa,sat->st", pi, model.transition)
        eye = np.eye(model.state_count)
        return solve_linear(eye - gamma * p_pi, r_pi)
    return _backward_pass(model, pi, 1.0)[1]


def value_iteration(model: TabularModel, gamma: float) -> np.ndarray:
    """Optimal Q* by value iteration (to a 1e-12 step or 100,000 sweeps)."""
    q = np.zeros((model.state_count, model.action_count))
    for _ in range(100_000):
        v = q.max(axis=1)
        v[model.terminal] = 0.0
        q_new = q_from_v(model, v, gamma)
        if np.max(np.abs(q_new - q)) < 1e-12:
            return q_new
        q = q_new
    return q


def expected_return(model: TabularModel, logits: np.ndarray,
                    gamma: float) -> float:
    """J(theta) = init . V_0 over model.horizon steps."""
    _, v0 = _backward_pass(model, softmax(logits), gamma)
    return float(model.initial_distribution @ v0)


def exact_policy_gradient(model: TabularModel, logits: np.ndarray,
                          gamma: float) -> np.ndarray:
    """Exact gradient of expected_return with respect to the per-state
    softmax logits, as an (S, A) array, by the finite-horizon policy-gradient
    theorem: sum_t gamma^t d_t(s) pi(.|s) * (Q_t(s,.) - V_t(s)), where d_t is
    the chance of being alive in s at step t. O(H S^2 A)."""
    probs = softmax(logits)
    q, _ = _backward_pass(model, probs, gamma)
    advantage = q - np.sum(probs * q, axis=2, keepdims=True)
    occupancy = np.empty((model.horizon, model.state_count))
    d = model.initial_distribution.astype(np.float64)
    for t in range(model.horizon):
        d[model.terminal] = 0.0
        occupancy[t] = gamma ** t * d
        d = np.einsum("s,sa,sat->t", d, probs, model.transition)
    return probs * np.einsum("ts,tsa->sa", occupancy, advantage)


def sample_trajectories(model: TabularModel, probs: np.ndarray, n: int,
                        rng: np.random.Generator):
    """Vectorized sampling of n trajectories of length <= model.horizon.

    Returns (states, actions, rewards, alive) arrays of shape (n, H); `alive`
    marks steps actually taken (False after termination). States and actions
    come in their narrowest unsigned types, np.min_scalar_type(S - 1) and
    np.min_scalar_type(A - 1) (uint8 for every model here), so index
    arithmetic on them must widen to np.intp first. Each is the
    transposed view of an (H, n) buffer filled one contiguous row per time
    step; per-(s, a) tables are gathered from rows s * A + a. Each step
    draws its n action, then its n transition uniforms (so no draw depends
    on BLOCK), then works in blocks of BLOCK rows: O(H n) memory + 1 block.
    """
    check_count("n", n)
    horizon, action_count = model.horizon, model.action_count
    s = rng.choice(model.state_count, size=n, p=model.initial_distribution)
    s = s.astype(np.min_scalar_type(model.state_count - 1))
    a_type = np.min_scalar_type(action_count - 1)
    cum_pi = np.cumsum(probs, axis=1)
    cum_p = np.cumsum(model.transition, axis=2).reshape(-1, model.state_count)
    states = np.empty((horizon, n), dtype=s.dtype)
    actions = np.empty((horizon, n), dtype=a_type)
    rewards = np.empty((horizon, n))
    alive = np.empty((horizon, n), dtype=bool)
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
            sa = s_b.astype(np.intp) * action_count + a
            actions[t, blk] = a
            rewards[t, blk] = np.where(live_b, np.take(model.reward, sa), 0.0)
            s2 = inverse_cdf(u_s[blk], np.take(cum_p, sa, axis=0))
            np.copyto(s_b, s2, casting="unsafe", where=live_b)  # s2 < S
            live_b &= ~np.take(model.terminal, s_b)
    return states.T, actions.T, rewards.T, alive.T


def gradient_variance(model: TabularModel, logits: np.ndarray,
                      baseline: np.ndarray | None, n_samples: int,
                      rng: np.random.Generator):
    """Empirical mean and covariance trace of per-trajectory score-function
    gradient estimates with a state-dependent baseline b(s_t), an (S,) array.

    Each estimate is sum_t grad log pi(a_t|s_t) * (R(tau) - b(s_t)), with
    R(tau) the full undiscounted return. Returns (mean_gradient (S, A),
    covariance_trace, jackknife standard error of the trace). Memory is
    O(H n + n S A) plus one block of BLOCK rows; the jackknife runs after
    the (n, S A) estimates are freed.
    """
    check_count("n_samples", n_samples)
    if n_samples < 3:
        raise ValueError("n_samples must be >= 3 for the jackknife")
    if baseline is not None and np.shape(baseline) != (model.state_count,):
        raise ValueError("baseline must have shape (state count,)")
    probs = softmax(logits)
    states, actions, rewards, alive = sample_trajectories(
        model, probs, n_samples, rng)
    horizon = model.horizon
    state_count, action_count = model.state_count, model.action_count
    # score[k, s * A + a]: logit k of s in the score onehot(a) - pi(s)
    score = np.ascontiguousarray(
        (np.eye(action_count) - probs[:, None, :]).reshape(-1, action_count).T)
    grads = np.zeros((n_samples, state_count, action_count))
    for b in range(0, n_samples, BLOCK):
        blk = slice(b, b + BLOCK)
        # Summed over contiguous rows, as the (n, H) sampling buffers had.
        returns = np.ascontiguousarray(rewards[blk]).sum(axis=1)
        # Entry (i * S + s) * A + k: logit k of s in the block's trajectory
        # i. One step's entries are distinct, so a plain indexed add is exact.
        grad_flat = grads[blk].reshape(-1)
        for t in range(horizon):
            idx = np.flatnonzero(alive[blk, t])
            if idx.size == 0:
                break
            s_t = np.take(states[blk, t], idx).astype(np.intp)
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
    del grads, flat, grad_flat

    # Jackknife over leave-one-out trace estimates, in O(n d) and in place,
    # one IEEE operation at a time: loo_mean_sq = (s1_sq - 2 s1_dot_g +
    # sq_norms) / (n - 1), loo_trace = (s2 - sq_norms - loo_mean_sq) / (n - 2).
    s2 = float(sq_norms.sum())
    s1_sq = float(s1 @ s1)
    loo_mean_sq = np.multiply(s1_dot_g, 2.0, out=s1_dot_g)
    np.subtract(s1_sq, loo_mean_sq, out=loo_mean_sq)
    loo_mean_sq += sq_norms
    loo_mean_sq /= n - 1
    loo_trace = np.subtract(s2, sq_norms, out=sq_norms)
    loo_trace -= loo_mean_sq
    loo_trace /= n - 2
    loo_trace -= loo_trace.mean()
    np.square(loo_trace, out=loo_trace)
    se = float(np.sqrt((n - 1) / n * np.sum(loo_trace)))
    return mean.reshape(model.state_count, model.action_count), trace, se
