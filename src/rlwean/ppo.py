"""On-policy policy-gradient trainer with a clipped surrogate objective.

Rollouts are collected from an env bank (one `step` per time step for all
members, each with its own env RNG stream) into (num_envs, T) arrays.
Actions come from one inverse-CDF over uniforms drawn up front, T per
worker from that worker's action RNG (base_seed + worker_index).
Returns-to-go come from one backward sweep over the arrays, which are then
flattened in worker-index order. Advantages are plain Monte Carlo returns
minus the combined baseline; the current value network always regresses to
Monte Carlo returns so it keeps learning while the prior is weaned off. The
policy (its logits network) and the value net are views of one parameter
vector, which one Adam state steps once per minibatch.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

import numpy as np

from .envs import EnvConfig, make_env
from .errors import check_count, check_real, check_seed
from .nets import (GradientBuffer, MlpModel, adam_update, backward,
                   clip_grad_norm, forward, init_adam, init_mlp,
                   share_parameters, single_blas_thread)
from .policies import inverse_cdf, log_softmax
from .priors import (PriorArtifact, WeaningSchedule, check_compatibility,
                     prior_value, q_to_value_from_probs, weaning_weight)

HIDDEN_DIMS = [64, 64]
POLICY_OUTPUT_SCALE = 0.01
ENV_SEED_OFFSET = 1_000_003


@dataclass(frozen=True)
class TrainConfig:
    num_envs: int = 16
    steps_per_rollout: int = 2048
    minibatch_size: int = 256
    update_epochs: int = 4
    clip_coefficient: float = 0.2
    gamma: float = 0.99
    entropy_coefficient: float = 0.01
    value_coefficient: float = 0.5
    max_grad_norm: float = 0.5
    advantage_normalization: bool = True
    learning_rate: float = 2.5e-4

    def __post_init__(self):
        for name in ("num_envs", "steps_per_rollout", "minibatch_size",
                     "update_epochs"):
            check_count(name, getattr(self, name))
        for name in ("clip_coefficient", "gamma", "entropy_coefficient",
                     "value_coefficient", "max_grad_norm", "learning_rate"):
            check_real(name, getattr(self, name))
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError("gamma must lie in (0, 1]")
        for name in ("clip_coefficient", "learning_rate"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be positive")
        for name in ("entropy_coefficient", "value_coefficient",
                     "max_grad_norm"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be non-negative")
        if not isinstance(self.advantage_normalization, bool):
            raise ValueError("advantage_normalization must be true or false")
        if self.steps_per_rollout % self.num_envs != 0:
            raise ValueError("steps_per_rollout must be divisible by num_envs")
        if self.steps_per_rollout % self.minibatch_size != 0:
            raise ValueError("minibatch_size must divide steps_per_rollout")


@dataclass
class RolloutBatch:
    """Flattened rollout data, concatenated in worker-index order."""

    observations: np.ndarray  # (N, obs_dim)
    actions: np.ndarray
    log_probs: np.ndarray
    action_probs: np.ndarray  # (N, A) rollout-time probabilities
    returns_to_go: np.ndarray
    episode_returns: list


def compute_returns(rewards, next_values, ends, gamma: float) -> np.ndarray:
    """Discounted returns-to-go G_t over (E, T) arrays, in one backward
    sweep over T.

    Where ends[:, t] is set, an episode segment ends after step t and the
    return restarts from next_values[:, t]: 0 after a terminal step,
    V(s_{t+1}) after a truncated or cut-off one. An unset last column
    counts as a terminal end.
    """
    rewards = np.asarray(rewards, dtype=np.float64)
    out = np.empty_like(rewards)
    g = np.zeros(len(rewards))
    for t in range(rewards.shape[1] - 1, -1, -1):
        g = rewards[:, t] + gamma * np.where(ends[:, t], next_values[:, t], g)
        out[:, t] = g
    return out


def collect_rollout(envs, policy: MlpModel, value_net: MlpModel,
                    steps: int, rngs: list, gamma: float) -> RolloutBatch:
    """Collect exactly `steps` transitions from the env bank `envs`, which
    restarts finished members as they end, and fill returns_to_go
    (truncation, and the cut-off at the end of the rollout, bootstrap with
    the current value network). Member i draws its actions with rngs[i]."""
    num_envs = envs.num_envs
    if steps % num_envs != 0:
        raise ValueError("steps must be divisible by the number of envs")
    t_env = steps // num_envs
    obs_dim = envs.obs_dim

    # rng.random(T) yields the same doubles as T single random() calls.
    uniforms = np.stack([rng.random(t_env) for rng in rngs], axis=1)
    obs_buf = np.zeros((num_envs, t_env, obs_dim))
    next_obs_buf = np.zeros((num_envs, t_env, obs_dim))
    act_buf = np.zeros((num_envs, t_env), dtype=np.int64)
    probs_buf = np.zeros((num_envs, t_env, policy.output_dim))
    logp_buf = np.zeros((num_envs, t_env, policy.output_dim))
    rew_buf = np.zeros((num_envs, t_env))
    term_buf = np.zeros((num_envs, t_env), dtype=bool)
    done_buf = np.zeros((num_envs, t_env), dtype=bool)
    episode_returns = []

    for t in range(t_env):
        obs = envs.observations
        logp_all = log_softmax(forward(policy, obs))
        probs = np.exp(logp_all)
        actions = inverse_cdf(uniforms[t], np.cumsum(probs, axis=1))
        obs_buf[:, t] = obs
        act_buf[:, t] = actions
        logp_buf[:, t] = logp_all
        probs_buf[:, t] = probs
        result = envs.step(actions)
        next_obs_buf[:, t] = result.observation
        rew_buf[:, t] = result.reward
        term_buf[:, t] = result.terminated
        done = result.terminated | result.truncated
        done_buf[:, t] = done
        episode_returns.extend(result.episode_return[done].tolist())

    # The rollout's last step cuts every env's open segment off.
    ends = done_buf.copy()
    ends[:, -1] = True
    next_values = np.zeros((num_envs, t_env))
    next_values[ends] = forward(value_net, next_obs_buf[ends])[:, 0]
    next_values[term_buf] = 0.0
    returns = compute_returns(rew_buf, next_values, ends, gamma)

    return RolloutBatch(
        observations=obs_buf.reshape(steps, obs_dim),
        actions=act_buf.reshape(steps),
        log_probs=logp_buf.reshape(steps, -1)[np.arange(steps), act_buf.ravel()],
        action_probs=probs_buf.reshape(steps, -1),
        returns_to_go=returns.reshape(steps),
        episode_returns=episode_returns,
    )


def combined_baseline(value_net: MlpModel, prior: PriorArtifact | None,
                      w: float, observations: np.ndarray,
                      action_probs: np.ndarray) -> np.ndarray:
    """b(s) = (1 - w) V_current(s) + w V_prior(s) for a batch (N, obs_dim).

    A Q-function prior becomes V_prior(s) = sum_a pi(a|s) Q(s, a) with the
    given action probabilities (N, A); a value prior is used as is. At
    w = 0 this is V_current alone, and the prior may be None.
    """
    v_current = forward(value_net, observations)[:, 0]
    if w == 0.0:
        return v_current
    if prior.kind == "q_function":
        v_prior = q_to_value_from_probs(prior, action_probs, observations)
    else:
        v_prior = prior_value(prior, observations)
    return (1.0 - w) * v_current + w * v_prior


def compute_advantages(batch: RolloutBatch, value_net: MlpModel,
                       prior: PriorArtifact | None, w: float) -> np.ndarray:
    """Monte Carlo advantages A = G - b(s), b the combined baseline."""
    return batch.returns_to_go - combined_baseline(
        value_net, prior, w, batch.observations, batch.action_probs)


@np.errstate(over="ignore", invalid="ignore")  # the checks below report it
def ppo_gradients(policy: MlpModel, value_net: MlpModel, batch: RolloutBatch,
                  idx, adv, config: TrainConfig, out=(None, None)):
    """Loss stats and both nets' pre-clip gradients on minibatch batch[idx],
    given ppo_update's advantages `adv`; GradientBuffers `out` receive them.
    Changes neither network; raises FloatingPointError on a non-finite loss."""
    b_size = len(idx)
    rows = np.arange(b_size)
    obs = batch.observations[idx]
    old_logp = batch.log_probs[idx]
    b_adv = adv[idx]
    eps = config.clip_coefficient

    policy_activations, value_activations = [], []
    logp_all = log_softmax(forward(policy, obs, policy_activations))
    p = np.exp(logp_all)
    acts = batch.actions[idx]
    new_logp = logp_all[rows, acts]
    entropy = -(p * logp_all).sum(axis=1)

    log_ratio = new_logp - old_logp
    ratio = np.exp(log_ratio)
    surr1 = ratio * b_adv
    surr2 = np.minimum(np.maximum(ratio, 1.0 - eps), 1.0 + eps) * b_adv
    pg_loss = -float(np.minimum(surr1, surr2).sum() / b_size)  # np.mean's bits
    ent_mean = float(entropy.sum() / b_size)
    loss = pg_loss - config.entropy_coefficient * ent_mean

    v = forward(value_net, obs, value_activations)[:, 0]
    v_err = v - batch.returns_to_go[idx]
    value_loss = 0.5 * float((v_err * v_err).sum() / b_size)

    if not (np.isfinite(loss) and np.isfinite(value_loss)):
        raise FloatingPointError("non-finite loss in ppo_update")

    # d(pg_loss)/d(new_logp); the clipped branch has zero gradient.
    unclipped = surr1 <= surr2
    dlogp = np.where(unclipped, -b_adv * ratio, 0.0) / b_size
    # onehot - p, exactly: 0 - p is -p and 1 - p is 1 + (-p)
    score = np.negative(p)
    score[rows, acts] += 1.0
    dlogits = dlogp[:, None] * score
    # entropy bonus: dH/dlogits_j = -p_j (logp_j + H)
    dlogits += config.entropy_coefficient * p \
        * (logp_all + entropy[:, None]) / b_size
    grads = backward(policy, obs, dlogits, policy_activations, out[0])
    v_grads = backward(value_net, obs,
                       (config.value_coefficient * v_err / b_size)[:, None],
                       value_activations, out[1])
    return ({"policy_loss": pg_loss, "value_loss": value_loss,
             "entropy": ent_mean,
             "approx_kl": float((ratio - 1.0 - log_ratio).sum() / b_size),
             "clip_fraction": float((np.abs(ratio - 1.0) > eps).sum()
                                    / b_size)},
            grads, v_grads)


def ppo_update(policy: MlpModel, value_net: MlpModel, batch: RolloutBatch,
               advantages: np.ndarray, config: TrainConfig, opt,
               rng: np.random.Generator) -> dict:
    """Clipped-surrogate policy update plus Monte Carlo value regression.

    `opt` is one Adam state over the vector init_nets lays both nets in.
    Each minibatch clips each net's gradients by their own norm, then takes
    one Adam step, elementwise and so the bits of a step on each net.
    Raises FloatingPointError, with both networks left as they were before
    the offending minibatch, if a loss or a gradient goes non-finite.
    """
    if (flat := policy.flat.base) is None or value_net.flat.base is not flat:
        raise ValueError("policy and value_net must share one vector")
    params = MlpModel([flat], [], flat)
    grads, *out = share_parameters(
        *(GradientBuffer(m.weights, m.biases) for m in (policy, value_net)))
    n = len(batch.actions)
    adv = advantages
    if config.advantage_normalization:
        adv = (adv - adv.mean()) / (adv.std() + 1e-8)
    mb_stats = []
    for _ in range(config.update_epochs):
        perm = rng.permutation(n)
        for mb_start in range(0, n, config.minibatch_size):
            idx = perm[mb_start:mb_start + config.minibatch_size]
            stats, _, _ = ppo_gradients(policy, value_net, batch, idx, adv,
                                        config, out)
            for net_grads in out:
                clip_grad_norm(net_grads, config.max_grad_norm)
            adam_update(params, opt, grads)  # checks before it steps
            mb_stats.append(stats)
    return {k: float(np.mean([s[k] for s in mb_stats])) for k in stats}


@dataclass
class TrainResult:
    curve: list  # rows of (timestep, ep_ret_mean, ep_ret_std, w_t,
    #              value_loss, policy_loss, entropy)
    policy: MlpModel  # logits network
    value_net: MlpModel
    # per iteration: ppo_update's stats plus the rollout_s, advantage_s and
    # update_s wall times of its three phases
    diagnostics: list


def init_nets(env, rng: np.random.Generator) -> list[MlpModel]:
    """share_parameters(logits net, value net), both 2x64 tanh hidden."""
    dims = [env.obs_dim] + HIDDEN_DIMS
    return share_parameters(init_mlp(dims + [env.action_space.count], rng,
                                     output_scale=POLICY_OUTPUT_SCALE),
                            init_mlp(dims + [1], rng))


def train(env_config: EnvConfig, config: TrainConfig, total_timesteps: int,
          seed: int, prior: PriorArtifact | None = None,
          schedule: WeaningSchedule | None = None) -> TrainResult:
    """Run the collect -> advantage -> update loop until total_timesteps.

    With a prior, iteration t's baseline blends it in with the weight
    w_t = weaning_weight(schedule, t); without one, w_t = 0 and the baseline
    is the learned value network alone. A prior that does not fit the env
    raises CompatibilityError before the first rollout. Deterministic given
    seed.
    """
    check_count("total_timesteps", total_timesteps)
    check_seed("seed", seed)
    if prior is not None and schedule is None:
        raise ValueError("a prior needs a weaning schedule")
    init_rng, update_rng = map(np.random.default_rng,
                               np.random.SeedSequence(seed).spawn(2))
    worker_rngs = [np.random.default_rng(seed + i)
                   for i in range(config.num_envs)]

    envs = make_env(env_config, [ENV_SEED_OFFSET + seed + i
                                 for i in range(config.num_envs)])
    if prior is not None:
        check_compatibility(prior, envs.obs_dim, envs.action_space.count)

    params, policy, value_net = init_nets(envs, init_rng)
    opt = init_adam(params, config.learning_rate)

    curve, diagnostics = [], []
    t = 0
    last_mean, last_std = 0.0, 0.0
    with single_blas_thread():
        while t < total_timesteps:
            w_t = 0.0 if prior is None else weaning_weight(schedule, t)
            t0 = perf_counter()
            batch = collect_rollout(envs, policy, value_net,
                                    config.steps_per_rollout, worker_rngs,
                                    config.gamma)
            t1 = perf_counter()
            advantages = compute_advantages(batch, value_net, prior, w_t)
            t2 = perf_counter()
            diag = ppo_update(policy, value_net, batch, advantages, config,
                              opt, update_rng)
            diag.update(rollout_s=t1 - t0, advantage_s=t2 - t1,
                        update_s=perf_counter() - t2)
            if batch.episode_returns:
                last_mean = float(np.mean(batch.episode_returns))
                last_std = float(np.std(batch.episode_returns))
            curve.append((t, last_mean, last_std, w_t, diag["value_loss"],
                          diag["policy_loss"], diag["entropy"]))
            diagnostics.append(diag)
            t += config.steps_per_rollout

    return TrainResult(curve=curve, policy=policy, value_net=value_net,
                       diagnostics=diagnostics)
