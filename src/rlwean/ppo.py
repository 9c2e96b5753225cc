"""On-policy policy-gradient trainer with a clipped surrogate objective.

Rollouts are collected from an env bank (one `step` per time step for all
members, each with its own env RNG stream) into (num_envs, T) arrays.
Actions come from one inverse-CDF over uniforms drawn up front, T per
worker from that worker's action RNG (base_seed + worker_index).
Returns-to-go come from one backward sweep over the arrays, which are then
flattened in worker-index order. The policy is its logits network.
Advantages are plain Monte Carlo returns minus the combined baseline; the
current value network always regresses to Monte Carlo returns so it keeps
learning while the prior is weaned off.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

import numpy as np

from .envs import EnvConfig, make_env
from .errors import check_count, check_real, check_seed
from .nets import (MlpModel, adam_update, backward, clip_grad_norm, forward,
                   init_adam, init_mlp, single_blas_thread)
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

    @property
    def total_steps(self) -> int:
        return len(self.actions)


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
    logp_buf = np.zeros((num_envs, t_env))
    rew_buf = np.zeros((num_envs, t_env))
    term_buf = np.zeros((num_envs, t_env), dtype=bool)
    done_buf = np.zeros((num_envs, t_env), dtype=bool)
    episode_returns = []
    rows = np.arange(num_envs)

    for t in range(t_env):
        obs = envs.observations
        logp_all = log_softmax(forward(policy, obs))
        probs = np.exp(logp_all)
        actions = inverse_cdf(uniforms[t], np.cumsum(probs, axis=1))
        obs_buf[:, t] = obs
        act_buf[:, t] = actions
        logp_buf[:, t] = logp_all[rows, actions]
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
        log_probs=logp_buf.reshape(steps),
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


def ppo_gradients(policy: MlpModel, value_net: MlpModel, batch: RolloutBatch,
                  idx: np.ndarray, adv: np.ndarray, config: TrainConfig):
    """Loss stats and both nets' pre-clip gradients on minibatch batch[idx],
    given the advantages `adv` ppo_update uses. Changes neither network;
    raises FloatingPointError if a loss goes non-finite."""
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
    entropy = -np.sum(p * logp_all, axis=1)

    log_ratio = new_logp - old_logp
    ratio = np.exp(log_ratio)
    surr1 = ratio * b_adv
    surr2 = np.clip(ratio, 1.0 - eps, 1.0 + eps) * b_adv
    pg_loss = -float(np.mean(np.minimum(surr1, surr2)))
    ent_mean = float(np.mean(entropy))
    loss = pg_loss - config.entropy_coefficient * ent_mean

    v = forward(value_net, obs, value_activations)[:, 0]
    v_err = v - batch.returns_to_go[idx]
    value_loss = 0.5 * float(np.mean(v_err * v_err))

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
    grads = backward(policy, obs, dlogits, policy_activations)
    v_grads = backward(value_net, obs,
                       (config.value_coefficient * v_err / b_size)[:, None],
                       value_activations)
    return ({"policy_loss": pg_loss, "value_loss": value_loss,
             "entropy": ent_mean,
             "approx_kl": float(np.mean(ratio - 1.0 - log_ratio)),
             "clip_fraction": float(np.mean(np.abs(ratio - 1.0) > eps))},
            grads, v_grads)


def ppo_update(policy: MlpModel, value_net: MlpModel, batch: RolloutBatch,
               advantages: np.ndarray, config: TrainConfig, policy_opt,
               value_opt, rng: np.random.Generator) -> dict:
    """Clipped-surrogate policy update plus Monte Carlo value regression.

    Raises FloatingPointError, with both networks left as they were before
    the offending minibatch, if a loss or a gradient goes non-finite.
    """
    n = batch.total_steps
    adv = advantages
    if config.advantage_normalization:
        adv = (adv - adv.mean()) / (adv.std() + 1e-8)
    mb_stats = []
    for _ in range(config.update_epochs):
        perm = rng.permutation(n)
        for mb_start in range(0, n, config.minibatch_size):
            idx = perm[mb_start:mb_start + config.minibatch_size]
            stats, grads, v_grads = ppo_gradients(policy, value_net, batch,
                                                  idx, adv, config)
            clip_grad_norm(grads, config.max_grad_norm)
            clip_grad_norm(v_grads, config.max_grad_norm)
            # Both checks before either step, so a rejected minibatch
            # changes neither network.
            if not (grads.is_finite() and v_grads.is_finite()):
                raise FloatingPointError("non-finite gradient in ppo_update")
            adam_update(policy, policy_opt, grads)
            adam_update(value_net, value_opt, v_grads)
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


def init_policy(env, rng: np.random.Generator) -> MlpModel:
    """Logits network matching the env's action count (2x64 tanh hidden)."""
    return init_mlp([env.obs_dim] + HIDDEN_DIMS + [env.action_space.count],
                    rng, output_scale=POLICY_OUTPUT_SCALE)


def init_value_net(obs_dim: int, rng: np.random.Generator) -> MlpModel:
    return init_mlp([obs_dim] + HIDDEN_DIMS + [1], rng, output_scale=1.0)


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
    ss = np.random.SeedSequence(seed)
    init_seed, update_seed = ss.spawn(2)
    init_rng = np.random.default_rng(init_seed)
    update_rng = np.random.default_rng(update_seed)
    worker_rngs = [np.random.default_rng(seed + i)
                   for i in range(config.num_envs)]

    envs = make_env(env_config, [ENV_SEED_OFFSET + seed + i
                                 for i in range(config.num_envs)])
    if prior is not None:
        check_compatibility(prior, envs.obs_dim, envs.action_space.count)

    policy = init_policy(envs, init_rng)
    value_net = init_value_net(envs.obs_dim, init_rng)

    policy_opt = init_adam(policy, config.learning_rate)
    value_opt = init_adam(value_net, config.learning_rate)

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
                              policy_opt, value_opt, update_rng)
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
