"""On-policy policy-gradient trainer with a clipped surrogate objective.

Rollouts are collected from a bank of parallel environment instances, each
with its own RNG stream (base_seed + worker_index), concatenated in
worker-index order. Advantages are plain Monte Carlo returns minus the
combined baseline; the current value network always regresses to Monte
Carlo returns so it keeps learning while the prior is weaned off.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .envs import EnvConfig, make_env
from .nets import (MlpModel, adam_update, backward, clip_grad_norm, forward,
                   init_adam, init_mlp)
from .policies import CategoricalPolicy, log_softmax, sample_actions
from .priors import (BaselineSpec, effective_weight, prior_value,
                     q_to_value_from_probs)

HIDDEN_DIMS = [64, 64]
POLICY_OUTPUT_SCALE = 0.01
ENV_SEED_OFFSET = 1_000_003


@dataclass
class TrainConfig:
    total_timesteps: int = 100_000
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
    gae_lambda: float | None = None  # ablation only; None = pure MC advantages

    def validate(self) -> None:
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError("gamma must lie in (0, 1]")
        if self.clip_coefficient <= 0.0:
            raise ValueError("clip_coefficient must be positive")
        if self.steps_per_rollout % self.num_envs != 0:
            raise ValueError("steps_per_rollout must be divisible by num_envs")
        if self.steps_per_rollout % self.minibatch_size != 0:
            raise ValueError("minibatch_size must divide steps_per_rollout")


@dataclass
class RolloutBatch:
    """Flattened rollout data, concatenated in worker-index order."""

    observations: np.ndarray  # (N, obs_dim)
    actions: np.ndarray
    rewards: np.ndarray
    log_probs: np.ndarray
    action_probs: np.ndarray  # (N, A) rollout-time probabilities
    segments: list  # (start, end, terminated) per episode segment
    bootstrap_values: np.ndarray  # per-segment V(s_end) for non-terminated
    collection_timestep: int
    episode_returns: list
    returns_to_go: np.ndarray | None = None
    baselines: np.ndarray | None = None
    advantages: np.ndarray | None = None

    @property
    def total_steps(self) -> int:
        return len(self.rewards)


def compute_returns(rewards, gamma: float, terminated: bool = True,
                    bootstrap_value: float = 0.0) -> np.ndarray:
    """Discounted returns-to-go G_t; truncated episodes bootstrap from
    bootstrap_value at the final observation."""
    rewards = np.asarray(rewards, dtype=np.float64)
    out = np.empty(len(rewards))
    g = 0.0 if terminated else float(bootstrap_value)
    for t in range(len(rewards) - 1, -1, -1):
        g = rewards[t] + gamma * g
        out[t] = g
    return out


def collect_rollout(envs: list, policy: CategoricalPolicy, value_net: MlpModel,
                    steps: int, rngs: list, gamma: float,
                    collection_timestep: int = 0,
                    env_states: dict | None = None) -> RolloutBatch:
    """Collect exactly `steps` transitions across the env bank, auto-resetting
    finished episodes, and fill returns_to_go (truncation bootstraps with the
    current value network)."""
    num_envs = len(envs)
    if steps % num_envs != 0:
        raise ValueError("steps must be divisible by the number of envs")
    t_env = steps // num_envs
    obs_dim = envs[0].obs_dim

    if env_states is None:
        env_states = {"obs": [env.reset() for env in envs],
                      "ep_return": [0.0] * num_envs}
    cur_obs = env_states["obs"]
    ep_return = env_states["ep_return"]

    obs_buf = np.zeros((num_envs, t_env, obs_dim))
    next_obs_buf = np.zeros((num_envs, t_env, obs_dim))
    act_buf = np.zeros((num_envs, t_env), dtype=np.int64)
    probs_buf = np.zeros((num_envs, t_env, policy.action_count))
    logp_buf = np.zeros((num_envs, t_env))
    rew_buf = np.zeros((num_envs, t_env))
    term_buf = np.zeros((num_envs, t_env), dtype=bool)
    done_buf = np.zeros((num_envs, t_env), dtype=bool)
    episode_returns = []
    rows = np.arange(num_envs)

    for t in range(t_env):
        obs_batch = np.stack(cur_obs)
        logp_all = log_softmax(forward(policy.network, obs_batch))
        probs = np.exp(logp_all)
        actions = sample_actions(probs, rngs)
        obs_buf[:, t] = obs_batch
        act_buf[:, t] = actions
        logp_buf[:, t] = logp_all[rows, actions]
        probs_buf[:, t] = probs
        for i, env in enumerate(envs):
            result = env.step(actions[i])
            next_obs_buf[i, t] = result.observation
            rew_buf[i, t] = result.reward
            term_buf[i, t] = result.terminated
            done_buf[i, t] = result.terminated or result.truncated
            ep_return[i] += result.reward
            if done_buf[i, t]:
                episode_returns.append(ep_return[i])
                ep_return[i] = 0.0
                cur_obs[i] = env.reset()
            else:
                cur_obs[i] = result.observation

    # Segment episodes per env, concatenated in worker-index order.
    segments, boot_obs = [], []
    offset = 0
    for i in range(num_envs):
        start = 0
        for t in range(t_env):
            boundary = done_buf[i, t] or t == t_env - 1
            if boundary:
                segments.append((offset + start, offset + t + 1,
                                 bool(term_buf[i, t])))
                boot_obs.append(next_obs_buf[i, t])
                start = t + 1
        offset += t_env

    boot_values = forward(value_net, np.stack(boot_obs))[:, 0]
    observations = obs_buf.reshape(steps, obs_dim)
    rewards = rew_buf.reshape(steps)
    returns = np.empty(steps)
    for (start, end, terminated), bv in zip(segments, boot_values):
        returns[start:end] = compute_returns(rewards[start:end], gamma,
                                             terminated=terminated,
                                             bootstrap_value=bv)

    env_states["obs"] = cur_obs
    env_states["ep_return"] = ep_return
    return RolloutBatch(
        observations=observations,
        actions=act_buf.reshape(steps),
        rewards=rewards,
        log_probs=logp_buf.reshape(steps),
        action_probs=probs_buf.reshape(steps, -1),
        segments=segments,
        bootstrap_values=boot_values,
        collection_timestep=collection_timestep,
        episode_returns=episode_returns,
        returns_to_go=returns,
    )


def combined_baseline(spec: BaselineSpec, observations: np.ndarray,
                      action_probs: np.ndarray, t: int) -> np.ndarray:
    """b(s) = (1 - w_t) V_current(s) + w_t V_prior(s) for a batch (N, obs_dim).

    A Q-function prior becomes V_prior(s) = sum_a pi(a|s) Q(s, a) with the
    given action probabilities (N, A); a value prior is used as is. With no
    prior, or w_t = 0, this is V_current alone.
    """
    v_current = forward(spec.current_value_network, observations)[:, 0]
    w = effective_weight(spec, t)
    if w == 0.0:
        return v_current
    if spec.prior.kind == "q_function":
        v_prior = q_to_value_from_probs(spec.prior, action_probs, observations)
    else:
        v_prior = prior_value(spec.prior, observations)
    return (1.0 - w) * v_current + w * v_prior


def compute_advantages(batch: RolloutBatch, spec: BaselineSpec,
                       gamma: float = 0.99,
                       gae_lambda: float | None = None) -> RolloutBatch:
    """Fill baselines and advantages: A = G - b(s) (Monte Carlo form), or GAE
    over the combined baseline when gae_lambda is given (ablation only)."""
    b = combined_baseline(spec, batch.observations, batch.action_probs,
                          batch.collection_timestep)
    batch.baselines = b
    if gae_lambda is None:
        batch.advantages = batch.returns_to_go - b
        return batch
    adv = np.empty(batch.total_steps)
    for (start, end, terminated), bv in zip(batch.segments,
                                            batch.bootstrap_values):
        last_adv = 0.0
        next_v = 0.0 if terminated else float(bv)
        for t in range(end - 1, start - 1, -1):
            delta = batch.rewards[t] + gamma * next_v - b[t]
            last_adv = delta + gamma * gae_lambda * last_adv
            adv[t] = last_adv
            next_v = b[t]
    batch.advantages = adv
    return batch


def ppo_update(policy: CategoricalPolicy, value_net: MlpModel,
               batch: RolloutBatch, config: TrainConfig, policy_opt, value_opt,
               rng: np.random.Generator) -> dict:
    """Clipped-surrogate policy update plus Monte Carlo value regression.

    Raises FloatingPointError (parameters of the offending minibatch
    untouched) if any loss goes non-finite.
    """
    if batch.advantages is None:
        raise ValueError("advantages must be computed before ppo_update")
    n = batch.total_steps
    adv = batch.advantages
    if config.advantage_normalization:
        adv = (adv - adv.mean()) / (adv.std() + 1e-8)
    eps = config.clip_coefficient
    stats = {"policy_loss": [], "value_loss": [], "entropy": [],
             "approx_kl": [], "clip_fraction": []}

    for _ in range(config.update_epochs):
        perm = rng.permutation(n)
        for mb_start in range(0, n, config.minibatch_size):
            idx = perm[mb_start:mb_start + config.minibatch_size]
            b_size = len(idx)
            obs = batch.observations[idx]
            old_logp = batch.log_probs[idx]
            b_adv = adv[idx]

            logp_all = log_softmax(forward(policy.network, obs))
            p = np.exp(logp_all)
            acts = batch.actions[idx]
            new_logp = logp_all[np.arange(b_size), acts]
            entropy = -np.sum(p * logp_all, axis=1)

            log_ratio = new_logp - old_logp
            ratio = np.exp(log_ratio)
            surr1 = ratio * b_adv
            surr2 = np.clip(ratio, 1.0 - eps, 1.0 + eps) * b_adv
            pg_loss = -float(np.mean(np.minimum(surr1, surr2)))
            ent_mean = float(np.mean(entropy))
            loss = pg_loss - config.entropy_coefficient * ent_mean

            v = forward(value_net, obs)[:, 0]
            v_err = v - batch.returns_to_go[idx]
            value_loss = 0.5 * float(np.mean(v_err * v_err))

            if not (np.isfinite(loss) and np.isfinite(value_loss)):
                raise FloatingPointError("non-finite loss in ppo_update")

            # d(pg_loss)/d(new_logp); the clipped branch has zero gradient.
            unclipped = surr1 <= surr2
            dlogp = np.where(unclipped, -b_adv * ratio, 0.0) / b_size
            onehot = np.zeros_like(p)
            onehot[np.arange(b_size), acts] = 1.0
            dlogits = dlogp[:, None] * (onehot - p)
            # entropy bonus: dH/dlogits_j = -p_j (logp_j + H)
            dlogits += config.entropy_coefficient * p \
                * (logp_all + entropy[:, None]) / b_size
            grads = backward(policy.network, obs, dlogits)
            clip_grad_norm(grads, config.max_grad_norm)

            v_grads = backward(value_net, obs,
                               (config.value_coefficient * v_err / b_size)[:, None])
            clip_grad_norm(v_grads, config.max_grad_norm)

            adam_update(policy.network, policy_opt, grads)
            adam_update(value_net, value_opt, v_grads)

            stats["policy_loss"].append(pg_loss)
            stats["value_loss"].append(value_loss)
            stats["entropy"].append(ent_mean)
            stats["approx_kl"].append(float(np.mean(ratio - 1.0 - log_ratio)))
            stats["clip_fraction"].append(
                float(np.mean(np.abs(ratio - 1.0) > eps)))

    return {k: float(np.mean(v)) for k, v in stats.items()}


@dataclass
class TrainResult:
    curve: list  # rows of (timestep, ep_ret_mean, ep_ret_std, w_t,
    #              value_loss, policy_loss, entropy)
    policy: CategoricalPolicy | None = None
    value_net: MlpModel | None = None
    diagnostics: list = field(default_factory=list)


def init_policy(env, rng: np.random.Generator) -> CategoricalPolicy:
    """Policy network matching the env's action count (2x64 tanh hidden)."""
    net = init_mlp([env.obs_dim] + HIDDEN_DIMS + [env.action_space.count],
                   rng, output_scale=POLICY_OUTPUT_SCALE)
    return CategoricalPolicy(net)


def init_value_net(obs_dim: int, rng: np.random.Generator) -> MlpModel:
    return init_mlp([obs_dim] + HIDDEN_DIMS + [1], rng, output_scale=1.0)


def train(env_config: EnvConfig, config: TrainConfig,
          baseline_spec_factory, seed: int) -> TrainResult:
    """Run the collect -> advantage -> update loop until total_timesteps.

    baseline_spec_factory(value_net) -> BaselineSpec lets the caller attach a
    prior (or none) to the freshly initialized value network. Deterministic
    given seed.
    """
    config.validate()
    ss = np.random.SeedSequence(seed)
    init_seed, update_seed = ss.spawn(2)
    init_rng = np.random.default_rng(init_seed)
    update_rng = np.random.default_rng(update_seed)
    worker_rngs = [np.random.default_rng(seed + i)
                   for i in range(config.num_envs)]

    envs = [make_env(env_config) for _ in range(config.num_envs)]
    initial_obs = [env.reset(seed=ENV_SEED_OFFSET + seed + i)
                   for i, env in enumerate(envs)]

    policy = init_policy(envs[0], init_rng)
    value_net = init_value_net(envs[0].obs_dim, init_rng)
    spec = baseline_spec_factory(value_net)

    policy_opt = init_adam(policy.network, config.learning_rate)
    value_opt = init_adam(value_net, config.learning_rate)

    env_states = {"obs": initial_obs,
                  "ep_return": [0.0] * config.num_envs}
    curve, diagnostics = [], []
    t = 0
    last_mean, last_std = 0.0, 0.0
    while t < config.total_timesteps:
        batch = collect_rollout(envs, policy, value_net,
                                config.steps_per_rollout, worker_rngs,
                                config.gamma, collection_timestep=t,
                                env_states=env_states)
        compute_advantages(batch, spec, gamma=config.gamma,
                           gae_lambda=config.gae_lambda)
        diag = ppo_update(policy, value_net, batch, config, policy_opt,
                          value_opt, update_rng)
        if batch.episode_returns:
            last_mean = float(np.mean(batch.episode_returns))
            last_std = float(np.std(batch.episode_returns))
        w_t = effective_weight(spec, t)
        curve.append((t, last_mean, last_std, w_t, diag["value_loss"],
                      diag["policy_loss"], diag["entropy"]))
        diagnostics.append(diag)
        t += config.steps_per_rollout

    return TrainResult(curve=curve, policy=policy, value_net=value_net,
                       diagnostics=diagnostics)
