"""Policy-gradient training with a weaning-weighted prior value baseline,
plus exact tabular oracles for verifying unbiasedness and variance
reduction."""

from .envs import ActionSpace, EnvConfig, StepResult, TabularModel, as_tabular, make_env
from .nets import AdamState, GradientBuffer, MlpModel, adam_update, backward, forward, init_adam, init_mlp
from .priors import (PriorArtifact, WeaningSchedule, load_artifact,
                     prior_value, q_to_value_from_probs, save_artifact,
                     weaning_weight)
from .ppo import RolloutBatch, TrainConfig, collect_rollout, combined_baseline, compute_advantages, compute_returns, ppo_update, train
from .dqn import DqnConfig, ReplayBuffer, dqn_train, export_prior
from .oracle import (exact_policy_gradient, exact_value, gradient_variance,
                     q_from_v, value_iteration)
from .scenarios import ScenarioConfig, compare, default_scenario, run_scenario
from .verify import run_verification

__version__ = "0.1.0"
