"""Experiment harness: the four prior-reuse settings as named scenarios,
multi-seed orchestration, prior selection/export, and CSV learning curves.

Setting 1: same task, Q-function prior from DQN, fixed w = 0.9.
Setting 2: changed dynamics (wind), Q-function prior, step-decay weaning.
Setting 3: changed reward (reach -> reach-fast), value prior, step decay.
Setting 4: repeat run, value prior from a previous run, step decay.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .dqn import DqnConfig, dqn_train, export_prior
from .envs import EnvConfig
from .errors import check_count, check_real, check_seed
# save_artifact is not called here; bench/spans.py times it under this name.
from .priors import (PRIOR_KIND, PriorArtifact, WeaningSchedule,
                     load_artifact, save_artifact)
from .ppo import TrainConfig, train

CSV_HEADER = ["timestep", "episodic_return_mean", "episodic_return_std",
              "w_t", "value_loss", "policy_loss", "entropy"]

DEFAULT_TARGET_SEEDS = tuple(range(10))
DEFAULT_SOURCE_SEEDS = (0, 1, 2)
DEFAULT_BUDGET = 100_000


class Setting(NamedTuple):
    """What one of the paper's settings fixes about a scenario."""

    algorithm: str  # the source algorithm
    schedule_kind: str | None  # the one schedule kind allowed; None for any
    shift: str | None  # the EnvConfig property source and target differ in
    shift_fields: tuple  # the EnvConfig fields that may differ
    source_env: EnvConfig  # the default source and target envs
    target_env: EnvConfig


_GRID = EnvConfig("windy-grid", wind_enabled=False, horizon=64)
_REACH = EnvConfig("goal-world", reward_variant="reach", horizon=100)

SETTINGS = {
    1: Setting("dqn", "fixed", None, (), _GRID, _GRID),
    2: Setting("dqn", "step_decay", "wind_prob",
               ("wind_enabled", "wind_strength"), _GRID,
               replace(_GRID, wind_enabled=True, wind_strength=0.3)),
    3: Setting("pg", None, "reward_variant", ("reward_variant",), _REACH,
               replace(_REACH, reward_variant="reach-fast")),
    4: Setting("pg", None, None, (), _REACH, _REACH),
}


def _setting(number) -> Setting:
    """The SETTINGS entry for `number`; ValueError for anything else."""
    check_count("setting", number)
    if number not in SETTINGS:
        raise ValueError(f"setting must be one of {sorted(SETTINGS)}, "
                         f"got {number}")
    return SETTINGS[number]


@dataclass(frozen=True)
class ScenarioConfig:
    setting: int
    mode: str  # "rrl" | "tbr"
    source_env: EnvConfig  # trained by SETTINGS[setting].algorithm
    source_seeds: tuple
    source_total_timesteps: int
    target_env: EnvConfig
    target_seeds: tuple
    target_total_timesteps: int
    schedule: WeaningSchedule
    train_config: TrainConfig = field(default_factory=TrainConfig)

    def __post_init__(self):
        spec = _setting(self.setting)
        if self.mode not in ("rrl", "tbr"):
            raise ValueError(f"mode must be rrl or tbr, got {self.mode!r}")
        for seeds in (self.source_seeds, self.target_seeds):
            if not seeds:
                raise ValueError("seeds must be non-empty lists")
            for seed in seeds:
                check_seed("seed", seed)
            if len(set(seeds)) != len(seeds):
                raise ValueError(f"seeds must be distinct, got {list(seeds)}")
        # Checked here so that nothing fails after training starts.
        for name in ("source_total_timesteps", "target_total_timesteps"):
            check_count(name, getattr(self, name))
        name = f"setting {self.setting}"
        if spec.schedule_kind not in (None, self.schedule.kind):
            raise ValueError(f"{name} uses a {spec.schedule_kind} schedule")
        src, tgt, shift = self.source_env, self.target_env, spec.shift
        rest = replace(src, **{f: getattr(tgt, f) for f in spec.shift_fields})
        shifted = shift is None or getattr(src, shift) != getattr(tgt, shift)
        if rest != tgt or not shifted:
            what = f"source/target differing by {shift} only" if shift \
                else "source env == target env"
            raise ValueError(f"{name} requires {what}")


def default_scenario(setting: int, target_total_timesteps: int = DEFAULT_BUDGET
                     ) -> ScenarioConfig:
    """Desk-scale rrl defaults for each setting (vary them with `replace`):
    its SETTINGS envs, and w = 0.9 fixed where the setting fixes w, else
    w0 = 0.5 less 0.1 every tenth of the target budget."""
    spec = _setting(setting)
    if spec.schedule_kind == "fixed":
        schedule = WeaningSchedule("fixed", 0.9)
    else:
        schedule = WeaningSchedule("step_decay", 0.5, 0.1,
                                   max(target_total_timesteps // 10, 1))
    return ScenarioConfig(
        setting=setting, mode="rrl", source_env=spec.source_env,
        source_seeds=DEFAULT_SOURCE_SEEDS,
        source_total_timesteps=DEFAULT_BUDGET,
        target_env=spec.target_env, target_seeds=DEFAULT_TARGET_SEEDS,
        target_total_timesteps=target_total_timesteps, schedule=schedule)


def write_curve_csv(path, rows) -> None:
    """One CSV per run; decimals at full round-trip precision."""
    with open(path, "w", newline="") as f:
        f.write(",".join(CSV_HEADER) + "\n")
        for row in rows:
            f.write(",".join(repr(v) if isinstance(v, float) else str(v)
                             for v in row) + "\n")


def read_curve_csv(path) -> list[dict]:
    """The rows of a curve CSV. A header other than CSV_HEADER, no data
    rows, or a missing, non-numeric or non-finite cell raise ValueError
    naming the file."""
    with open(path, newline="") as f:
        reader = csv.DictReader(f)
        if reader.fieldnames != CSV_HEADER:
            raise ValueError(f"{path}: header {reader.fieldnames} is not "
                             f"{CSV_HEADER}")
        try:
            rows = [{k: float(v) for k, v in row.items()} for row in reader]
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path}: {exc}") from exc
    if not rows:
        raise ValueError(f"{path} has no data rows")
    if not np.isfinite([list(row.values()) for row in rows]).all():
        raise ValueError(f"{path} has a non-finite cell")
    return rows


def _check_out_file(path) -> None:
    """Refuse, before any training, a path that cannot name a new file: a
    directory, a path ending in a separator (or empty), or a file in a
    directory that does not exist."""
    parent = os.path.dirname(os.path.abspath(path))
    if os.path.isdir(path) or not os.path.basename(path) \
            or not os.path.isdir(parent):
        raise ValueError(f"{os.fspath(path)!r} must name a file in an "
                         "existing directory")


def _train_source(env: EnvConfig, algorithm: str, seed: int, budget: int,
                  train_config: TrainConfig):
    """One source run: its network and its final performance, the last DQN
    curve row (-inf if no episode finished) or the final_return of PPO's
    curve."""
    if algorithm == "dqn":
        q_net, curve = dqn_train(env, DqnConfig(total_timesteps=budget), seed)
        return q_net, curve[-1][1] if curve else -np.inf
    result = train(env, train_config, budget, seed)
    rows = [dict(zip(CSV_HEADER, row)) for row in result.curve]
    return result.value_net, final_return(rows)


def train_source_prior(env: EnvConfig, algorithm: str, seeds, budget: int,
                       train_config: TrainConfig, path) -> PriorArtifact:
    """Train the source once per seed and export the best-performing seed's
    network (DQN's Q-network or PPO's value net) as the prior artifact.
    Ties go to the earlier seed, also between DQN seeds that never finished
    an episode (return -inf). A path that cannot be written fails before
    any training."""
    _check_out_file(path)
    runs = ((seed, *_train_source(env, algorithm, seed, budget, train_config))
            for seed in seeds)
    seed, net, _ = max(runs, key=lambda run: run[2])
    return export_prior(net, {"source_env_id": env.env_id,
                              "source_algorithm": algorithm,
                              "source_seed": seed}, path)


def run_scenario(config: ScenarioConfig, out_dir,
                 prior_path=None) -> dict:
    """Train (or load) the prior, then run all target seeds; one CSV per
    (scenario, seed). Returns paths of everything written. A new prior_path
    that cannot be written fails before anything trains or is created, and
    out_dir is made before training; a failed run removes a new, empty one."""
    rrl = config.mode == "rrl"
    if rrl and prior_path is not None and not os.path.isfile(prior_path):
        _check_out_file(prior_path)
    made = not os.path.isdir(out_dir)
    os.makedirs(out_dir, exist_ok=True)
    try:
        prior = artifact_path = None
        if rrl:
            algorithm = SETTINGS[config.setting].algorithm
            if prior_path is not None and os.path.isfile(prior_path):
                prior = load_artifact(prior_path)
                artifact_path = prior_path
            else:
                artifact_path = prior_path or os.path.join(out_dir, "prior.json")
                prior = train_source_prior(
                    config.source_env, algorithm, config.source_seeds,
                    config.source_total_timesteps, config.train_config,
                    artifact_path)
            # Fail fast, before any target training starts.
            expected_kind = PRIOR_KIND[algorithm]
            if prior.kind != expected_kind:
                raise ValueError(f"scenario expects a {expected_kind} prior, "
                                 f"got {prior.kind}")

        csv_paths = {}
        for seed in config.target_seeds:
            result = train(config.target_env, config.train_config,
                           config.target_total_timesteps, seed, prior,
                           config.schedule)
            path = os.path.join(out_dir, f"{config.mode}_seed{seed}.csv")
            write_curve_csv(path, result.curve)
            csv_paths[seed] = path
        return {"csv_paths": csv_paths, "prior_path": artifact_path}
    finally:
        if made and not os.listdir(out_dir):
            os.rmdir(out_dir)


def steps_to_threshold(rows: list[dict], threshold: float) -> float:
    """First timestep whose episodic_return_mean >= threshold; inf if never."""
    for row in rows:
        if row["episodic_return_mean"] >= threshold:
            return row["timestep"]
    return float("inf")


def final_return(rows: list[dict]) -> float:
    """Mean episodic_return_mean of the last tenth of the rows (at least
    the last row)."""
    tail = rows[-max(len(rows) // 10, 1):]
    return float(np.mean([row["episodic_return_mean"] for row in tail]))


@dataclass
class ComparisonSummary:
    threshold: float
    per_seed: dict  # seed -> (rrl_steps, tbr_steps)
    rrl_median: float
    tbr_median: float
    rrl_wins: int
    ties: int
    tbr_wins: int
    rrl_mean_final: float
    tbr_mean_final: float


def _dir_curves(run_dir, mode: str) -> dict:
    """Each seed's curve in run_dir. A `<mode>_seed*.csv` name other than
    the `<mode>_seed<seed>.csv` that `run` writes raises ValueError, so no
    two files give one seed's curve."""
    curves, prefix = {}, f"{mode}_seed"
    for name in sorted(os.listdir(run_dir)):
        if name.startswith(prefix) and name.endswith(".csv"):
            path = os.path.join(run_dir, name)
            digits = name[len(prefix):-len(".csv")]
            if not digits.isdecimal() or name != f"{prefix}{int(digits)}.csv":
                raise ValueError(f"{path}: a curve must be named "
                                 f"{prefix}<seed>.csv for a seed >= 0")
            curves[int(digits)] = read_curve_csv(path)
    return curves


def compare(rrl_dir, tbr_dir, threshold: float) -> ComparisonSummary:
    """Median steps-to-threshold per arm plus per-seed win counts."""
    check_real("threshold", threshold)
    rrl = _dir_curves(rrl_dir, "rrl")
    tbr = _dir_curves(tbr_dir, "tbr")
    if set(rrl) != set(tbr) or not rrl:
        raise ValueError(f"seed sets differ or empty: rrl={sorted(rrl)} "
                         f"tbr={sorted(tbr)}")
    per_seed = {seed: (steps_to_threshold(rrl[seed], threshold),
                       steps_to_threshold(tbr[seed], threshold))
                for seed in sorted(rrl)}
    pairs = per_seed.values()
    rrl_steps, tbr_steps = zip(*pairs)
    return ComparisonSummary(
        threshold=threshold, per_seed=per_seed,
        rrl_median=float(np.median(rrl_steps)),
        tbr_median=float(np.median(tbr_steps)),
        rrl_wins=sum(a < b for a, b in pairs),
        ties=sum(a == b for a, b in pairs),
        tbr_wins=sum(a > b for a, b in pairs),
        rrl_mean_final=float(np.mean([final_return(rrl[s]) for s in rrl])),
        tbr_mean_final=float(np.mean([final_return(tbr[s]) for s in tbr])))
