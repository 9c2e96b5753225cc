"""Command-line experiment harness.

Subcommands: run, compare, verify, export-prior, inspect-prior.
Exit codes: 0 success, 1 verification failure, 2 configuration error or a
run whose training went non-finite.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

import yaml

# dqn_train, export_prior, train and save_artifact are not called here;
# bench/spans.py times them under these names.
from .dqn import dqn_train, export_prior
from .envs import ENV_IDS, EnvConfig
from .ppo import TrainConfig, train
from .priors import (FORMAT_VERSION, PRIOR_KIND, WeaningSchedule,
                     load_artifact, save_artifact)
from .scenarios import (DEFAULT_BUDGET, DEFAULT_SOURCE_SEEDS,
                        DEFAULT_TARGET_SEEDS, SETTINGS, ScenarioConfig,
                        compare, default_scenario, run_scenario,
                        train_source_prior)
from .verify import run_verification


def load_scenario_file(path) -> ScenarioConfig:
    """Parse and validate a YAML scenario file. Malformed YAML, a missing
    or unknown key, unknown or missing fields in a block, values of the
    wrong type and a source `algorithm` other than the setting's raise
    ValueError naming the file (and the key or block, where known)."""
    try:
        with open(path) as f:
            doc = yaml.safe_load(f)
    except yaml.YAMLError as exc:
        raise ValueError(f"{path}: malformed YAML: {exc}") from exc
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: a scenario file must be a YAML mapping")

    def block(name: str, cls, fields):
        try:
            return cls(**fields)
        except TypeError as exc:
            raise ValueError(f"bad {name} block: {exc}") from exc

    try:
        source, target = doc["source"], doc["target"]
        for name, keys, allowed in (
                ("the file", doc, "setting mode source target schedule train"),
                ("source", source, "env algorithm seeds total_timesteps"),
                ("target", target, "env seeds total_timesteps")):
            if not isinstance(keys, dict):
                raise ValueError(f"{name} must be a mapping")
            unknown = [key for key in keys if key not in allowed.split()]
            if unknown:
                raise ValueError(f"unknown key {unknown[0]!r} in {name}")
        config = ScenarioConfig(
            setting=doc["setting"],
            mode=doc.get("mode", "rrl"),
            source_env=block("source env", EnvConfig, source["env"]),
            source_seeds=tuple(source.get("seeds", DEFAULT_SOURCE_SEEDS)),
            source_total_timesteps=source.get("total_timesteps",
                                              DEFAULT_BUDGET),
            target_env=block("target env", EnvConfig, target["env"]),
            target_seeds=tuple(target.get("seeds", DEFAULT_TARGET_SEEDS)),
            target_total_timesteps=target.get("total_timesteps",
                                              DEFAULT_BUDGET),
            schedule=block("schedule", WeaningSchedule, doc["schedule"]),
            train_config=block("train", TrainConfig, doc.get("train", {})),
        )
        algorithm = SETTINGS[config.setting].algorithm
        if source.get("algorithm", algorithm) != algorithm:
            raise ValueError(f"setting {config.setting} requires a "
                             f"{algorithm} source")
    except KeyError as exc:
        raise ValueError(f"{path}: missing key {exc}") from exc
    except (TypeError, AttributeError, OverflowError) as exc:
        raise ValueError(f"{path}: value of the wrong type: {exc}") from exc
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc
    return config


def _apply_overrides(config: ScenarioConfig, args) -> ScenarioConfig:
    if args.seed is not None and args.seeds is not None:
        raise ValueError("give --seed or --seeds, not both")
    seeds = config.target_seeds
    if args.seed is not None:
        seeds = (args.seed,)
    elif args.seeds is not None:
        seeds = tuple(int(s) for s in args.seeds.split(","))
    budget = config.target_total_timesteps if args.total_timesteps is None \
        else args.total_timesteps
    schedule = {name: value for name, value in (
        ("w0", args.w0), ("decrement", args.w_decrement),
        ("interval_steps", args.w_interval)) if value is not None}
    return replace(config, mode=args.mode or config.mode, target_seeds=seeds,
                   target_total_timesteps=budget,
                   schedule=replace(config.schedule, **schedule))


def cmd_run(args) -> int:
    if args.config:
        config = load_scenario_file(args.config)
        if args.setting and args.setting != config.setting:
            raise ValueError("--setting conflicts with the config file")
    elif args.setting:
        # The default schedule is cut into tenths of the target budget.
        budget = DEFAULT_BUDGET if args.total_timesteps is None \
            else args.total_timesteps
        config = default_scenario(args.setting, target_total_timesteps=budget)
    else:
        raise ValueError("run requires --config or --setting")
    config = _apply_overrides(config, args)
    result = run_scenario(config, args.out, prior_path=args.prior)
    for seed, path in result["csv_paths"].items():
        print(f"seed {seed}: {path}")
    if result["prior_path"]:
        print(f"prior: {result['prior_path']}")
    return 0


def cmd_compare(args) -> int:
    threshold = args.threshold
    summary = compare(args.rrl_dir, args.tbr_dir, threshold)
    print(f"threshold: {threshold}")
    print("seed,rrl_steps_to_threshold,tbr_steps_to_threshold")
    for seed, (a, b) in sorted(summary.per_seed.items()):
        print(f"{seed},{a},{b}")
    print(f"rrl median: {summary.rrl_median}")
    print(f"tbr median: {summary.tbr_median}")
    print(f"rrl wins: {summary.rrl_wins}, ties: {summary.ties}, "
          f"tbr wins: {summary.tbr_wins}")
    print(f"rrl mean final return: {summary.rrl_mean_final}")
    print(f"tbr mean final return: {summary.tbr_mean_final}")
    return 0


def cmd_verify(args) -> int:
    results = run_verification(args.level)
    for r in results:
        print(r.line())
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 1 if failed else 0


def cmd_export_prior(args) -> int:
    env_config = EnvConfig(env_id=args.env, wind_enabled=args.wind_enabled,
                           wind_strength=args.wind_strength,
                           reward_variant=args.reward_variant,
                           horizon=args.horizon)
    train_source_prior(env_config, args.algorithm, (args.seed,),
                       args.total_timesteps, TrainConfig(), args.out)
    print(f"wrote {args.out}")
    return 0


def cmd_inspect_prior(args) -> int:
    prior = load_artifact(args.path)
    print(f"kind: {prior.kind}")
    print(f"obs_dim: {prior.obs_dim}")
    if prior.kind == "q_function":
        print(f"action_count: {prior.action_count}")
    print(f"layer_dims: {prior.network.layer_dims}")
    print(f"source_env_id: {prior.source_env_id}")
    print(f"source_algorithm: {prior.source_algorithm}")
    print(f"source_seed: {prior.source_seed}")
    print(f"created_at: {prior.created_at}")
    print(f"format_version: {FORMAT_VERSION}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rlwean",
        description="Policy-gradient training with weaned prior value "
                    "baselines, plus exact verification oracles.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario (source + target arms)")
    p_run.add_argument("--config", help="YAML scenario file")
    p_run.add_argument("--setting", type=int, choices=sorted(SETTINGS))
    p_run.add_argument("--mode", choices=("rrl", "tbr"))
    p_run.add_argument("--seed", type=int, help="single target seed")
    p_run.add_argument("--seeds", help="comma-separated target seeds")
    p_run.add_argument("--out", default="runs", help="output directory")
    p_run.add_argument("--total-timesteps", type=int)
    p_run.add_argument("--w0", type=float)
    p_run.add_argument("--w-decrement", type=float)
    p_run.add_argument("--w-interval", type=int)
    p_run.add_argument("--prior", help="reuse an existing prior artifact")
    p_run.set_defaults(func=cmd_run)

    p_cmp = sub.add_parser("compare", help="compare rrl vs tbr run dirs")
    p_cmp.add_argument("rrl_dir")
    p_cmp.add_argument("tbr_dir")
    p_cmp.add_argument("--threshold", type=float, required=True)
    p_cmp.set_defaults(func=cmd_compare)

    p_ver = sub.add_parser("verify", help="run the oracle property suite")
    p_ver.add_argument("--level", choices=("quick", "full"), default="quick")
    p_ver.set_defaults(func=cmd_verify)

    p_exp = sub.add_parser("export-prior",
                           help="train a source agent and export its prior")
    p_exp.add_argument("--env", required=True, choices=ENV_IDS)
    p_exp.add_argument("--algorithm", choices=sorted(PRIOR_KIND),
                       default="dqn")
    p_exp.add_argument("--seed", type=int, default=0)
    p_exp.add_argument("--total-timesteps", type=int, default=100_000)
    p_exp.add_argument("--wind-enabled", action="store_true")
    p_exp.add_argument("--wind-strength", type=float, default=0.0)
    p_exp.add_argument("--reward-variant", default="reach",
                       choices=("reach", "reach-fast"))
    p_exp.add_argument("--horizon", type=int, default=64)
    p_exp.add_argument("--out", required=True)
    p_exp.set_defaults(func=cmd_export_prior)

    p_ins = sub.add_parser("inspect-prior", help="print artifact metadata")
    p_ins.add_argument("path")
    p_ins.set_defaults(func=cmd_inspect_prior)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
