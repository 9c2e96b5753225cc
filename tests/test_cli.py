import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from rlwean.cli import load_scenario_file, main
from rlwean.dqn import DqnConfig, dqn_train
from rlwean.envs import EnvConfig
from rlwean.nets import forward, init_mlp
from rlwean.ppo import TrainConfig, train
from rlwean.priors import PriorArtifact, load_artifact, save_artifact
from rlwean.scenarios import (CSV_HEADER, SETTINGS, read_curve_csv,
                              write_curve_csv)

RUN_SMALL = ["--total-timesteps", "4096", "--seeds", "0,1"]
TRAIN_SMALL = {"num_envs": 4, "steps_per_rollout": 1024,
               "minibatch_size": 256, "update_epochs": 2}


def scenario_doc(mode="tbr"):
    return {
        "setting": 2,
        "mode": mode,
        "source": {"env": {"env_id": "windy-grid", "wind_enabled": False,
                           "horizon": 64},
                   "algorithm": "dqn", "seeds": [0],
                   "total_timesteps": 3000},
        "target": {"env": {"env_id": "windy-grid", "wind_enabled": True,
                           "wind_strength": 0.3, "horizon": 64},
                   "seeds": [0, 1], "total_timesteps": 4096},
        "schedule": {"kind": "step_decay", "w0": 0.5, "decrement": 0.1,
                     "interval_steps": 400},
        "train": TRAIN_SMALL,
    }


def write_config(tmp_path, doc):
    path = tmp_path / "scenario.yaml"
    path.write_text(yaml.safe_dump(doc))
    return str(path)


def test_load_scenario_file(tmp_path):
    config = load_scenario_file(write_config(tmp_path, scenario_doc()))
    assert config.setting == 2 and config.mode == "tbr"
    assert config.target_env.wind_strength == 0.3
    assert config.schedule.w0 == 0.5
    assert config.train_config.num_envs == 4


def test_run_with_setting_flag(tmp_path, capsys):
    out = tmp_path / "tbr"
    code = main(["run", "--setting", "1", "--mode", "tbr", "--out", str(out),
                 *RUN_SMALL])
    assert code == 0
    printed = capsys.readouterr().out
    assert "seed 0" in printed and "seed 1" in printed
    rows = read_curve_csv(out / "tbr_seed0.csv")
    assert len(rows) == 2  # 4096 steps / 2048 per rollout
    assert all(rec["w_t"] == 0.0 for rec in rows)


def test_run_setting_schedule_follows_the_budget(tmp_path):
    # a stored value prior, so no source is trained
    prior = tmp_path / "v.json"
    net = init_mlp([4, 64, 64, 1], np.random.default_rng(0))
    save_artifact(PriorArtifact(net), prior)
    out = tmp_path / "rrl"
    assert main(["run", "--setting", "3", "--prior", str(prior), "--out",
                 str(out), "--seed", "0", "--total-timesteps", "4096"]) == 0
    rows = read_curve_csv(out / "rrl_seed0.csv")
    # w0 0.5 less 0.1 every 409 steps (a tenth of 4096), at t = 0 and 2048
    assert [rec["w_t"] for rec in rows] == [0.5, 0.0]


def test_run_with_config_file_and_overrides(tmp_path):
    config_path = write_config(tmp_path, scenario_doc(mode="rrl"))
    out = tmp_path / "rrl"
    code = main(["run", "--config", config_path, "--out", str(out),
                 "--seed", "0", "--w0", "0.4", "--w-interval", "1024"])
    assert code == 0
    rows = read_curve_csv(out / "rrl_seed0.csv")
    assert [rec["w_t"] for rec in rows] == [0.4, 0.3, 0.2, 0.1]


def test_run_w_decrement_override(tmp_path):
    # a stored prior, so no source is trained
    prior = tmp_path / "q.json"
    net = init_mlp([2, 64, 64, 4], np.random.default_rng(0))
    save_artifact(PriorArtifact(net), prior)
    out = tmp_path / "rrl"
    assert main(["run", "--config",
                 write_config(tmp_path, scenario_doc(mode="rrl")),
                 "--prior", str(prior), "--out", str(out), "--seed", "0",
                 "--w-decrement", "0.2"]) == 0
    rows = read_curve_csv(out / "rrl_seed0.csv")
    # w0 0.5 less 0.2 per 400 steps, at t = 0, 1024, 2048 and 3072
    assert [rec["w_t"] for rec in rows] == [0.5, 0.1, 0.0, 0.0]


class SourceTrained(Exception):
    pass


@pytest.mark.parametrize("setting", [3, 4])
def test_pg_settings_need_no_algorithm_key(tmp_path, monkeypatch, setting):
    doc = scenario_doc(mode="rrl")
    reach = {"env_id": "goal-world", "reward_variant": "reach",
             "horizon": 100}
    doc["setting"] = setting
    doc["source"] = {"env": reach, "seeds": [0], "total_timesteps": 2048}
    doc["target"]["env"] = {**reach, "reward_variant": "reach-fast"} \
        if setting == 3 else reach
    path = write_config(tmp_path, doc)
    assert SETTINGS[load_scenario_file(path).setting].algorithm == "pg"

    def record(env, algorithm, *args):
        raise SourceTrained(algorithm)

    monkeypatch.setattr("rlwean.scenarios.train_source_prior", record)
    with pytest.raises(SourceTrained, match="^pg$"):
        main(["run", "--config", path, "--out", str(tmp_path / "x")])


def test_run_conflicting_setting_is_config_error(tmp_path):
    config_path = write_config(tmp_path, scenario_doc())
    assert main(["run", "--config", config_path, "--setting", "1",
                 "--out", str(tmp_path / "x")]) == 2


def test_run_without_scenario_is_config_error(tmp_path):
    assert main(["run", "--out", str(tmp_path / "x")]) == 2


def test_run_invalid_override_is_config_error(tmp_path):
    config_path = write_config(tmp_path, scenario_doc())
    assert main(["run", "--config", config_path, "--w0", "1.5",
                 "--out", str(tmp_path / "x")]) == 2


def test_process_exit_codes(tmp_path):
    """The exit code of `python -m rlwean.cli`, through sys.exit(main()).
    A diverging run exits 2: exit 1 is kept for a failed verification."""
    repo = Path(__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": str(repo / "src")}

    def run(*args):
        return subprocess.run([sys.executable, "-m", "rlwean.cli", *args],
                              env=env, cwd=tmp_path, capture_output=True,
                              text=True, timeout=120)

    done = run("inspect-prior", str(repo / "bench/data/q_windy_grid.json"))
    assert done.returncode == 0 and "kind: q_function" in done.stdout
    (tmp_path / "a").mkdir(), (tmp_path / "b").mkdir()
    assert run("compare", "a", "b", "--threshold", "0.5").returncode == 2
    # a setting-1 tbr run whose first update overflows: ppo_update raises
    # FloatingPointError within a second
    diverging = {
        "setting": 1, "mode": "tbr",
        "source": {"env": {"env_id": "windy-grid", "horizon": 64}},
        "target": {"env": {"env_id": "windy-grid", "horizon": 64},
                   "seeds": [0], "total_timesteps": 128},
        "schedule": {"kind": "fixed", "w0": 0.9},
        "train": {"learning_rate": 1.0e300, "max_grad_norm": 0.0,
                  "num_envs": 2, "steps_per_rollout": 64,
                  "minibatch_size": 32, "update_epochs": 1},
    }
    done = run("run", "--config", write_config(tmp_path, diverging),
               "--out", "out")
    assert done.returncode == 2 and "Traceback" not in done.stderr
    assert "error: non-finite loss in ppo_update" in done.stderr
    # the error line alone, and no empty out directory left behind
    assert "RuntimeWarning" not in done.stderr
    assert not (tmp_path / "out").exists()


def test_missing_config_file_is_config_error(tmp_path):
    assert main(["run", "--config", str(tmp_path / "nope.yaml"),
                 "--out", str(tmp_path / "x")]) == 2


def with_unknown_env_key(doc):
    doc["target"]["env"]["gravity"] = 9.8
    return yaml.safe_dump(doc)


def with_removed_train_option(doc):
    doc["train"] = {**TRAIN_SMALL, "rpo_alpha": 0.7}
    return yaml.safe_dump(doc)


def with_wrongly_typed_value(doc):
    doc["target"]["env"]["horizon"] = "64"
    return yaml.safe_dump(doc)


def without_source_block(doc):
    del doc["source"]
    return yaml.safe_dump(doc)


def with_infinite_setting(doc):
    doc["setting"] = float("inf")
    return yaml.safe_dump(doc)


def with_value(doc, keys, value):
    *blocks, key = keys
    inner = doc
    for block in blocks:
        inner = inner[block]
    inner[key] = value
    return yaml.safe_dump(doc)


def with_no_seeds(doc, block):
    doc[block]["seeds"] = []
    return yaml.safe_dump(doc)


def with_train(doc, **fields):
    doc["train"] = {**TRAIN_SMALL, **fields}
    return yaml.safe_dump(doc)


def with_env_seed(doc, seed):
    # not a field: runs seed their envs from the run's seed
    for block in ("source", "target"):
        doc[block]["env"]["seed"] = seed
    return yaml.safe_dump(doc)


def with_envs(doc, setting, source_env, target_env, algorithm="dqn"):
    doc["setting"] = setting
    doc["source"].update(env=source_env, algorithm=algorithm)
    doc["target"]["env"] = target_env
    return yaml.safe_dump(doc)


@pytest.mark.parametrize("text", [
    with_unknown_env_key(scenario_doc()),
    with_removed_train_option(scenario_doc()),
    with_wrongly_typed_value(scenario_doc()),
    without_source_block(scenario_doc()),
    with_infinite_setting(scenario_doc()),
    "setting: [1, 2\nmode: rrl\n",
    "- just\n- a list\n",
    with_no_seeds(scenario_doc(mode="rrl"), "source"),
    with_no_seeds(scenario_doc(mode="rrl"), "target"),
    with_train(scenario_doc(), num_envs=0),
    with_train(scenario_doc(), minibatch_size=0),
    with_train(scenario_doc(), steps_per_rollout=0),
    with_train(scenario_doc(mode="rrl"), num_envs=-4),
    with_train(scenario_doc(), num_envs=2.5, steps_per_rollout=1280,
               minibatch_size=256),
    yaml.safe_dump({**scenario_doc(mode="rrl"),
                    "target": {**scenario_doc()["target"], "seeds": [-1]}}),
    # budgets live under source and target only
    with_train(scenario_doc(), total_timesteps=2048),
    # fields the env would ignore: source and target would be one MDP
    with_envs(scenario_doc(mode="rrl"), 2, {"env_id": "chain"},
              {"env_id": "chain", "wind_enabled": True,
               "wind_strength": 0.5}),
    with_envs(scenario_doc(mode="rrl"), 3, {"env_id": "windy-grid"},
              {"env_id": "windy-grid", "reward_variant": "reach-fast"},
              algorithm="pg"),
    with_envs(scenario_doc(mode="rrl"), 2, {"env_id": "windy-grid"},
              {"env_id": "windy-grid", "wind_strength": 0.3}),
    with_env_seed(scenario_doc(), 3),
    # counts are integers, not truncated floats or bools
    with_value(scenario_doc(), ["setting"], 2.9),
    with_value(scenario_doc(), ["target", "total_timesteps"], 4096.9),
    with_value(scenario_doc(), ["target", "total_timesteps"], True),
    with_value(scenario_doc(mode="rrl"), ["schedule", "interval_steps"], 2.5),
    with_value(scenario_doc(mode="rrl"), ["schedule", "w0"], True),
    with_value(scenario_doc(), ["target", "env", "horizon"], 64.5),
    with_value(scenario_doc(), ["target", "env", "wind_enabled"], "no"),
    with_value(scenario_doc(), ["target", "seeds"], [True]),
    with_value(scenario_doc(mode="rrl"), ["source", "algorithm"], "pg"),
    with_value(scenario_doc(), ["target", "seeds"], [0, 0]),
    with_value(scenario_doc(mode="rrl"), ["source", "seeds"], [1, 1]),
    # training values that crashed the first update or trained silently
    with_train(scenario_doc(), learning_rate="x"),
    with_train(scenario_doc(), max_grad_norm="x"),
    with_train(scenario_doc(), value_coefficient="x"),
    with_train(scenario_doc(), entropy_coefficient=float("nan")),
    with_train(scenario_doc(), learning_rate=-1),
    with_train(scenario_doc(), advantage_normalization="no"),
    with_train(scenario_doc(), gamma=True),
    with_value(scenario_doc(), ["target", "env", "wind_strength"], True),
], ids=["unknown-env-key", "removed-train-option", "wrongly-typed-value",
        "missing-source-block", "infinite-setting", "malformed-yaml",
        "not-a-mapping", "empty-source-seeds", "empty-target-seeds",
        "zero-num-envs", "zero-minibatch-size", "zero-steps-per-rollout",
        "negative-num-envs", "fractional-num-envs", "negative-target-seed",
        "train-total-timesteps", "wind-on-chain", "reward-variant-on-grid",
        "windless-target", "env-seed", "fractional-setting",
        "fractional-budget", "bool-budget", "fractional-interval", "bool-w0",
        "fractional-horizon", "string-wind-enabled", "bool-seed",
        "contradicting-algorithm", "repeated-seeds",
        "repeated-source-seeds", "string-learning-rate",
        "string-max-grad-norm", "string-value-coefficient",
        "nan-entropy-coefficient", "negative-learning-rate",
        "string-advantage-normalization", "bool-gamma",
        "bool-wind-strength"])
def test_bad_scenario_file_is_config_error(tmp_path, capsys, text):
    path = tmp_path / "scenario.yaml"
    path.write_text(text)
    assert main(["run", "--config", str(path),
                 "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and str(path) in err
    assert not (tmp_path / "x").exists()  # rejected before any training


@pytest.mark.parametrize("keys", [["trian"], ["source", "seed"],
                                  ["target", "total_timestep"]],
                         ids=["top-level", "source", "target"])
def test_unknown_scenario_key_is_named(tmp_path, capsys, keys):
    # typos that used to be ignored, leaving the defaults in force
    path = tmp_path / "scenario.yaml"
    path.write_text(with_value(scenario_doc(mode="rrl"), keys, 0))
    assert main(["run", "--config", str(path),
                 "--out", str(tmp_path / "x")]) == 2
    assert f"unknown key {keys[-1]!r}" in capsys.readouterr().err
    assert not (tmp_path / "x").exists()


@pytest.mark.parametrize("flags", [
    ["--seed", "0", "--total-timesteps", "0"],
    ["--seed", "0", "--total-timesteps", "-10"],
    ["--seeds", "", "--total-timesteps", "4096"],
    # flags that were dropped without a word
    ["--seed", "0", "--seeds", "0,1", "--total-timesteps", "4096"],
    ["--seed", "0", "--w-decrement", "0.2", "--total-timesteps", "4096"],
    ["--seeds", "0,0", "--total-timesteps", "4096"],
], ids=["zero-budget", "negative-budget", "empty-seeds", "seed-and-seeds",
        "fixed-schedule-decrement", "repeated-seeds"])
def test_run_bad_override_is_config_error(tmp_path, flags):
    out = tmp_path / "x"
    assert main(["run", "--setting", "1", "--mode", "tbr", *flags,
                 "--out", str(out)]) == 2
    assert not out.exists()


@pytest.mark.parametrize("algorithm", ["dqn", "pg"])
@pytest.mark.parametrize("budget", ["0", "-5"])
def test_export_prior_bad_budget_is_config_error(tmp_path, algorithm,
                                                 budget):
    out = tmp_path / "prior.json"
    assert main(["export-prior", "--env", "chain", "--algorithm", algorithm,
                 "--total-timesteps", budget, "--out", str(out)]) == 2
    assert not out.exists()


def fail_if_called(*args, **kwargs):
    raise AssertionError("training ran before the output path was checked")


@pytest.mark.parametrize("algorithm", ["dqn", "pg"])
@pytest.mark.parametrize("target", ["existing-dir", "missing-parent", "empty",
                                    "trailing-separator"])
def test_export_prior_bad_out_path_is_config_error_before_training(
        tmp_path, monkeypatch, capsys, algorithm, target):
    monkeypatch.setattr("rlwean.scenarios.dqn_train", fail_if_called)
    monkeypatch.setattr("rlwean.scenarios.train", fail_if_called)
    monkeypatch.chdir(tmp_path)
    out = {"existing-dir": str(tmp_path),
           "missing-parent": str(tmp_path / "missing" / "q.json"),
           "empty": "", "trailing-separator": "nosuchdir/"}[target]
    assert main(["export-prior", "--env", "chain", "--algorithm", algorithm,
                 "--total-timesteps", "3000", "--out", out]) == 2
    assert "error:" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_export_prior_wind_on_goal_world_is_config_error(tmp_path, capsys):
    out = tmp_path / "q.json"
    assert main(["export-prior", "--env", "goal-world", "--wind-enabled",
                 "--total-timesteps", "3000", "--out", str(out)]) == 2
    assert "wind_enabled" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_export_prior_wind_strength_without_wind_is_config_error(tmp_path,
                                                               capsys):
    out = tmp_path / "q.json"
    assert main(["export-prior", "--env", "chain", "--wind-strength", "0.5",
                 "--total-timesteps", "3000", "--out", str(out)]) == 2
    assert "wind_strength" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_inspect_prior_directory_is_config_error(tmp_path, capsys):
    assert main(["inspect-prior", str(tmp_path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_inspect_prior_refuses_a_q_document_with_one_output(tmp_path,
                                                           capsys):
    path = tmp_path / "q.json"
    net = init_mlp([2, 4, 1], np.random.default_rng(0))
    save_artifact(PriorArtifact(net), path)
    doc = json.loads(path.read_text())
    path.write_text(json.dumps({**doc, "kind": "q", "action_count": 1}))
    assert main(["inspect-prior", str(path)]) == 2
    assert "kind" in capsys.readouterr().err


def test_run_prior_directory_is_config_error(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr("rlwean.scenarios.train", fail_if_called)
    prior_dir = tmp_path / "prior"
    prior_dir.mkdir()
    assert main(["run", "--setting", "1", "--mode", "rrl", "--seed", "0",
                 "--prior", str(prior_dir), "--out",
                 str(tmp_path / "x")]) == 2
    assert "error:" in capsys.readouterr().err


def test_run_prior_in_missing_directory_fails_before_training(
        tmp_path, monkeypatch, capsys):
    monkeypatch.setattr("rlwean.scenarios.dqn_train", fail_if_called)
    monkeypatch.setattr("rlwean.scenarios.train", fail_if_called)
    monkeypatch.chdir(tmp_path)
    for prior in (str(tmp_path / "missing" / "p.json"), "", "nosuchdir/"):
        assert main(["run", "--setting", "1", "--mode", "rrl", "--seed", "0",
                     "--prior", prior, "--out", str(tmp_path / "x")]) == 2
        assert repr(prior) in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_run_out_existing_file_is_config_error(tmp_path, monkeypatch,
                                              capsys):
    monkeypatch.setattr("rlwean.scenarios.train", fail_if_called)
    out = tmp_path / "taken"
    out.write_text("")
    assert main(["run", "--setting", "1", "--mode", "tbr", "--seed", "0",
                 "--out", str(out)]) == 2
    assert "error:" in capsys.readouterr().err
    assert out.read_text() == ""


def test_verify_quick_exits_zero(capsys):
    assert main(["verify", "--level", "quick"]) == 0
    printed = capsys.readouterr().out
    assert "[PASS]" in printed and "[FAIL]" not in printed
    assert "13/13 checks passed" in printed


def test_export_and_inspect_prior(tmp_path, capsys):
    out = tmp_path / "prior.json"
    code = main(["export-prior", "--env", "chain", "--algorithm", "dqn",
                 "--seed", "3", "--total-timesteps", "3000", "--horizon", "16",
                 "--out", str(out)])
    assert code == 0
    prior = load_artifact(out)
    assert prior.kind == "q_function" and prior.source_seed == 3
    assert np.isfinite(forward(prior.network, np.array([0.5]))).all()

    capsys.readouterr()
    assert main(["inspect-prior", str(out)]) == 0
    printed = capsys.readouterr().out
    assert "kind: q_function" in printed
    assert "obs_dim: 1" in printed
    assert "action_count: 2" in printed
    assert "format_version: 1" in printed


def test_export_pg_prior_is_the_trained_value_net(tmp_path):
    out = tmp_path / "v.json"
    assert main(["export-prior", "--env", "chain", "--algorithm", "pg",
                 "--seed", "5", "--horizon", "16", "--total-timesteps", "4096",
                 "--out", str(out)]) == 0
    prior = load_artifact(out)
    assert prior.kind == "value_function"
    assert (prior.obs_dim, prior.action_count) == (1, 0)
    assert (prior.source_env_id, prior.source_algorithm,
            prior.source_seed) == ("chain", "pg", 5)
    trained = train(EnvConfig("chain", horizon=16), TrainConfig(), 4096,
                    5).value_net
    assert prior.network.layer_dims == trained.layer_dims
    assert prior.network.flat.tobytes() == trained.flat.tobytes()


def test_run_with_dqn_source_that_never_finishes_an_episode(tmp_path):
    # 20 source steps end no episode, so every seed's final return is -inf
    # and the first source seed must be exported
    doc = scenario_doc(mode="rrl")
    env = {"env_id": "windy-grid", "wind_enabled": False, "horizon": 64}
    doc.update(setting=1, schedule={"kind": "fixed", "w0": 0.9})
    doc["source"].update(env=env, seeds=[2, 0], total_timesteps=20)
    doc["target"].update(env=env, seeds=[0])
    for seed in (2, 0):
        assert dqn_train(EnvConfig(**env), DqnConfig(total_timesteps=20),
                         seed)[1] == []
    out = tmp_path / "rrl"
    assert main(["run", "--config", write_config(tmp_path, doc),
                 "--out", str(out)]) == 0
    prior = load_artifact(out / "prior.json")
    assert (prior.kind, prior.source_seed) == ("q_function", 2)
    assert len(read_curve_csv(out / "rrl_seed0.csv")) == 4


def test_inspect_missing_prior_is_config_error(tmp_path):
    assert main(["inspect-prior", str(tmp_path / "missing.json")]) == 2


@pytest.mark.parametrize("seed", [2.9, True, "7"])
def test_inspect_prior_refuses_a_non_integer_source_seed(tmp_path, capsys,
                                                         seed):
    path = tmp_path / "v.json"
    save_artifact(PriorArtifact(init_mlp([2, 4, 1],
                                         np.random.default_rng(0))), path)
    doc = json.loads(path.read_text())
    doc["metadata"]["source_seed"] = seed
    path.write_text(json.dumps(doc))
    assert main(["inspect-prior", str(path)]) == 2
    assert "source_seed" in capsys.readouterr().err


def test_inspect_prior_without_layers_is_config_error(tmp_path, capsys):
    path = tmp_path / "prior.json"
    path.write_text(json.dumps({"format_version": 1, "kind": "q",
                                "activation": "tanh", "obs_dim": 2,
                                "action_count": 4, "layers": []}))
    assert main(["inspect-prior", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_run_then_compare_end_to_end(tmp_path, capsys):
    config_path = write_config(tmp_path, scenario_doc())
    rrl_out, tbr_out = tmp_path / "rrl", tmp_path / "tbr"
    assert main(["run", "--config", config_path, "--mode", "rrl",
                 "--out", str(rrl_out)]) == 0
    assert main(["run", "--config", config_path, "--mode", "tbr",
                 "--out", str(tbr_out)]) == 0
    capsys.readouterr()
    code = main(["compare", str(rrl_out), str(tbr_out),
                 "--threshold", "0.5"])
    assert code == 0
    printed = capsys.readouterr().out
    assert "rrl median:" in printed and "tbr median:" in printed
    assert "seed,rrl_steps_to_threshold,tbr_steps_to_threshold" in printed


def test_compare_mismatched_dirs_is_config_error(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    assert main(["compare", str(a), str(b), "--threshold", "0.5"]) == 2


def test_compare_curve_without_rows_is_config_error(tmp_path, capsys):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    header = ",".join(CSV_HEADER) + "\n"
    (a / "rrl_seed0.csv").write_text(header)
    (b / "tbr_seed0.csv").write_text(header + "2048,0.5,0.0,0.0,0.1,0.0,1.3\n")
    assert main(["compare", str(a), str(b), "--threshold", "0.5"]) == 2
    assert str(a / "rrl_seed0.csv") in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    "timestep,episodic_return_mean\n2048,0.5\n",
    ",".join(CSV_HEADER) + "\n2048,abc,0.0,0.0,0.1,0.0,1.3\n",
    ",".join(CSV_HEADER) + "\n2048,0.5\n",
    ",".join(CSV_HEADER) + "\n2048,nan,0.0,0.0,0.1,0.0,1.3\n",
    ",".join(CSV_HEADER) + "\n2048,0.5,0.0,0.0,inf,0.0,1.3\n",
], ids=["other-header", "non-numeric-cell", "short-row", "nan-cell",
        "inf-cell"])
def test_compare_bad_curve_is_config_error(tmp_path, capsys, text):
    a, b = tmp_path / "a", tmp_path / "b"
    a.mkdir(), b.mkdir()
    (a / "rrl_seed0.csv").write_text(text)
    (b / "tbr_seed0.csv").write_text(",".join(CSV_HEADER) +
                                     "\n2048,0.5,0.0,0.0,0.1,0.0,1.3\n")
    assert main(["compare", str(a), str(b), "--threshold", "0.5"]) == 2
    assert str(a / "rrl_seed0.csv") in capsys.readouterr().err


def write_seed_curves(run_dir, names):
    run_dir.mkdir()
    for name in names:
        write_curve_csv(run_dir / name, [(2048, 0.5, 0.0, 0.0, 0.1, 0.0, 1.3)])
    return str(run_dir)


@pytest.mark.parametrize("rrl_names, threshold, named", [
    (["rrl_seed1.csv", "rrl_seed01.csv"], "0.5", "rrl_seed01.csv"),
    (["rrl_seed1.csv", "rrl_seedx.csv"], "0.5", "rrl_seedx.csv"),
    (["rrl_seed1.csv"], "nan", "threshold"),
    (["rrl_seed1.csv"], "inf", "threshold"),
], ids=["duplicate-seed", "bad-name", "nan-threshold", "inf-threshold"])
def test_compare_ambiguous_curves_or_threshold_is_config_error(
        tmp_path, capsys, rrl_names, threshold, named):
    rrl = write_seed_curves(tmp_path / "a", rrl_names)
    tbr = write_seed_curves(tmp_path / "b", ["tbr_seed1.csv"])
    assert main(["compare", rrl, tbr, "--threshold", threshold]) == 2
    assert named in capsys.readouterr().err
