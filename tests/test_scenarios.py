import os
import re
from dataclasses import FrozenInstanceError, replace

import numpy as np
import pytest

from rlwean.dqn import DqnConfig
from rlwean.envs import EnvConfig
from rlwean.priors import WeaningSchedule, weaning_weight
from rlwean.ppo import TrainConfig
from rlwean.scenarios import (CSV_HEADER, SETTINGS, ComparisonSummary,
                              ScenarioConfig,
                              compare, default_scenario, final_return,
                              read_curve_csv, run_scenario,
                              steps_to_threshold, train_source_prior,
                              write_curve_csv)

SMALL_TRAIN = TrainConfig(num_envs=4, steps_per_rollout=1024,
                          minibatch_size=256, update_epochs=2)


def small_scenario(setting=1, mode="tbr"):
    return replace(default_scenario(setting, target_total_timesteps=4096),
                   mode=mode, source_total_timesteps=3000,
                   target_seeds=(0, 1), source_seeds=(0,),
                   train_config=SMALL_TRAIN)


def test_default_scenarios_are_valid():
    for setting in (1, 2, 3, 4):
        config = default_scenario(setting)
        assert config.target_seeds == tuple(range(10))
        assert config.target_total_timesteps == 100_000
    assert default_scenario(1).schedule == WeaningSchedule("fixed", 0.9)
    s2 = default_scenario(2).schedule
    assert (s2.kind, s2.w0, s2.decrement, s2.interval_steps) == \
        ("step_decay", 0.5, 0.1, 10_000)


@pytest.mark.parametrize("mode", ["rrl", "tbr"])
def test_default_scenarios_are_the_paper_settings(mode):
    grid = EnvConfig("windy-grid", wind_enabled=False, horizon=64)
    windy = EnvConfig("windy-grid", wind_enabled=True, wind_strength=0.3,
                      horizon=64)
    reach = EnvConfig("goal-world", reward_variant="reach", horizon=100)
    fast = EnvConfig("goal-world", reward_variant="reach-fast", horizon=100)
    decay = WeaningSchedule("step_decay", 0.5, 0.1, 409)
    expected = {1: (grid, "dqn", grid, WeaningSchedule("fixed", 0.9)),
                2: (grid, "dqn", windy, decay),
                3: (reach, "pg", fast, decay),
                4: (reach, "pg", reach, decay)}
    for setting, (source, algorithm, target, schedule) in expected.items():
        config = replace(default_scenario(setting, 4096), mode=mode,
                         source_total_timesteps=3000)
        assert (config.setting, config.mode) == (setting, mode)
        assert (config.source_env, SETTINGS[setting].algorithm,
                config.target_env, config.schedule) == \
            (source, algorithm, target, schedule)
        assert (config.source_seeds, config.source_total_timesteps,
                config.target_total_timesteps) == ((0, 1, 2), 3000, 4096)
        assert config.train_config == TrainConfig()


def test_scenario_validation_rejects_mismatches():
    base = default_scenario(1)
    s2, s3, s4 = default_scenario(2), default_scenario(3), default_scenario(4)
    fixed = WeaningSchedule("fixed", 0.9)
    calm = EnvConfig("windy-grid", wind_enabled=True, wind_strength=0.0,
                     horizon=64)
    bad = [
        (base, dict(mode="greedy")),
        (base, dict(setting=5)),
        (base, dict(setting=True)),
        (base, dict(setting=1.5)),
        (base, dict(target_seeds=(True,))),
        (base, dict(source_seeds=(0, False))),
        (base, dict(target_seeds=(0, 2.5))),
        (base, dict(source_seeds=(-1,))),
        (base, dict(target_seeds=())),
        # a repeated seed would run twice and write one CSV over another
        (base, dict(target_seeds=(0, 0))),
        (base, dict(source_seeds=(1, 2, 1))),
        (base, dict(target_env=EnvConfig("chain"))),
        (base, dict(schedule=s2.schedule)),
        # source and target must differ by wind
        (s2, dict(target_env=s2.source_env)),
        (s2, dict(schedule=fixed)),
        (s2, dict(target_env=replace(s2.target_env, horizon=32))),
        # wind on at strength 0 is the same windless MDP
        (s2, dict(source_env=calm, target_env=s2.source_env)),
        # must differ by reward variant only
        (s3, dict(target_env=s3.source_env)),
        (s3, dict(target_env=replace(s3.target_env, horizon=50))),
    ]
    for config, changes in bad:
        with pytest.raises(ValueError):
            replace(config, **changes)
    for config in (s3, s4):  # settings 3 and 4 take any schedule kind
        replace(config, schedule=fixed)


def test_configs_cannot_change_after_their_check():
    config = default_scenario(2)
    for record, name in ((config, "mode"), (config.target_env, "horizon"),
                         (config.train_config, "gamma"),
                         (config.schedule, "w0"),
                         (DqnConfig(), "total_timesteps")):
        with pytest.raises(FrozenInstanceError):
            setattr(record, name, getattr(record, name))


def optimal_return(env_config: EnvConfig) -> float:
    """Hand-computed optimal undiscounted episodic return per environment."""
    if env_config.env_id == "chain":
        return 1.0  # four right moves, +1 at the end
    if env_config.env_id == "windy-grid":
        return 0.92  # 8 moves at -0.01 each, +1 at the goal
    if env_config.reward_variant == "reach":
        return 1.0
    return 0.96  # ~9 steps of living cost partially offset by shaping


def test_optimal_returns():
    assert optimal_return(EnvConfig("chain")) == 1.0
    assert optimal_return(EnvConfig("windy-grid")) == 0.92
    assert optimal_return(EnvConfig("goal-world", reward_variant="reach")) == 1.0
    assert optimal_return(
        EnvConfig("goal-world", reward_variant="reach-fast")) == 0.96


def test_curve_csv_round_trip(tmp_path):
    rows = [(0, 0.123456789012345, 0.5, 0.9, 1.25, -0.007, 1.1),
            (2048, 0.92, 0.0, 0.8, 0.3, 0.001, 0.69)]
    path = tmp_path / "curve.csv"
    write_curve_csv(path, rows)
    text = path.read_text().splitlines()
    assert text[0] == "timestep,episodic_return_mean,episodic_return_std," \
                      "w_t,value_loss,policy_loss,entropy"
    back = read_curve_csv(path)
    for row, rec in zip(rows, back):
        for key, v in zip(CSV_HEADER, row):
            assert rec[key] == v  # repr round-trip is exact


def test_steps_to_threshold_and_final_return():
    rows = [{"timestep": t, "episodic_return_mean": r}
            for t, r in ((0, 0.1), (100, 0.4), (200, 0.8), (300, 0.9))]
    assert steps_to_threshold(rows, 0.4) == 100
    assert steps_to_threshold(rows, 0.85) == 300
    assert steps_to_threshold(rows, 2.0) == float("inf")
    # the mean of the last tenth of the rows, and at least of the last row
    assert final_return(rows) == 0.9
    assert final_return(rows * 5) == pytest.approx(0.85)


def test_run_scenario_tbr_deterministic(tmp_path):
    config = small_scenario(mode="tbr")
    out1, out2 = tmp_path / "a", tmp_path / "b"
    r1 = run_scenario(config, out1)
    r2 = run_scenario(config, out2)
    assert r1["prior_path"] is None  # tbr never touches a prior
    for seed in (0, 1):
        c1 = (out1 / f"tbr_seed{seed}.csv").read_text()
        c2 = (out2 / f"tbr_seed{seed}.csv").read_text()
        assert c1 == c2


def test_run_scenario_rrl_writes_prior_and_w_column(tmp_path):
    config = small_scenario(setting=1, mode="rrl")
    result = run_scenario(config, tmp_path / "rrl")
    assert os.path.exists(result["prior_path"])
    for seed, path in result["csv_paths"].items():
        rows = read_curve_csv(path)
        assert len(rows) == 4096 // 1024
        for rec in rows:
            expected = weaning_weight(config.schedule, int(rec["timestep"]))
            assert rec["w_t"] == expected


def test_run_scenario_reuses_prior_file(tmp_path):
    config = small_scenario(setting=1, mode="rrl")
    first = run_scenario(config, tmp_path / "one")
    prior_path = first["prior_path"]
    stamp = os.path.getmtime(prior_path)
    second = run_scenario(config, tmp_path / "two", prior_path=prior_path)
    assert second["prior_path"] == prior_path
    assert os.path.getmtime(prior_path) == stamp  # loaded, not retrained
    for seed in (0, 1):
        a = (tmp_path / "one" / f"rrl_seed{seed}.csv").read_text()
        b = (tmp_path / "two" / f"rrl_seed{seed}.csv").read_text()
        assert a == b


def test_run_scenario_rejects_wrong_prior_kind(tmp_path):
    # a value-function prior exported from setting 4 cannot feed setting 1
    s4 = small_scenario(setting=4, mode="rrl")
    s4 = replace(s4, target_seeds=(0,))
    result = run_scenario(s4, tmp_path / "s4")
    v_prior_path = result["prior_path"]
    s1 = small_scenario(setting=1, mode="rrl")
    with pytest.raises(ValueError):
        run_scenario(s1, tmp_path / "s1", prior_path=v_prior_path)
    # it must fail before writing any target curves
    assert not any(p.name.endswith(".csv")
                   for p in (tmp_path / "s1").glob("*")) \
        or not (tmp_path / "s1").exists()


def fail_if_called(*args, **kwargs):
    raise AssertionError("training ran before the output path was checked")


def test_unwritable_prior_path_fails_before_training(tmp_path, monkeypatch):
    monkeypatch.setattr("rlwean.scenarios.dqn_train", fail_if_called)
    monkeypatch.setattr("rlwean.scenarios.train", fail_if_called)
    config = small_scenario(setting=1, mode="rrl")
    monkeypatch.chdir(tmp_path)
    for path in (tmp_path / "missing" / "p.json", tmp_path, "", "nosuchdir/"):
        named = re.escape(repr(os.fspath(path)))
        with pytest.raises(ValueError, match=named):
            run_scenario(config, tmp_path / "out", prior_path=path)
        with pytest.raises(ValueError, match=named):
            train_source_prior(config.source_env, "dqn", (0,), 3000,
                               SMALL_TRAIN, path)
    assert list(tmp_path.iterdir()) == []


def test_failed_run_removes_only_an_out_dir_it_made_empty(tmp_path,
                                                         monkeypatch):
    def diverge(*args, **kwargs):
        raise FloatingPointError("non-finite loss in ppo_update")

    monkeypatch.setattr("rlwean.scenarios.train", diverge)
    config = small_scenario()
    made = tmp_path / "new" / "out"
    kept = tmp_path / "kept"
    kept.mkdir()
    for out_dir in (made, kept):
        with pytest.raises(FloatingPointError):
            run_scenario(config, out_dir)
    assert not made.exists() and (tmp_path / "new").is_dir()
    assert kept.is_dir()
    # a source prior written before the failure keeps the new out_dir
    rrl = tmp_path / "rrl"
    with pytest.raises(FloatingPointError):
        run_scenario(replace(small_scenario(mode="rrl"),
                             source_total_timesteps=1000), rrl)
    assert [p.name for p in rrl.iterdir()] == ["prior.json"]


def test_compare_on_synthetic_curves(tmp_path):
    rrl_dir, tbr_dir = tmp_path / "rrl", tmp_path / "tbr"
    rrl_dir.mkdir(), tbr_dir.mkdir()

    def rows(reaches_at):
        return [(t, 1.0 if t >= reaches_at else 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
                for t in range(0, 500, 100)]

    for seed, (a, b) in enumerate([(100, 300), (200, 200), (400, 100)]):
        write_curve_csv(rrl_dir / f"rrl_seed{seed}.csv", rows(a))
        write_curve_csv(tbr_dir / f"tbr_seed{seed}.csv", rows(b))
    summary = compare(rrl_dir, tbr_dir, threshold=0.5)
    assert isinstance(summary, ComparisonSummary)
    assert summary.per_seed == {0: (100, 300), 1: (200, 200), 2: (400, 100)}
    assert summary.rrl_median == 200 and summary.tbr_median == 200
    assert (summary.rrl_wins, summary.ties, summary.tbr_wins) == (1, 1, 1)
    assert summary.rrl_mean_final == summary.tbr_mean_final == 1.0


def test_compare_rejects_mismatched_seed_sets(tmp_path):
    rrl_dir, tbr_dir = tmp_path / "rrl", tmp_path / "tbr"
    rrl_dir.mkdir(), tbr_dir.mkdir()
    rows = [(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)]
    write_curve_csv(rrl_dir / "rrl_seed0.csv", rows)
    write_curve_csv(tbr_dir / "tbr_seed1.csv", rows)
    with pytest.raises(ValueError):
        compare(rrl_dir, tbr_dir, threshold=0.5)
    empty1, empty2 = tmp_path / "empty1", tmp_path / "empty2"
    empty1.mkdir(), empty2.mkdir()
    with pytest.raises(ValueError):
        compare(empty1, empty2, threshold=0.5)
