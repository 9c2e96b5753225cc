"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criteria 1-5 run the exact tabular/gradient oracles, 6 checks DQN prior
quality against value iteration, 7-9 run the four desk-scale transfer
settings end to end (shared priors across settings where the source task is
identical), 10 checks bit-exact tabula-rasa equivalence at w = 0, and 11
checks exact artifact round-trips.
"""

import sys
import time
from dataclasses import replace

import numpy as np
import pytest

from rlwean.dqn import DqnConfig, dqn_train
from rlwean.envs import TABLES, EnvConfig, as_tabular
from rlwean.nets import forward, init_mlp
from rlwean.oracle import value_iteration
from rlwean.priors import (PriorArtifact, WeaningSchedule, load_artifact,
                           save_artifact)
from rlwean.scenarios import (SETTINGS, compare, default_scenario,
                              run_scenario, train_source_prior)
from rlwean.verify import (mlp_gradient_check, q_to_value_identity_check,
                           schedule_checks, unbiasedness_checks,
                           variance_reduction_check)

from test_dqn import greedy_return
from test_scenarios import optimal_return

FULL_SAMPLES = 200_000


def report(number: int, name: str, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    line = f"[{status}] criterion {number} ({name}): {detail}"
    print(line)
    if sys.stdout is not sys.__stdout__:  # also bypass pytest's capture
        print(line, file=sys.__stdout__)
    assert passed, f"criterion {number} ({name}) failed: {detail}"


@pytest.fixture(scope="session")
def work_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


def default_source_prior(setting: int, path) -> None:
    config = default_scenario(setting)
    train_source_prior(config.source_env, SETTINGS[setting].algorithm,
                       config.source_seeds, config.source_total_timesteps,
                       config.train_config, path)


@pytest.fixture(scope="session")
def dqn_prior_path(work_dir):
    # settings 1 and 2 share the same source task (windy-grid, no wind)
    path = work_dir / "dqn_prior.json"
    default_source_prior(1, path)
    return str(path)


@pytest.fixture(scope="session")
def pg_prior_path(work_dir):
    # settings 3 and 4 share the same source task (goal-world, reach)
    path = work_dir / "pg_prior.json"
    default_source_prior(4, path)
    return str(path)


def run_arms(setting: int, out_dir, prior_path: str, threshold: float):
    rrl = default_scenario(setting)
    tbr = replace(rrl, mode="tbr")
    run_scenario(rrl, out_dir / "rrl", prior_path=prior_path)
    run_scenario(tbr, out_dir / "tbr")
    return compare(out_dir / "rrl", out_dir / "tbr", threshold)


def test_criterion_01_unbiasedness():
    start = time.time()
    results = unbiasedness_checks(FULL_SAMPLES)
    elapsed = time.time() - start
    worst_rel = max(r.statistic for r in results if "rel-L2" in r.name)
    worst_cos = min(r.statistic for r in results if "cosine" in r.name)
    ok = all(r.passed for r in results) and elapsed < 120
    report(1, "unbiasedness", ok,
           f"max rel-L2={worst_rel:.4g} (<0.05), min cosine={worst_cos:.6f} "
           f"(>0.99) over 4 baselines, n={FULL_SAMPLES}, {elapsed:.1f}s")


def test_criterion_02_variance_reduction():
    start = time.time()
    result = variance_reduction_check(FULL_SAMPLES)
    elapsed = time.time() - start
    ok = result.passed and elapsed < 120
    report(2, "variance reduction", ok,
           f"trace gap={result.statistic:.4g} > 3*SE={result.threshold:.4g}, "
           f"{elapsed:.1f}s")


def test_criterion_03_q_to_value_identity():
    result = q_to_value_identity_check()
    report(3, "q-to-value identity", result.passed,
           f"max |sum pi*Q - V|={result.statistic:.3g} (<1e-10), "
           f"20 random policies on chain and windy-grid")


def test_criterion_04_weaning_schedule_exactness():
    results = schedule_checks()
    report(4, "weaning schedule exactness", all(r.passed for r in results),
           "fixed(0.9) constant; step_decay(0.5,0.1,I) hits "
           "0.5,0.4,0.3,0.2,0.1,0.0 exactly and clamps at 0")


def test_criterion_05_mlp_gradient_check():
    result = mlp_gradient_check()
    report(5, "mlp gradient check", result.passed,
           f"max rel err={result.statistic:.3g} (<1e-4), "
           f"50 random 4-8-8-2 networks vs central differences")


def test_criterion_06_dqn_prior_quality():
    start = time.time()
    cfg = EnvConfig("chain", horizon=64)
    q_net, _ = dqn_train(cfg, DqnConfig(), seed=0)
    model = as_tabular(cfg)
    q_star = value_iteration(model, 0.99)
    max_err = max(
        float(np.max(np.abs(forward(q_net, TABLES[cfg.env_id].obs[s])
                            - q_star[s])))
        for s in range(model.state_count - 1))
    greedy = greedy_return(q_net, cfg)
    optimal = optimal_return(cfg)
    elapsed = time.time() - start
    ok = max_err < 0.1 and greedy >= 0.95 * optimal and elapsed < 60
    report(6, "dqn prior quality", ok,
           f"max |Q - Q*|={max_err:.4f} (<0.1), greedy return={greedy:.3f} "
           f"(>= 0.95*{optimal}), {elapsed:.1f}s")


def test_criterion_07_setting1_jumpstart(work_dir, dqn_prior_path):
    start = time.time()
    threshold = 0.8 * optimal_return(EnvConfig("windy-grid"))
    summary = run_arms(1, work_dir / "s1", dqn_prior_path, threshold)
    elapsed = time.time() - start
    ok = (summary.rrl_median <= summary.tbr_median
          and summary.rrl_wins + summary.ties >= 6 and elapsed < 900)
    report(7, "setting-1 jumpstart", ok,
           f"median steps-to-{threshold:.3f}: rrl={summary.rrl_median:.0f} <= "
           f"tbr={summary.tbr_median:.0f}; wins+ties="
           f"{summary.rrl_wins + summary.ties}/10 (>=6), {elapsed:.0f}s")


def test_criterion_08_setting2_dynamics_shift(work_dir, dqn_prior_path):
    start = time.time()
    threshold = 0.8 * optimal_return(
        EnvConfig("windy-grid", wind_enabled=True, wind_strength=0.3))
    summary = run_arms(2, work_dir / "s2", dqn_prior_path, threshold)
    elapsed = time.time() - start
    ok = summary.rrl_mean_final >= summary.tbr_mean_final and elapsed < 900
    report(8, "setting-2 dynamics shift", ok,
           f"mean final return: rrl={summary.rrl_mean_final:.6f} >= "
           f"tbr={summary.tbr_mean_final:.6f}, {elapsed:.0f}s")


def test_criterion_09_setting3_and_4(work_dir, pg_prior_path):
    start = time.time()
    t3 = 0.8 * optimal_return(EnvConfig("goal-world",
                                        reward_variant="reach-fast"))
    s3 = run_arms(3, work_dir / "s3", pg_prior_path, t3)
    t4 = 0.8 * optimal_return(EnvConfig("goal-world", reward_variant="reach"))
    s4 = run_arms(4, work_dir / "s4", pg_prior_path, t4)
    elapsed = time.time() - start
    ok4 = s4.rrl_median <= s4.tbr_median
    ok3 = s3.rrl_mean_final >= 0.95 * s3.tbr_mean_final
    ok = ok3 and ok4 and elapsed < 1200
    report(9, "setting-3/4 reward shift + repeat run", ok,
           f"setting 4 median steps: rrl={s4.rrl_median:.0f} <= "
           f"tbr={s4.tbr_median:.0f}; setting 3 mean final: "
           f"rrl={s3.rrl_mean_final:.5f} >= 0.95*tbr="
           f"{0.95 * s3.tbr_mean_final:.5f}, {elapsed:.0f}s")


def test_criterion_10_tbr_equivalence(work_dir, dqn_prior_path):
    zero = WeaningSchedule("fixed", 0.0)
    seeds = (0, 1)
    rrl = replace(default_scenario(1, target_total_timesteps=10_240),
                  target_seeds=seeds, schedule=zero)
    tbr = replace(rrl, mode="tbr")
    out = work_dir / "equiv"
    run_scenario(rrl, out, prior_path=dqn_prior_path)
    run_scenario(tbr, out)
    identical = all(
        (out / f"rrl_seed{s}.csv").read_text()
        == (out / f"tbr_seed{s}.csv").read_text()
        for s in seeds)
    report(10, "tbr equivalence at w=0", identical,
           f"rrl(w=0) and tbr curves byte-identical for seeds {seeds}")


def test_criterion_11_artifact_round_trip(work_dir):
    rng = np.random.default_rng(0)
    cases = [("q_function", [2, 64, 64, 4]),
             ("value_function", [4, 64, 64, 1])]
    exact = True
    for kind, dims in cases:
        net = init_mlp(dims, rng)
        prior = PriorArtifact(net)
        assert prior.kind == kind
        path = work_dir / f"roundtrip_{kind}.json"
        save_artifact(prior, path)
        loaded = load_artifact(path)
        obs = rng.standard_normal((100, dims[0]))
        exact &= bool(np.array_equal(forward(loaded.network, obs),
                                     forward(net, obs)))
    report(11, "artifact round-trip", exact,
           "export->load->evaluate exactly equal on 100 random observations "
           "for q and v artifacts")
