"""Tests of the benchmark itself (not collected by the repo's tier-1 run).

    python3 -m pytest -q bench
"""

import argparse
import json
import sys
from dataclasses import replace
from itertools import islice
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

run.import_program()

import spans  # noqa: E402
import workloads  # noqa: E402

# Counts that must repeat exactly between two traced runs of one seed.
REPEATABLE = ["envs.step.calls", "nets.flops", "dqn.train_steps",
              "oracle.sample_trajectories.trajectories", "ppo.clip_fraction"]


def small(name):
    """A workload with the real op, shrunk so a test runs in seconds."""
    w = workloads.WORKLOADS[name]
    if isinstance(w, workloads.PpoWorkload):
        w = workloads.PpoWorkload(w.name, w.setting, w.prior_file, w.env,
                                  replace(w.schedule, interval_steps=2048),
                                  total_timesteps=4096, traced_ops=1)
    elif isinstance(w, workloads.DqnWorkload):
        w = workloads.DqnWorkload(w.name, total_timesteps=1500, traced_ops=1)
    else:
        w = workloads.VerifyWorkload(w.name, level="quick", traced_ops=1)
    w.prepare(workloads.load_goldens())
    return w


def traced(workload, seed, tmp_path):
    args = argparse.Namespace(workload=workload.name, seed=seed)
    seeds = workloads.program_seeds(workload.name, seed)
    ops, metrics = run.traced_run(args, workload, {}, seeds, tmp_path)
    assert [op.error for op in ops] == [None] * len(ops)
    return {k: v["value"] for k, v in metrics.items()}


def installed_originals():
    return [spans._owner(module, attr) for module, attr, _, _ in spans.SITES]


def test_self_time_is_exact_on_a_synthetic_tree():
    # root [0, 10) has children a [1, 4) and b [5, 9); a has a child c
    # [2, 3) and b has a child c [6, 6.5).
    names = ["root", "a", "b", "c"]
    name_id = [0, 1, 2, 3, 3]
    parent = [-1, 0, 0, 1, 2]
    start = [0.0, 1.0, 5.0, 2.0, 6.0]
    end = [10.0, 4.0, 9.0, 3.0, 6.5]
    stats = spans.span_stats(names, name_id, parent, start, end)
    assert stats == {"root": (1, 10.0, 3.0), "a": (1, 3.0, 2.0),
                     "b": (1, 4.0, 3.5), "c": (2, 1.5, 1.5)}


def test_iteration_seconds_pairs_collect_with_following_update():
    names = ["ppo.train", "ppo.collect_rollout", "ppo.ppo_update"]
    name_id = [0, 1, 2, 1, 2]
    parent = [-1, 0, 0, 0, 0]
    start = [0.0, 1.0, 2.0, 4.0, 6.0]
    end = [10.0, 2.0, 3.5, 5.0, 8.0]
    assert spans.iteration_seconds(names, name_id, parent, start,
                                   end) == [2.5, 4.0]


def test_wrappers_are_restored_after_a_traced_run(tmp_path):
    before = [vars(owner)[key] for owner, key in installed_originals()]
    traced(small("oracle-verify"), 0, tmp_path)
    after = [vars(owner)[key] for owner, key in installed_originals()]
    assert all(a is b for a, b in zip(before, after))
    assert not any(hasattr(f, "__wrapped__") for f in after)


def test_wrappers_are_restored_when_the_op_raises():
    import rlwean.cli
    original = rlwean.cli.main
    tracer = spans.Tracer()
    with pytest.raises(SystemExit):
        with tracer.installed():
            rlwean.cli.main(["no-such-command"])
    assert rlwean.cli.main is original
    assert tracer.names[tracer.name_id[0]] == "cli.main"


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_counts_repeat_across_two_traced_runs(name, tmp_path):
    w = small(name)
    first = traced(w, 3, tmp_path)
    second = traced(w, 3, tmp_path)
    for metric in REPEATABLE:
        assert first[metric] == second[metric], metric
    reached = {"ppo-grid-qprior": ["envs.step.calls", "nets.flops",
                                   "priors.prior_eval.calls"],
               "ppo-goal-vprior": ["envs.step.calls", "nets.flops",
                                   "priors.prior_eval.calls"],
               "dqn-grid": ["envs.step.calls", "nets.flops",
                            "dqn.train_steps"],
               "oracle-verify": ["nets.flops",
                                 "oracle.sample_trajectories.trajectories"]}
    assert {m: first[m] for m in reached[name] if not first[m] > 0} == {}


def test_metric_names_match_benchmark_json(tmp_path):
    declared = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"])
            for m in declared["per_layer"]] == [tuple(m)
                                                for m in spans.PER_LAYER]
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == run.UNITS
    assert sorted(w["name"] for w in declared["workloads"]) == \
        sorted(workloads.WORKLOADS)
    metrics = traced(small("oracle-verify"), 0, tmp_path)
    assert list(metrics) == [name for name, _, _ in spans.PER_LAYER]


def test_goldens_cover_the_default_seed():
    goldens = workloads.load_goldens()
    for name, digests in goldens["digests"].items():
        seeds = islice(workloads.program_seeds(name, 0), len(digests))
        assert [str(s) for s in seeds] == list(digests)


def test_check_rejects_a_wrong_w_t_column(tmp_path):
    w = workloads.WORKLOADS["ppo-goal-vprior"]
    header = ",".join(workloads.CSV_HEADER)
    rows = [f"{t},0.0,0.0,0.5,0.1,0.1,1.3" for t in range(0, w.total_timesteps,
                                                         w.rollout)]
    (tmp_path / "rrl_seed1.csv").write_text("\n".join([header] + rows) + "\n")
    with pytest.raises(workloads.CheckError, match="w_t"):
        w.check(1, tmp_path, "")


def test_stored_prior_with_a_changed_byte_is_refused(tmp_path, monkeypatch):
    data = (workloads.DATA / "v_goal_reach.json").read_bytes()
    (tmp_path / "v_goal_reach.json").write_bytes(data.replace(b"0", b"1", 1))
    monkeypatch.setattr(workloads, "DATA", tmp_path)
    with pytest.raises(workloads.CheckError, match="SHA-256"):
        workloads.load_stored_prior("v_goal_reach.json",
                                    workloads.load_goldens())


def test_self_times_add_up_to_the_root_span(tmp_path):
    tracer = spans.Tracer()
    w = small("ppo-grid-qprior")
    with tracer.installed():
        run.run_op(w, 5, tmp_path, {})
    arrays = tracer.span_arrays()
    stats = spans.span_stats(**arrays)
    root = np.flatnonzero(arrays["parent"] == -1)
    assert [tracer.names[arrays["name_id"][i]] for i in root] == ["cli.main"]
    total_self = sum(s for _, _, s in stats.values())
    assert total_self == pytest.approx(stats["cli.main"][1], rel=1e-9)
