"""The benchmark's calls into rlwean.

`bench/spans.py` replaces `vars(owner)[name]` for every entry of its SITES
table, so renaming or unbinding one of those names breaks traced benchmark
runs. These tests read the table and check that every site still resolves
and that no module imports a site it never calls. A third runs each
workload's set-up in `bench/workloads.py` and parses the command line it
gives `rlwean`, and a fourth traces a small `train` to check what the env
spans count. They change nothing under `bench/`.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import numpy as np

from rlwean.cli import build_parser
from rlwean.envs import EnvConfig, _BaseEnv
from rlwean.ppo import TrainConfig, train

BENCH = Path(__file__).resolve().parent.parent / "bench"
SPANS = BENCH / "spans.py"

# Imported sites their module does not call, kept only because bench/spans.py
# patches them: ROADMAP item 9 deletes them once their sites are dropped.
IDLE_IMPORTS = {("rlwean.policies", "forward"),
                ("rlwean.scenarios", "save_artifact"),
                ("rlwean.cli", "train"), ("rlwean.cli", "dqn_train"),
                ("rlwean.cli", "export_prior"),
                ("rlwean.cli", "save_artifact")}


def load_bench_module(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_spans():
    return load_bench_module("bench_spans", SPANS)


def test_every_traced_site_resolves():
    spans = load_spans()
    missing = []
    for module_name, attr, _, _ in spans.SITES:
        try:
            owner, key = spans._owner(module_name, attr)
        except (ImportError, AttributeError):
            missing.append(f"{module_name}.{attr}")
            continue
        if not callable(vars(owner).get(key)):
            missing.append(f"{module_name}.{attr}")
    assert not missing, f"benchmark sites no longer bound: {missing}"


def test_every_imported_site_is_called():
    """A site bound by import times only the calls its own module makes, so
    one the module imports and never calls always reads zero."""
    idle = set()
    for module_name, attr, _, _ in load_spans().SITES:
        if "." in attr:  # a method, timed wherever it is called
            continue
        source = Path(importlib.import_module(module_name).__file__)
        tree = ast.parse(source.read_text())
        imported = {alias.asname or alias.name for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom)
                    for alias in node.names}
        called = {node.func.id for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Name)}
        if attr in imported and attr not in called:
            idle.add((module_name, attr))
    assert not idle - IDLE_IMPORTS, \
        f"imported benchmark sites never called: {sorted(idle - IDLE_IMPORTS)}"


def test_every_workload_prepares_and_parses(tmp_path):
    """What each benchmark workload calls in rlwean before its first op: its
    set-up, and the command line it hands to `rlwean.cli.main`."""
    workloads = load_bench_module("bench_workloads", BENCH / "workloads.py")
    goldens = workloads.load_goldens()
    for workload in workloads.WORKLOADS.values():
        workload.prepare(goldens)
        args = build_parser().parse_args(workload.argv(1, tmp_path))
        assert callable(args.func), workload.name


def test_env_reset_spans_count_bank_starts_and_restarts(monkeypatch):
    """`envs.reset.calls` counts one span per bank made plus one per step
    in which some member finished, each restart inside its step's span;
    a step that restarted members without `reset` would read fewer."""
    finishing_steps = 0
    step = _BaseEnv.step

    def counted_step(self, actions):
        nonlocal finishing_steps
        result = step(self, actions)
        finishing_steps += bool((result.terminated | result.truncated).any())
        return result

    monkeypatch.setattr(_BaseEnv, "step", counted_step)
    tracer = load_spans().Tracer()
    with tracer.installed():
        train(EnvConfig("chain", horizon=8),
              TrainConfig(num_envs=4, steps_per_rollout=64, minibatch_size=32,
                          update_epochs=1), 256, seed=0)
    spans = tracer.span_arrays()
    names = list(spans["names"])
    ids, parent = spans["name_id"], spans["parent"]
    resets = np.flatnonzero(ids == names.index("envs.reset"))
    assert finishing_steps > 0
    assert len(resets) == 1 + finishing_steps
    assert (ids[parent[resets[1:]]] == names.index("envs.step")).all()
