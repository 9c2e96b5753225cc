"""Span tracing for the benchmark's traced runs.

Wrappers are installed around the public functions of each rlwean module,
in the namespace of every module that calls them (modules bind imports by
name, so `rlwean.ppo.forward` and `rlwean.dqn.forward` are separate
bindings of `rlwean.nets.forward`). Each call records one span: name,
start, end and the span that was open when it began. Spans are kept in
memory as flat arrays and written out when the run ends. Counters that
need a call's arguments or result (rows, FLOPs, trajectories, clip
fractions) are updated by the same wrappers, after the span has closed.

Nothing under `src/` is modified: every wrapper is restored when the
`installed()` context exits.
"""

from __future__ import annotations

import functools
import importlib
import statistics
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np


def _layer_flops(model) -> int:
    dims = model.layer_dims
    return sum(a * b for a, b in zip(dims, dims[1:]))


def _rows(x) -> int:
    return len(x) if np.ndim(x) == 2 else 1


def _forward_hook(site):
    def hook(counts, lists, args, kwargs, result):
        model, x = args[0], args[1]
        rows = _rows(x)
        counts["nets.forward.rows"] += rows
        counts["nets.flops"] += 2 * rows * _layer_flops(model)
        if rows == 1:
            counts["nets.forward.single_row_calls"] += 1
            if site == "dqn":
                counts["dqn.greedy_forwards"] += 1
    return hook


def _backward_hook(counts, lists, args, kwargs, result):
    model, x = args[0], args[1]
    rows = _rows(x)
    counts["nets.backward.rows"] += rows
    counts["nets.flops"] += 4 * rows * _layer_flops(model)


def _dqn_adam_hook(counts, lists, args, kwargs, result):
    counts["dqn.train_steps"] += 1


def _prior_eval_hook(counts, lists, args, kwargs, result):
    counts["priors.prior_eval.rows"] += int(np.size(result))


def _ppo_update_hook(counts, lists, args, kwargs, result):
    lists["ppo.clip_fraction"].append(result["clip_fraction"])


def _sample_trajectories_hook(counts, lists, args, kwargs, result):
    alive = result[3]
    counts["oracle.sample_trajectories.trajectories"] += alive.shape[0]
    counts["oracle.alive_slots"] += int(alive.sum())
    counts["oracle.slots"] += alive.size


def _run_verification_hook(counts, lists, args, kwargs, result):
    counts["verify.checks_failed"] += sum(not r.passed for r in result)


def _dqn_train_hook(counts, lists, args, kwargs, result):
    counts["dqn.env_steps"] += args[1].total_timesteps


# (module, attribute in that module, span name, hook). A dotted attribute
# names a method on a class defined in the module.
SITES = [
    ("rlwean.envs", "_BaseEnv.step", "envs.step", None),
    ("rlwean.envs", "_BaseEnv.reset", "envs.reset", None),
    ("rlwean.ppo", "log_softmax", "policies.log_softmax", None),
    ("rlwean.policies", "log_softmax", "policies.log_softmax", None),
    ("rlwean.policies", "softmax", "policies.softmax", None),
    ("rlwean.oracle", "softmax", "policies.softmax", None),
    ("rlwean.verify", "softmax", "policies.softmax", None),
    ("rlwean.ppo", "forward", "nets.forward", _forward_hook("ppo")),
    ("rlwean.priors", "forward", "nets.forward", _forward_hook("priors")),
    ("rlwean.policies", "forward", "nets.forward", _forward_hook("policies")),
    ("rlwean.dqn", "forward", "nets.forward", _forward_hook("dqn")),
    ("rlwean.verify", "forward", "nets.forward", _forward_hook("verify")),
    ("rlwean.ppo", "backward", "nets.backward", _backward_hook),
    ("rlwean.dqn", "backward", "nets.backward", _backward_hook),
    ("rlwean.verify", "backward", "nets.backward", _backward_hook),
    ("rlwean.ppo", "adam_update", "nets.adam_update", None),
    ("rlwean.dqn", "adam_update", "nets.adam_update", _dqn_adam_hook),
    ("rlwean.nets", "GradientBuffer.is_finite", "nets.is_finite", None),
    ("rlwean.ppo", "clip_grad_norm", "nets.clip_grad_norm", None),
    ("rlwean.ppo", "q_to_value_from_probs", "priors.prior_eval",
     _prior_eval_hook),
    ("rlwean.ppo", "prior_value", "priors.prior_eval", _prior_eval_hook),
    ("rlwean.priors", "q_to_value_from_probs", "priors.prior_eval",
     _prior_eval_hook),
    ("rlwean.priors", "prior_value", "priors.prior_eval", _prior_eval_hook),
    ("rlwean.scenarios", "load_artifact", "priors.load_artifact", None),
    ("rlwean.cli", "load_artifact", "priors.load_artifact", None),
    ("rlwean.scenarios", "save_artifact", "priors.save_artifact", None),
    ("rlwean.cli", "save_artifact", "priors.save_artifact", None),
    ("rlwean.dqn", "save_artifact", "priors.save_artifact", None),
    ("rlwean.ppo", "collect_rollout", "ppo.collect_rollout", None),
    ("rlwean.ppo", "compute_returns", "ppo.compute_returns", None),
    ("rlwean.ppo", "compute_advantages", "ppo.compute_advantages", None),
    ("rlwean.ppo", "ppo_update", "ppo.ppo_update", _ppo_update_hook),
    ("rlwean.scenarios", "train", "ppo.train", None),
    ("rlwean.cli", "train", "ppo.train", None),
    ("rlwean.scenarios", "dqn_train", "dqn.dqn_train", _dqn_train_hook),
    ("rlwean.cli", "dqn_train", "dqn.dqn_train", _dqn_train_hook),
    ("rlwean.scenarios", "export_prior", "dqn.export_prior", None),
    ("rlwean.cli", "export_prior", "dqn.export_prior", None),
    ("rlwean.dqn", "ReplayBuffer.add", "dqn.replay.add", None),
    ("rlwean.dqn", "ReplayBuffer.sample", "dqn.replay.sample", None),
    ("rlwean.oracle", "sample_trajectories", "oracle.sample_trajectories",
     _sample_trajectories_hook),
    ("rlwean.verify", "gradient_variance", "oracle.gradient_variance", None),
    ("rlwean.verify", "exact_policy_gradient", "oracle.exact_policy_gradient",
     None),
    ("rlwean.verify", "exact_value", "oracle.exact_value", None),
    ("rlwean.oracle", "exact_value", "oracle.exact_value", None),
    ("rlwean.oracle", "solve_linear", "oracle.solve_linear", None),
    ("rlwean.verify", "mlp_gradient_check", "verify.mlp_gradient_check", None),
    ("rlwean.verify", "unbiasedness_checks", "verify.unbiasedness_checks",
     None),
    ("rlwean.verify", "variance_reduction_check",
     "verify.variance_reduction_check", None),
    ("rlwean.verify", "q_to_value_identity_check",
     "verify.q_to_value_identity_check", None),
    ("rlwean.cli", "run_verification", "verify.run_verification",
     _run_verification_hook),
    ("rlwean.cli", "run_scenario", "scenarios.run_scenario", None),
    ("rlwean.scenarios", "write_curve_csv", "scenarios.write_curve_csv", None),
    ("rlwean.cli", "main", "cli.main", None),
]


def _owner(module_name: str, attr: str):
    owner = importlib.import_module(module_name)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    """In-memory span recorder plus the counters gathered at the same calls."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: Counter = Counter()
        self.lists: defaultdict = defaultdict(list)

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, fn, name: str, hook=None):
        nid = self.intern(name)
        ids, parents, starts, ends = (self.name_id, self.parent, self.start,
                                      self.end)
        stack, counts, lists = self._stack, self.counts, self.lists

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(ids)
            ids.append(nid)
            parents.append(stack[-1])
            starts.append(0.0)
            ends.append(0.0)
            stack.append(i)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                starts[i] = t0
                ends[i] = t1
            if hook is not None:
                hook(counts, lists, args, kwargs, result)
            return result

        return wrapper

    @contextmanager
    def installed(self, sites=SITES):
        """Install a wrapper at every site; restore the originals on exit."""
        saved = []
        try:
            for module_name, attr, name, hook in sites:
                owner, key = _owner(module_name, attr)
                original = vars(owner)[key]
                saved.append((owner, key, original))
                setattr(owner, key, self.wrap(original, name, hook))
            yield self
        finally:
            for owner, key, original in reversed(saved):
                setattr(owner, key, original)

    def span_arrays(self) -> dict:
        return {
            "names": np.array(self.names),
            "name_id": np.frombuffer(self.name_id, dtype=np.int32),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def save(self, path) -> None:
        np.savez_compressed(path, **self.span_arrays())


def span_stats(names, name_id, parent, start, end):
    """Per span name: (calls, total seconds, self seconds).

    A span's self time is its duration minus the durations of its direct
    children. Spans of one thread nest, so children never overlap each
    other and lie inside their parent's interval.
    """
    name_id = np.asarray(name_id, dtype=np.intp)
    parent = np.asarray(parent, dtype=np.intp)
    dur = np.asarray(end, dtype=np.float64) - np.asarray(start,
                                                         dtype=np.float64)
    child = np.zeros_like(dur)
    has_parent = parent >= 0
    np.add.at(child, parent[has_parent], dur[has_parent])
    self_time = dur - child
    n = len(names)
    calls = np.bincount(name_id, minlength=n)
    total = np.bincount(name_id, weights=dur, minlength=n)
    own = np.bincount(name_id, weights=self_time, minlength=n)
    return {name: (int(calls[i]), float(total[i]), float(own[i]))
            for i, name in enumerate(names)}


def iteration_seconds(names, name_id, parent, start, end) -> list[float]:
    """PPO iteration times: from each collect_rollout start to the end of
    the ppo_update that follows it under the same train span."""
    try:
        collect = list(names).index("ppo.collect_rollout")
        update = list(names).index("ppo.ppo_update")
    except ValueError:
        return []
    open_collect = {}
    out = []
    for i, nid in enumerate(name_id):
        if nid == collect:
            open_collect[parent[i]] = start[i]
        elif nid == update and parent[i] in open_collect:
            out.append(end[i] - open_collect.pop(parent[i]))
    return out


# Per-layer metrics reported by a traced run: (name, unit, better).
# ".calls", ".self_s" and ".s" are read from the span of the same prefix;
# the rest are derived in layer_metrics().
PER_LAYER = [
    ("envs.step.calls", "count", "lower"),
    ("envs.step.self_s", "s", "lower"),
    ("envs.reset.calls", "count", "lower"),
    ("envs.reset.self_s", "s", "lower"),
    ("policies.log_softmax.calls", "count", "lower"),
    ("policies.log_softmax.self_s", "s", "lower"),
    ("policies.softmax.self_s", "s", "lower"),
    ("nets.forward.calls", "count", "lower"),
    ("nets.forward.rows", "count", "lower"),
    ("nets.forward.single_row_calls", "count", "lower"),
    ("nets.forward.self_s", "s", "lower"),
    ("nets.backward.calls", "count", "lower"),
    ("nets.backward.rows", "count", "lower"),
    ("nets.backward.self_s", "s", "lower"),
    ("nets.adam_update.calls", "count", "lower"),
    ("nets.adam_update.self_s", "s", "lower"),
    ("nets.is_finite.self_s", "s", "lower"),
    ("nets.clip_grad_norm.calls", "count", "lower"),
    ("nets.clip_grad_norm.self_s", "s", "lower"),
    ("nets.flops", "flop", "lower"),
    ("nets.gflop_per_s", "GFLOP/s", "higher"),
    ("priors.prior_eval.calls", "count", "lower"),
    ("priors.prior_eval.rows", "count", "lower"),
    ("priors.prior_eval.self_s", "s", "lower"),
    ("priors.prior_eval_share", "ratio", "lower"),
    ("priors.load_artifact.s", "s", "lower"),
    ("priors.save_artifact.s", "s", "lower"),
    ("ppo.collect_rollout.calls", "count", "lower"),
    ("ppo.collect_rollout.self_s", "s", "lower"),
    ("ppo.compute_returns.calls", "count", "lower"),
    ("ppo.compute_returns.self_s", "s", "lower"),
    ("ppo.compute_advantages.self_s", "s", "lower"),
    ("ppo.ppo_update.self_s", "s", "lower"),
    ("ppo.train.self_s", "s", "lower"),
    ("ppo.iter_s.p50", "s", "lower"),
    ("ppo.iter_s.p90", "s", "lower"),
    ("ppo.clip_fraction", "ratio", "lower"),
    ("dqn.dqn_train.self_s", "s", "lower"),
    ("dqn.train_steps", "count", "lower"),
    ("dqn.greedy_share", "ratio", "lower"),
    ("dqn.replay.add.self_s", "s", "lower"),
    ("dqn.replay.sample.self_s", "s", "lower"),
    ("oracle.sample_trajectories.calls", "count", "lower"),
    ("oracle.sample_trajectories.trajectories", "count", "lower"),
    ("oracle.sample_trajectories.self_s", "s", "lower"),
    ("oracle.sample_trajectories.alive_share", "ratio", "higher"),
    ("oracle.gradient_variance.self_s", "s", "lower"),
    ("oracle.exact_policy_gradient.calls", "count", "lower"),
    ("oracle.exact_policy_gradient.self_s", "s", "lower"),
    ("oracle.exact_value.calls", "count", "lower"),
    ("oracle.exact_value.self_s", "s", "lower"),
    ("oracle.solve_linear.calls", "count", "lower"),
    ("oracle.solve_linear.self_s", "s", "lower"),
    ("verify.mlp_gradient_check.self_s", "s", "lower"),
    ("verify.unbiasedness_checks.s", "s", "lower"),
    ("verify.variance_reduction_check.s", "s", "lower"),
    ("verify.checks_failed", "count", "lower"),
    ("scenarios.run_scenario.self_s", "s", "lower"),
    ("scenarios.write_curve_csv.self_s", "s", "lower"),
    ("cli.main.self_s", "s", "lower"),
    ("proc.cpu_per_wall", "ratio", "lower"),
    ("trace.overhead_share", "ratio", "lower"),
]


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, cpu_per_wall: float,
                  overhead_share: float) -> dict:
    """Every PER_LAYER metric, from the tracer's spans and counters.

    Totals are over all traced ops of the run. A layer the workload never
    reaches reports 0 calls and 0 seconds; a ratio with nothing to divide
    by reports 0.
    """
    arrays = tracer.span_arrays()
    stats = span_stats(**arrays)
    iters = iteration_seconds(**arrays)
    counts, lists = tracer.counts, tracer.lists

    def span(name, field):
        return stats.get(name, (0, 0.0, 0.0))[field]

    nets_s = span("nets.forward", 2) + span("nets.backward", 2)
    clip = lists["ppo.clip_fraction"]
    derived = {
        "nets.gflop_per_s": _ratio(counts["nets.flops"], nets_s) / 1e9,
        "priors.prior_eval_share": _ratio(span("priors.prior_eval", 0),
                                          span("ppo.compute_advantages", 0)),
        "ppo.iter_s.p50": statistics.median(iters) if iters else 0.0,
        "ppo.iter_s.p90": (statistics.quantiles(iters, n=10)[-1]
                           if len(iters) >= 2 else 0.0),
        "ppo.clip_fraction": statistics.fmean(clip) if clip else 0.0,
        "dqn.greedy_share": _ratio(counts["dqn.greedy_forwards"],
                                   counts["dqn.env_steps"]),
        "oracle.sample_trajectories.alive_share": _ratio(
            counts["oracle.alive_slots"], counts["oracle.slots"]),
        "proc.cpu_per_wall": cpu_per_wall,
        "trace.overhead_share": overhead_share,
    }
    out = {}
    for name, unit, _ in PER_LAYER:
        if name in derived:
            value = derived[name]
        elif name.endswith(".calls"):
            value = span(name[:-len(".calls")], 0)
        elif name.endswith(".self_s"):
            value = span(name[:-len(".self_s")], 2)
        elif name.endswith(".s"):
            value = span(name[:-len(".s")], 1)
        else:
            value = counts[name]
        out[name] = {"value": value, "unit": unit}
    return out
