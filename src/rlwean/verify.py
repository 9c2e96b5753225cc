"""Oracle verification suite: unbiasedness, variance reduction, the
Q-to-value identity, MLP gradient checks, and weaning-schedule exactness.

Sample sizes: quick uses 20k trajectories per check, full uses 200k.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .envs import EnvConfig, TabularModel, as_tabular
from .nets import MlpModel, backward, forward, init_mlp, single_blas_thread
from .oracle import (exact_policy_gradient, exact_value, gradient_variance,
                     q_from_v, random_tabular_policy)
from .policies import softmax
from .priors import WeaningSchedule, weaning_weight

GRAD_CHECK_DIMS = [4, 8, 8, 2]
GRAD_CHECK_DRAWS = 50
FD_STEP = 1e-5
REL_ERR_FLOOR = 1e-8


@dataclass
class CheckResult:
    name: str
    passed: bool
    statistic: float
    threshold: float
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"[{status}] {self.name}: statistic={self.statistic:.6g} "
                f"threshold={self.threshold:.6g} {self.detail}".rstrip())


def demo_mdp() -> TabularModel:
    """2-step, 2-state/2-action MDP, small enough to check by hand."""
    p = np.zeros((2, 2, 2))
    p[0, 0, 0] = 1.0  # action 0: stay
    p[1, 0, 1] = 1.0
    p[0, 1, 1] = 1.0  # action 1: switch
    p[1, 1, 0] = 1.0
    r = np.array([[0.0, 1.0],
                  [2.0, 0.0]])
    init = np.array([1.0, 0.0])
    return TabularModel(p, r, init, 2)


def demo_logits() -> np.ndarray:
    return np.array([[0.3, -0.2],
                     [0.1, 0.4]])


def _rel_l2(estimate: np.ndarray, exact: np.ndarray) -> float:
    return float(np.linalg.norm(estimate - exact) / np.linalg.norm(exact))


def _cosine(a: np.ndarray, b: np.ndarray) -> float:
    return float(a.ravel() @ b.ravel()
                 / (np.linalg.norm(a) * np.linalg.norm(b)))


def unbiasedness_checks(n_samples: int) -> list[CheckResult]:
    """Sample mean of baseline-subtracted estimates vs the exact gradient
    by dynamic programming, for each baseline configuration."""
    model = demo_mdp()
    logits = demo_logits()
    exact = exact_policy_gradient(model, logits, 1.0)

    v_current = exact_value(model, softmax(logits), 1.0)
    rng_prior = np.random.default_rng(7)
    prior_policy = random_tabular_policy(2, 2, rng_prior)
    v_prior = exact_value(model, prior_policy, 1.0)
    baselines = {
        "none": None,
        "current-V": v_current,
        "prior-V": v_prior,
        "combined-w0.5": 0.5 * v_current + 0.5 * v_prior,
    }
    results = []
    for i, (name, b) in enumerate(baselines.items()):
        rng = np.random.default_rng(i)
        mean, _, _ = gradient_variance(model, logits, b, n_samples, rng)
        rel = _rel_l2(mean, exact)
        cos = _cosine(mean, exact)
        results.append(CheckResult(
            f"unbiasedness[{name}] rel-L2", rel < 0.05, rel, 0.05,
            f"(n={n_samples})"))
        results.append(CheckResult(
            f"unbiasedness[{name}] cosine", cos > 0.99, cos, 0.99))
    return results


def variance_reduction_check(n_samples: int) -> CheckResult:
    """Covariance trace with the exact V^pi baseline must sit more than
    3 combined jackknife standard errors below the no-baseline trace."""
    model = demo_mdp()
    logits = demo_logits()
    v_pi = exact_value(model, softmax(logits), 1.0)
    _, trace_none, se_none = gradient_variance(
        model, logits, None, n_samples, np.random.default_rng(100))
    _, trace_v, se_v = gradient_variance(
        model, logits, v_pi, n_samples, np.random.default_rng(101))
    margin = 3.0 * float(np.hypot(se_none, se_v))
    reduction = trace_none - trace_v
    return CheckResult("variance-reduction (trace gap vs 3 SE)",
                       reduction > margin, reduction, margin,
                       f"(none={trace_none:.4g}, V={trace_v:.4g})")


def q_to_value_identity_check() -> CheckResult:
    """sum_a pi(a|s) Q^pi(s,a) == V^pi per state, within 1e-10."""
    rng = np.random.default_rng(3)
    worst = 0.0
    for cfg in (EnvConfig("chain", horizon=64),
                EnvConfig("windy-grid", wind_enabled=True, wind_strength=0.3,
                          horizon=64)):
        model = as_tabular(cfg)
        for _ in range(20):
            policy = random_tabular_policy(model.state_count,
                                           model.action_count, rng)
            v = exact_value(model, policy, 0.99)
            q = q_from_v(model, v, 0.99)
            err = float(np.max(np.abs(np.sum(policy * q, axis=1) - v)))
            worst = max(worst, err)
    return CheckResult("q-to-value identity max |sum pi*Q - V|",
                       worst < 1e-10, worst, 1e-10)


def perturbed_models(model: MlpModel, step: float) -> MlpModel:
    """The 2P nets of a central-difference check as one stacked model
    (weights (2P, out, in), biases (2P, 1, out)): net j has flat parameter
    j (MlpModel.flat order) raised by `step`, net P + j has it
    lowered. Memory is O(P^2)."""
    flat = model.flat
    j = np.arange(flat.size)
    thetas = np.tile(flat, (2 * flat.size, 1))
    thetas[j, j] += step
    thetas[flat.size + j, j] -= step
    params = model.weights + model.biases
    blocks = np.split(thetas, np.cumsum([p.size for p in params])[:-1], axis=1)
    stacked = [block.reshape((len(thetas),) + (1,) * (2 - p.ndim) + p.shape)
               for block, p in zip(blocks, params)]
    n = len(model.weights)
    return MlpModel(stacked[:n], stacked[n:])


def mlp_gradient_check() -> CheckResult:
    """backward() vs central finite differences on random nets; each draw
    evaluates all its perturbed nets in one stacked forward."""
    rng = np.random.default_rng(11)
    errors = []
    for _ in range(GRAD_CHECK_DRAWS):
        model = init_mlp(GRAD_CHECK_DIMS, rng)
        x = rng.standard_normal(GRAD_CHECK_DIMS[0])
        gout = rng.standard_normal(GRAD_CHECK_DIMS[-1])
        analytic = backward(model, x[None, :], gout[None, :]).flat
        outputs = forward(perturbed_models(model, FD_STEP), x[None, None, :])
        up, down = np.split((outputs @ gout)[:, 0], 2)
        fd = (up - down) / (2.0 * FD_STEP)
        denom = np.maximum(np.maximum(np.abs(fd), np.abs(analytic)),
                           REL_ERR_FLOOR)
        errors.append(np.max(np.abs(fd - analytic) / denom))
    worst = float(np.max(errors))  # NaN stays NaN and fails
    return CheckResult("mlp gradient check max rel err", worst < 1e-4,
                       worst, 1e-4, f"({GRAD_CHECK_DRAWS} draws)")


def schedule_checks() -> list[CheckResult]:
    fixed = WeaningSchedule("fixed", 0.9)
    fixed_ok = all(weaning_weight(fixed, t) == 0.9
                   for t in (0, 1, 10_000, 10_000_000))
    interval = 1000
    decay = WeaningSchedule("step_decay", 0.5, 0.1, interval)
    expected = {0: 0.5, 1: 0.4, 2: 0.3, 3: 0.2, 4: 0.1, 5: 0.0, 6: 0.0,
                50: 0.0, 100: 0.0}
    decay_ok = all(weaning_weight(decay, k * interval) == e
                   for k, e in expected.items())
    return [
        CheckResult("schedule fixed(0.9) exactness", fixed_ok,
                    float(fixed_ok), 1.0),
        CheckResult("schedule step_decay boundary exactness", decay_ok,
                    float(decay_ok), 1.0),
    ]


def run_verification(level: str) -> list[CheckResult]:
    """Full oracle property suite; returns one result per check. It runs on
    one OpenBLAS thread: its large products (the (n, S A) estimates times
    their sum) run no faster on two, and the bits are the same."""
    if level not in ("quick", "full"):
        raise ValueError(f"unknown verification level {level!r}")
    n = 20_000 if level == "quick" else 200_000
    with single_blas_thread():
        results = unbiasedness_checks(n)
        results.append(variance_reduction_check(n))
        results.append(q_to_value_identity_check())
        results.append(mlp_gradient_check())
        results += schedule_checks()
    return results
