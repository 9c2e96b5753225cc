import hashlib

import numpy as np
import pytest

from rlwean import verify
from rlwean.nets import _openblas_threads, forward, init_mlp
from rlwean.oracle import gradient_variance
from rlwean.verify import FD_STEP, mlp_gradient_check, run_verification

# SHA-256 of the joined result lines, recorded before the oracle path was
# vectorized; a speed-up must leave every printed statistic as it was.
VERIFY_GOLDENS = {
    "quick": "486902debae58726a87c6322e452ce7f4c6df8021063773a8a98cbd57231923d",
    "full": "1e2e54c151e79fe4a8d091aac540e2bf712094bdd07bbcf2bc11234e40623f1a",
}


@pytest.mark.parametrize("level", ["quick", "full"])
def test_verification_lines_match_golden(level):
    text = "\n".join(r.line() for r in run_verification(level))
    assert hashlib.sha256(text.encode()).hexdigest() == VERIFY_GOLDENS[level]


def reference_fd_outputs(model, x, gout):
    """The per-parameter loop the stacked check replaced: output . gout
    with each parameter raised, then lowered, by FD_STEP."""
    up, down = [], []
    for p in model.weights + model.biases:
        flat_p = p.reshape(-1)
        for j in range(flat_p.size):
            orig = flat_p[j]
            flat_p[j] = orig + FD_STEP
            up.append(float(forward(model, x) @ gout))
            flat_p[j] = orig - FD_STEP
            down.append(float(forward(model, x) @ gout))
            flat_p[j] = orig
    return np.array(up + down)


@pytest.mark.parametrize("dims", [[4, 8, 8, 2], [3, 16, 1], [2, 12, 5, 4]])
def test_stacked_fd_outputs_match_per_parameter_loop(dims):
    rng = np.random.default_rng(12)
    for _ in range(3):
        model = init_mlp(dims, rng)
        x = rng.standard_normal(dims[0])
        gout = rng.standard_normal(dims[-1])
        stacked = verify.perturbed_models(model, FD_STEP)
        outputs = forward(stacked, x[None, None, :])
        assert outputs.shape == (len(stacked.weights[0]), 1, dims[-1])
        np.testing.assert_array_equal((outputs @ gout)[:, 0],
                                      reference_fd_outputs(model, x, gout))


@pytest.mark.parametrize("factor", [1.01, np.nan])
def test_gradient_check_catches_a_wrong_backward(monkeypatch, factor):
    def scaled_backward(model, x, output_gradient, activations=None):
        grads = verify_backward(model, x, output_gradient, activations)
        grads.scale(factor)
        return grads

    verify_backward = verify.backward
    assert mlp_gradient_check().passed
    monkeypatch.setattr(verify, "backward", scaled_backward)
    result = mlp_gradient_check()
    assert not result.passed
    assert np.isnan(result.statistic) or result.statistic > 1e-3


def test_verification_runs_on_one_blas_thread(monkeypatch):
    if _openblas_threads() is None:
        pytest.skip("numpy does not bundle OpenBLAS")
    get, _ = _openblas_threads()
    before, seen = get(), []

    def variance_spy(*args):
        seen.append(get())
        return gradient_variance(*args)

    monkeypatch.setattr(verify, "gradient_variance", variance_spy)
    run_verification("quick")
    assert seen == [1] * 6  # four unbiasedness checks, two variance traces
    assert get() == before

    def failing_variance(*args):
        seen.append(get())
        raise RuntimeError

    monkeypatch.setattr(verify, "gradient_variance", failing_variance)
    with pytest.raises(RuntimeError):
        run_verification("quick")
    assert seen[-1] == 1 and get() == before
