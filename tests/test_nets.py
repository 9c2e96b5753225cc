import copy
import pickle

import numpy as np
import pytest

from rlwean import nets
from rlwean.nets import (AdamState, GradientBuffer, MlpModel, adam_update,
                         backward, clip_grad_norm, forward, init_adam,
                         init_mlp, share_parameters, single_blas_thread)


def zero_grads(model: MlpModel) -> GradientBuffer:
    return GradientBuffer(model.weights, model.biases,
                          np.zeros_like(model.flat))


def test_zero_network_outputs_zero():
    model = MlpModel([np.zeros((4, 3)), np.zeros((2, 4))],
                     [np.zeros(4), np.zeros(2)])
    np.testing.assert_array_equal(forward(model, np.ones(3)), np.zeros(2))


def test_single_linear_layer_is_affine():
    w = np.array([[2.0, -1.0], [0.5, 3.0]])
    b = np.array([1.0, -2.0])
    model = MlpModel([w], [b])
    x = np.array([3.0, 4.0])
    np.testing.assert_allclose(forward(model, x), w @ x + b)


def test_two_layer_hand_computation():
    w1 = np.array([[1.0, 0.0], [0.0, 1.0]])
    b1 = np.array([0.5, -0.5])
    w2 = np.array([[1.0, 2.0]])
    b2 = np.array([0.25])
    model = MlpModel([w1, w2], [b1, b2])
    x = np.array([0.2, 0.8])
    h = np.tanh(w1 @ x + b1)
    expected = w2 @ h + b2
    np.testing.assert_allclose(forward(model, x), expected, atol=1e-15)


def test_batch_forward_matches_loop():
    rng = np.random.default_rng(0)
    model = init_mlp([4, 8, 3], rng)
    xs = rng.standard_normal((10, 4))
    batch = forward(model, xs)
    for i in range(10):
        np.testing.assert_allclose(batch[i], forward(model, xs[i]))


def test_stacked_forward_matches_each_net():
    rng = np.random.default_rng(14)
    dims = [3, 7, 5, 2]
    nets = [init_mlp(dims, rng) for _ in range(4)]
    stacked = MlpModel(
        [np.stack([m.weights[l] for m in nets]) for l in range(3)],
        [np.stack([m.biases[l] for m in nets])[:, None, :] for l in range(3)])
    for rows in (1, 6):
        xs = rng.standard_normal((4, rows, 3))
        out = forward(stacked, xs)
        shared = forward(stacked, xs[:1])  # one batch for every net
        for k, net in enumerate(nets):
            np.testing.assert_array_equal(out[k], forward(net, xs[k]))
            np.testing.assert_array_equal(shared[k], forward(net, xs[0]))
    assert stacked.layer_dims == dims


def test_widths_come_from_the_weights():
    model = MlpModel([np.zeros((7, 5)), np.zeros((3, 7))],
                     [np.zeros(7), np.zeros(3)])
    assert model.layer_dims == [5, 7, 3]
    assert type(model.layer_dims) is list
    assert all(type(d) is int for d in model.layer_dims)
    assert (model.input_dim, model.output_dim) == (5, 3)
    assert init_mlp([2, 64, 64, 4], np.random.default_rng(0)).layer_dims \
        == [2, 64, 64, 4]


def test_backward_matches_finite_differences():
    rng = np.random.default_rng(1)
    model = init_mlp([4, 8, 8, 2], rng)
    x = rng.standard_normal(4)
    gout = rng.standard_normal(2)
    grads = backward(model, x[None, :], gout[None, :])
    h = 1e-5
    for p, g in zip(model.weights + model.biases,
                    grads.weights + grads.biases):
        flat_p, flat_g = p.reshape(-1), g.reshape(-1)
        for j in range(flat_p.size):
            orig = flat_p[j]
            flat_p[j] = orig + h
            up = float(forward(model, x) @ gout)
            flat_p[j] = orig - h
            down = float(forward(model, x) @ gout)
            flat_p[j] = orig
            fd = (up - down) / (2 * h)
            assert abs(fd - flat_g[j]) <= 1e-4 * max(abs(fd), 1e-8)


def test_batched_backward_sums_over_batch():
    rng = np.random.default_rng(2)
    model = init_mlp([3, 5, 2], rng)
    xs = rng.standard_normal((6, 3))
    gs = rng.standard_normal((6, 2))
    batched = backward(model, xs, gs)
    summed = zero_grads(model)
    for x, g in zip(xs, gs):
        single = backward(model, x[None, :], g[None, :])
        for dw, s in zip(single.weights, summed.weights):
            s += dw
        for db, s in zip(single.biases, summed.biases):
            s += db
    for a, b in zip(batched.weights + batched.biases,
                    summed.weights + summed.biases):
        np.testing.assert_allclose(a, b, atol=1e-12)


def test_backward_reuses_forward_activations():
    # the activations a forward leaves behind give the same bits as the
    # forward pass backward would otherwise run itself
    rng = np.random.default_rng(7)
    model = init_mlp([4, 16, 16, 3], rng)
    for x, g in ((rng.standard_normal((32, 4)), rng.standard_normal((32, 3))),
                 (rng.standard_normal((1, 4)), rng.standard_normal((1, 3)))):
        acts = []
        out = forward(model, x, acts)
        assert len(acts) == 4 and acts[-1] is out
        reused = backward(model, x, g, acts)
        fresh = backward(model, x, g)
        assert reused.flat.tobytes() == fresh.flat.tobytes()
    # the per-layer arrays are views of the one flat vector
    reused.weights[0][0, 0] = np.inf
    assert not reused.is_finite()


def test_zero_output_gradient_gives_zero_buffer():
    rng = np.random.default_rng(3)
    model = init_mlp([3, 4, 2], rng)
    grads = backward(model, rng.standard_normal((1, 3)), np.zeros((1, 2)))
    assert grads.global_norm() == 0.0


def test_gradient_linearity_in_output_gradient():
    rng = np.random.default_rng(4)
    model = init_mlp([3, 4, 2], rng)
    x = rng.standard_normal((1, 3))
    g = rng.standard_normal((1, 2))
    g1 = backward(model, x, g)
    g2 = backward(model, x, 2.0 * g)
    for a, b in zip(g1.weights + g1.biases, g2.weights + g2.biases):
        np.testing.assert_allclose(2.0 * a, b, atol=1e-12)


def test_backward_takes_a_batch_only():
    model = init_mlp([3, 3], np.random.default_rng(11))
    x, g = np.ones((2, 3)), np.ones((2, 3))
    for bad_x, bad_g in ((x[0], g[0]), (x, g[:1]), (x[:, :2], g[:, :2])):
        with pytest.raises(ValueError, match="backward takes a batch"):
            backward(model, bad_x, bad_g)


def test_clip_grad_norm():
    buf = GradientBuffer([np.array([[3.0, 4.0]])], [np.zeros(1)])
    norm = clip_grad_norm(buf, 1.0)
    assert norm == pytest.approx(5.0)
    assert buf.global_norm() == pytest.approx(1.0)
    # under the cap: untouched
    buf2 = GradientBuffer([np.array([[0.3, 0.4]])], [np.zeros(1)])
    clip_grad_norm(buf2, 1.0)
    assert buf2.global_norm() == pytest.approx(0.5)


def test_adam_zero_gradient_leaves_params():
    rng = np.random.default_rng(5)
    model = init_mlp([2, 3, 1], rng)
    before = model.copy()
    state = init_adam(model, 1e-3)
    adam_update(model, state, zero_grads(model))
    assert state.step_count == 1
    for a, b in zip(model.weights + model.biases,
                    before.weights + before.biases):
        np.testing.assert_array_equal(a, b)


def test_adam_first_step_size():
    # with bias correction, the first step has magnitude ~lr in -sign(g)
    model = MlpModel([np.array([[1.0]])], [np.array([0.0])])
    state = init_adam(model, 0.01)
    grads = GradientBuffer([np.array([[2.5]])], [np.array([0.0])])
    adam_update(model, state, grads)
    assert model.weights[0][0, 0] == pytest.approx(1.0 - 0.01, abs=1e-6)


def test_adam_minimizes_quadratic():
    # loss = 0.5 (w - 3)^2 on a single scalar weight
    model = MlpModel([np.array([[0.0]])], [np.array([0.0])])
    state = init_adam(model, 0.05)
    losses = []
    for _ in range(500):
        w = model.weights[0][0, 0]
        losses.append(0.5 * (w - 3.0) ** 2)
        grads = GradientBuffer([np.array([[w - 3.0]])], [np.array([0.0])])
        adam_update(model, state, grads)
    assert losses[-1] < 1e-3 < losses[0]
    assert np.mean(losses[-50:]) < np.mean(losses[:50])


def test_adam_rejects_nonfinite_gradients():
    rng = np.random.default_rng(6)
    model = init_mlp([2, 2], rng)
    before = model.copy()
    state = init_adam(model, 1e-3)
    grads = zero_grads(model)
    grads.weights[0][0, 0] = np.nan
    with pytest.raises(FloatingPointError):
        adam_update(model, state, grads)
    assert state.step_count == 0
    for a, b in zip(model.weights + model.biases,
                    before.weights + before.biases):
        np.testing.assert_array_equal(a, b)


def test_init_determinism_and_bounds():
    a = init_mlp([4, 8, 2], np.random.default_rng(42), output_scale=0.01)
    b = init_mlp([4, 8, 2], np.random.default_rng(42), output_scale=0.01)
    for x, y in zip(a.weights + a.biases, b.weights + b.biases):
        np.testing.assert_array_equal(x, y)
    assert np.max(np.abs(a.weights[0])) <= np.sqrt(1.0 / 4)
    assert np.max(np.abs(a.weights[1])) <= 0.01 * np.sqrt(1.0 / 8)
    with pytest.raises(ValueError):
        init_mlp([4], np.random.default_rng(0))


def reference_forward_cached(model, x):
    """The per-layer forward kept from before parameters were one flat
    vector: a fresh array for the product, the bias add and the tanh."""
    acts, h = [x], x
    last = len(model.weights) - 1
    for l, (w, b) in enumerate(zip(model.weights, model.biases)):
        h = h @ w.mT + b
        if l != last:
            h = np.tanh(h)
        acts.append(h)
    return acts


def reference_backward(model, x, g):
    """Kept reference: per-layer gradients with @, then concatenated."""
    acts = reference_forward_cached(model, x)
    n_layers = len(model.weights)
    w_grads, b_grads = [None] * n_layers, [None] * n_layers
    delta = g
    for l in range(n_layers - 1, -1, -1):
        w_grads[l] = delta.T @ acts[l]
        b_grads[l] = delta.sum(axis=0)
        if l > 0:
            delta = (delta @ model.weights[l]) * (1.0 - acts[l] ** 2)
    return np.concatenate([a.ravel() for a in w_grads + b_grads])


def reference_global_norm(arrays):
    total = 0.0
    for a in arrays:
        total += float(np.sum(a * a))
    return float(np.sqrt(total))


def reference_adam_update(params, m, v, t, g, lr, b1=0.9, b2=0.999,
                          eps=1e-8):
    """Kept reference: whole-vector moments, the step split per array."""
    c1 = 1.0 - b1 ** t
    c2 = 1.0 - b2 ** t
    m *= b1
    m += (1.0 - b1) * g
    v *= b2
    v += (1.0 - b2) * g * g
    step = lr * (m / c1) / (np.sqrt(v / c2) + eps)
    start = 0
    for p in params:
        p -= step[start:start + p.size].reshape(p.shape)
        start += p.size


def signed_zero_case(dims, rows, seed):
    """A net with negated rows of weights, inputs and output gradients
    with exact zeros, so products of 0 and negative weights give -0.0.
    numpy's sums start from +0.0, so gradients themselves never hold -0.0;
    the bytes still show any change of a product or its order."""
    rng = np.random.default_rng(seed)
    model = init_mlp(dims, rng)
    for w in model.weights:
        w[::3] = -np.abs(w[::3])
    x = rng.standard_normal((rows, dims[0]))
    x[::4] = 0.0
    g = rng.standard_normal((rows, dims[-1]))
    g[::3] = 0.0
    g[:, ::2] *= -1.0
    if rows > 1:
        g[1] = -0.0
    return model, x, g


def _cached(model, x):
    acts = []
    forward(model, x, acts)
    return acts


@pytest.mark.parametrize("dims,rows", [
    ([2, 64, 64, 1], 256),   # the value head
    ([2, 64, 64, 1], 1),     # np.dot's scalar path on its (1, 1) delta
    ([1, 64, 64, 2], 256),   # chain's obs-dim-1 input
    ([2, 64, 64, 4], 1),
    ([2, 64, 64, 4], 128),
])
def test_backward_matches_kept_reference_bytes(dims, rows):
    model, x, g = signed_zero_case(dims, rows, seed=rows + dims[0])
    for got_act, ref_act in zip(_cached(model, x),
                                reference_forward_cached(model, x)):
        assert got_act.tobytes() == ref_act.tobytes()
    expected = reference_backward(model, x, g)
    assert backward(model, x, g).flat.tobytes() == expected.tobytes()
    acts = []
    forward(model, x, acts)
    grads = backward(model, x, g, acts)
    assert grads.flat.tobytes() == expected.tobytes()
    assert grads.global_norm() == reference_global_norm(
        grads.weights + grads.biases)


def test_adam_matches_kept_reference_bytes():
    rng = np.random.default_rng(21)
    model, x, _ = signed_zero_case([2, 64, 64, 4], 32, seed=22)
    ref_params = [a.copy() for a in model.weights + model.biases]
    ref_m, ref_v = np.zeros(model.flat.size), np.zeros(model.flat.size)
    state = init_adam(model, 2.5e-4)
    for t in range(1, 51):
        g = rng.standard_normal((32, 4))
        g[::5] = 0.0
        grads = backward(model, x, g)
        clip_grad_norm(grads, 0.5)
        adam_update(model, state, grads)
        reference_adam_update(ref_params, ref_m, ref_v, t, grads.flat, 2.5e-4)
        assert state.first_moment.tobytes() == ref_m.tobytes()
        assert state.second_moment.tobytes() == ref_v.tobytes()
        for a, b in zip(model.weights + model.biases, ref_params):
            assert a.tobytes() == b.tobytes()


def assert_params_share_flat(model):
    for a in model.weights + model.biases:
        assert np.shares_memory(a, model.flat)


def test_parameters_are_views_of_one_flat_vector(tmp_path):
    from rlwean.priors import PriorArtifact, load_artifact, save_artifact
    from rlwean.verify import perturbed_models
    model = init_mlp([3, 5, 2], np.random.default_rng(8))
    assert model.flat.dtype == np.float64
    assert model.flat.size == sum(a.size for a in model.weights + model.biases)
    assert_params_share_flat(model)
    np.testing.assert_array_equal(
        model.flat, np.concatenate([a.ravel() for a in
                                    model.weights + model.biases]))

    clone = model.copy()
    assert_params_share_flat(clone)
    assert not np.shares_memory(clone.flat, model.flat)
    before = model.flat.copy()
    clone.weights[0][0, 0] += 1.0
    clone.flat[-1] = 7.0
    np.testing.assert_array_equal(model.flat, before)

    path = tmp_path / "v.json"
    save_artifact(PriorArtifact(model), path)
    loaded = load_artifact(path).network
    assert_params_share_flat(loaded)
    assert loaded.flat.tobytes() == model.flat.tobytes()

    stacked = perturbed_models(model, 1e-3)
    assert_params_share_flat(stacked)
    # a write to flat is a write to the net forward evaluates
    model.flat[:] = 0.0
    np.testing.assert_array_equal(forward(model, np.ones(3)), np.zeros(2))


@pytest.mark.parametrize("clone", [
    copy.deepcopy, lambda obj: pickle.loads(pickle.dumps(obj))],
    ids=["deepcopy", "pickle"])
def test_copies_keep_their_parameter_views(clone):
    rng = np.random.default_rng(10)
    model = init_mlp([3, 5, 2], rng)
    x = rng.standard_normal((4, 3))
    grads = backward(model, x, rng.standard_normal((4, 2)))
    copied, copied_grads = clone(model), clone(grads)
    assert_params_share_flat(copied)
    assert not np.shares_memory(copied.flat, model.flat)
    assert copied.flat.tobytes() == model.flat.tobytes()
    for a in copied_grads.weights + copied_grads.biases:
        assert np.shares_memory(a, copied_grads.flat)
    assert copied_grads.flat.tobytes() == grads.flat.tobytes()
    before = copied.weights[0].copy()
    adam_update(copied, init_adam(copied, 1e-2), copied_grads)
    assert not np.array_equal(copied.weights[0], before)
    np.testing.assert_array_equal(
        copied.flat, np.concatenate([a.ravel() for a in
                                     copied.weights + copied.biases]))


def test_backward_results_never_alias():
    rng = np.random.default_rng(9)
    model = init_mlp([3, 6, 2], rng)
    x = rng.standard_normal((5, 3))
    first = backward(model, x, rng.standard_normal((5, 2)))
    second = backward(model, x, rng.standard_normal((5, 2)))
    kept = second.flat.copy()
    assert not np.shares_memory(first.flat, second.flat)
    assert not np.shares_memory(first.flat, model.flat)
    clip_grad_norm(first, 1e-6 * first.global_norm())
    np.testing.assert_array_equal(second.flat, kept)


def test_shared_parameters_are_copies_in_one_vector():
    rng = np.random.default_rng(11)
    first, second = init_mlp([3, 5, 2], rng), init_mlp([3, 4, 1], rng)
    grads = GradientBuffer(second.weights, second.biases)
    joint, *copies = share_parameters(first, second, grads)
    assert [type(m) for m in [joint] + copies] == \
        [MlpModel, MlpModel, MlpModel, GradientBuffer]
    assert joint.flat.tobytes() == np.concatenate(
        [first.flat, second.flat, grads.flat]).tobytes()
    for copied, original in zip(copies, (first, second, grads)):
        assert copied.flat.base is joint.flat
        assert copied.layer_dims == original.layer_dims
        assert copied.flat.tobytes() == original.flat.tobytes()
        assert not np.shares_memory(copied.flat, original.flat)
        assert_params_share_flat(copied)
    # a step on the whole vector is a step on every copy
    joint.flat -= 1.0
    for copied, original in zip(copies, (first, second, grads)):
        for a, b in zip(copied.weights + copied.biases,
                        original.weights + original.biases):
            np.testing.assert_array_equal(a, b - 1.0)


def test_backward_into_a_given_buffer_keeps_the_bits():
    rng = np.random.default_rng(12)
    model = init_mlp([3, 6, 2], rng)
    x, g = rng.standard_normal((5, 3)), rng.standard_normal((5, 2))
    # a buffer that starts part-way into its vector
    _, _, out = share_parameters(init_mlp([2, 2], rng),
                                 GradientBuffer(model.weights, model.biases))
    got = backward(model, x, g, out=out)
    assert got is out
    assert out.flat.tobytes() == backward(model, x, g).flat.tobytes()


def test_single_blas_thread_keeps_bits_and_restores_the_count():
    threads = nets._openblas_threads()
    if threads is None:
        pytest.skip("numpy does not bundle OpenBLAS")
    get, _ = threads
    before = get()
    rng = np.random.default_rng(10)
    # large enough for OpenBLAS to split the GEMM when it has threads
    a, b = rng.standard_normal((256, 64)), rng.standard_normal((64, 64))
    kept = [a @ b, a.T @ a, np.dot(a, b)]
    with single_blas_thread():
        assert get() == 1
        for got, want in zip([a @ b, a.T @ a, np.dot(a, b)], kept):
            np.testing.assert_array_equal(got, want)
    assert get() == before
    with pytest.raises(RuntimeError), single_blas_thread():
        raise RuntimeError
    assert get() == before
