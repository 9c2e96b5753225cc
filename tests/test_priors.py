import json

import numpy as np
import pytest

from rlwean.cli import main
from rlwean.envs import EnvConfig, as_tabular
from rlwean.errors import CompatibilityError
from rlwean.nets import MlpModel, forward, init_mlp
from rlwean.oracle import exact_value, q_from_v, random_tabular_policy
from rlwean.policies import softmax
from rlwean.ppo import combined_baseline
from rlwean.priors import (PriorArtifact, WeaningSchedule,
                           check_compatibility, load_artifact, prior_value,
                           q_to_value_from_probs, save_artifact,
                           weaning_weight)


def const_net(outputs, obs_dim=1):
    outputs = np.asarray(outputs, dtype=np.float64)
    return MlpModel([np.zeros((len(outputs), obs_dim))], [outputs.copy()])


def test_fixed_schedule_is_constant():
    sched = WeaningSchedule("fixed", 0.9)
    for t in (0, 1, 999, 10_000_000):
        assert weaning_weight(sched, t) == 0.9


def test_step_decay_boundaries_exact():
    sched = WeaningSchedule("step_decay", 0.5, 0.1, 1_000_000)
    expected = {0: 0.5, 999_999: 0.5, 1_000_000: 0.4, 2_000_000: 0.3,
                3_000_000: 0.2, 4_000_000: 0.1, 5_000_000: 0.0,
                100_000_000: 0.0}
    for t, w in expected.items():
        assert weaning_weight(sched, t) == w  # exact, no float drift


def test_schedule_validation():
    with pytest.raises(ValueError):
        WeaningSchedule("linear", 0.5)
    with pytest.raises(ValueError):
        WeaningSchedule("fixed", 1.5)
    with pytest.raises(ValueError):
        WeaningSchedule("step_decay", 0.5, -0.1, 10)
    with pytest.raises(ValueError):
        WeaningSchedule("step_decay", 0.5, 0.1, 0)
    for bad in (dict(w0=True), dict(w0="0.5"), dict(decrement=True),
                dict(decrement=float("inf")), dict(interval_steps=2.5),
                dict(interval_steps=True)):
        with pytest.raises(ValueError):
            WeaningSchedule(**{"kind": "step_decay", "w0": 0.5,
                               "decrement": 0.1, "interval_steps": 10, **bad})
    with pytest.raises(ValueError):
        WeaningSchedule("fixed", True)
    # a fixed schedule has no decrement for `run --w-decrement` to set
    with pytest.raises(ValueError, match="decrement"):
        WeaningSchedule("fixed", 0.9, 0.2)
    for interval in (0, 2.5, True):
        with pytest.raises(ValueError, match="interval_steps"):
            WeaningSchedule("fixed", 0.9, 0.0, interval)
    with pytest.raises(ValueError):
        weaning_weight(WeaningSchedule("fixed", 0.5), -1)


def test_q_to_value_hand_example():
    # pi = (0.5, 0.5), Q = (1, 3) -> V = 2
    policy = const_net([0.0, 0.0])
    prior = PriorArtifact(const_net([1.0, 3.0]))
    obs = np.zeros((1, 1))
    assert q_to_value_from_probs(prior, softmax(forward(policy, obs)),
                                 obs)[0] == pytest.approx(2.0)


def test_q_to_value_deterministic_policy():
    prior = PriorArtifact(const_net([1.0, 3.0]))
    v = q_to_value_from_probs(prior, np.array([[1.0, 0.0]]), np.zeros((1, 1)))
    assert v[0] == 1.0
    vs = q_to_value_from_probs(prior, np.array([[1.0, 0.0], [0.0, 1.0]]),
                               np.zeros((2, 1)))
    np.testing.assert_array_equal(vs, [1.0, 3.0])


def test_q_to_value_identity_on_tabular_chain():
    model = as_tabular(EnvConfig("chain", horizon=64))
    rng = np.random.default_rng(0)
    for _ in range(5):
        policy = random_tabular_policy(model.state_count, model.action_count, rng)
        v = exact_value(model, policy, 0.99)
        q = q_from_v(model, v, 0.99)
        np.testing.assert_allclose(np.sum(policy * q, axis=1), v, atol=1e-10)


def test_kind_guards():
    q_prior = PriorArtifact(const_net([1.0, 3.0]))
    v_prior = PriorArtifact(const_net([0.7]))
    with pytest.raises(ValueError):
        prior_value(q_prior, np.zeros(1))
    with pytest.raises(ValueError):
        q_to_value_from_probs(v_prior, np.array([0.5, 0.5]), np.zeros(1))


def test_compatibility_checks():
    prior = PriorArtifact(const_net([1.0, 3.0]))
    with pytest.raises(CompatibilityError):
        check_compatibility(prior, obs_dim=4, action_count=2)
    with pytest.raises(CompatibilityError):
        check_compatibility(prior, obs_dim=1, action_count=3)
    check_compatibility(prior, obs_dim=1, action_count=2)  # no raise


def test_priors_reject_observations_of_the_wrong_dim():
    q_prior = PriorArtifact(const_net([1.0, 3.0]))
    v_prior = PriorArtifact(const_net([0.7]))
    obs = np.zeros((3, 2))
    with pytest.raises(ValueError, match="input dim 2"):
        q_to_value_from_probs(q_prior, np.full((3, 2), 0.5), obs)
    with pytest.raises(ValueError, match="input dim 2"):
        prior_value(v_prior, obs)


def test_combined_baseline_endpoints_and_interpolation():
    value_net = const_net([2.0])
    prior = PriorArtifact(const_net([10.0]))
    obs = np.zeros((3, 1))
    probs = np.full((3, 2), 0.5)

    np.testing.assert_array_equal(
        combined_baseline(value_net, prior, 0.0, obs, probs), 2.0)
    np.testing.assert_array_equal(
        combined_baseline(value_net, prior, 1.0, obs, probs), 10.0)
    np.testing.assert_allclose(
        combined_baseline(value_net, prior, 0.9, obs, probs),
        0.1 * 2.0 + 0.9 * 10.0)
    # w = 0 never touches the prior, so it may be absent
    np.testing.assert_array_equal(
        combined_baseline(value_net, None, 0.0, obs, probs), 2.0)


def test_combined_baseline_convexity():
    rng = np.random.default_rng(1)
    value_net = init_mlp([3, 8, 1], rng)
    prior = PriorArtifact(init_mlp([3, 8, 1], rng))
    policy = init_mlp([3, 8, 2], rng)
    for _ in range(20):
        obs = rng.standard_normal((5, 3))
        w = float(rng.random())
        b = combined_baseline(value_net, prior, w, obs,
                              softmax(forward(policy, obs)))
        vc = forward(value_net, obs)[:, 0]
        vp = prior_value(prior, obs)
        assert (np.minimum(vc, vp) - 1e-12 <= b).all()
        assert (b <= np.maximum(vc, vp) + 1e-12).all()


@pytest.mark.parametrize("kind,dims", [("q_function", [4, 64, 64, 3]),
                                       ("value_function", [4, 64, 64, 1])])
def test_artifact_round_trip_bit_exact(tmp_path, kind, dims):
    rng = np.random.default_rng(9)
    net = init_mlp(dims, rng)
    prior = PriorArtifact(net, source_env_id="windy-grid",
                          source_algorithm="dqn", source_seed=7)
    assert prior.kind == kind
    path = tmp_path / "prior.json"
    save_artifact(prior, path)
    loaded = load_artifact(path)
    assert loaded.kind == kind
    assert loaded.source_env_id == "windy-grid"
    assert loaded.source_seed == 7
    assert loaded.network.layer_dims == dims
    obs = rng.standard_normal((100, dims[0]))
    np.testing.assert_array_equal(forward(loaded.network, obs),
                                  forward(net, obs))


def test_artifact_file_schema(tmp_path):
    net = init_mlp([2, 4, 3], np.random.default_rng(0))
    prior = PriorArtifact(net)
    path = tmp_path / "p.json"
    save_artifact(prior, path)
    doc = json.loads(path.read_text())
    assert doc["format_version"] == 1
    assert doc["kind"] == "q"
    assert doc["activation"] == "tanh"
    assert doc["obs_dim"] == 2 and doc["action_count"] == 3
    assert [(l["rows"], l["cols"]) for l in doc["layers"]] == [(4, 2), (3, 4)]
    assert len(doc["layers"][0]["weights"]) == 8
    assert "created_at" in doc["metadata"]


def test_artifact_rejects_bad_documents(tmp_path):
    net = init_mlp([2, 3], np.random.default_rng(0))
    prior = PriorArtifact(net)
    path = tmp_path / "p.json"
    save_artifact(prior, path)
    doc = json.loads(path.read_text())
    layer = doc["layers"][0]
    nan_weight = {**layer, "weights": [float("nan")] + layer["weights"][1:]}
    inf_bias = {**layer, "biases": [float("inf")] + layer["biases"][1:]}
    no_rows = {k: v for k, v in layer.items() if k != "rows"}
    for corrupt in ({"format_version": 2}, {"activation": "relu"},
                    {"kind": "advantage"}, {"layers": []},
                    {"layers": [nan_weight]}, {"layers": [inf_bias]},
                    {"layers": 5}, {"obs_dim": None}, {"metadata": []},
                    {"layers": [no_rows]}, {"obs_dim": float("inf")}):
        bad = {**doc, **corrupt}
        bad_path = tmp_path / "bad.json"
        bad_path.write_text(json.dumps(bad))
        with pytest.raises(ValueError):
            load_artifact(bad_path)


def two_layer_docs(tmp_path):
    """The saved documents of a [2, 4, 3] q prior and a [2, 4, 1] value
    prior."""
    docs = []
    for kind, dims in (("q_function", [2, 4, 3]),
                       ("value_function", [2, 4, 1])):
        path = tmp_path / f"{kind}.json"
        prior = PriorArtifact(init_mlp(dims, np.random.default_rng(0)))
        assert prior.kind == kind
        save_artifact(prior, path)
        docs.append(json.loads(path.read_text()))
    return docs


def test_load_refuses_documents_that_disagree_with_their_layers(tmp_path):
    q_doc, v_doc = two_layer_docs(tmp_path)
    first = q_doc["layers"][0]
    for doc, corrupt, message in (
            (q_doc, {"obs_dim": 3}, "obs_dim"),
            (q_doc, {"action_count": 2}, "action_count"),
            (q_doc, {"action_count": 0}, "action_count"),
            (q_doc, {"obs_dim": 2.9}, "obs_dim"),
            (q_doc, {"action_count": 3.5}, "action_count"),
            (v_doc, {"obs_dim": 4}, "obs_dim"),
            (v_doc, {"action_count": 1}, "action_count"),
            # 2.0 == 2, True == 1, False == 0: only a type check refuses these
            (q_doc, {"format_version": True}, "format_version"),
            (v_doc, {"action_count": False}, "action_count"),
            (q_doc, {"obs_dim": 2.0}, "obs_dim"),
            # a one-output net is a value prior, whatever the file says
            (q_doc, {"layers": q_doc["layers"][:1] + v_doc["layers"][1:],
                     "action_count": 1}, "kind"),
            (q_doc, {"layers": [first, first]},
             "inconsistent layer dimensions"),
            # int() made these 2, 1 and 7
            *((v_doc, {"metadata": {**v_doc["metadata"], "source_seed": seed}},
               "source_seed") for seed in (2.9, True, "7"))):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({**doc, **corrupt}))
        with pytest.raises(ValueError, match=message):
            load_artifact(path)


@pytest.mark.parametrize("field, value", [
    ("source_env_id", 5), ("source_algorithm", None), ("created_at", [1]),
    ("source_seed", -5), ("weights", True), ("biases", "0.5")],
    ids=["int-env-id", "null-algorithm", "list-created-at", "negative-seed",
         "bool-weight", "string-bias"])
def test_load_refuses_fields_of_the_wrong_type(tmp_path, capsys, field,
                                               value):
    doc = two_layer_docs(tmp_path)[0]
    if field in ("weights", "biases"):
        layer = doc["layers"][0]
        doc["layers"][0] = {**layer, field: [value] + layer[field][1:]}
        message = "JSON numbers"
    else:
        doc["metadata"][field] = value
        message = field
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=message):
        load_artifact(path)
    assert main(["inspect-prior", str(path)]) == 2
    assert message in capsys.readouterr().err


def test_save_after_load_gives_back_the_document(tmp_path):
    for doc in two_layer_docs(tmp_path):
        path, again = tmp_path / "in.json", tmp_path / "out.json"
        path.write_text(json.dumps(doc))
        save_artifact(load_artifact(path), again)
        assert json.loads(again.read_text()) == doc


def test_loaded_prior_is_frozen_copy(tmp_path):
    net = init_mlp([2, 4, 1], np.random.default_rng(3))
    prior = PriorArtifact(net)
    path = tmp_path / "v.json"
    save_artifact(prior, path)
    loaded = load_artifact(path)
    obs = np.array([[0.3, -0.7]])
    before = prior_value(loaded, obs)[0]
    net.weights[0][:] = 0.0  # mutating the source must not affect the artifact
    assert prior_value(loaded, obs)[0] == before
