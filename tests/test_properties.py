"""Property tests for the parsers behind the CLI: a fuzzed artifact or
scenario document either loads or raises ValueError, and the CLI turns a
failed load into exit status 2 with a one-line message, never a
traceback. Examples are derandomized so every run tests the same inputs."""

import json
import tempfile
from pathlib import Path

import numpy as np
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from rlwean.cli import load_scenario_file, main
from rlwean.nets import init_mlp
from rlwean.priors import PriorArtifact, load_artifact, save_artifact

from test_cli import scenario_doc

FUZZ = settings(derandomize=True, database=None, deadline=None,
                max_examples=150)

SPECIAL = st.sampled_from([float("inf"), float("-inf"), float("nan"), 0, -1,
                           2**64, "", None, [], {}])
SCALARS = (SPECIAL | st.booleans() | st.integers(-2**70, 2**70)
           | st.floats() | st.text(max_size=6))
VALUES = st.recursive(
    SCALARS, lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6)
TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=200)


def artifact_doc():
    net = init_mlp([2, 3, 4], np.random.default_rng(0))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "prior.json"
        save_artifact(PriorArtifact(net, created_at="2024-01-01T00:00:00Z"),
                      path)
        return json.loads(path.read_text())


def key_paths(doc, prefix=()):
    """Every key or index path inside nested dicts and lists."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc)
    paths = []
    for key, value in items:
        paths.append(prefix + (key,))
        if isinstance(value, (dict, list)) and value:
            paths += key_paths(value, prefix + (key,))
    return paths


@st.composite
def mutated(draw, doc):
    """`doc` with one to three edits: a value replaced by a fuzzed one, a
    key or list entry deleted, or an unknown key added."""
    doc = json.loads(json.dumps(doc))
    for _ in range(draw(st.integers(1, 3))):
        paths = key_paths(doc)
        if not paths:
            break
        *parent_path, key = draw(st.sampled_from(paths))
        parent = doc
        for k in parent_path:
            parent = parent[k]
        edit = draw(st.sampled_from(("replace", "delete", "add")))
        if edit == "replace":
            parent[key] = draw(VALUES)
        elif edit == "delete":
            del parent[key]
        elif isinstance(parent, dict):
            parent[draw(st.text(min_size=1, max_size=6))] = draw(VALUES)
    return doc


def check_load_and_cli(text, load, argv_for, loaded_exit=None):
    """Write `text` and load it. A failed load must raise ValueError, and
    the CLI must then exit 2 on the file. A load that succeeds must give
    `loaded_exit` from the CLI (which is not run when that is None)."""
    with tempfile.TemporaryDirectory() as tmp:
        path = str(Path(tmp) / "input")
        Path(path).write_text(text, encoding="utf-8")
        try:
            load(path)
        except ValueError:
            assert main(argv_for(path)) == 2
            return
        if loaded_exit is not None:
            assert main(argv_for(path)) == loaded_exit


def inspect_argv(path):
    return ["inspect-prior", path]


def run_argv(path):
    return ["run", "--config", path, "--out", str(Path(path).parent / "out")]


@FUZZ
@given(mutated(artifact_doc()))
def test_fuzzed_artifact_loads_or_is_config_error(doc):
    check_load_and_cli(json.dumps(doc), load_artifact, inspect_argv,
                       loaded_exit=0)


@FUZZ
@given(TEXT)
def test_arbitrary_artifact_text_loads_or_is_config_error(text):
    check_load_and_cli(text, load_artifact, inspect_argv, loaded_exit=0)


@FUZZ
@given(mutated(scenario_doc()))
def test_fuzzed_scenario_loads_or_is_config_error(doc):
    # A scenario that loads would start training, so the CLI runs only on
    # documents that fail to load.
    check_load_and_cli(yaml.safe_dump(doc), load_scenario_file, run_argv)


@FUZZ
@given(TEXT)
def test_arbitrary_scenario_text_loads_or_is_config_error(text):
    check_load_and_cli(text, load_scenario_file, run_argv)
