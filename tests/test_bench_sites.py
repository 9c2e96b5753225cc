"""The benchmark's span wrappers patch rlwean functions by name.

`bench/spans.py` replaces `vars(owner)[name]` for every entry of its SITES
table, so renaming or unbinding one of those names breaks traced benchmark
runs. This test reads the table and checks that every site still resolves;
it changes nothing under `bench/`.
"""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
