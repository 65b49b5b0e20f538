"""The benchmark's span hooks: every name perfbench/spans.py patches exists and
is restored, so renaming or deleting a hooked function fails here, not only in
the benchmark's own self-check."""

import importlib.util
from pathlib import Path

from nonholo import action, cli, engine, expr, hamiltonian, integrate, paths, scenarios

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
MODULES = (action, cli, engine, expr, hamiltonian, integrate, paths, scenarios)


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_patched_names_exist_and_are_restored():
    spans = load_spans()
    before = {mod: dict(vars(mod)) for mod in MODULES}
    with spans.Tracer().patched():
        patched = {(mod.__name__, name) for mod in MODULES for name, obj in vars(mod).items()
                   if before[mod].get(name) is not obj}
    # a sample of the hooks the per-layer metrics are read from
    assert {("nonholo.hamiltonian", "hamiltonian_vector_field"),
            ("nonholo.hamiltonian", "unpack"), ("nonholo.hamiltonian", "force_jacobians"),
            ("nonholo.paths", "diff1_at"), ("nonholo.integrate", "_drive"),
            ("nonholo.engine", "acceleration_raw")} <= patched
    for mod in MODULES:
        after = vars(mod)
        assert after.keys() == before[mod].keys(), mod.__name__
        moved = [name for name, obj in before[mod].items() if after[name] is not obj]
        assert moved == [], mod.__name__
