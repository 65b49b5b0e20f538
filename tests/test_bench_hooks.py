"""The benchmark's surface: every name perfbench/spans.py patches exists and is
restored, and one block of every workload in perfbench/workloads.py runs and
passes its checks, so an API change that would break the benchmark fails here,
not only in the benchmark's own self-check."""

import importlib.util
import sys
from pathlib import Path

import pytest

from nonholo import action, cli, engine, expr, hamiltonian, integrate, paths, scenarios

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
MODULES = (action, cli, engine, expr, hamiltonian, integrate, paths, scenarios)


def load(name: str):
    """perfbench/<name>.py as a module, registered under perfbench_<name>."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def test_patched_names_exist_and_are_restored():
    spans = load("spans")
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


@pytest.mark.parametrize("workload", ["rollout", "extended", "verify"])
def test_one_block_of_each_workload_passes(workload, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    workloads = load("workloads")
    tasks = workloads.BUILDERS[workload](7, 1, str(tmp_path))
    assert len(tasks) == workloads.BLOCK_SIZE[workload]
    for task in tasks:
        task.check(task.call())
