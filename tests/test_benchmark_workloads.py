"""Each workload of the benchmark runs once and passes the benchmark's checks.

``perfbench/worker.py`` builds a workload's items (``perfbench/workloads.py``),
calls them and checks the outputs against their oracles and the stored
exact digests of ``perfbench/reference.json``.  These tests do the same for
one pass of each workload that ``BENCHMARK.json`` declares, at the seed the
reference holds, so a change under ``src/`` that breaks a workload's call or
its checks fails here.  The items are called directly: the worker's timed
loop (``run_passes``) pins the process to one CPU.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
SEED = 42


def load(name):
    """perfbench/<name>.py as a module, registered under its name as its
    dataclasses need; the worker imports ``tracer`` from beside it."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
        module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path.remove(str(PERFBENCH))
    return module


WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("name", WORKLOADS)
def test_workload_runs_once_and_passes_its_checks(name):
    workloads, worker = load("workloads"), load("worker")
    items = workloads.build(name, SEED)
    outputs = [item.call() for item in items]
    reference = json.loads((PERFBENCH / "reference.json").read_text())[name][str(SEED)]
    assert worker.check(items, [outputs], reference)["failures"] == []
