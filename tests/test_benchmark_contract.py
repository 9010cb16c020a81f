"""The benchmark's tracer names wicklab functions; they must keep resolving.

``perfbench/tracer.py`` wraps each function in its ``TARGETS`` for
``perfbench/run.py --trace 1`` and reads the grid size off the kernel
engines' results, and term and radicand counts off the tensor layer's.  A
renamed or deleted target, or a result without the attribute a count reads,
would break the traced run and drop its per-layer metrics, so these tests
fail first.
"""

import importlib
import importlib.util
from fractions import Fraction as Q
from pathlib import Path

import pytest

from wicklab.chaos.basis import LegendreBasis, PiecewisePoly
from wicklab.chaos import experiments, identities
from wicklab.chaos.tensors import GammaTables, SymTensor
from wicklab.laws import Law

from oracles import basis_element

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("module, qualname, layer", load_tracer().TARGETS)
def test_traced_target_resolves(module, qualname, layer):
    obj = importlib.import_module(module)
    for part in qualname.split("."):
        obj = getattr(obj, part)
    assert callable(obj)


def test_traced_kernel_engines_report_grid_points():
    perfbench_tracer = load_tracer()
    for module, _, _ in perfbench_tracer.TARGETS:
        importlib.import_module(module)
    tracer = perfbench_tracer.Tracer()
    original = experiments.cumulative_triangle
    one = PiecewisePoly.constant(1)
    basis = LegendreBasis(3)
    points = [Q(k, 4) for k in range(5)]
    tracer.install()
    try:
        experiments.cumulative_triangle(one, one, basis, points)
        experiments.cumulative_coeffs(one, basis, points)
        experiments.legendre_float_cumulative(3, 2)
    finally:
        tracer.uninstall()
    assert experiments.cumulative_triangle is original
    assert tracer.counts[None]["chaos.experiments.grid_points"] == 15
    calls = {name: cell[0] for name, cell in tracer.per_item()[None].items()}
    for name in ("cumulative_triangle", "cumulative_coeffs", "legendre_float_cumulative"):
        assert calls[f"chaos.experiments.{name}"] == 1


def test_traced_tensor_layer_reports_terms_and_radicands():
    perfbench_tracer = load_tracer()
    for module, _, _ in perfbench_tracer.TARGETS:
        importlib.import_module(module)
    tracer = perfbench_tracer.Tracer()
    originals = (
        SymTensor.__dict__["sym_square"], SymTensor.annihilated,
        identities.order_tensors, identities.fourth_moment_lhs,
    )
    K = basis_element(2, 1, 1)  # f = e_1 o e_1
    tables = GammaTables.for_law(Law.exponential(1))  # every gamma - Gamma gap is nonzero
    tracer.install()
    try:
        identities.order_tensors(K, tables)
        lhs = identities.fourth_moment_lhs(K, tables)
    finally:
        tracer.uninstall()
    assert originals == (
        SymTensor.__dict__["sym_square"], SymTensor.annihilated,
        identities.order_tensors, identities.fourth_moment_lhs,
    )
    calls = {name: cell[0] for name, cell in tracer.per_item()[None].items()}
    # the order build makes the tensor calls; fourth_moment_lhs makes none
    assert calls["chaos.tensors.SymTensor.sym_square"] == 1
    assert calls["chaos.tensors.SymTensor.annihilated"] == 6
    # one term each: e_1^4, its four annihilations, and the two annihilated
    # contractions (both m3 e_1)
    assert tracer.counts[None]["chaos.tensors.terms"] == 7
    assert tracer.counts[None]["exact.radicands"] == len(lhs.terms) == 1
