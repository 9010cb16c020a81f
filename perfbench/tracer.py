"""Run-time tracer for the benchmark: spans around wicklab's public functions.

The tracer never edits wicklab.  ``install`` replaces each target function
with a wrapper in every loaded ``wicklab.*`` namespace that binds the same
function object (``triangle_kernel`` is bound in four modules, ``sample`` in
two), and on the class for methods; ``uninstall`` puts the originals back.
Functions that import a target inside their body (the CLI does) read the
patched module attribute at call time, so they are covered too.

Each call records a span: name, start, end, parent span and item id.  A
span's self time is its duration minus the time covered by its direct child
spans.  Counts are read from arguments and return values at the same
boundaries, after the span closes, so counting is not charged to the span.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import defaultdict

# (module, qualified name, layer) of every traced function.  Layers group the
# share table: "tensor" is the exact tensor algebra with the identities built
# on it, "kernel" the exact kernel-coefficient engines, "mc" the Monte Carlo
# bodies (their self time is the quadratic-form einsum).
TARGETS = (
    ("wicklab.laws", "sample", "laws"),
    ("wicklab.laws", "standardized_moments", "laws"),
    ("wicklab.wick", "wick_explicit", "wick"),
    ("wicklab.wick", "wick_recurrence1", "wick"),
    ("wicklab.wick", "wick_recurrence2", "wick"),
    ("wicklab.wick", "ode_residual", "wick"),
    ("wicklab.rademacher", "build_partition", "rademacher"),
    ("wicklab.rademacher", "joint_law", "rademacher"),
    ("wicklab.rademacher", "transport_joint_law", "rademacher"),
    ("wicklab.discrete", "independent", "discrete"),
    ("wicklab.discrete", "independent_oracle", "discrete"),
    ("wicklab.discrete", "walsh_gram_rank", "discrete"),
    ("wicklab.chaos.basis", "triangle_kernel", "kernel"),
    ("wicklab.chaos.tensors", "GammaTables.for_law", "tensor"),
    ("wicklab.chaos.tensors", "SymTensor.sym_square", "tensor"),
    ("wicklab.chaos.tensors", "SymTensor.annihilated", "tensor"),
    ("wicklab.chaos.tensors", "SymTensor.expect_product", "tensor"),
    ("wicklab.chaos.tensors", "SymTensor.phi_eval", "tensor"),
    ("wicklab.chaos.identities", "order_tensors", "tensor"),
    ("wicklab.chaos.identities", "fourth_moment_lhs", "tensor"),
    ("wicklab.chaos.identities", "fourth_moment_check", "tensor"),
    ("wicklab.chaos.identities", "order_decomposition", "tensor"),
    ("wicklab.chaos.identities", "norm_identity", "tensor"),
    ("wicklab.chaos.identities", "isometry_check", "tensor"),
    ("wicklab.exact", "RadSum.bounds", "tensor"),
    ("wicklab.chaos.experiments", "cumulative_triangle", "kernel"),
    ("wicklab.chaos.experiments", "cumulative_coeffs", "kernel"),
    ("wicklab.chaos.experiments", "qv_rhs_quadratics", "kernel"),
    ("wicklab.chaos.experiments", "legendre_float_cumulative", "kernel"),
    ("wicklab.chaos.experiments", "qv_experiment", "mc"),
    ("wicklab.chaos.experiments", "qv_joint_refinement", "mc"),
    ("wicklab.chaos.experiments", "riemann_experiment", "mc"),
    ("wicklab.report", "ExperimentReport.to_json", "report"),
)


def label(module: str, qualname: str) -> str:
    """Metric prefix of a target: the module path below ``wicklab``."""
    return f"{module.removeprefix('wicklab.')}.{qualname}"


def _quadratic_forms(P: int, shapes) -> dict:
    """Computed multiply-adds and operand bytes of the Monte Carlo quadratic
    forms x' A_k x over P paths, one (K, N) per einsum with K kernels of size
    N x N: P * sum K N^2 multiply-adds.  Bytes are the float64 operands and
    outputs, not cache traffic."""
    return {
        "chaos.experiments.mc_madds": sum(P * K * N * N for K, N in shapes),
        "chaos.experiments.mc_bytes": sum(8 * (P * N + K * N * N + P * K) for K, N in shapes),
    }


def _terms(_args, result) -> dict:
    return {"chaos.tensors.terms": len(result.terms)}


def _grid(_args, result) -> dict:
    return {"chaos.experiments.grid_points": result.shape[0]}


# Counts read at a target's boundary, from its bound arguments and its result.
COUNTERS = {
    "chaos.tensors.SymTensor.sym_square": _terms,
    "chaos.tensors.SymTensor.annihilated": _terms,
    "chaos.identities.fourth_moment_lhs": lambda a, r: {"exact.radicands": len(r.terms)},
    "laws.sample": lambda a, r: {"laws.sample.draws": len(r)},
    "chaos.experiments.cumulative_triangle": _grid,
    "chaos.experiments.cumulative_coeffs": _grid,
    "chaos.experiments.legendre_float_cumulative": lambda a, r: _grid(a, r[0]),
    "chaos.experiments.qv_experiment": lambda a, r: _quadratic_forms(
        a["paths"], [(2**d, a["N"]) for d in a["depths"]]
    ),
    "chaos.experiments.qv_joint_refinement": lambda a, r: _quadratic_forms(
        a["paths"], [(2**d, N) for N, d in a["pairs"]]
    ),
    "chaos.experiments.riemann_experiment": lambda a, r: _quadratic_forms(
        a["paths"], [(1, a["N"])]
    ),
}

COUNT_UNITS = {
    "chaos.tensors.terms": "count",
    "exact.radicands": "count",
    "laws.sample.draws": "count",
    "chaos.experiments.grid_points": "count",
    "chaos.experiments.mc_madds": "count",
    "chaos.experiments.mc_bytes": "B",
}


class Tracer:
    """Spans and counts for one worker process; single-threaded by design."""

    def __init__(self):
        self.item = None  # id of the item being run, stamped on each span
        self.spans = []  # (id, parent, item, name, start, end, self_s)
        self.counts = defaultdict(lambda: defaultdict(int))  # item -> name -> n
        self._stack = []  # open spans: [id, child_s]
        self._next_id = 0
        self._patches = []  # (owner, attribute, original value)

    # -- patching ----------------------------------------------------------------
    def install(self) -> None:
        namespaces = [
            m for n, m in sorted(sys.modules.items()) if n == "wicklab" or n.startswith("wicklab.")
        ]
        for module, qualname, _layer in TARGETS:
            owner = sys.modules[module]
            name = label(module, qualname)
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                cls = getattr(owner, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, staticmethod):
                    new = staticmethod(self._wrap(name, raw.__func__))
                else:
                    new = self._wrap(name, raw)
                self._patch(cls, attr, new)
                continue
            fn = getattr(owner, qualname)
            wrapped = self._wrap(name, fn)
            for ns in namespaces:
                for attr, value in list(vars(ns).items()):
                    if value is fn:
                        self._patch(ns, attr, wrapped)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr, new) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def _wrap(self, name: str, fn):
        tracer = self
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1] if tracer._stack else None
            frame = [span_id, 0.0]
            tracer._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                duration = end - start
                if parent is not None:
                    parent[1] += duration
                tracer.spans.append(
                    (span_id, parent[0] if parent else None, tracer.item, name,
                     start, end, duration - frame[1])
                )
            if counter is not None:
                bound = signature.bind(*args, **kwargs).arguments
                counts = tracer.counts[tracer.item]
                for key, n in counter(bound, result).items():
                    counts[key] += n
            return result

        return traced

    # -- results -------------------------------------------------------------------
    def per_item(self):
        """{item: {name: [calls, self_s]}} from the recorded spans."""
        out = defaultdict(lambda: defaultdict(lambda: [0, 0.0]))
        for _id, _parent, item, name, _start, _end, self_s in self.spans:
            cell = out[item][name]
            cell[0] += 1
            cell[1] += self_s
        return out

    def write(self, path) -> None:
        """Spans as JSON lines, one object per span."""
        keys = ("id", "parent", "item", "name", "start", "end", "self_s")
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
