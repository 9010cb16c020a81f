"""The benchmark's four workloads: seeded inputs, timed items, output checks.

``build(name, seed)`` makes one pass: a fixed list of items generated from the
seed alone.  Each item has a ``call`` (the timed work, a call into wicklab's
public API) and a ``check`` (untimed) that turns the call's output into an
``Outcome``: whether every oracle held, the exact outputs as ``p/q`` strings
(compared with ``==`` across commits) and the float outputs (whose drift from
the stored reference is reported, never gated).
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

# Timed calls go through module attributes (``identities.fourth_moment_lhs``),
# so that the tracer's patches of those attributes see them.
from wicklab import cli, laws
from wicklab.chaos import LegendreBasis, PiecewisePoly, SymmetricKernel2, experiments, identities
from wicklab.chaos.basis import triangle_kernel
from wicklab.chaos.tensors import GammaTables
from wicklab.exact import Q, RadSum, frac_str

LAWS = ("normal", "exponential:1", "poisson:1")

# Gaussian closed form of E[(x'Ax - tr A)^4] (Magnus 1978) must match the exact
# fourth moment to this relative tolerance; the order decomposition's pointwise
# residual (relative to max(|J^2|, 1), as the CLI measures it) must stay below
# ORDER_RESIDUAL.  Cumulative kernels, both exact-then-rounded, must agree
# with the triangle kernel to KERNEL_RTOL of their largest entry.  Monte Carlo
# means must sit within MC_SIGMAS standard errors of their exact expectations.
CLOSED_FORM_RTOL = 1e-12
ORDER_RESIDUAL = 1e-10
KERNEL_RTOL = 1e-12
MC_SIGMAS = 5.0


@dataclass
class Outcome:
    failures: list = field(default_factory=list)  # names of oracles missed
    exact: list = field(default_factory=list)  # exact outputs, p/q strings
    floats: dict = field(default_factory=dict)  # float outputs by name


@dataclass
class Item:
    name: str
    call: Callable[[], object]
    check: Callable[[object], Outcome]


def build(name: str, seed: int) -> list:
    """One pass of workload ``name`` with inputs drawn from ``seed``."""
    return WORKLOADS[name](seed)


# ---------------------------------------------------------------------------
# seeded inputs


def _nonzero(rng: random.Random):
    return Q(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 2))


def _linear(rng: random.Random) -> tuple:
    return (_nonzero(rng), _nonzero(rng))


def two_piece_pair(rng: random.Random) -> tuple:
    """Non-constant h1, h2, each with two linear pieces, split at two distinct
    odd eighths.  Products of h1 and h2 terms then always have three pieces
    with the same denominators, so the cost of the exact kernel engine does
    not depend on the seed, only the values do."""
    cuts = rng.sample((Q(1, 8), Q(3, 8), Q(5, 8), Q(7, 8)), 2)
    return tuple(
        PiecewisePoly(((Q(0), c, _linear(rng)), (c, Q(1), _linear(rng)))) for c in cuts
    )


def random_kernel(rng: random.Random, N: int) -> SymmetricKernel2:
    """A symmetric N x N kernel with nonzero small rational entries."""
    rows = [[_nonzero(rng) for _ in range(N)] for _ in range(N)]
    for i in range(N):
        for j in range(i):
            rows[j][i] = rows[i][j]
    return SymmetricKernel2.from_rationals(rows)


def restrict(h: PiecewisePoly, s, t) -> PiecewisePoly:
    """h * 1_(s, t], as the increment kernel of Z_t - Z_s uses it."""
    pieces = [(max(lo, s), hi, c) for lo, hi, c in h.cut(t).pieces if hi > s]
    return PiecewisePoly(tuple(pieces))


def radsum_strings(x: RadSum) -> list:
    return [f"{w}:{frac_str(q)}" for w, q in sorted(x.terms.items())]


# ---------------------------------------------------------------------------
# battery: the CLI's full verification battery, driven in-process


def run_cli(argv: list) -> tuple:
    """``cli.main(argv)`` with stdout captured: (exit code, report dict).

    The report's ``wall_time_s`` is dropped: it is the one field that is not
    reproducible.  (``--out`` would have to precede the subcommand; capturing
    stdout avoids files altogether.)"""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    report = json.loads(buf.getvalue())
    del report["wall_time_s"]
    return code, report


def _check_report(out) -> Outcome:
    code, report = out
    res = Outcome()
    if code != 0 or report["status"] != "pass":
        res.failures.append(f"status {report['status']} (exit {code})")
    for row in report["results"]:
        if row["kind"] == "exact":
            res.exact.append(json.dumps([row["name"], row["value"]], sort_keys=True))
        elif row["kind"] == "estimate":
            values = row["value"] if isinstance(row["value"], list) else [row["value"]]
            for i, v in enumerate(values):
                res.floats[f"{row['name']}[{i}]"] = v
    return res


def battery(seed: int) -> list:
    argv = ["all", "--seed", str(seed)]
    return [Item("all", lambda: run_cli(argv), _check_report)]


# ---------------------------------------------------------------------------
# exact-fourth: exact fourth moments of second-order chaos


def gaussian_fourth(A: np.ndarray) -> float:
    """E[(x'Ax - tr A)^4] for standard normal x and symmetric A."""
    A2 = A @ A
    return 12.0 * np.trace(A2) ** 2 + 48.0 * np.trace(A2 @ A2)


def _check_fourth(res: Outcome, lhs: RadSum, K: SymmetricKernel2, tables, law: str) -> None:
    """Oracles shared by both item kinds, on the exact E[J^4] of kernel K."""
    res.exact.extend(radsum_strings(lhs))
    res.floats["lhs"] = float(lhs)
    # Jensen: E[J^4] >= E[J^2]^2, certified on the exact values
    lo, _ = (lhs - identities.expected_integral_sq(K, tables) ** 2).bounds()
    if lo < 0:
        res.failures.append("E[J^4] < E[J^2]^2")
    if law == "normal":
        closed = gaussian_fourth(K.floats())
        if abs(float(lhs) - closed) > CLOSED_FORM_RTOL * abs(closed):
            res.failures.append(f"gaussian closed form {closed!r} != {float(lhs)!r}")


def _triangle_item(rng: random.Random, law: str, basis, tables, copy: int) -> Item:
    h1, h2 = two_piece_pair(rng)
    # an increment (s, t] on the grid of eighths that contains h2's cut, so
    # that h2 1_(s, t] always keeps both pieces
    cut = h2.pieces[0][1]
    s = Q(rng.randint(0, cut.numerator - 1), 8)
    t = Q(rng.randint(cut.numerator + 1, 8), 8)

    def check(out) -> Outcome:
        res = Outcome()
        K, _ = triangle_kernel(h1, restrict(h2, s, t), basis)
        _check_fourth(res, out["lhs"], K, tables, law)
        res.exact += [frac_str(out["rhs"]), str(out["holds"])]
        res.exact += [frac_str(x) for x in out["lhs_bounds"]]
        return res

    return Item(
        f"triangle {law} N={basis.N} #{copy}",
        lambda: identities.fourth_moment_check(h1, h2, s, t, basis, tables),
        check,
    )


def _rational_item(rng: random.Random, law: str, N: int, tables, copy: int) -> Item:
    K = random_kernel(rng, N)
    # the order decomposition is an algebraic identity, so any realization works
    xs = np.array([rng.gauss(0.0, 1.0) for _ in range(N)])

    def call():
        return identities.fourth_moment_lhs(K, tables), identities.order_decomposition(K, tables, xs)

    def check(out) -> Outcome:
        lhs, dec = out
        res = Outcome()
        _check_fourth(res, lhs, K, tables, law)
        rel = dec["residual"] / dec["scale"]
        if not rel < ORDER_RESIDUAL:
            res.failures.append(f"order decomposition residual {rel!r}")
        res.floats["order_residual"] = rel
        return res

    return Item(f"rational {law} N={N} #{copy}", call, check)


# Items per (law, kernel kind) at each truncation.  An item at N=8 costs about
# three at N=6; with twice as many N=6 items the median and the 90th
# percentile each fall inside one size group, not on the gap between groups.
EXACT_MIX = {8: 1, 6: 2}


def exact_fourth(seed: int) -> list:
    rng = random.Random(seed)
    tables = {law: GammaTables.for_law(laws.parse_law(law)) for law in LAWS}
    bases = {N: LegendreBasis(N) for N in EXACT_MIX}
    items = []
    for law in LAWS:
        for N, copies in EXACT_MIX.items():
            for copy in range(copies):
                items.append(_triangle_item(rng, law, bases[N], tables[law], copy))
                items.append(_rational_item(rng, law, N, tables[law], copy))
    return items


# ---------------------------------------------------------------------------
# qv-kernels and qv-paths: the quadratic-variation experiment


def _qv_item(seed: int, h1, h2, law_spec: str, N: int, depths, paths) -> Item:
    law = laws.parse_law(law_spec)
    basis = LegendreBasis(N)
    m4 = float(laws.standardized_moments(law, 4)[4])

    def check(out) -> Outcome:
        """The cumulative kernels against ``triangle_kernel``, a separate
        engine, at t = 1/2 and 1; then each Monte Carlo mean against its
        exact expectation: E[RHS] = tr G, and for symmetric increments A_k,
        E[QV_d] = sum_k 2 tr(A_k^2) + (m4 - 3) sum_i (A_k)_ii^2.
        """
        res = Outcome()
        dmax = max(depths)
        points = [Q(k, 2 ** dmax) for k in range(2 ** dmax + 1)]
        B = experiments.cumulative_triangle(h1, h2, basis, points)
        for t, row in ((Q(1, 2), B[2 ** (dmax - 1)]), (Q(1), B[-1])):
            _, raw = triangle_kernel(h1, h2, basis, t_cut=t)
            ref = np.array([[float(e) for e in r] for r in raw])
            if not np.abs(row - ref).max() <= KERNEL_RTOL * np.abs(ref).max():
                res.failures.append(f"cumulative kernel at t={t} differs from triangle_kernel")
        G, _ = experiments.qv_rhs_quadratics(h1, h2, basis, Q(1))
        rows = {row["depth"]: row for row in out["rows"]}
        if sorted(rows) != sorted(depths):
            res.failures.append("missing depth rows")
            return res
        for d in depths:
            Bd = B[:: 2 ** (dmax - d)]
            A = Bd[1:] - Bd[:-1]
            A = 0.5 * (A + np.transpose(A, (0, 2, 1)))
            diag = np.diagonal(A, axis1=1, axis2=2)
            expect_qv = 2.0 * (A * A).sum() + (m4 - 3.0) * (diag * diag).sum()
            row = rows[d]
            for key, expect in (("qv", float(expect_qv)), ("rhs", float(np.trace(G)))):
                mean, se = row[key]["mean"], row[key]["stderr"]
                res.floats[f"{key}_mean_d{d}"] = mean
                if not abs(mean - expect) <= MC_SIGMAS * se:
                    res.failures.append(f"{key} mean at depth {d}: {mean!r} vs {expect!r}")
            res.floats[f"err_mean_d{d}"] = row["err"]["mean"]
        return res

    return Item(
        f"qv {law_spec} N={N} paths={paths}",
        lambda: experiments.qv_experiment(h1, h2, Q(1), N, law, depths, paths, seed, basis=basis),
        check,
    )


def qv_kernels(seed: int) -> list:
    rng = random.Random(seed)
    h1, h2 = two_piece_pair(rng)
    return [_qv_item(seed, h1, h2, "normal", 16, range(1, 8), 2_000)]


def qv_paths(seed: int) -> list:
    rng = random.Random(seed)
    h1 = PiecewisePoly.from_poly(_linear(rng))
    h2 = PiecewisePoly.from_poly(_linear(rng))
    return [_qv_item(seed, h1, h2, "exponential:1", 8, range(1, 7), 200_000)]


WORKLOADS = {
    "battery": battery,
    "exact-fourth": exact_fourth,
    "qv-kernels": qv_kernels,
    "qv-paths": qv_paths,
}
