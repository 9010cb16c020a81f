"""Convergence experiments: Riemann sums, quadratic variation, bound grids."""

import math
import tracemalloc
from fractions import Fraction as Q

import numpy as np
import pytest

from wicklab.chaos.basis import LegendreBasis, PiecewisePoly, coeffs_of, triangle_kernel
from wicklab.chaos.experiments import (
    _qv_rows,
    cumulative_coeffs,
    cumulative_triangle,
    fourth_moment_grid,
    legendre_float_cumulative,
    qv_experiment,
    qv_joint_refinement,
    qv_rhs_quadratics,
    riemann_experiment,
)
from wicklab.chaos.tensors import GammaTables
from wicklab.laws import Law, sample, standardized_moments

ONE = PiecewisePoly.constant(1)


def exact_G(h1, h2, basis, t):
    """G[u,v] = int_0^t h2^2 c_u c_v with c_u(s) = <h1 1_(0,s], e_u>, built
    exactly as a piecewise-polynomial antiderivative and then rounded."""
    N = basis.N
    h2sq = h2 * h2
    cs = [h1.mul_poly(basis.poly(u + 1)).antiderivative() for u in range(N)]
    G = np.zeros((N, N))
    for u in range(N):
        for v in range(u, N):
            F = (h2sq * (cs[u] * cs[v])).antiderivative()
            scale = math.sqrt(basis.weight(u + 1) * basis.weight(v + 1))
            G[u, v] = G[v, u] = float(F.eval(Q(t))) * scale
    return G


def exact_B(h1, h2, basis, t):
    """The raw triangle kernel of h1 (x) (h2 1_(0,t]) 1_C, exact then rounded."""
    _, raw = triangle_kernel(h1, h2, basis, t_cut=Q(t))
    return np.array([[float(e) for e in row] for row in raw])


def close(a, b):
    return np.abs(a - b).max() <= 1e-13 * np.abs(b).max()


def test_exact_and_float_kernel_engines_agree():
    b = LegendreBasis(12)
    Bfl, Gfl, gfl = legendre_float_cumulative(12, 3, 1.0)
    assert Bfl.shape == (9, 12, 12) and not Bfl[0].any()
    for k in (1, 3, 8):
        assert close(Bfl[k], exact_B(ONE, ONE, b, Q(k, 8)))
    assert close(Gfl, exact_G(ONE, ONE, b, 1))
    assert np.array_equal(np.diag(Gfl), gfl)


# non-dyadic cuts; h1 vanishes on (5/7, 1] and h2 on (2/7, 1/3]
H1 = PiecewisePoly(((Q(0), Q(1, 3), (Q(1), Q(2))), (Q(1, 3), Q(5, 7), (Q(-1), Q(0), Q(3)))))
H2 = PiecewisePoly(((Q(0), Q(2, 7), (Q(2),)), (Q(1, 3), Q(1), (Q(1), Q(-3, 2)))))


@pytest.mark.parametrize("N", [3, 16])
def test_float_kernels_match_exact_on_piecewise_h(N):
    b = LegendreBasis(N)
    points = [Q(0), Q(1, 5), Q(2, 7), Q(1, 2), Q(5, 7), Q(9, 10)]
    B = cumulative_triangle(H1, H2, b, points)
    assert B.shape == (len(points), N, N) and not B[0].any()
    for p, Bp in zip(points[1:], B[1:]):
        assert close(Bp, exact_B(H1, H2, b, p)), p
    C = cumulative_coeffs(H1, b, points)
    for p, Cp in zip(points[1:], C[1:]):
        assert close(Cp, coeffs_of(H1, b, t_cut=p).floats()), p
    G, g = qv_rhs_quadratics(H1, H2, b, Q(9, 10))
    assert close(G, exact_G(H1, H2, b, Q(9, 10)))
    assert np.array_equal(np.diag(G), g)


def test_cumulative_coeffs_monotone_resolution():
    b = LegendreBasis(6)
    pts = [Q(k, 4) for k in range(5)]
    C = cumulative_coeffs(ONE, b, pts)
    # first column is the running measure of (0, t]
    assert np.allclose(C[:, 0], [0, 0.25, 0.5, 0.75, 1.0])
    assert np.allclose(C[0], 0.0)


def test_riemann_error_decreases_within_resolution():
    rep = riemann_experiment(ONE, ONE, 32, Law.normal(), [1, 2, 3, 4], 4000, 7)
    errs = [row["err"]["mean"] for row in rep["rows"]]
    assert all(a > b for a, b in zip(errs, errs[1:]))
    assert errs[-1] < 0.15 * errs[0]


def test_riemann_error_turns_past_resolution():
    # past the basis resolution the truncated sums drift away again: the
    # fixed-N refinement limit is a resolution phenomenon, not a bug
    rep = riemann_experiment(ONE, ONE, 8, Law.normal(), [2, 3, 6, 7], 4000, 7)
    errs = [row["err"]["mean"] for row in rep["rows"]]
    assert errs[1] < errs[0]
    assert errs[3] > errs[1]


def test_qv_reproducibility_and_trivial_t():
    rep1 = qv_experiment(ONE, ONE, Q(1), 8, Law.normal(), [2, 3], 2000, 11)
    rep2 = qv_experiment(ONE, ONE, Q(1), 8, Law.normal(), [2, 3], 2000, 11)
    assert rep1 == rep2
    rep0 = qv_experiment(ONE, ONE, Q(0), 8, Law.normal(), [2], 500, 11)
    row = rep0["rows"][0]
    assert row["qv"]["mean"] == 0 and row["rhs"]["mean"] == 0


def test_qv_fixed_truncation_collapses_past_resolution():
    # the truncated process is a polynomial quadratic form in t, so its
    # partition quadratic variation tends to zero once the mesh outruns the
    # basis: E[QV_d] decays markedly from d=3 to d=7 at N=16
    rep = qv_experiment(ONE, ONE, Q(1), 16, Law.normal(), [3, 7], 4000, 42)
    q3 = rep["rows"][0]["qv"]["mean"]
    q7 = rep["rows"][1]["qv"]["mean"]
    assert q7 < 0.25 * q3


def test_qv_joint_refinement_converges():
    for law in (Law.normal(), Law.exponential(1)):
        rep = qv_joint_refinement(law, [(4, 1), (8, 2), (16, 3), (32, 4)], 4000, 42)
        errs = [row["err"]["mean"] for row in rep["rows"]]
        assert all(a > b for a, b in zip(errs, errs[1:])), law.label()
        last = rep["rows"][-1]
        # the two means approach each other as the refinement deepens
        gap0 = abs(rep["rows"][0]["qv"]["mean"] - rep["rows"][0]["rhs"]["mean"])
        gap3 = abs(last["qv"]["mean"] - last["rhs"]["mean"])
        assert gap3 < max(gap0, 6 * last["mean_gap_stderr"])


@pytest.mark.parametrize("t", [Q(9, 10), Q(1)])
@pytest.mark.parametrize("N, d", [(3, 2), (16, 3)])
def test_qv_joint_refinement_row_is_qv_experiment_row(N, d, t):
    # one kernel route: the same kernels and the same sample give equal rows
    law = Law.exponential(1)
    (joint,) = qv_joint_refinement(law, [(N, d)], 3000, 11, t, h1=H1, h2=H2)["rows"]
    (fixed,) = qv_experiment(H1, H2, t, N, law, [d], 3000, 11)["rows"]
    assert (joint["N"], joint["depth"]) == (N, fixed["depth"])
    for key in ("err", "qv", "rhs", "mean_gap", "mean_gap_stderr"):
        assert joint[key] == fixed[key], key


def test_qv_rhs_mean_matches_trace():
    # E[RHS] = tr G + m3 * 0 for centered laws
    b = LegendreBasis(8)
    G, _ = qv_rhs_quadratics(ONE, ONE, b, 1)
    rep = qv_experiment(ONE, ONE, Q(1), 8, Law.normal(), [2], 40_000, 13)
    row = rep["rows"][0]
    assert abs(row["rhs"]["mean"] - np.trace(G)) < 4 * row["rhs"]["stderr"]


def test_fourth_moment_grid_slope():
    b = LegendreBasis(6)
    tab = GammaTables.for_law(Law.normal())
    pairs = [(Q(0), Q(1, 2**k)) for k in range(1, 5)]
    rep = fourth_moment_grid(ONE, ONE, b, tab, pairs)
    assert rep["slope"] >= 1.9
    assert all(r["holds"] for r in rep["rows"])  # near the origin the bound holds


def test_integral_is_centered_mc():
    from wicklab.chaos.basis import triangle_kernel
    from wicklab.laws import sample

    b = LegendreBasis(8)
    K, _ = triangle_kernel(ONE, ONE, b)
    A = K.floats()
    n = 200_000
    xs = sample(Law.exponential(1), 17, n * 8).reshape(n, 8)
    vals = np.einsum("pi,ij,pj->p", xs, A, xs) - np.trace(A)
    assert abs(vals.mean()) < 5 * vals.std() / np.sqrt(n)


def _qv_rows_oracle(B, G, g, strides, law, paths, seed):
    """The per-increment QV body: every increment of every stride gets its
    own quadratic form over all paths at once."""
    N = G.shape[0]
    m3 = float(standardized_moments(law, 3)[3])
    X = sample(law, seed, paths * N).reshape(paths, N)
    RHS = np.einsum("pi,pi->p", X @ G, X) + m3 * (X @ g)
    rows = []
    for stride in strides:
        Bd = B[::stride]
        QV = np.zeros(paths)
        for A in Bd[1:] - Bd[:-1]:
            inc = np.einsum("pi,pi->p", X @ A, X) - np.trace(A)
            QV += inc * inc
        err = (QV - RHS) ** 2
        rows.append(
            {
                "err": {"mean": err.mean(), "stderr": err.std(ddof=1) / math.sqrt(paths)},
                "qv": {"mean": QV.mean(), "stderr": QV.std(ddof=1) / math.sqrt(paths)},
                "rhs": {"mean": RHS.mean(), "stderr": RHS.std(ddof=1) / math.sqrt(paths)},
                "mean_gap": abs(QV.mean() - RHS.mean()),
                "mean_gap_stderr": math.sqrt(QV.std(ddof=1) ** 2 + RHS.std(ddof=1) ** 2)
                / math.sqrt(paths),
            }
        )
    return rows


def _dyadic_kernels(h1, h2, N, dmax):
    basis = LegendreBasis(N)
    B = cumulative_triangle(h1, h2, basis, [Q(k, 2**dmax) for k in range(2**dmax + 1)])
    G, g = qv_rhs_quadratics(h1, h2, basis, 1)
    return B, G, g


def assert_rows_match(rows, expected):
    assert len(rows) == len(expected)
    for row, exp in zip(rows, expected):
        for key in ("err", "qv", "rhs"):
            for stat in ("mean", "stderr"):
                assert row[key][stat] == pytest.approx(exp[key][stat], rel=1e-12, abs=0), (key, stat)
        for key in ("mean_gap", "mean_gap_stderr"):
            assert row[key] == pytest.approx(exp[key], rel=1e-12, abs=0), key


# The body walks the paths in blocks of 2**19 // (8 (N + 2**depth)) rows:
# 2048 at N = 16 and 3855 at N = 1 (depth 4), so 7777 and 20001 paths end on
# a partial block.
@pytest.mark.parametrize(
    "h1, h2, N, depths, paths, law",
    [
        (ONE, ONE, 8, [3, 1, 2], 3000, Law.exponential(1)),
        (ONE, ONE, 8, [1, 3], 3000, Law.normal()),
        (H1, H2, 8, [2, 2, 1, 2], 3000, Law.exponential(1)),
        (ONE, ONE, 8, [0], 3000, Law.normal()),
        (H1, ONE, 1, [2, 0, 4], 20_001, Law.exponential(1)),
        (H1, H2, 16, [4, 1, 3], 7777, Law.normal()),
    ],
)
def test_qv_rows_match_per_increment_oracle(h1, h2, N, depths, paths, law):
    rep = qv_experiment(h1, h2, Q(1), N, law, depths, paths, 3)
    dmax = max(depths)
    B, G, g = _dyadic_kernels(h1, h2, N, dmax)
    expected = _qv_rows_oracle(B, G, g, [2 ** (dmax - d) for d in depths], law, paths, 3)
    assert [row["depth"] for row in rep["rows"]] == list(depths)
    assert_rows_match(rep["rows"], expected)
    # the block's x' G x plus one m3 g.x over all paths is the oracle's RHS,
    # and the finest increments are the oracle's own, in the oracle's order
    for row, exp, d in zip(rep["rows"], expected, depths):
        assert row["rhs"] == exp["rhs"]
        if d == dmax:
            assert {k: row[k] for k in exp} == exp


def test_qv_joint_refinement_matches_per_increment_oracle():
    law = Law.exponential(1)
    rep = qv_joint_refinement(law, [(64, 3)], 10_000, 42)
    B, G, g = _dyadic_kernels(ONE, ONE, 64, 3)
    (expected,) = _qv_rows_oracle(B, G, g, [1], law, 10_000, 42)
    # with the body's own kernels the one depth is the finest, so the whole
    # row is the oracle's
    (row,) = rep["rows"]
    assert {k: row[k] for k in expected} == expected


def _traced_peak(body, *args) -> int:
    """Peak traced bytes of one call, after an untraced call has paid the
    one-time allocations (imports, caches) that a first call would count."""
    body(*args)
    tracemalloc.start()
    try:
        body(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "N, dmax, paths, law",
    [(16, 7, 2000, Law.normal()), (8, 6, 20_000, Law.exponential(1))],
)
def test_qv_rows_peak_memory_within_per_increment_oracle(N, dmax, paths, law):
    # a block's rows and pending increments, with the table of QV per depth,
    # must not cost more memory than the per-increment body's products
    B, G, g = _dyadic_kernels(ONE, ONE, N, dmax)
    strides = [2 ** (dmax - d) for d in range(1, dmax + 1)]
    args = (B, G, g, strides, law, paths, 5)
    assert _traced_peak(_qv_rows, *args) <= _traced_peak(_qv_rows_oracle, *args)


def _riemann_oracle(h, g, N, law, depths, paths, seed):
    """The full-array Riemann body: for each depth, the (paths x 2^d) products
    of the whole sample with the left points and the increments."""
    basis = LegendreBasis(N)
    dmax = max(depths)
    points = [Q(k, 2**dmax) for k in range(2**dmax + 1)]
    C_h = cumulative_coeffs(h, basis, points)
    C_g = cumulative_coeffs(g, basis, points)
    B = cumulative_triangle(h, g, basis, [1])[0]
    A = 0.5 * (B + B.T)
    X = sample(law, seed, paths * N).reshape(paths, N)
    I = np.einsum("pi,pi->p", X @ A, X) - np.trace(A)
    rows = []
    for d in depths:
        stride = 2 ** (dmax - d)
        ch = C_h[::stride]
        cg = C_g[::stride]
        dg = cg[1:] - cg[:-1]
        left = X @ ch[:-1].T
        right = X @ dg.T
        S = (left * right).sum(axis=1)
        err = (S - I) ** 2
        rows.append(
            {
                "depth": d,
                "err": {"mean": float(err.mean()), "stderr": float(err.std(ddof=1) / math.sqrt(paths))},
            }
        )
    return rows


# The body walks the paths in blocks of 2**19 // (8 (N + 3 2**dmax)) rows:
# 2048 at N = 8 (depth 3) and 1024 at N = 16 (depth 4), so 5000 and 7777
# paths end on a partial block.  (From N = 32 on, OpenBLAS may round a
# block's products differently from the whole sample's, in the last bits.)
@pytest.mark.parametrize(
    "h, g, N, depths, paths, law",
    [
        (ONE, ONE, 8, [3, 1, 3, 2], 3000, Law.normal()),
        (ONE, ONE, 8, [0], 3000, Law.normal()),
        (H1, H2, 8, [2, 0, 3], 5000, Law.exponential(1)),
        (H1, ONE, 16, [4, 1, 2, 3], 7777, Law.poisson(1)),
        (ONE, H2, 1, [1, 3], 2, Law.exponential(1)),
        (ONE, ONE, 16, [1, 2, 3, 4], 20_000, Law.normal()),
    ],
)
def test_riemann_rows_match_full_array_oracle(h, g, N, depths, paths, law):
    rep = riemann_experiment(h, g, N, law, depths, paths, 4)
    assert (rep["N"], rep["paths"], rep["seed"]) == (N, paths, 4)
    assert rep["rows"] == _riemann_oracle(h, g, N, law, depths, paths, 4)


def test_riemann_peak_memory_below_half_the_full_array_oracle():
    # a block's products and the (depths x paths) error table, against the
    # whole sample's (paths x 2^d) products: about 0.3 of the oracle's peak
    args = (ONE, ONE, 16, Law.normal(), [1, 2, 3, 4], 20_000, 5)
    assert 2 * _traced_peak(riemann_experiment, *args) <= _traced_peak(_riemann_oracle, *args)


@pytest.mark.parametrize("paths", [0, 1])
def test_riemann_needs_two_paths(paths):
    with pytest.raises(ValueError, match="paths must be >= 2"):
        riemann_experiment(ONE, ONE, 4, Law.normal(), [1, 2], paths, 0)
