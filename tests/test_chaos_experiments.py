"""Convergence experiments: Riemann sums, quadratic variation, bound grids."""

import math
from fractions import Fraction as Q

import numpy as np
import pytest

from wicklab.chaos.basis import LegendreBasis, PiecewisePoly, coeffs_of, triangle_kernel
from wicklab.chaos.experiments import (
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
from wicklab.laws import Law

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
