"""Convergence experiments: Riemann sums, quadratic variation, bound grids."""

import math
import tracemalloc
from fractions import Fraction as Q

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from wicklab.chaos.basis import LegendreBasis, PiecewisePoly, coeffs_of, triangle_kernel
from wicklab.chaos.experiments import (
    _Moments,
    _block_rows,
    _check_qv_size,
    _fold_paths,
    _form_route,
    _form_table,
    _qv_rows,
    _qv_summary,
    _quadratic_form,
    _skewness,
    cumulative_coeffs,
    cumulative_triangle,
    legendre_float_cumulative,
    qv_experiment,
    qv_joint_refinement,
    qv_rhs_quadratics,
    riemann_experiment,
)
from wicklab.chaos.identities import fourth_moment_grid
from wicklab.chaos.tensors import GammaTables
from wicklab.laws import Law, sample, standardized_moments

from oracles import antiderivative, mul_poly, qv_rows_per_increment, riemann_rows_by_products

ONE = PiecewisePoly.constant(1)


def exact_G(h1, h2, basis, t):
    """G[u,v] = int_0^t h2^2 c_u c_v with c_u(s) = <h1 1_(0,s], e_u>, built
    exactly as a piecewise-polynomial antiderivative and then rounded."""
    N = basis.N
    h2sq = h2 * h2
    cs = [antiderivative(mul_poly(h1, basis.poly(u + 1))) for u in range(N)]
    G = np.zeros((N, N))
    for u in range(N):
        for v in range(u, N):
            F = antiderivative(h2sq * (cs[u] * cs[v]))
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
    Bfl, Gfl, gfl = legendre_float_cumulative(12, 3, 1)
    assert Bfl.shape == (9, 12, 12) and not Bfl[0].any()
    for k in (1, 3, 8):
        assert close(Bfl[k], exact_B(ONE, ONE, b, Q(k, 8)))
    assert close(Gfl, exact_G(ONE, ONE, b, 1))
    assert np.array_equal(np.diag(Gfl), gfl)


# non-dyadic cuts; h1 vanishes on (5/7, 1] and h2 on (2/7, 1/3]
H1 = PiecewisePoly(((Q(0), Q(1, 3), (Q(1), Q(2))), (Q(1, 3), Q(5, 7), (Q(-1), Q(0), Q(3)))))
H2 = PiecewisePoly(((Q(0), Q(2, 7), (Q(2),)), (Q(1, 3), Q(1), (Q(1), Q(-3, 2)))))
GAPPED = PiecewisePoly(((Q(1, 4), Q(1, 2), (Q(1), Q(-1))), (Q(3, 4), Q(1), (Q(2), Q(0), Q(1)))))
RISE = PiecewisePoly(((Q(0), Q(1), (Q(1), Q(2))),))  # 1 + 2y
FALL = PiecewisePoly(((Q(0), Q(1), (Q(3), Q(-1))),))  # 3 - y


@pytest.mark.parametrize(
    "call",
    [
        lambda: cumulative_triangle(ONE, ONE, LegendreBasis(2), [0.1]),
        lambda: cumulative_coeffs(ONE, LegendreBasis(2), [Q(1, 2), 0.5]),
        lambda: qv_rhs_quadratics(ONE, ONE, LegendreBasis(2), 0.1),
        lambda: legendre_float_cumulative(2, 1, 0.1),
        lambda: qv_experiment(ONE, ONE, 0.1, 2, Law.normal(), [1], 10, 0),
        lambda: qv_joint_refinement(Law.normal(), [(2, 1)], 10, 0, t=0.1),
    ],
    ids=["triangle", "coeffs", "rhs", "legendre", "qv", "joint"],
)
def test_float_kernel_routes_take_exact_points_only(call):
    # a float's binary expansion is not the rational it was written as
    with pytest.raises(TypeError, match="exact rational"):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda: cumulative_triangle(ONE, ONE, LegendreBasis(2), [Q(1, 2), Q(-1, 4)]),
        lambda: cumulative_coeffs(ONE, LegendreBasis(2), [Q(-1, 2), Q(1, 2)]),
        lambda: qv_rhs_quadratics(ONE, ONE, LegendreBasis(2), Q(-1, 2)),
        lambda: triangle_kernel(ONE, ONE, LegendreBasis(2), t_cut=Q(-1, 2)),
        lambda: coeffs_of(ONE, LegendreBasis(2), t_cut=Q(-1, 4)),
    ],
    ids=["triangle", "coeffs", "rhs", "exact-triangle", "exact-coeffs"],
)
def test_float_kernel_routes_reject_negative_points(call):
    # the kernels integrate from 0: a negative point would start the sweep
    # there and leave the other points' kernels integrated from it; the
    # exact entry points walk the same intervals and reject it too
    with pytest.raises(ValueError, match=">= 0"):
        call()


@pytest.mark.parametrize("N", [3, 16])
def test_float_kernels_match_exact_on_piecewise_h(N):
    b = LegendreBasis(N)
    cases = [
        (H2, [Q(0), Q(1, 5), Q(2, 7), Q(1, 2), Q(5, 7), Q(9, 10)]),
        # h2 vanishes before 1/4 and on (1/2, 3/4]: only H advances there
        (GAPPED, [Q(k, 8) for k in range(9)]),
    ]
    for h2, points in cases:
        B = cumulative_triangle(H1, h2, b, points)
        assert B.shape == (len(points), N, N) and not B[0].any()
        for p, Bp in zip(points[1:], B[1:]):
            assert close(Bp, exact_B(H1, h2, b, p)), p
        C = cumulative_coeffs(H1, b, points)
        for p, Cp in zip(points[1:], C[1:]):
            assert close(Cp, coeffs_of(H1, b, t_cut=p).floats()), p
        G, g = qv_rhs_quadratics(H1, h2, b, Q(9, 10))
        assert close(G, exact_G(H1, h2, b, Q(9, 10)))
        assert np.array_equal(np.diag(G), g)


def test_cumulative_coeffs_holds_no_kernel_stack():
    # with no h2 the sweep holds C and H, not a (points x N x N) stack of
    # zero kernels, which would take 4.6 MB here
    points = [Q(k, 128) for k in range(129)]
    assert _traced_peak(cumulative_coeffs, H1, LegendreBasis(64), points) < 2**20
    # the triangle kernels of h2 = 0 still come as a writable zero stack
    B = cumulative_triangle(H1, PiecewisePoly(()), LegendreBasis(4), points[:3])
    assert B.shape == (3, 4, 4) and not B.any() and B.flags.writeable


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


def test_qv_basis_must_match_the_truncation():
    with pytest.raises(ValueError, match="truncation"):
        qv_experiment(ONE, ONE, Q(1), 8, Law.normal(), [1], 100, 0, basis=LegendreBasis(4))


@pytest.mark.parametrize(
    "law",
    [Law.normal(), Law.exponential(1), Law.exponential(2), Law.poisson(1), Law.gamma(4, 1),
     Law.binomial(4, Q(1, 2))],
    ids=Law.label,
)
def test_skewness_is_the_standardized_third_moment(law):
    # where the variance is a rational square both routes exist and agree
    assert _skewness(law) == float(standardized_moments(law, 3)[3])


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
    for key in ("err", "qv", "rhs", "mean_gap", "mean_gap_stderr", "mean_gap_paired_stderr"):
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
    own quadratic form over all paths at once, and numpy's two passes over
    all paths give the statistics."""
    N = G.shape[0]
    X = sample(law, seed, paths * N).reshape(paths, N)
    RHS = np.einsum("pi,pi->p", X @ G, X) + _skewness(law) * np.einsum("pi,i->p", X, g)
    rows = []
    for stride in strides:
        Bd = B[::stride]
        QV = np.zeros(paths)
        for A in Bd[1:] - Bd[:-1]:
            inc = np.einsum("pi,pi->p", X @ A, X) - np.trace(A)
            QV += inc * inc
        paired = (QV - RHS).std(ddof=1) / math.sqrt(paths)
        err = (QV - RHS) ** 2
        rows.append(
            {
                "err": {"mean": err.mean(), "stderr": err.std(ddof=1) / math.sqrt(paths)},
                "qv": {"mean": QV.mean(), "stderr": QV.std(ddof=1) / math.sqrt(paths)},
                "rhs": {"mean": RHS.mean(), "stderr": RHS.std(ddof=1) / math.sqrt(paths)},
                "mean_gap": abs(QV.mean() - RHS.mean()),
                "mean_gap_stderr": math.sqrt(QV.std(ddof=1) ** 2 + RHS.std(ddof=1) ** 2)
                / math.sqrt(paths),
                "mean_gap_paired_stderr": paired,
            }
        )
    return rows


def _fold_tables(tables, rows, cap):
    """A ``_Moments`` fed whole-sample tables (quantities x paths) in blocks
    of ``rows`` paths, as a body feeds its own into a buffer of ``cap``."""
    moments = _Moments(len(tables), cap)
    for lo in range(0, tables.shape[1], rows):
        block = tables[:, lo : lo + rows]
        moments.take(block.shape[1])[:] = block
    return moments


def _qv_rows_folded(B, G, g, strides, law, paths, seed):
    """The per-increment body's tables through the QV body's statistics, on
    its blocks and folds: ``==`` to the body's rows wherever the per-path
    values are the same bits."""
    N, K, D = G.shape[0], len(B) - 1, len(strides)
    X = sample(law, seed, paths * N).reshape(paths, N)
    RHS = np.einsum("pi,pi->p", X @ G, X) + _skewness(law) * np.einsum("pi,i->p", X, g)
    QV = np.zeros((D, paths))
    for QVd, stride in zip(QV, strides):
        Bd = B[::stride]
        for A in Bd[1:] - Bd[:-1]:
            inc = np.einsum("pi,pi->p", X @ A, X) - np.trace(A)
            QVd += inc * inc
    gap = QV - RHS
    tables = np.vstack([QV, gap, gap**2, RHS])
    folds = _fold_paths(N, K, paths, 2, 3 * D + 1)
    return _qv_summary(_fold_tables(tables, _block_rows(N, K, paths, 2), folds), D)


def _dyadic_kernels(h1, h2, N, dmax):
    basis = LegendreBasis(N)
    B = cumulative_triangle(h1, h2, basis, [Q(k, 2**dmax) for k in range(2**dmax + 1)])
    G, g = qv_rhs_quadratics(h1, h2, basis, 1)
    return B, G, g


def assert_rows_match(rows, expected):
    """Every statistic within 1e-12 relative rounding, ``mean_gap`` on the
    scale of the two means it is the difference of."""
    assert len(rows) == len(expected)
    for row, exp in zip(rows, expected):
        for key in ("err", "qv", "rhs"):
            for stat in ("mean", "stderr"):
                assert row[key][stat] == pytest.approx(exp[key][stat], rel=1e-12, abs=0), (key, stat)
        for key in ("mean_gap_stderr", "mean_gap_paired_stderr"):
            assert row[key] == pytest.approx(exp[key], rel=1e-12, abs=0), key
        scale = abs(exp["qv"]["mean"]) + abs(exp["rhs"]["mean"])
        assert abs(row["mean_gap"] - exp["mean_gap"]) <= 1e-12 * scale, "mean_gap"


def _gemm_route(N, K):
    """Whether a table of K forms in N variables takes the GEMM route."""
    return _form_route(K, N)[0]


def _qv_block_rows(paths, N, K):
    """Rows per block of ``_qv_rows``, whose rows hold two tables of K forms."""
    return _block_rows(N, K, paths, 2)


# The body walks the paths in blocks of ``_qv_block_rows`` rows, K = 2**depth,
# each capped at the sample's bytes: 1944 at N = 16 (depth 4, 7777 paths),
# 540 at N = 1 (depth 4, 20001 paths), 13 at N = 16 (depth 7, 456 paths) and
# 1333 at N = 8 (depth 0, 3000 paths), so 20001 and 3000 paths end on a
# partial block and 7777 and 456 on a one-row block.  N = 1 and depth 4, and
# N = 16 and depth 7, take the GEMM route.
@pytest.mark.parametrize(
    "h1, h2, N, depths, paths, law",
    [
        (ONE, ONE, 8, [3, 1, 2], 3000, Law.exponential(1)),
        (ONE, ONE, 8, [1, 3], 3000, Law.normal()),
        (H1, H2, 8, [2, 2, 1, 2], 3000, Law.exponential(1)),
        (ONE, ONE, 8, [0], 3000, Law.normal()),
        (H1, ONE, 1, [2, 0, 4], 20_001, Law.exponential(1)),
        (H1, H2, 16, [4, 1, 3], 7777, Law.normal()),
        (RISE, FALL, 16, [7, 2], 456, Law.exponential(1)),
    ],
)
def test_qv_rows_match_per_increment_oracle(h1, h2, N, depths, paths, law):
    rep = qv_experiment(h1, h2, Q(1), N, law, depths, paths, 3)
    dmax = max(depths)
    B, G, g = _dyadic_kernels(h1, h2, N, dmax)
    expected = _qv_rows_oracle(B, G, g, [2 ** (dmax - d) for d in depths], law, paths, 3)
    assert [row["depth"] for row in rep["rows"]] == list(depths)
    # the body folds its statistics block by block, numpy takes two passes
    # over all paths: the same per-path values summed in another order
    assert_rows_match(rep["rows"], expected)
    # the block's x' G x plus one m3 g.x over all paths is the oracle's RHS,
    # and the finest increments are the oracle's own, in the oracle's order,
    # where the body takes one product per increment (off the GEMM route):
    # through the body's folds, the same bits
    folded = _qv_rows_folded(B, G, g, [2 ** (dmax - d) for d in depths], law, paths, 3)
    for row, exp, d in zip(rep["rows"], folded, depths):
        assert row["rhs"] == exp["rhs"]
        if d == dmax and not _gemm_route(N, 2**dmax):
            assert {k: row[k] for k in exp} == exp


@pytest.mark.parametrize("paths", [456, 2000])
def test_qv_rows_match_per_increment_oracle_at_depth_7(paths):
    # the oracle's m3 g.x is the body's row-wise einsum: one GEMV over all
    # paths rounds the RHS mean differently at these shapes and this seed;
    # the K = 128 increments at N = 16 take the GEMM route, within rounding
    law = Law.exponential(1)
    (row,) = qv_experiment(RISE, FALL, Q(1), 16, law, [7], paths, 5)["rows"]
    kernels = _dyadic_kernels(RISE, FALL, 16, 7)
    (expected,) = _qv_rows_oracle(*kernels, [1], law, paths, 5)
    assert row["rhs"] == _qv_rows_folded(*kernels, [1], law, paths, 5)[0]["rhs"]
    assert_rows_match([row], [expected])


def test_qv_joint_refinement_matches_per_increment_oracle():
    law = Law.exponential(1)
    rep = qv_joint_refinement(law, [(64, 3)], 10_000, 42)
    B, G, g = _dyadic_kernels(ONE, ONE, 64, 3)
    (expected,) = _qv_rows_oracle(B, G, g, [1], law, 10_000, 42)
    assert_rows_match(rep["rows"], [expected])
    # with the body's own kernels the one depth is the finest, so the whole
    # row is the oracle's through the body's folds
    (row,) = rep["rows"]
    (folded,) = _qv_rows_folded(B, G, g, [1], law, 10_000, 42)
    assert {k: row[k] for k in folded} == folded


def _last_block(paths, N, K) -> str:
    rows = _qv_block_rows(paths, N, K)
    last = (paths - 1) % rows + 1
    return "one row" if last == 1 else "full" if last == rows else "partial"


@st.composite
def _qv_shapes(draw):
    """(N, K, strides, paths): depths with repeats in any order, and a path
    count whose last block of ``_qv_rows`` is full, one row or partial."""
    N, dmax = draw(st.integers(1, 64)), draw(st.integers(0, 7))
    K = 2**dmax
    depths = draw(st.lists(st.integers(0, dmax), min_size=1, max_size=5))
    most = max(2, min(600, 4_000_000 // (N * N * K)))
    paths = draw(st.integers(2, most))
    last = draw(st.sampled_from(["full", "one row", "partial"]))
    paths = next((p for p in range(paths, 2 * most) if _last_block(p, N, K) == last), paths)
    return N, K, [2 ** (dmax - d) for d in depths], paths


@given(
    _qv_shapes(), st.sampled_from([Law.normal(), Law.exponential(1)]), st.integers(0, 2**32 - 1)
)
@example((16, 128, [1, 16, 1], 2001), Law.normal(), 0)
@example((17, 64, [64, 1, 2], 101), Law.exponential(1), 1)
@example((64, 128, [128, 1], 5), Law.normal(), 2)
@example((1, 1, [1, 1], 2), Law.exponential(1), 3)
@example((32, 64, [64, 1, 2], 33), Law.normal(), 4)
@example((64, 128, [1, 2], 2000), Law.exponential(1), 5)
@example((64, 64, [64, 1], 1501), Law.normal(), 6)
@example((64, 128, [1, 2], 2500), Law.exponential(1), 7)
@example((64, 64, [64, 1], 3001), Law.normal(), 8)
@settings(max_examples=60, deadline=None)
def test_qv_rows_match_per_increment_body(shape, law, seed):
    # the increment table and its level sums give every row of the
    # per-increment body, through the same statistics on the same blocks of
    # paths, whatever the shape (other blocks can move a row in the last
    # bits through the BLAS and the folds, see the experiments module): the
    # same bits where the table takes
    # one product per increment, within rounding on the GEMM route; the
    # kernels need not be symmetric.  At (N, K) = (64, 128) the GEMM route's
    # packed operand outgrows _BLOCK_BYTES, and with more than 2048 paths it
    # sets the blocks (35 rows at 2500 paths, where _BLOCK_BYTES holds 28);
    # at (64, 64) the per-matrix route's operand is as large, and its blocks
    # keep to _BLOCK_BYTES (512 rows at 3001 paths; with fewer than 2048
    # paths the sample's bytes cap them, 375 rows at 1501)
    N, K, strides, paths = shape
    rng = np.random.default_rng(seed)
    B, G = rng.standard_normal((K + 1, N, N)), rng.standard_normal((N, N))
    g = rng.standard_normal(N)
    rows = _qv_rows(np.diff(B, axis=0), G, g, strides, law, paths, seed)
    expected = qv_rows_per_increment(B, G, g, strides, law, paths, seed)
    if _gemm_route(N, K):
        assert_rows_match(rows, expected)
    else:
        assert rows == expected


@st.composite
def _form_shapes(draw):
    """(K, N, rows): K on both sides of K = N, N in 1-24 and 30-36, and a
    block of one row, a partial block or a full block of ``_qv_rows``."""
    N = draw(st.one_of(st.integers(1, 24), st.integers(30, 36)))
    K = draw(st.sampled_from([1, max(1, N - 1), N, N + 1, 2 * N, draw(st.integers(1, 80))]))
    full = _qv_block_rows(10**6, N, K)
    rows = draw(st.sampled_from([1, full, draw(st.integers(2, max(2, full - 1)))]))
    return K, N, rows


@given(_form_shapes(), st.integers(0, 2**32 - 1))
@example((8, 8, 1), 0)
@example((9, 8, 315), 1)
@example((17, 16, 2), 2)
@example((64, 8, 315), 3)
@example((64, 32, 44), 4)
@example((66, 33, 40), 5)
@settings(max_examples=80, deadline=None)
def test_form_table_matches_one_form_per_matrix(shape, seed):
    # out[k] = x' A_k x + c_k for non-symmetric A_k: the per-matrix route's
    # own bits, and the GEMM route within its rounding bound.  Each route
    # sums at most N (N + 1) / 2 + 2N products of entries of A, x and x, so
    # they differ by at most that many roundings of
    # sum_ij |A_ij| |x_i| |x_j|, and the constant c_k, added last on one
    # route and inside the GEMM's sum on the other, by one rounding of |c_k|.
    K, N, rows = shape
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((K, N, N)) * np.exp(rng.standard_normal((K, N, N)))
    c = rng.standard_normal(K) * np.exp(rng.standard_normal(K))
    X = rng.standard_normal((rows, N))
    out = np.empty((K, rows))
    _form_table(A, c)(X, out)
    expected = np.array([_quadratic_form(X, Ak) + ck for Ak, ck in zip(A, c)])
    if not _gemm_route(N, K):
        assert np.array_equal(out, expected)
    else:
        scale = np.einsum("kij,pi,pj->kp", np.abs(A), np.abs(X), np.abs(X))
        bound = (N * (N + 1) // 2 + 2 * N + 3) * np.finfo(float).eps * scale
        bound += np.finfo(float).eps * np.abs(c)[:, None]
        assert (np.abs(out - expected) <= bound).all()


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
    [
        (16, 7, 2000, Law.normal()),
        (8, 6, 20_000, Law.exponential(1)),
        (8, 6, 911, Law.exponential(1)),
        (16, 4, 2049, Law.normal()),
    ],
)
def test_qv_rows_peak_memory_within_per_increment_oracle(N, dmax, paths, law):
    # a body holds one block (its rows and pending increments) and the
    # moments' buffer, which must not cost more memory than the
    # per-increment body's products
    B, G, g = _dyadic_kernels(ONE, ONE, N, dmax)
    strides = [2 ** (dmax - d) for d in range(1, dmax + 1)]
    args = (B, G, g, strides, law, paths, 5)
    assert _traced_peak(_qv_rows_of_cumulative, *args) <= _traced_peak(_qv_rows_oracle, *args)


def _qv_rows_of_cumulative(B, *args):
    """``_qv_rows`` on the increments of the cumulative kernels B, taken in a
    copy, as the oracle takes its increments from B."""
    return _qv_rows(np.diff(B, axis=0), *args)


@pytest.mark.parametrize(
    "N, dmax, paths", [(8, 6, 20_000), (16, 7, 2000), (128, 8, 2000), (256, 6, 2000)]
)
def test_qv_traced_peak_within_the_size_count(N, dmax, paths):
    # what _check_qv_size counts bounds what the call holds, on the GEMM
    # route (K > N: (8, 6), (16, 7), (128, 8)) and on the per-matrix route
    depths = list(range(1, dmax + 1))
    peak = _traced_peak(qv_experiment, ONE, ONE, Q(1), N, Law.normal(), depths, paths, 0)
    assert peak <= _check_qv_size(N, depths, paths)


def test_qv_holds_one_kernel_stack():
    # the increments are taken in place on the stack of cumulative kernels,
    # which the sweep fills as it goes: at (N, depth) = (256, 6) the stack is
    # 34 MB and the whole call holds 1.13 of it, so a second copy of the
    # kernels anywhere in the call would fail this
    N, dmax = 256, 6
    peak = _traced_peak(qv_experiment, ONE, ONE, Q(1), N, Law.normal(), [dmax], 2000, 0)
    assert peak <= 1.2 * 8 * (2**dmax + 1) * N * N


def _riemann_kernels(h, g, N, depths):
    """(D, tr A): the body's kernels x' D_d x + tr A = S_d - I, one per depth."""
    basis = LegendreBasis(N)
    dmax = max(depths)
    points = [Q(k, 2**dmax) for k in range(2**dmax + 1)]
    C_h = cumulative_coeffs(h, basis, points)
    C_g = cumulative_coeffs(g, basis, points)
    B = cumulative_triangle(h, g, basis, [1])[0]
    A = 0.5 * (B + B.T)
    D = []
    for d in depths:
        s = 2 ** (dmax - d)
        P = C_h[::s][:-1].T @ (C_g[::s][1:] - C_g[::s][:-1])
        D.append(0.5 * (P + P.T) - A)
    return D, np.trace(A)


def _riemann_errs(h, g, N, law, depths, paths, seed):
    """The full-array Riemann body: for each depth in turn, (S_d - I)^2 by
    the quadratic form x' D_d x + tr A = S_d - I over the whole sample."""
    D, trace = _riemann_kernels(h, g, N, depths)
    X = sample(law, seed, paths * N).reshape(paths, N)
    for Dd in D:
        yield (np.einsum("pi,pi->p", X @ Dd, X) + trace) ** 2


def _riemann_oracle(h, g, N, law, depths, paths, seed):
    """The full-array Riemann rows, by numpy's two passes over all paths."""
    rows = []
    for d, err in zip(depths, _riemann_errs(h, g, N, law, depths, paths, seed)):
        rows.append(
            {
                "depth": d,
                "err": {"mean": float(err.mean()), "stderr": float(err.std(ddof=1) / math.sqrt(paths))},
            }
        )
    return rows


# The body walks the paths in blocks of ``_block_rows(N, len(depths), paths, 1)``
# rows: 1200 at N = 8 (four depths, 3000 paths), 1411 at N = 8 (one depth,
# 3000 paths), 2105 at N = 8 (three, 5000 paths), 3456 and 3640 at N = 16
# (four, 7777 and 20000 paths) and one at N = 1, so 3000, 5000, 7777 and
# 20000 paths end on a partial block and 2 paths at N = 1 on one-row blocks.
# (At N = 17-19, 25-27, 33-35 and N > 40, OpenBLAS may round a block's
# products differently from the whole sample's, in the last bits.)
RIEMANN_SHAPES = [
    (ONE, ONE, 8, [3, 1, 3, 2], 3000, Law.normal()),
    (ONE, ONE, 8, [0], 3000, Law.normal()),
    (H1, H2, 8, [2, 0, 3], 5000, Law.exponential(1)),
    (H1, ONE, 16, [4, 1, 2, 3], 7777, Law.poisson(1)),
    (ONE, H2, 1, [1, 3], 2, Law.exponential(1)),
    (ONE, ONE, 16, [1, 2, 3, 4], 20_000, Law.normal()),
]


@pytest.mark.parametrize("h, g, N, depths, paths, law", RIEMANN_SHAPES)
def test_riemann_rows_match_full_array_oracle(h, g, N, depths, paths, law):
    # the same per-path values with one product per depth (with more depths
    # than the truncation, N = 1 and two depths, the GEMM route, whose
    # A (x x) against the oracle's (x A) x, two roundings each, gives the
    # same values here), folded block by block against numpy's two passes
    # over all paths: within rounding, and the same bits through the folds
    rep = riemann_experiment(h, g, N, law, depths, paths, 4)
    assert (rep["N"], rep["paths"], rep["seed"]) == (N, paths, 4)
    expected = _riemann_oracle(h, g, N, law, depths, paths, 4)
    assert [row["depth"] for row in rep["rows"]] == [row["depth"] for row in expected]
    for row, exp in zip(rep["rows"], expected):
        for stat in ("mean", "stderr"):
            assert row["err"][stat] == pytest.approx(exp["err"][stat], rel=1e-12, abs=0)
    # through the body's blocks and folds, the same bits
    K = len(depths)
    errs = np.array(list(_riemann_errs(h, g, N, law, depths, paths, 4)))
    folds = _fold_tables(errs, _block_rows(N, K, paths, 1), _fold_paths(N, K, paths, 1, K))
    assert [row["err"] for row in rep["rows"]] == folds.stats()


@pytest.mark.parametrize("h, g, N, depths, paths, law", RIEMANN_SHAPES)
def test_riemann_rows_match_the_sums_definition(h, g, N, depths, paths, law):
    # one form per depth against the sums' own (paths x 2^d) products: the
    # two round differently, in the last bits
    rows = riemann_experiment(h, g, N, law, depths, paths, 4)["rows"]
    expected = riemann_rows_by_products(h, g, N, law, depths, paths, 4)
    assert [row["depth"] for row in rows] == [row["depth"] for row in expected]
    for row, exp in zip(rows, expected):
        for stat in ("mean", "stderr"):
            assert row["err"][stat] == pytest.approx(exp["err"][stat], rel=1e-12, abs=0)


@pytest.mark.parametrize(
    "h, g, N, depths, law",
    [
        (ONE, ONE, 16, [1, 2, 3, 4], Law.normal()),
        (H1, RISE, 8, [0, 1, 2, 3, 5], Law.exponential(1)),
        (ONE, ONE, 12, [1, 3], Law.poisson(1)),
    ],
    ids=["normal", "exponential", "poisson"],
)
def test_riemann_error_mean_matches_closed_form(h, g, N, depths, law):
    # S_d - I = x' D_d x + tr A for standardized iid x, so
    # E|S_d - I|^2 = 2 sum_{j != k} D_jk^2 + (m4 - 1) sum_j D_jj^2 + (tr P_d)^2,
    # as tr D_d + tr A = tr P_d
    paths = 200_000
    rep = riemann_experiment(h, g, N, law, depths, paths, 3)
    m4 = float(standardized_moments(law, 4)[4])
    D, trace = _riemann_kernels(h, g, N, depths)
    for row, Dd in zip(rep["rows"], D):
        diag = np.diag(Dd)
        exact = 2 * ((Dd**2).sum() - (diag**2).sum()) + (m4 - 1) * (diag**2).sum()
        exact += (diag.sum() + trace) ** 2
        err = row["err"]
        assert abs(err["mean"] - exact) < 5 * err["stderr"], (row["depth"], err, exact)


def test_riemann_peak_memory_below_half_the_full_array_oracle():
    # a body holds one block (its rows and products) and the moments'
    # buffer, against the whole sample and its product with each D_d
    args = (ONE, ONE, 16, Law.normal(), [1, 2, 3, 4], 20_000, 5)
    assert 2 * _traced_peak(riemann_experiment, *args) <= _traced_peak(_riemann_oracle, *args)


@pytest.mark.parametrize("law", [Law.normal(), Law.poisson(1)], ids=Law.label)
def test_monte_carlo_bodies_never_hold_the_whole_sample(law):
    # each block of paths is drawn just before it is used: at N = 32, depth 2
    # and 2e4 paths the sample alone is 4.9 MiB, and each body peaks below half
    N, paths = 32, 20_000
    sample_bytes = 8 * paths * N
    B, G, g = _dyadic_kernels(ONE, ONE, N, 2)
    assert 2 * _traced_peak(_qv_rows_of_cumulative, B, G, g, [2, 1], law, paths, 5) < sample_bytes
    assert 2 * _traced_peak(riemann_experiment, ONE, ONE, N, law, [1, 2], paths, 5) < sample_bytes


@pytest.mark.parametrize(
    "body, args",
    [
        (qv_experiment, (ONE, ONE, Q(1), 8, Law.exponential(1), [1, 2, 3, 4, 5, 6])),
        (riemann_experiment, (ONE, ONE, 16, Law.normal(), [1, 2, 3, 4])),
    ],
    ids=["qv", "riemann"],
)
def test_monte_carlo_memory_does_not_grow_with_the_paths(body, args):
    # the statistics fold into O(depths) moments as the blocks come, and the
    # blocks and the moments' buffer reach their full size well below 2e4
    # paths, so ten times the paths add no table of them
    small = _traced_peak(body, *args, 20_000, 7)
    assert _traced_peak(body, *args, 200_000, 7) <= small + 2**16


def _fed_moments(X, cap, sizes) -> list:
    """``_Moments`` of the rows of X over blocks of the given sizes."""
    moments = _Moments(len(X), cap)
    lo = 0
    for n in sizes:
        moments.take(n)[:] = X[:, lo : lo + n]
        lo += n
    return moments.stats()


@st.composite
def _splits(draw, most=300):
    """(paths, cap, sizes): a buffer of cap paths and blocks of at most cap
    paths that add up to paths >= 2."""
    paths = draw(st.integers(2, most))
    cap = draw(st.integers(1, paths))
    sizes, left = [], paths
    while left:
        sizes.append(draw(st.integers(1, min(cap, left))))
        left -= sizes[-1]
    return paths, cap, sizes


@given(
    _splits(),
    st.integers(1, 4),
    st.sampled_from([0.0, 1e8, -3e5]),
    st.floats(1e-3, 1e3),
    st.integers(0, 2**32 - 1),
)
@example((2, 2, [2]), 1, 0.0, 1.0, 0)
@example((2, 1, [1, 1]), 3, 1e8, 1.0, 1)
@example((200, 7, [1] * 200), 2, 1e8, 1.0, 2)
@example((300, 64, [64, 1, 63, 64, 64, 44]), 4, -3e5, 1e3, 3)
@settings(max_examples=80, deadline=None)
def test_moments_match_two_passes(split, q, offset, scale, seed):
    # against numpy's two-pass mean and std(ddof=1) over all paths at once:
    # the means agree within n eps max|x| (either side sums n values of at
    # most max|x|), the standard deviations within 4 eps max|x| + n eps sd
    # (rounding the centred values moves sd by about eps max|x|, a sum of n
    # squares its square by n eps)
    paths, cap, sizes = split
    rng = np.random.default_rng(seed)
    X = offset + scale * rng.standard_normal((q, paths)) * rng.exponential(1.0, (q, paths))
    eps = np.finfo(float).eps
    for x, stats in zip(X, _fed_moments(X, cap, sizes)):
        big, sd = np.abs(x).max(), x.std(ddof=1)
        got = stats["stderr"] * math.sqrt(paths)
        assert abs(stats["mean"] - x.mean()) <= paths * eps * big
        assert abs(got - sd) <= 4 * eps * big + paths * eps * sd
        assert stats["stderr"] >= 0


@given(_splits(), st.floats(-1e300, 1e300), st.integers(1, 3))
@example((3, 2, [2, 1]), 0.1, 1)
@example((5, 5, [1, 4]), 1e8 + 0.3, 2)
@settings(max_examples=40, deadline=None)
def test_moments_of_constant_data_have_no_spread(split, value, q):
    # every centred value is exactly 0 and so is every fold's mean shift
    paths, cap, sizes = split
    for stats in _fed_moments(np.full((q, paths), value), cap, sizes):
        assert stats == {"mean": value, "stderr": 0.0}


@pytest.mark.parametrize(
    "call",
    [
        lambda: qv_experiment(ONE, ONE, Q(1), 8, Law.normal(), [1, 30], 100, 0),
        lambda: qv_experiment(ONE, ONE, Q(1), 10**6, Law.normal(), [1], 2, 0),
        lambda: qv_experiment(ONE, ONE, Q(1), 2, Law.normal(), [1], 10**9, 0),
        lambda: qv_experiment(ONE, ONE, Q(1), 1, Law.normal(), [26], 100, 0),
        lambda: qv_joint_refinement(Law.normal(), [(4, 1), (1024, 10)], 100, 0),
    ],
    ids=["depth", "truncation", "paths", "grid points", "joint"],
)
def test_qv_above_the_size_cap_returns_at_once(call):
    # the request is rejected before any grid point or array is built: 2^30
    # points alone would take minutes, and the arrays terabytes; at N = 1 the
    # 2^26 points' kernels take 512 MiB, their Python objects tens of GiB
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="above the cap"):
            call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**16


def test_qv_size_cap_admits_the_deep_points():
    # (N, depth) = (1024, 6) at 10^4 and 10^5 paths: 65 kernels of 1024^2
    # floats, 546 MB, 101 MB of sweep work space and a block of 1 MB (the
    # per-matrix route's blocks keep to _BLOCK_BYTES); and the shallow
    # depths at small N
    _check_qv_size(1024, [6], 10_000)
    _check_qv_size(1024, [6], 10**5)
    _check_qv_size(512, [1, 2, 3, 4, 5, 6], 10_000)
    _check_qv_size(8, list(range(1, 13)), 200_000)


@pytest.mark.parametrize("paths", [0, 1])
def test_riemann_needs_two_paths(paths):
    with pytest.raises(ValueError, match="paths must be >= 2"):
        riemann_experiment(ONE, ONE, 4, Law.normal(), [1, 2], paths, 0)
