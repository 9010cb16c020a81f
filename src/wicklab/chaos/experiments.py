"""Monte Carlo convergence experiments for the stochastic integral.

The process under study is Z_t = the integral of Phi(h1)_s against
d Phi(h2)_s up to t, realized at truncation N through its kernel matrix.
Increment kernels over a partition are differences of the cumulative kernel

    B(t)[u,v] = < h1 (x) (h2 1_(0,t]) 1_C , e_u (x) e_v >,

which one float sweep evaluates at the dyadic grid: Gauss-Legendre rules with
enough nodes on each interval between the breakpoints integrate every
polynomial integrand exactly, so the kernels carry only rounding error (the
exact kernels of the identities stay in ``triangle_kernel``).  Monte Carlo
then takes one quadratic form per increment of the finest partition and
builds every coarser partition's increments as sums of adjacent finer ones.

Both Monte Carlo bodies draw the whole sample X once and walk it in blocks
of rows sized by ``_BLOCK_BYTES``, so they hold X, a per-path table of
results and one block's products, never a (paths x columns) product of the
whole sample.  Each result is a row-by-row sum, so it does not depend on the
block size as long as the BLAS rounds a block's matrix-matrix product as it
rounds the whole one.  OpenBLAS 0.3.31 (AVX-512) does for the shapes the
command line and the benchmark use; from N = 32 on it picks other kernels for
some block shapes, which moved Riemann rows by at most 4e-16 relative.  A
matrix-vector product (GEMV) split by rows rounds differently (about 3e-14
relative at N = 256), so the linear term m3 g.x of the quadratic-variation
limit stays one product over all paths.

Two hard facts shape the experiment design (both verified numerically here
and recorded in the test suite):

* at fixed truncation N the path t -> Z_t is a polynomial quadratic form, so
  its partition quadratic variation tends to 0 as the mesh refines past the
  basis resolution -- convergence to the quadratic-variation limit needs the
  truncation to outrun the mesh, N / 2^depth -> infinity.  Refining in
  lockstep at a fixed ratio is not enough: for h1 = h2 = 1 and the normal
  law the exact mean gap E[QV] - E[RHS] at N = 2^(depth+1) is -0.002,
  -0.033, -0.045, -0.051, -0.053 for (N, depth) = (4, 1) .. (64, 5), settling
  at a nonzero value; at (64, 4) (ratio 4) it is -0.030 and at (64, 3)
  (ratio 8) -0.013.  Laws with m4 != 3 add (m4 - 3) times the summed squared
  diagonals of the increment kernels, a term that depends on the depth
  alone and only halves per level (0.0485 at depth 3);
* the same resolution threshold caps how far Riemann sums can track the
  integral at fixed N.

``qv_experiment``/``riemann_experiment`` therefore report per-depth error
tables at fixed N (the literal contract), and ``qv_joint_refinement`` runs
the same kernels and body, for any h1 and h2, along a (N, depth) schedule
chosen by the caller.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from ..exact import Q
from ..laws import Law, sample, standardized_moments
from .basis import LegendreBasis, PiecewisePoly, gauss_legendre
from .tensors import GammaTables

__all__ = [
    "cumulative_triangle",
    "cumulative_coeffs",
    "qv_rhs_quadratics",
    "qv_experiment",
    "qv_joint_refinement",
    "riemann_experiment",
    "fourth_moment_grid",
    "legendre_float_cumulative",
]


# ---------------------------------------------------------------------------
# float cumulative kernels: one Gauss-Legendre sweep


def _float_kernels(
    h1: PiecewisePoly, h2: PiecewisePoly, basis: LegendreBasis, points: Sequence, t
) -> tuple:
    """(C, B, G) for H_u(y) = int_0^y h1 e_u:

    C[i] = H(points_i), B[i][u,v] = int_0^{points_i} h2 e_v H_u and
    G[u,v] = int_0^t h2^2 H_u H_v.

    One sweep over the intervals between the breakpoints of h1 and h2, the
    points and t.  On each, every integrand is a polynomial: with
    n = deg h1 + deg h2 + N + 1 Gauss nodes the rule integrates B's and G's
    integrands exactly, and the spectral integration matrix gives H at the
    nodes exactly, so the only error is rounding.
    """
    N = basis.N
    pts = [Q(p) for p in points]
    t = Q(t)
    end = max([t, *pts])
    knots = {Q(0), t, *pts}
    for h in (h1, h2):
        knots.update(x for lo, hi, _ in h.pieces for x in (lo, hi) if x < end)
    knots = sorted(knots)
    x, w, S = gauss_legendre(h1.degree() + h2.degree() + N + 1)
    H0 = np.zeros(N)
    B = np.zeros((N, N))
    G = np.zeros((N, N))
    at = {Q(0): (H0, B)}
    for a, b in zip(knots, knots[1:]):
        half = 0.5 * float(b - a)
        y = float(a) + half * (x + 1.0)
        E = basis.values(y)
        f1 = h1.values_on(a, b, y)[:, None] * E
        f2 = h2.values_on(a, b, y)[:, None] * (H0 + half * (S @ f1))
        wf2 = (half * w)[:, None] * f2
        B = B + wf2.T @ E
        if b <= t:
            G = G + wf2.T @ f2
        H0 = H0 + half * (w @ f1)
        at[b] = (H0, B)
    C = np.array([at[p][0] for p in pts]).reshape(len(pts), N)
    B = np.array([at[p][1] for p in pts]).reshape(len(pts), N, N)
    return C, B, G


def cumulative_triangle(
    h1: PiecewisePoly, h2: PiecewisePoly, basis: LegendreBasis, points: Sequence
) -> np.ndarray:
    """B[i] = raw triangle-kernel matrix of h1 (x) (h2 1_(0, points_i]) 1_C."""
    return _float_kernels(h1, h2, basis, points, 0)[1]


def cumulative_coeffs(
    h: PiecewisePoly, basis: LegendreBasis, points: Sequence
) -> np.ndarray:
    """C[i, j] = <h 1_(0, points_i], e_j> as floats."""
    return _float_kernels(h, PiecewisePoly(()), basis, points, 0)[0]


def qv_rhs_quadratics(
    h1: PiecewisePoly, h2: PiecewisePoly, basis: LegendreBasis, t
) -> tuple:
    """Float ingredients of the limit object.

    G[u,v] = int_0^t h2(s)^2 c_u(s) c_v(s) ds with c_u(s) = <h1 1_(0,s], e_u>,
    g[u]   = int_0^t h2(s)^2 c_u(s)^2 ds  (the skewness-correction weights).
    """
    G = _float_kernels(h1, h2, basis, [], t)[2]
    return G, np.diag(G).copy()


def legendre_float_cumulative(N: int, depth: int, t=1):
    """(B, G, g) of :func:`cumulative_triangle` on the dyadic grid of (0, t]
    of the given depth and :func:`qv_rhs_quadratics`, for h1 = h2 = 1.

    No experiment calls it (they take ``_qv_kernels`` for any h1, h2); it
    stays while the benchmark's tracer lists it as a kernel layer.  It calls
    the sweep, not the traced wrappers, so a traced call is one span."""
    t = Q(t)
    one = PiecewisePoly.constant(1)
    points = [t * Q(k, 2**depth) for k in range(2**depth + 1)]
    _, B, G = _float_kernels(one, one, LegendreBasis(N), points, t)
    return B, G, np.diag(G).copy()


# ---------------------------------------------------------------------------
# experiments


def _stats(x: np.ndarray) -> dict:
    return {
        "mean": float(x.mean()),
        "stderr": float(x.std(ddof=1) / math.sqrt(len(x))),
    }


def _dyadic_strides(depths: Sequence[int]) -> tuple:
    """(dmax, strides): the finest depth, and for each depth the stride that
    picks its partition points out of the finest dyadic grid."""
    if not depths or min(depths) < 0:
        raise ValueError(f"depths must be a non-empty list of integers >= 0: {list(depths)}")
    dmax = max(depths)
    return dmax, [2 ** (dmax - d) for d in depths]


# Bytes of work space per block of paths in the Monte Carlo bodies: a
# block's rows and the products taken from them stay in cache.
_BLOCK_BYTES = 2**19


def _quadratic_form(X: np.ndarray, A: np.ndarray) -> np.ndarray:
    """x' A x for each row x of X, by one matrix product."""
    return np.einsum("pi,pi->p", X @ A, X)


def _qv_rows(
    B: np.ndarray,
    G: np.ndarray,
    g: np.ndarray,
    strides: Sequence[int],
    law: Law,
    paths: int,
    seed: int,
) -> list:
    """Monte Carlo statistics of the partition quadratic variation against the
    limit object, one row per stride of the cumulative kernels ``B``.

    All rows share one sample of ``paths`` realizations.  QV = sum_k
    (x' A_k x - tr A_k)^2 over the increment kernels A_k of ``B[::stride]``;
    RHS = x' G x + m3 g.x is the per-realization limit quadratic form.

    Only the finest increments (stride 1) get a quadratic form: x' A x is
    linear in A, so an increment of stride 2s is the sum of two adjacent
    increments of stride s.  The paths are walked in blocks of
    ``_BLOCK_BYTES // (8 (N + K))`` rows for K finest increments, which stay
    in cache.  Within a block the finest increments are taken in order, and
    each one that completes a pair is added to its left sibling and carried
    up a level, so the block holds one pending increment per level.  Each QV
    adds its squared increments in increment order, as one form per
    increment over all paths would.  The block also takes x' G x; the
    linear term m3 g.x is one product over all paths after the walk, because
    a matrix-vector product split by rows can round differently.
    """
    if paths < 2:
        raise ValueError("paths must be >= 2 for a standard error")
    N = G.shape[0]
    m3 = float(standardized_moments(law, 3)[3])
    X = sample(law, seed, paths * N).reshape(paths, N)
    A = B[1:] - B[:-1]
    K = len(A)
    traces = np.trace(A, axis1=1, axis2=2)
    levels = K.bit_length()  # strides 1, 2, 4, ..., K
    at_level = [[i for i, s in enumerate(strides) if s == 1 << l] for l in range(levels)]
    QV = np.zeros((len(strides), paths))
    RHS = np.empty(paths)
    block = max(1, _BLOCK_BYTES // (8 * (N + K)))
    for lo in range(0, paths, block):
        Xb = X[lo : lo + block]
        QVb = QV[:, lo : lo + block]
        RHS[lo : lo + block] = _quadratic_form(Xb, G)
        pending = []
        for k in range(K):
            inc = _quadratic_form(Xb, A[k]) - traces[k]
            level = 0
            while True:
                for i in at_level[level]:
                    QVb[i] += inc * inc
                if not k >> level & 1:
                    pending.append(inc)
                    break
                inc = pending.pop() + inc
                level += 1
    RHS += m3 * (X @ g)
    rows = []
    for qv in QV:
        err = (qv - RHS) ** 2
        rows.append(
            {
                "err": _stats(err),
                "qv": _stats(qv),
                "rhs": _stats(RHS),
                "mean_gap": float(abs(qv.mean() - RHS.mean())),
                "mean_gap_stderr": float(
                    math.sqrt(qv.std(ddof=1) ** 2 + RHS.std(ddof=1) ** 2)
                    / math.sqrt(paths)
                ),
            }
        )
    return rows


def _qv_kernels(h1: PiecewisePoly, h2: PiecewisePoly, basis: LegendreBasis, t, depth: int):
    """(B, G, g) of the QV experiments: :func:`cumulative_triangle` on the
    dyadic grid of (0, t] of the given depth, :func:`qv_rhs_quadratics` at t."""
    points = [t * Q(k, 2**depth) for k in range(2**depth + 1)]
    return (cumulative_triangle(h1, h2, basis, points), *qv_rhs_quadratics(h1, h2, basis, t))


def qv_experiment(
    h1: PiecewisePoly,
    h2: PiecewisePoly,
    t,
    N: int,
    law: Law,
    depths: Sequence[int],
    paths: int,
    seed: int,
    basis: Optional[LegendreBasis] = None,
) -> dict:
    """Partition quadratic variation against the limit object, per depth.

    For each dyadic depth d: QV_d = sum_k (x' A_k x - tr A_k)^2 over the 2^d
    increment kernels A_k; RHS is the per-realization limit quadratic form.
    Reports E|QV_d - RHS|^2 with stderr, and the two means.
    """
    basis = basis or LegendreBasis(N)
    t = Q(t)
    dmax, strides = _dyadic_strides(depths)
    rows = _qv_rows(*_qv_kernels(h1, h2, basis, t, dmax), strides, law, paths, seed)
    rows = [{"depth": d, **row} for d, row in zip(depths, rows)]
    return {"t": str(t), "N": N, "paths": paths, "seed": seed, "rows": rows}


def qv_joint_refinement(
    law: Law, pairs: Sequence[tuple], paths: int, seed: int, t=1,
    h1: PiecewisePoly = PiecewisePoly.constant(1), h2: PiecewisePoly = PiecewisePoly.constant(1),
) -> dict:
    """Partition quadratic variation against the limit object along a
    schedule of (N, depth) pairs, each at its own truncation.

    The QV limit needs the truncation to outrun the mesh (N / 2^depth -> oo,
    as in (4, 1), (16, 2), (64, 3)); a lockstep schedule such as
    N = 2^(depth+1) leaves a mean gap that settles near -0.053 for the
    normal law with h1 = h2 = 1 (see the module docstring).  Each row is
    :func:`qv_experiment`'s at that N and depth (same kernels, same sample);
    deep schedules such as (256, 5) take seconds."""
    rows = []
    for N, d in pairs:
        (row,) = _qv_rows(*_qv_kernels(h1, h2, LegendreBasis(N), Q(t), d), [1], law, paths, seed)
        rows.append({"N": N, "depth": d, **row})
    return {"paths": paths, "seed": seed, "rows": rows}


def riemann_experiment(
    h: PiecewisePoly,
    g: PiecewisePoly,
    N: int,
    law: Law,
    depths: Sequence[int],
    paths: int,
    seed: int,
) -> dict:
    """E|S_n - I|^2 for the defining Riemann sums of the integral.

    S_n = sum_k Phi(h 1_(0,t_k]) Phi(g 1_(t_k, t_{k+1}]) over the dyadic
    partition of depth d; I is the integral at the same truncation.

    All depths share one sample of ``paths`` realizations, walked in blocks
    of ``_BLOCK_BYTES // (8 (N + 3 2^dmax))`` rows: per block, I = x' A x -
    tr A and, per depth, S = sum_k (x . c_h(t_k)) (x . dc_g(k)), whose
    (S - I)^2 fill a (depths x paths) table; no (paths x 2^d) product of
    the whole sample is held (see the module docstring for rounding).
    """
    if paths < 2:
        raise ValueError("paths must be >= 2 for a standard error")
    basis = LegendreBasis(N)
    dmax, strides = _dyadic_strides(depths)
    points = [Q(k, 2**dmax) for k in range(2**dmax + 1)]
    C_h = cumulative_coeffs(h, basis, points)
    C_g = cumulative_coeffs(g, basis, points)
    B = cumulative_triangle(h, g, basis, [1])[0]
    A = 0.5 * (B + B.T)
    trace = np.trace(A)
    # per depth: left points c_h(t_k) and increments c_g(t_{k+1}) - c_g(t_k)
    sums = [(C_h[::s][:-1].T, (C_g[::s][1:] - C_g[::s][:-1]).T) for s in strides]
    X = sample(law, seed, paths * N).reshape(paths, N)
    err = np.empty((len(depths), paths))
    block = max(1, _BLOCK_BYTES // (8 * (N + 3 * 2**dmax)))
    for lo in range(0, paths, block):
        Xb = X[lo : lo + block]
        I = _quadratic_form(Xb, A) - trace
        for row, (left, dg) in zip(err, sums):
            S = ((Xb @ left) * (Xb @ dg)).sum(axis=1)
            row[lo : lo + block] = (S - I) ** 2
    rows = [{"depth": d, "err": _stats(e)} for d, e in zip(depths, err)]
    return {"N": N, "paths": paths, "seed": seed, "rows": rows}


def fourth_moment_grid(
    h1: PiecewisePoly,
    h2: PiecewisePoly,
    basis: LegendreBasis,
    tables: GammaTables,
    pairs: Sequence[tuple],
) -> dict:
    """Increment fourth moments against the printed bound on an (s,t) grid,
    plus the log-log slope of the fourth moment in the increment width.

    Each row carries the exact ``lhs`` (a RadSum) and ``rhs`` (a Fraction);
    the slope is a float fit to the lhs values at s = 0."""
    from .identities import fourth_moment_check

    rows = []
    for s, t in pairs:
        chk = fourth_moment_check(h1, h2, Q(s), Q(t), basis, tables)
        rows.append(
            {
                "s": str(Q(s)),
                "t": str(Q(t)),
                "lhs": chk["lhs"],
                "rhs": chk["rhs"],
                "holds": chk["holds"],
            }
        )
    # slope: fourth moment of Z_t - Z_s versus t - s, at s = 0
    widths, lhss = [], []
    for k in range(1, 7):
        tau = Q(1, 2**k)
        chk = fourth_moment_check(h1, h2, Q(0), tau, basis, tables)
        widths.append(float(tau))
        lhss.append(chk["lhs_float"])
    lw = np.log(np.array(widths))
    ll = np.log(np.array(lhss))
    slope = float(np.polyfit(lw, ll, 1)[0])
    return {"rows": rows, "slope": slope, "all_hold": all(r["holds"] for r in rows)}
