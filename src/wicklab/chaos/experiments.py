"""Monte Carlo convergence experiments for the stochastic integral.

The process under study is Z_t = the integral of Phi(h1)_s against
d Phi(h2)_s up to t, realized at truncation N through its kernel matrix.
Increment kernels over a partition are differences of the cumulative kernel

    B(t)[u,v] = < h1 (x) (h2 1_(0,t]) 1_C , e_u (x) e_v >,

which is computed once, exactly, as a piecewise-polynomial antiderivative and
evaluated at the dyadic grid; Monte Carlo then runs on float arrays.  Two
hard facts shape the experiment design (both verified numerically here and
recorded in the test suite):

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
a (N, depth) schedule chosen by the caller.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

import numpy as np

from ..exact import Q
from ..laws import Law, sample, standardized_moments
from .basis import LegendreBasis, PiecewisePoly, triangle_kernel
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
# exact cumulative kernels, evaluated on a grid


def cumulative_triangle(
    h1: PiecewisePoly, h2: PiecewisePoly, basis: LegendreBasis, points: Sequence
) -> np.ndarray:
    """B[i] = raw triangle-kernel matrix of h1 (x) (h2 1_(0, points_i]) 1_C."""
    N = basis.N
    pts = [Q(p) for p in points]
    out = np.zeros((len(pts), N, N))
    for u in range(N):
        Hu = h1.mul_poly(basis.poly(u + 1)).antiderivative()
        for v in range(N):
            F = (h2.mul_poly(basis.poly(v + 1)) * Hu).antiderivative()
            scale = math.sqrt(basis.weight(u + 1) * basis.weight(v + 1))
            for i, p in enumerate(pts):
                out[i, u, v] = float(F.eval(p)) * scale
    return out


def cumulative_coeffs(
    h: PiecewisePoly, basis: LegendreBasis, points: Sequence
) -> np.ndarray:
    """C[i, j] = <h 1_(0, points_i], e_j> as floats."""
    pts = [Q(p) for p in points]
    out = np.zeros((len(pts), basis.N))
    for j in range(1, basis.N + 1):
        F = h.mul_poly(basis.poly(j)).antiderivative()
        scale = math.sqrt(basis.weight(j))
        for i, p in enumerate(pts):
            out[i, j - 1] = float(F.eval(p)) * scale
    return out


def qv_rhs_quadratics(
    h1: PiecewisePoly, h2: PiecewisePoly, basis: LegendreBasis, t
) -> tuple:
    """Exact ingredients of the limit object, as float arrays.

    G[u,v] = int_0^t h2(s)^2 c_u(s) c_v(s) ds with c_u(s) = <h1 1_(0,s], e_u>,
    g[u]   = int_0^t h2(s)^2 c_u(s)^2 ds  (the skewness-correction weights).
    """
    t = Q(t)
    N = basis.N
    h2sq = h2 * h2
    cs = [h1.mul_poly(basis.poly(u + 1)).antiderivative() for u in range(N)]
    G = np.zeros((N, N))
    g = np.zeros(N)
    for u in range(N):
        for v in range(u, N):
            F = (h2sq * (cs[u] * cs[v])).antiderivative()
            val = float(F.eval(t)) * math.sqrt(
                basis.weight(u + 1) * basis.weight(v + 1)
            )
            G[u, v] = G[v, u] = val
        g[u] = G[u, u]
    return G, g


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
    """
    if paths < 2:
        raise ValueError("paths must be >= 2 for a standard error")
    N = G.shape[0]
    m3 = float(standardized_moments(law, 3)[3])
    X = sample(law, seed, paths * N).reshape(paths, N)
    RHS = np.einsum("pi,ij,pj->p", X, G, X) + m3 * (X @ g)
    rows = []
    for stride in strides:
        Bd = B[::stride]
        A = Bd[1:] - Bd[:-1]
        A = 0.5 * (A + np.transpose(A, (0, 2, 1)))
        tr = np.trace(A, axis1=1, axis2=2)
        inc = np.einsum("pi,kij,pj->pk", X, A, X) - tr[None, :]
        QV = (inc * inc).sum(axis=1)
        err = (QV - RHS) ** 2
        rows.append(
            {
                "err": _stats(err),
                "qv": _stats(QV),
                "rhs": _stats(RHS),
                "mean_gap": float(abs(QV.mean() - RHS.mean())),
                "mean_gap_stderr": float(
                    math.sqrt(QV.std(ddof=1) ** 2 + RHS.std(ddof=1) ** 2)
                    / math.sqrt(paths)
                ),
            }
        )
    return rows


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
    points = [t * Q(k, 2**dmax) for k in range(2**dmax + 1)]
    B = cumulative_triangle(h1, h2, basis, points)
    G, g = qv_rhs_quadratics(h1, h2, basis, t)
    rows = _qv_rows(B, G, g, strides, law, paths, seed)
    rows = [{"depth": d, **row} for d, row in zip(depths, rows)]
    return {"t": str(t), "N": N, "paths": paths, "seed": seed, "rows": rows}


def qv_joint_refinement(
    law: Law, pairs: Sequence[tuple], paths: int, seed: int, t=Q(1)
) -> dict:
    """Partition quadratic variation against the limit object along a
    schedule of (N, depth) pairs, each at its own truncation.

    The QV limit needs the truncation to outrun the mesh (N / 2^depth -> oo,
    as in (4, 1), (16, 2), (64, 3)); a lockstep schedule such as
    N = 2^(depth+1) leaves a mean gap that settles near -0.053 for the
    normal law (see the module docstring).  Uses the stable float Legendre
    engine (constant h1 = h2 = 1)."""
    rows = []
    for N, d in pairs:
        B, G, g = legendre_float_cumulative(N, d, float(t))
        (row,) = _qv_rows(B, G, g, [1], law, paths, seed)
        rows.append({"N": N, "depth": d, **row})
    return {"paths": paths, "seed": seed, "rows": rows}


def legendre_float_cumulative(N: int, depth: int, t: float = 1.0):
    """Float-stable cumulative kernels for h1 = h2 = 1 via Legendre-basis ops.

    Returns (B, G, g) matching :func:`cumulative_triangle` and
    :func:`qv_rhs_quadratics`; used for truncations too large for exact
    rational construction.  Stability comes from never leaving the Legendre
    coefficient basis (power-basis conversion is catastrophically ill-
    conditioned at these degrees).
    """
    from numpy.polynomial import legendre as L

    es = []
    for j in range(1, N + 1):
        c = np.zeros(j)
        c[j - 1] = math.sqrt(2 * j - 1)
        es.append(c)
    Hs = [0.5 * L.legint(c, lbnd=-1) for c in es]
    ts = np.linspace(0.0, t, 2**depth + 1)
    B = np.zeros((len(ts), N, N))
    G = np.zeros((N, N))
    g = np.zeros(N)
    for u in range(N):
        for v in range(N):
            F = 0.5 * L.legint(L.legmul(es[v], Hs[u]))
            vals = L.legval(2 * ts - 1.0, F)
            B[:, u, v] = vals - vals[0]
            FG = 0.5 * L.legint(L.legmul(Hs[u], Hs[v]))
            G[u, v] = L.legval(2 * t - 1.0, FG) - L.legval(-1.0, FG)
        g[u] = G[u, u]
    return B, G, g


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
    """
    basis = LegendreBasis(N)
    dmax, strides = _dyadic_strides(depths)
    points = [Q(k, 2**dmax) for k in range(2**dmax + 1)]
    C_h = cumulative_coeffs(h, basis, points)
    C_g = cumulative_coeffs(g, basis, points)
    K, _ = triangle_kernel(h, g, basis)
    A = K.floats()
    X = sample(law, seed, paths * N).reshape(paths, N)
    I = np.einsum("pi,ij,pj->p", X, A, X) - np.trace(A)
    rows = []
    for d, stride in zip(depths, strides):
        ch = C_h[::stride]
        cg = C_g[::stride]
        dg = cg[1:] - cg[:-1]
        left = X @ ch[:-1].T
        right = X @ dg.T
        S = (left * right).sum(axis=1)
        err = (S - I) ** 2
        rows.append({"depth": d, "err": _stats(err)})
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
