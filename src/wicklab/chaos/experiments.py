"""Monte Carlo convergence experiments for the stochastic integral, and the
float kernels they run on (the exact bound grid is in ``identities``).

The process under study is Z_t = the integral of Phi(h1)_s against
d Phi(h2)_s up to t, realized at truncation N through its kernel matrix.
Increment kernels over a partition are differences of the cumulative kernel

    B(t)[u,v] = < h1 (x) (h2 1_(0,t]) 1_C , e_u (x) e_v >,

which one float sweep evaluates at the dyadic grid: Gauss-Legendre rules with
enough nodes on each interval between the breakpoints integrate every
polynomial integrand exactly, so the kernels carry only rounding error (the
exact kernels of the identities stay in ``triangle_kernel``).  Monte Carlo
fills tables of quadratic forms x' A_k x per block of paths (``_form_table``):
one per increment of the finest partition for the quadratic variation, whose
coarser partitions' tables are sums of adjacent pairs of rows, and one per
depth for the Riemann sums, which are quadratic forms themselves.  A table
of K forms in N variables takes one product per matrix, or, for K > N, one
GEMM over each path's N (N + 1) / 2 products x_i x_j.  The first route
rounds as one form per matrix over the whole sample does; the second sums
in another order, so its forms, and the rows taken from them, can move in
the last bits against the first.  Every table of ``wicklab all`` takes the
first.

Both Monte Carlo bodies walk the sample X in blocks of rows sized by
``_BLOCK_BYTES`` and draw each block from one ``Sampler`` stream just before
using it, so X is never held whole: a body holds its per-path tables of
results and one block's rows and products.  The quadratic-variation body
also caps a block at the bytes of the whole sample, so a small sample is
walked in several blocks rather than padded with work space.  The stream's
blocks concatenate to the whole draw, so each block holds the rows that the
same block of X drawn at once would.  Each result is a row-by-row sum, so
it does not depend on the block size as long as the BLAS rounds a block's
matrix-matrix product as it rounds the whole one.  OpenBLAS 0.3.31
(AVX-512) does for the shapes the command line and the benchmark use; for
N = 17-19, 25-27, 33-35 and N > 40 it takes other edge kernels for some
block shapes, and numpy sends a one-row block through GEMV, which moves
single rows in the last bits.  A matrix-vector product split by rows can
round differently, so the linear term m3 g.x of the quadratic-variation
limit is a row-wise ``einsum``, which sums each row on its own whatever
the block.

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

from ..exact import Q, as_fraction
from ..laws import Law, Sampler, moments
from .basis import LegendreBasis, PiecewisePoly, gauss_legendre

__all__ = [
    "cumulative_triangle",
    "cumulative_coeffs",
    "qv_rhs_quadratics",
    "qv_experiment",
    "qv_joint_refinement",
    "riemann_experiment",
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
    pts = [as_fraction(p) for p in points]
    t = as_fraction(t)
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
    t = as_fraction(t)
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


# Bytes one quadratic-variation call may hold: 2^dmax + 1 grid points of an
# N^2-float cumulative kernel, N floats of H and about 128 floats of Python
# objects each (the sweep's point, knot, dict entry, small arrays and the
# stacked kernels took 63 floats a point beyond N^2 + N at N = 1, 131 at
# N = 8), and
# (depths + 1) tables of ``paths`` floats.  It admits (N, depth) = (1024, 6),
# whose kernels take 545 MB.
_QV_MAX_BYTES = 2**30
_POINT_FLOATS = 128


def _check_qv_size(N: int, depths: Sequence[int], paths: int) -> None:
    """Reject a quadratic-variation call whose kernels, grid points and tables
    would exceed ``_QV_MAX_BYTES``, before any point of its grid is built."""
    dmax = max(depths)
    # past depth 64 the grid alone exceeds any cap
    points = 2 ** min(dmax, 64) + 1
    need = 8 * (points * (N * N + N + _POINT_FLOATS) + (len(depths) + 1) * paths)
    if need > _QV_MAX_BYTES:
        raise ValueError(
            f"truncation {N}, depths up to {dmax} and {paths} paths need {need} bytes "
            f"of kernels, grid points and tables, above the cap of {_QV_MAX_BYTES}"
        )


def _quadratic_form(X: np.ndarray, A: np.ndarray) -> np.ndarray:
    """x' A x for each row x of X, by one matrix product."""
    return np.einsum("pi,pi->p", X @ A, X)


def _form_table(A: np.ndarray) -> tuple:
    """(fill, work): fill(Xb, out) sets out[k] = x' A_k x for each row x of
    Xb, and takes ``work`` floats of work space per row.  Of two routes, the
    shape (K, N, N) of A chooses one:

    * one product Xb @ A_k and one row-wise ``einsum`` per matrix, the bits
      of :func:`_quadratic_form` per matrix (work: the product's N floats);
    * for K > N, one GEMM: x' A x = sum_{i <= j} W_ij x_i x_j, with
      W = A + A' above the diagonal and A_ii on it (the half-vectorization
      identity), so a block takes its N (N + 1) / 2 products x_i x_j once
      and all K forms against the packed upper triangles W_k, built here
      once for every block (work: the transposed rows, the products and
      their temporary).  Its sums run in another order, so a form can move
      in the last bits against the other route.

    The GEMM route takes about half the multiply-adds, K N (N + 1) / 2 plus
    the products per row against K N (N + 1), in one call instead of K.
    With one BLAS thread on a 2-vCPU Xeon (AVX-512), filling the tables of
    the quadratic-variation body by it took, over the per-matrix route, 0.16
    of the time at (N, K) = (8, 64), 0.28 at (16, 128), 0.45 at (8, 9) and
    0.57 at (16, 17); at K <= N it took 0.44 at (8, 8) and 0.84 at (8, 4),
    but 3.2 at (64, 8).  The rule K > N keeps every table with K <= N, and
    so every table of ``wicklab all``, on the per-matrix route's bits.  Past
    N = 32 a block of the body holds few rows of N^2 products, and the whole
    body took 1.5 times as long on the GEMM route at (64, 128) and 8.8 at
    (128, 256); no benchmark workload has K > N there yet.
    """
    K, N = A.shape[:2]
    if K <= N:

        def fill(Xb: np.ndarray, out: np.ndarray) -> None:
            for k, Ak in enumerate(A):
                np.einsum("pi,pi->p", Xb @ Ak, Xb, out=out[k])

        return fill, N
    i, j = np.triu_indices(N)
    W = A[:, i, j] + (i != j) * A[:, j, i]

    def fill(Xb: np.ndarray, out: np.ndarray) -> None:
        XT = np.ascontiguousarray(Xb.T)
        F = XT[i]
        F *= XT[j]
        np.matmul(W, F, out=out)

    return fill, N * (N + 2)


def _path_blocks(law: Law, seed: int, paths: int, N: int, rows: int):
    """(lo, X[lo : lo + rows]) over the (paths x N) sample X of ``law`` and
    ``seed``, each block drawn from one stream as it is asked for (blocks of
    at least one row)."""
    if paths < 2:
        raise ValueError("paths must be >= 2 for a standard error")
    block = max(1, rows)
    stream = Sampler(law, seed)
    return (
        (lo, stream.draw(min(block, paths - lo) * N).reshape(-1, N))
        for lo in range(0, paths, block)
    )


def _skewness(law: Law) -> float:
    """The skewness c3 / c2^(3/2) of the law from its exact central moments
    c2 and c3, as a float: c2 need not be a rational square, as it must be
    for exact standardized moments."""
    m = moments(law, 3)
    c2 = m[2] - m[1] ** 2
    return float(m[3] - 3 * m[1] * m[2] + 2 * m[1] ** 3) / float(c2) ** 1.5


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
    RHS = x' G x + m3 g.x is the per-realization limit quadratic form, with
    the law's skewness m3 (:func:`_skewness`).

    Only the finest increments (stride 1) get a quadratic form: x' A x is
    linear in A, so an increment of stride 2s is the sum of two adjacent
    increments of stride s.  Per block of paths, :func:`_form_table` fills
    the (K x rows) table of finest increments.  Each read level's QV is the
    table's squares summed over k in order, in one ``einsum`` pass (which
    sums a single column in another order, so a one-row block adds in
    Python), and the next level's table is the sums of adjacent pairs of
    rows.  A block has ``min(_BLOCK_BYTES, 8 paths N) // (8 (N + 2K + w))``
    rows (at least one) -- its rows, its table, the next level's and the
    form table's w floats of work space per row (:func:`_form_table`) --
    so it never costs more than the whole sample would.  The block also takes
    RHS = x' G x + m3 g.x, the linear term by a row-wise ``einsum`` that a
    split by rows does not round differently.  Each block is drawn just
    before it is used, so the call holds the QV and RHS tables and one
    block, never the whole sample.
    """
    N = G.shape[0]
    A = B[1:] - B[:-1]
    K = len(A)
    traces = np.trace(A, axis1=1, axis2=2)[:, None]
    fill, work = _form_table(A)
    block = min(_BLOCK_BYTES, 8 * paths * N) // (8 * (N + 2 * K + work))
    blocks = _path_blocks(law, seed, paths, N, block)
    m3 = _skewness(law)
    at_level = [[i for i, s in enumerate(strides) if s == 1 << l] for l in range(K.bit_length())]
    top = 1 + max(l for l, at in enumerate(at_level) if at)  # the levels read
    QV = np.empty((len(strides), paths))
    RHS = np.empty(paths)
    for lo, Xb in blocks:
        n = len(Xb)
        RHS[lo : lo + n] = _quadratic_form(Xb, G) + m3 * np.einsum("pi,i->p", Xb, g)
        inc = np.empty((K, n))
        fill(Xb, inc)
        inc -= traces
        for level in range(top):
            up = inc[0::2] + inc[1::2] if level + 1 < top else None
            if at_level[level]:
                # summed over k in order: einsum sums a lone column otherwise
                if n > 1:
                    qv = np.einsum("kp,kp->p", inc, inc)
                else:
                    qv = sum(x * x for x in inc[:, 0].tolist())
                QV[at_level[level], lo : lo + n] = qv
            inc = up
    rhs, rhs_sd = _stats(RHS), RHS.std(ddof=1)
    rows = []
    for qv in QV:
        err = (qv - RHS) ** 2
        qv_mean, qv_sd = qv.mean(), qv.std(ddof=1)
        rows.append(
            {
                "err": _stats(err),
                "qv": {"mean": float(qv_mean), "stderr": float(qv_sd / math.sqrt(paths))},
                "rhs": dict(rhs),
                "mean_gap": float(abs(qv_mean - rhs["mean"])),
                "mean_gap_stderr": float(math.sqrt(qv_sd**2 + rhs_sd**2) / math.sqrt(paths)),
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
    Reports E|QV_d - RHS|^2 with stderr, and the two means.  A given
    ``basis`` must have N functions.
    """
    basis = basis or LegendreBasis(N)
    if basis.N != N:
        raise ValueError(f"basis has {basis.N} functions, truncation N is {N}")
    t = as_fraction(t)
    dmax, strides = _dyadic_strides(depths)
    _check_qv_size(N, depths, paths)
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
    t, rows = as_fraction(t), []
    for N, d in pairs:
        _check_qv_size(N, [d], paths)
    for N, d in pairs:
        (row,) = _qv_rows(*_qv_kernels(h1, h2, LegendreBasis(N), t, d), [1], law, paths, seed)
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
    partition of depth d; I = x' A x - tr A is the integral at the same
    truncation.  S_d = x' P_d x with P_d = sum_k c_h(t_k) (c_g(t_{k+1}) -
    c_g(t_k))', so S_d - I = x' D_d x + tr A with D_d = sym(P_d) - A.  All
    depths share one sample of ``paths`` realizations, drawn in blocks of
    :func:`_path_blocks`; per block, :func:`_form_table` fills the block's
    slice of the (depths x paths) table, which then holds (S_d - I)^2.
    """
    basis = LegendreBasis(N)
    dmax, strides = _dyadic_strides(depths)
    points = [Q(k, 2**dmax) for k in range(2**dmax + 1)]
    C_h, C_g = (cumulative_coeffs(f, basis, points) for f in (h, g))
    B = cumulative_triangle(h, g, basis, [1])[0]
    A = 0.5 * (B + B.T)
    trace = np.trace(A)
    P = np.array([C_h[::s][:-1].T @ (C_g[::s][1:] - C_g[::s][:-1]) for s in strides])
    D = 0.5 * (P + P.transpose(0, 2, 1)) - A
    fill, work = _form_table(D)
    K = len(D)
    blocks = _path_blocks(law, seed, paths, N, _BLOCK_BYTES // (8 * (N + K + work)))
    err = np.empty((K, paths))
    for lo, Xb in blocks:
        errb = err[:, lo : lo + len(Xb)]
        fill(Xb, errb)
        np.square(errb + trace, out=errb)
    rows = [{"depth": d, "err": _stats(e)} for d, e in zip(depths, err)]
    return {"N": N, "paths": paths, "seed": seed, "rows": rows}
