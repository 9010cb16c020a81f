"""Monte Carlo convergence experiments for the stochastic integral, and the
float kernels they run on (the exact bound grid is in ``identities``).

The process under study is Z_t = the integral of Phi(h1)_s against
d Phi(h2)_s up to t, realized at truncation N through its kernel matrix.
Increment kernels over a partition are differences of the cumulative kernel

    B(t)[u,v] = < h1 (x) (h2 1_(0,t]) 1_C , e_u (x) e_v >,

which one float sweep evaluates at the dyadic grid, over the exact sweep's
walk and by its rule (where h2 vanishes, only H advances): Gauss-Legendre
rules with enough nodes on each interval integrate every polynomial
integrand exactly, so the kernels carry only rounding error (the exact
kernels of the identities stay in ``triangle_kernel``).  A
quadratic-variation call holds one stack of them, filled point by point and
turned into increment kernels in place, and ``_check_qv_size`` counts what
the call holds before any work.  Monte Carlo fills tables of quadratic
forms x' A_k x per block of paths (``_form_table``): one per increment of
the finest partition for the quadratic variation, whose coarser
partitions' tables are sums of adjacent pairs of rows, and one per depth
for the Riemann sums, which are quadratic forms themselves.  A table
of K forms in N variables takes one product per matrix, or, for K > N, one
GEMM over each path's N (N + 1) / 2 products x_i x_j.  The first route
rounds as one form per matrix over the whole sample does; the second sums
in another order, so its forms, and the rows taken from them, can move in
the last bits against the first.  Every table of ``wicklab all`` takes the
first.

Both Monte Carlo bodies walk the sample X in blocks of rows sized by one
rule (``_block_rows``): ``_BLOCK_BYTES``, or on the GEMM route the bytes
of the packed operand the form table multiplies where those are more,
capped at the bytes of the whole sample.  Each block is drawn from one
``Sampler`` stream just before it is used, so X is never held whole, and
no per-path result is either: a body writes each block's per-path
quantities into the buffer of a ``_Moments``, which folds them into a
running count, means and centred second moments when it is full, so a
body holds one block's rows and products and a buffer of at most half
their floats, whatever the number of paths.  The stream's blocks
concatenate to the whole draw, so each block holds the rows that the
same block of X drawn at once would.  Each per-path value is a
row-by-row sum, so it does not depend on the block size as long as the
BLAS rounds a block's matrix-matrix product as it rounds the whole one;
the statistics add the paths fold by fold, and folds hold whole blocks,
so the block size moves them in the last bits.  OpenBLAS 0.3.31
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
from .basis import LegendreBasis, PiecewisePoly, _walk, gauss_legendre

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

    One ``basis._walk`` over h1, h2, the points and t.  On each interval,
    every integrand is a polynomial: with n = deg h1 + deg h2 + N + 1 Gauss
    nodes the rule integrates B's and G's integrands exactly, and the
    spectral integration matrix gives H at the nodes exactly, so the only
    error is rounding.  Where h2 vanishes only H advances.  The sweep writes
    each point's H and running kernel into C and B as it passes the point,
    so B is the only array of its size it holds, and None when h2 has no piece.
    """
    N = basis.N
    pts = [as_fraction(p) for p in points]
    t = as_fraction(t)
    at = {}  # the rows of C and B that take each point's snapshot
    for i, p in enumerate(pts):
        at.setdefault(p, []).append(i)
    x, w, S = gauss_legendre(h1.degree() + h2.degree() + N + 1)
    C = np.zeros((len(pts), N))
    B = np.zeros((len(pts), N, N)) if h2.pieces else None
    H0 = np.zeros(N)
    Bt = np.zeros((N, N))
    G = np.zeros((N, N))
    for a, b, c1, c2 in _walk([*pts, t], h1, h2):
        half = 0.5 * float(b - a)
        y = float(a) + half * (x + 1.0)
        E = basis.values(y)
        f1 = _polyval(c1, y)[:, None] * E
        if c2 is not None:
            f2 = _polyval(c2, y)[:, None] * (H0 + half * (S @ f1))
            wf2 = (half * w)[:, None] * f2
            Bt += wf2.T @ E
            if b <= t:
                G += wf2.T @ f2
        H0 += half * (w @ f1)
        for i in at.get(b, ()):
            C[i] = H0
            if B is not None:
                B[i] = Bt
    return C, B, G


def _polyval(c: Optional[tuple], y: np.ndarray) -> np.ndarray:
    """Float values at y of the polynomial with the coefficients c (0 for None)."""
    return np.polyval([float(v) for v in reversed(c or ())], y)


def cumulative_triangle(
    h1: PiecewisePoly, h2: PiecewisePoly, basis: LegendreBasis, points: Sequence
) -> np.ndarray:
    """B[i] = raw triangle-kernel matrix of h1 (x) (h2 1_(0, points_i]) 1_C."""
    B = _float_kernels(h1, h2, basis, points, 0)[1]
    return np.zeros((len(points), basis.N, basis.N)) if B is None else B


def cumulative_coeffs(
    h: PiecewisePoly, basis: LegendreBasis, points: Sequence
) -> np.ndarray:
    """C[i, j] = <h 1_(0, points_i], e_j> as floats, from the sweep with no h2."""
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


# Bytes one quadratic-variation call may hold, counted before any work: its
# one stack of 2^dmax + 1 kernels of N^2 floats, with N floats of H and
# _POINT_FLOATS of Python objects per grid point (36.5-37.5 traced at N <= 8);
# _SWEEP_FLOATS N^2 floats of G and of the work space of a kernel sweep, which
# runs again beside the stack (7.0-9.7 N^2 traced at N = 64-512); the GEMM
# route's packed operand; and one block (:func:`_block_rows`) with the
# moments' buffer, which holds at most half a block's floats
# (:func:`_fold_paths`).  To these it adds one float per path, which no
# array holds but which bounds the draw: 2^27 paths at most, where 10^9
# would draw for minutes.  It admits (N, depth) = (1024, 6) at 10^4 paths,
# at 647 MB, and at 10^5 paths, at 648 MB.
_QV_MAX_BYTES = 2**30
_POINT_FLOATS = 40
_SWEEP_FLOATS = 12


def _check_qv_size(N: int, depths: Sequence[int], paths: int) -> int:
    """The bytes a quadratic-variation call holds at most, plus 8 per path it
    draws, which bound the draw rather than memory; a call above
    ``_QV_MAX_BYTES`` is rejected before any point of its grid is built."""
    dmax = max(depths)
    # past depth 64 the grid alone exceeds any cap
    K = 2 ** min(dmax, 64)
    _, work, packed = _form_route(K, N)
    need = 8 * (
        (K + 1) * (N * N + N + _POINT_FLOATS)
        + _SWEEP_FLOATS * N * N
        + packed
        + 3 * _block_rows(N, K, paths, 2) * (N + 2 * K + work) // 2
        + paths
    )
    if need > _QV_MAX_BYTES:
        raise ValueError(
            f"truncation {N}, depths up to {dmax} and {paths} paths need {need} bytes "
            f"of kernels, grid points and work space, with 8 per path drawn, "
            f"above the cap of {_QV_MAX_BYTES}"
        )
    return need


def _quadratic_form(X: np.ndarray, A: np.ndarray) -> np.ndarray:
    """x' A x for each row x of X, by one matrix product."""
    return np.einsum("pi,pi->p", X @ A, X)


def _form_route(K: int, N: int) -> tuple:
    """(gemm, work, packed) of a table of K forms in N variables: whether
    :func:`_form_table` takes the GEMM route (K > N), its floats of work space
    per row, and the floats of the packed W_k it builds (none on the
    per-matrix route, which multiplies the A_k as they are)."""
    if K > N:
        return True, N * (N + 2), K * (N * (N + 1) // 2)
    return False, N, 0


def _form_table(A: np.ndarray):
    """fill(Xb, out), which sets out[k] = x' A_k x for each row x of Xb.  Of
    two routes, the shape (K, N, N) of A chooses one (:func:`_form_route`):

    * one product Xb @ A_k and one row-wise ``einsum`` per matrix, the bits
      of :func:`_quadratic_form` per matrix (work: the product's N floats);
    * for K > N, one GEMM: x' A x = sum_{i <= j} W_ij x_i x_j, with
      W = A + A' above the diagonal and A_ii on it (the half-vectorization
      identity), so a block takes its N (N + 1) / 2 products x_i x_j once
      and all K forms against the packed upper triangles W_k, built here
      once for every block, row by row of the A_k, with no temporary of
      their size (work: the transposed rows, the products and their
      temporary).  Its sums run in another order, so a form can move in the
      last bits against the other route.

    The GEMM route takes about half the multiply-adds, K N (N + 1) / 2 plus
    the products per row against K N (N + 1), in one call instead of K.
    With one BLAS thread on a 2-vCPU Xeon (AVX-512), filling the tables of
    the quadratic-variation body by it took, over the per-matrix route, 0.16
    of the time at (N, K) = (8, 64), 0.28 at (16, 128), 0.45 at (8, 9) and
    0.57 at (16, 17); at K <= N it took 0.44 at (8, 8) and 0.84 at (8, 4),
    but 3.2 at (64, 8).  The rule K > N keeps every table with K <= N, and
    so every table of ``wicklab all``, on the per-matrix route's bits.

    A block of paths on this route takes the bytes of the packed W_k, or
    of the whole sample where those are fewer (:func:`_block_rows`).  A row
    of the GEMM route holds N (N + 1) products, so at large N and few paths
    the sample caps the block well below the packed W_k, and each block
    reads W for few rows: the QV body took 1.0 times the per-matrix route's
    time at (N, K) = (64, 128) and 2.6 times at (128, 256) with 2000 paths
    (14 rows a block), but 0.75 and 0.70 times with 20 000.
    """
    K, N = A.shape[:2]
    if not _form_route(K, N)[0]:

        def fill(Xb: np.ndarray, out: np.ndarray) -> None:
            for k, Ak in enumerate(A):
                np.einsum("pi,pi->p", Xb @ Ak, Xb, out=out[k])

        return fill
    # column-major: the BLAS rounds W @ F by another kernel for a row-major W,
    # which moves forms in the last bits (N = 40, K = 64), and the QV rows
    # have always had the column-major bits
    W = np.empty((K, N * (N + 1) // 2), order="F")
    lo = 0
    for u in range(N):
        hi = lo + N - u
        np.add(A[:, u, u:], A[:, u:, u], out=W[:, lo:hi])
        W[:, lo] = A[:, u, u]
        lo = hi
    i, j = np.triu_indices(N)

    def fill(Xb: np.ndarray, out: np.ndarray) -> None:
        XT = np.ascontiguousarray(Xb.T)
        F = XT[i]
        F *= XT[j]
        np.matmul(W, F, out=out)

    return fill


def _block_rows(N: int, K: int, paths: int, tables: int) -> int:
    """Rows per block of paths of a Monte Carlo body whose rows hold N draws,
    ``tables`` tables of K forms and the form table's work space
    (:func:`_form_route`): the rows that fit in ``_BLOCK_BYTES`` or, on the
    GEMM route where it is larger, in the packed operand W, so that each
    pass over W serves a block its size (Goto & van de Geijn, 2008); at
    most the whole sample's bytes, and at least one row.  The per-matrix
    route reads each A_k once per block whatever its size, so its blocks
    keep to ``_BLOCK_BYTES``."""
    _, work, packed = _form_route(K, N)
    size = min(max(_BLOCK_BYTES, 8 * packed), 8 * paths * N)
    return max(1, size // (8 * (N + tables * K + work)))


def _fold_paths(N: int, K: int, paths: int, tables: int, q: int) -> int:
    """Paths per fold of the :class:`_Moments` of q quantities per path of a
    body whose blocks are :func:`_block_rows`'s: whole blocks, as many as
    fit in half a block's floats, at least one and at most ``paths``.  The
    moments' buffer then adds at most half a block to what the body holds;
    a fold's passes cost the same per path at any size, and its fixed cost
    is paid once per few blocks (five of 303 paths at qv-paths' shape)."""
    per = N + tables * K + _form_route(K, N)[1]
    return min(paths, _block_rows(N, K, paths, tables) * max(1, per // (2 * q)))


def _path_blocks(law: Law, seed: int, paths: int, N: int, rows: int):
    """The blocks X[lo : lo + rows] of the (paths x N) sample X of ``law``
    and ``seed``, each drawn from one stream as it is asked for."""
    if paths < 2:
        raise ValueError("paths must be >= 2 for a standard error")
    stream = Sampler(law, seed)
    return (
        stream.draw(min(rows, paths - lo) * N).reshape(-1, N) for lo in range(0, paths, rows)
    )


class _Moments:
    """The count, means and centred second moments of q quantities per path,
    in one pass over the paths.

    A body writes each block's quantities into :meth:`take`, a (q x n) view
    of a buffer of ``cap`` paths.  When the next block does not fit, the
    buffer is centred in place, on its first path and then on its mean, so
    its second moment M is a sum of squares (never negative, and exactly 0
    on constant data), and folds into the running totals by the pairwise
    update of Chan, Golub & LeVeque (1979): paths n_a + n_b = n, mean
    m_a + (m_b - m_a) n_b / n, and M_a + M_b + (m_b - m_a)^2 n_a n_b / n
    (Welford 1962 is the case n_b = 1)."""

    def __init__(self, q: int, cap: int):
        self._buf = np.empty((q, cap))
        self._used = 0
        self._n = 0
        self._mean = np.zeros(q)
        self._m2 = np.zeros(q)

    def take(self, n: int) -> np.ndarray:
        """The buffer's next n columns, for n <= cap, folding it first if full."""
        if self._used + n > self._buf.shape[1]:
            self._fold()
        self._used += n
        return self._buf[:, self._used - n : self._used]

    def _fold(self) -> None:
        T, nb = self._buf[:, : self._used], self._used
        shift = T[:, :1].copy()
        T -= shift
        mb = np.einsum("qp->q", T)[:, None] / nb
        T -= mb
        m2b = np.einsum("qp,qp->q", T, T)
        delta = (mb + shift)[:, 0] - self._mean
        n = self._n + nb
        self._mean += delta * (nb / n)
        self._m2 += m2b + (self._n * nb / n) * delta * delta
        self._n, self._used = n, 0

    def stats(self) -> list:
        """{"mean", "stderr"} of each quantity over the n >= 2 paths taken, the
        standard error sqrt(M / (n - 1)) / sqrt(n)."""
        if self._used:
            self._fold()
        se = np.sqrt(self._m2 / (self._n - 1)) / math.sqrt(self._n)
        return [{"mean": float(m), "stderr": float(e)} for m, e in zip(self._mean, se)]


def _skewness(law: Law) -> float:
    """The skewness c3 / c2^(3/2) of the law from its exact central moments
    c2 and c3, as a float: c2 need not be a rational square, as it must be
    for exact standardized moments."""
    m = moments(law, 3)
    c2 = m[2] - m[1] ** 2
    return float(m[3] - 3 * m[1] * m[2] + 2 * m[1] ** 3) / float(c2) ** 1.5


def _qv_rows(
    A: np.ndarray,
    G: np.ndarray,
    g: np.ndarray,
    strides: Sequence[int],
    law: Law,
    paths: int,
    seed: int,
) -> list:
    """Monte Carlo statistics of the partition quadratic variation against the
    limit object, one row per stride of the finest increment kernels ``A``.

    All rows share one sample of ``paths`` realizations.  QV = sum_k
    (x' A_k x - tr A_k)^2 over the increment kernels of the partition whose
    increments are sums of ``stride`` adjacent ones of ``A``;
    RHS = x' G x + m3 g.x is the per-realization limit quadratic form, with
    the law's skewness m3 (:func:`_skewness`).

    Only the finest increments (stride 1) get a quadratic form: x' A x is
    linear in A, so an increment of stride 2s is the sum of two adjacent
    increments of stride s.  Per block of paths, :func:`_form_table` fills
    the (K x rows) table of finest increments.  Each read level's QV is the
    table's squares summed over k in order, in one ``einsum`` pass (which
    sums a single column in another order, so a one-row block adds in
    Python), and the next level's table is the sums of adjacent pairs of
    rows.  A block holds its rows, its table, the next level's and the form
    table's work space (:func:`_block_rows`).  The block also takes
    RHS = x' G x + m3 g.x, the linear term by a row-wise ``einsum`` that a
    split by rows does not round differently.  Each block is drawn just
    before it is used, and its QV_d, QV_d - RHS, (QV_d - RHS)^2 and RHS go
    into a :class:`_Moments` (:func:`_qv_summary`), so the call holds one
    block and the moments' buffer, never the whole sample nor a table of
    all the paths.
    """
    N = G.shape[0]
    K = len(A)
    D = len(strides)
    traces = np.trace(A, axis1=1, axis2=2)[:, None]
    fill = _form_table(A)
    blocks = _path_blocks(law, seed, paths, N, _block_rows(N, K, paths, 2))
    moments = _Moments(3 * D + 1, _fold_paths(N, K, paths, 2, 3 * D + 1))
    m3 = _skewness(law)
    at_level = [[i for i, s in enumerate(strides) if s == 1 << l] for l in range(K.bit_length())]
    top = 1 + max(l for l, at in enumerate(at_level) if at)  # the levels read
    for Xb in blocks:
        n = len(Xb)
        T = moments.take(n)
        np.einsum("pi,pi->p", Xb @ G, Xb, out=T[3 * D])
        T[3 * D] += m3 * np.einsum("pi,i->p", Xb, g)
        inc = np.empty((K, n))
        fill(Xb, inc)
        inc -= traces
        for level in range(top):
            up = inc[0::2] + inc[1::2] if level + 1 < top else None
            if at_level[level]:
                # summed over k in order: einsum sums a lone column otherwise
                first, *rest = at_level[level]
                if n > 1:
                    np.einsum("kp,kp->p", inc, inc, out=T[first])
                else:
                    T[first] = sum(x * x for x in inc[:, 0].tolist())
                if rest:
                    T[rest] = T[first]
            inc = up
        np.subtract(T[:D], T[3 * D], out=T[D : 2 * D])
        np.square(T[D : 2 * D], out=T[2 * D : 3 * D])
    return _qv_summary(moments, D)


def _qv_summary(moments: _Moments, D: int) -> list:
    """The rows of D depths from the moments of QV_d (quantities 0 to D - 1),
    QV_d - RHS (D to 2D - 1), err = (QV_d - RHS)^2 (2D to 3D - 1) and RHS
    (3D): ``mean_gap_stderr`` takes QV_d and RHS as independent,
    ``mean_gap_paired_stderr`` is the standard error of QV_d - RHS."""
    stats = moments.stats()
    rhs = stats[3 * D]
    return [
        {
            "err": stats[2 * D + i],
            "qv": stats[i],
            "rhs": dict(rhs),
            "mean_gap": abs(stats[i]["mean"] - rhs["mean"]),
            "mean_gap_stderr": math.hypot(stats[i]["stderr"], rhs["stderr"]),
            "mean_gap_paired_stderr": stats[D + i]["stderr"],
        }
        for i in range(D)
    ]


def _qv_kernels(h1: PiecewisePoly, h2: PiecewisePoly, basis: LegendreBasis, t, depth: int):
    """(A, G, g) of the QV experiments: the increments A_k = B[k] - B[k-1] of
    :func:`cumulative_triangle` on the dyadic grid of (0, t] of the given
    depth, taken in place on its stack, and :func:`qv_rhs_quadratics` at t."""
    points = [t * Q(k, 2**depth) for k in range(2**depth + 1)]
    B = cumulative_triangle(h1, h2, basis, points)
    for k in range(len(B) - 1, 0, -1):
        B[k] -= B[k - 1]
    return (B[1:], *qv_rhs_quadratics(h1, h2, basis, t))


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
    Reports E|QV_d - RHS|^2 with stderr, the two means, and the standard
    error of their gap both as if QV_d and RHS were independent
    (``mean_gap_stderr``) and paired over the paths that give both
    (``mean_gap_paired_stderr``).  A given ``basis`` must have N functions.
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
    columns of the buffer of a :class:`_Moments`, which then hold
    (S_d - I)^2, so the call holds no table of all the paths.
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
    fill = _form_table(D)
    K = len(D)
    blocks = _path_blocks(law, seed, paths, N, _block_rows(N, K, paths, 1))
    moments = _Moments(K, _fold_paths(N, K, paths, 1, K))
    for Xb in blocks:
        T = moments.take(len(Xb))
        fill(Xb, T)
        T += trace
        np.square(T, out=T)
    rows = [{"depth": d, "err": err} for d, err in zip(depths, moments.stats())]
    return {"N": N, "paths": paths, "seed": seed, "rows": rows}
