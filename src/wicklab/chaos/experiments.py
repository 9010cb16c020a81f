"""Monte Carlo convergence experiments for the stochastic integral, and the
float kernels they run on (the exact bound grid is in ``identities``).

Z_t is the integral of Phi(h1)_s against d Phi(h2)_s up to t, realized at
truncation N through its kernel matrix.  Increment kernels over a partition
are differences of the cumulative kernel

    B(t)[u,v] = < h1 (x) (h2 1_(0,t]) 1_C , e_u (x) e_v >,

which one Gauss-Legendre sweep evaluates exactly up to rounding.  Both
Monte Carlo bodies (``_QVBody``, ``_RiemannBody``) fill tables of centred
quadratic forms x' A_k x + c_k (``_form_table``) per block of paths
(``_block_rows``) and fold every block into running moments
(``_Moments``), so neither holds the whole sample or a table of all the
paths.  The quadratic variation takes forms of the finest increments only,
stored in bit-reversed order of the increment, so that each coarser level
is the sum of its table's two halves, taken in place.

Every call runs its bodies in one pass (``_mc_pass``): the bodies share
one ``Sampler`` stream, drawn once as the blocks are used (a body of N
draws per path reads its first paths * N draws), one draw window and one
work array, while each body keeps its own blocks.  What a row depends on:

* a per-path value is a row-by-row sum: the same bits for any block size
  wherever the BLAS rounds a block's product as it rounds the whole one
  (the shapes where it does not: CHANGES.md, FOUND lines on row blocks);
* the statistics add the paths block by block, so the block size moves
  them in the last bits; a body's blocks are its own, so the other bodies
  of its pass do not move its rows;
* each quantity's moments are its own, so a QV row depends on the other
  depths asked only through the finest one, and a Riemann row on the set
  of distinct depths asked.

A schedule of (N, depth) pairs is grouped by N: each distinct N takes one
kernel stack at its finest depth and one body (``_pass_rows``), so a row
depends on the other pairs of its N only through their finest depth, as a
depth's row does on the other depths.

At fixed N the path t -> Z_t is a polynomial quadratic form, so its
partition quadratic variation tends to 0 once the mesh outruns the basis:
the QV limit needs N / 2^depth -> infinity.  A lockstep schedule at a fixed
ratio leaves a nonzero mean gap E[QV] - E[RHS], and laws with m4 != 3 add
(m4 - 3) times the summed squared diagonals of the increment kernels, a
term of the depth alone that only halves per level.  The same threshold
caps how far Riemann sums track the integral.  So ``qv_experiment`` and
``riemann_experiment`` report per-depth errors at fixed N, and
``qv_joint_refinement`` runs a caller's (N, depth) schedule.
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


def _finest_depth(depths: Sequence[int]) -> int:
    """The largest of a non-empty list of depths >= 0 (ValueError otherwise)."""
    if not depths or min(depths) < 0:
        raise ValueError(f"depths must be a non-empty list of integers >= 0: {list(depths)}")
    return max(depths)


def _dyadic_strides(depths: Sequence[int]) -> tuple:
    """(dmax, strides): the finest depth, and for each depth the stride that
    picks its partition points out of the finest dyadic grid."""
    dmax = _finest_depth(depths)
    return dmax, [2 ** (dmax - d) for d in depths]


# Bytes of work space per block of paths in the Monte Carlo bodies.  A
# block's rows and the products taken from them should stay in a core's L2
# cache, and the passes a body makes per block are paid once per block, so a
# larger budget is faster up to the cache and holds more memory (the curve it
# was chosen on: CHANGES.md, "Longer path blocks and centred form tables").
_BLOCK_BYTES = 2**20


# Bytes one Monte Carlo pass may hold, counted before any work
# (:func:`_check_size`).  A quadratic-variation body holds its one stack of
# 2^dmax + 1 kernels of N^2 floats, with N floats of H and _POINT_FLOATS of
# Python objects per grid point; _SWEEP_FLOATS N^2 floats of G and of the
# work space of a kernel sweep, which runs again beside the stack; the GEMM
# route's packed operand; and _ROW_FLOATS of Python objects per depth asked,
# whose rows are built while the block arrays are held.  A Riemann body
# holds per grid point its Python objects and N floats each of C_h, C_g and
# one difference of C_g; the sweep's work space, B and A, and per distinct
# depth five N x N matrices (P_d in a list and an array, D_d and two
# temporaries of it); its packed operand and its rows.  The pass holds every
# body's kernels at once, one draw window of the largest body's block of
# draws and one work array of the largest body's block arrays
# (:func:`_mc_pass`): per row, a quadratic-variation body's N floats of the
# RHS product x' G, its K increments (the level sums overwrite them), the
# form table's work space and one float per quantity (3 per distinct depth
# and the RHS); a Riemann body's K forms and the form table's work space.
# To these it adds one float per path, which no array holds but which
# bounds the draw.  The count must stay above what a pass is traced to hold
# (``test_qv_traced_peak_within_the_size_count``,
# ``test_riemann_traced_peak_within_the_size_count`` and
# ``test_pass_traced_peak_within_the_size_count``; the traced figures:
# CHANGES.md, "One kernel stack and one block rule per quadratic-variation
# call").
_MAX_BYTES = 2**30
_POINT_FLOATS = 48
_SWEEP_FLOATS = 12
_ROW_FLOATS = 128


def _check_size(paths: int, qv: Sequence[tuple] = (), riemann: Sequence[tuple] = ()) -> int:
    """The bytes a pass holds at most, plus 8 per path it draws, which bound
    the draw rather than memory, for a quadratic-variation body per
    (N, depths) of ``qv`` and a Riemann body per (N, depths) of ``riemann``;
    a pass above ``_MAX_BYTES`` is rejected before any point of its grids,
    or any stride, is built."""
    held, bodies = 0, []  # bodies: (N, dmax, draws per block, work floats per block)
    for N, depths in qv:
        dmax = _finest_depth(depths)
        # past depth 64 the grid alone exceeds any cap
        K = 2 ** min(dmax, 64)
        _, work, packed = _form_route(K, N)
        rows = _block_rows(N, K, paths)
        held += (K + 1) * (N * N + N + _POINT_FLOATS) + _SWEEP_FLOATS * N * N + packed
        held += _ROW_FLOATS * len(depths)
        bodies.append((N, dmax, rows * N, rows * (N + K + work + 3 * len(set(depths)) + 1)))
    for N, depths in riemann:
        dmax = _finest_depth(depths)
        grid = 2 ** min(dmax, 64) + 1
        K = len(set(depths))
        _, work, packed = _form_route(K, N)
        rows = _block_rows(N, K, paths)
        held += grid * (3 * N + _POINT_FLOATS) + (_SWEEP_FLOATS + 2 + 5 * K) * N * N + packed
        held += _ROW_FLOATS * len(depths)
        bodies.append((N, dmax, rows * N, rows * (K + work)))
    N, dmax, draws, work = (max(column) for column in zip(*bodies))
    return _within_cap(8 * (held + draws + work + paths), N, dmax, paths)


def _within_cap(need: int, N: int, dmax: int, paths: int) -> int:
    """``need`` if it is at most ``_MAX_BYTES``; ValueError otherwise."""
    if need > _MAX_BYTES:
        raise ValueError(
            f"truncation {N}, depths up to {dmax} and {paths} paths need {need} bytes "
            f"of kernels, grid points and work space, with 8 per path drawn, "
            f"above the cap of {_MAX_BYTES}"
        )
    return need


def _form_route(K: int, N: int) -> tuple:
    """(gemm, work, packed) of a table of K forms in N variables: whether
    :func:`_form_table` takes the GEMM route (K > N), its floats of work space
    per row, and the floats of the packed W_k and c it builds (none on the
    per-matrix route, which multiplies the A_k as they are)."""
    if K > N:
        return True, N * (N + 2) + 1, K * (N * (N + 1) // 2 + 1)
    return False, N, 0


def _form_table(A: np.ndarray, c: np.ndarray):
    """fill(Xb, out, work), which sets out[k] = x' A_k x + c_k for each row x
    of a block Xb of n rows, in the work space of a flat array ``work`` of
    at least n times :func:`_form_route`'s floats per row.  The shape
    (K, N, N) of A chooses the route (:func:`_form_route`):

    * K <= N: one product Xb @ A_k, into the work space, and one row-wise
      ``einsum`` per matrix, then c_k added to the row;
    * K > N: one GEMM, by x' A x + c = sum_{i <= j} W_ij x_i x_j + c * 1 with
      W = A + A' above the diagonal and A_ii on it (the half-vectorization
      identity).  A block takes its N (N + 1) / 2 products x_i x_j and a row
      of ones once, then all K forms against the packed upper triangles W_k
      with c_k as one more column.  W is built once per table.  The route takes about half the multiply-adds, but sums in
      another order, so a form can move in the last bits against the other.

    K > N keeps every table with K <= N, and so every table of ``wicklab
    all``, on the per-matrix route's bits (the routes' timings: CHANGES.md,
    "GEMM form tables").
    """
    K, N = A.shape[:2]
    if not _form_route(K, N)[0]:

        def fill(Xb: np.ndarray, out: np.ndarray, work: np.ndarray) -> None:
            XA = work[: Xb.size].reshape(Xb.shape)
            for k, Ak in enumerate(A):
                np.einsum("pi,pi->p", np.matmul(Xb, Ak, out=XA), Xb, out=out[k])
                out[k] += c[k]

        return fill
    # column-major: the BLAS rounds W @ F by another kernel for a row-major W,
    # which moves forms in the last bits (N = 40, K = 64)
    M = N * (N + 1) // 2
    W = np.empty((K, M + 1), order="F")
    lo = 0
    for u in range(N):
        hi = lo + N - u
        np.add(A[:, u, u:], A[:, u:, u], out=W[:, lo:hi])
        W[:, lo] = A[:, u, u]
        lo = hi
    W[:, M] = c
    i, j = np.triu_indices(N)

    def fill(Xb: np.ndarray, out: np.ndarray, work: np.ndarray) -> None:
        n = len(Xb)
        XTb, Fb, Sb = _split(work, n, (N, M + 1, M))
        XTb, Fb, Sb = XTb.reshape(N, n), Fb.reshape(M + 1, n), Sb.reshape(M, n)
        np.copyto(XTb, Xb.T)
        # the indices are in range, and under mode="raise" numpy buffers out
        np.take(XTb, i, axis=0, out=Fb[:M], mode="clip")
        np.take(XTb, j, axis=0, out=Sb, mode="clip")
        Fb[:M] *= Sb
        Fb[M] = 1.0
        np.matmul(W, Fb, out=out)

    return fill


def _block_rows(N: int, K: int, paths: int) -> int:
    """Rows per block of paths of a Monte Carlo body whose rows hold N draws,
    one table of K forms and the form table's work space
    (:func:`_form_route`): the rows that fit in ``_BLOCK_BYTES`` or, on the
    GEMM route where it is larger, in the packed operand W, so that each
    pass over W serves a block its size (Goto & van de Geijn, 2008); at
    most the whole sample's bytes, and at least one row.  The per-matrix
    route reads each A_k once per block whatever its size, so its blocks
    keep to ``_BLOCK_BYTES``.  A body takes its blocks at this many rows in
    any pass (:func:`_mc_pass`)."""
    _, work, packed = _form_route(K, N)
    size = min(max(_BLOCK_BYTES, 8 * packed), 8 * paths * N)
    return max(1, size // (8 * (N + K + work)))


def _split(work: np.ndarray, n: int, widths: Sequence[int]) -> list:
    """Consecutive views of the flat array ``work``, one of n * w floats per
    width w: the block arrays of a block of n rows."""
    views, lo = [], 0
    for w in widths:
        views.append(work[lo : lo + n * w])
        lo += n * w
    return views


class _Moments:
    """The count, means and centred second moments of q quantities per path,
    in one pass over the paths.

    :meth:`add` folds one block's (q x n) table of quantities into the
    running totals as soon as the block is filled.  It centres the table in
    place, on its first path and then on its mean, so the block's second
    moment M is a sum of squares (never negative, and exactly 0 on constant
    data), and merges it by the pairwise update of Chan, Golub & LeVeque
    (1979): paths n_a + n_b = n, mean m_a + (m_b - m_a) n_b / n, and
    M_a + M_b + (m_b - m_a)^2 n_a n_b / n (Welford 1962 is the case
    n_b = 1).  Each quantity's totals depend on its own row alone."""

    def __init__(self, q: int):
        self._n = 0
        self._mean = np.zeros(q)
        self._m2 = np.zeros(q)

    def add(self, T: np.ndarray) -> None:
        """Fold the (q x n) table T of n paths in, centring T in place."""
        nb = T.shape[1]
        shift = T[:, :1].copy()
        T -= shift
        mb = np.einsum("qp->q", T)[:, None] / nb
        T -= mb
        m2b = np.einsum("qp,qp->q", T, T)
        delta = (mb + shift)[:, 0] - self._mean
        n = self._n + nb
        self._mean += delta * (nb / n)
        self._m2 += m2b + (self._n * nb / n) * delta * delta
        self._n = n

    def stats(self) -> list:
        """{"mean", "stderr"} of each quantity over the n >= 2 paths added, the
        standard error sqrt(M / (n - 1)) / sqrt(n)."""
        se = np.sqrt(self._m2 / (self._n - 1)) / math.sqrt(self._n)
        return [{"mean": float(m), "stderr": float(e)} for m, e in zip(self._mean, se)]


def _skewness(law: Law) -> float:
    """The skewness c3 / c2^(3/2) of the law from its exact central moments
    c2 and c3, as a float: c2 need not be a rational square, as it must be
    for exact standardized moments."""
    m = moments(law, 3)
    c2 = m[2] - m[1] ** 2
    return float(m[3] - 3 * m[1] * m[2] + 2 * m[1] ** 3) / float(c2) ** 1.5


def _bit_reversal(K: int) -> np.ndarray:
    """rev[r] = r with its log2(K) bits reversed, for K a power of 2.  Built
    by doubling, so rows r and r + K / 2 of a table in this order hold the
    entries 2j and 2j + 1 with j = rev[r] at K / 2: the sums of the table's
    two halves are the sums of its adjacent pairs, again in this order."""
    rev = np.zeros(1, dtype=np.intp)
    while len(rev) < K:
        rev = np.concatenate([2 * rev, 2 * rev + 1])
    return rev


class _QVBody:
    """The Monte Carlo statistics of the partition quadratic variation
    against the limit object, one row per stride of the finest increment
    kernels ``A``, as a body of :func:`_mc_pass` over ``paths`` paths.

    QV = sum_k (x' A_k x - tr A_k)^2 over the increment kernels of the
    partition whose increments are sums of ``stride`` adjacent ones of
    ``A``; RHS = x' G x + m3 g.x is the per-realization limit quadratic
    form, with the law's skewness m3 (:func:`_skewness`).

    Only the finest increments get a quadratic form (:func:`_form_table`,
    centred by c_k = -tr A_k): x' A x is linear in A, so each coarser
    level's forms are the sums of adjacent pairs of the finer one's.  The
    K = 2^dmax increments are first put in bit-reversed order of k
    (:func:`_bit_reversal`), in place on ``A``, which the body thus
    reorders; rows r and r + h of a level's table of 2h rows then hold its
    increments 2j and 2j + 1, and the next level is the sum of the two
    halves, taken in place on the first.  Each distinct level is read once,
    its squares summed over the rows in order, which is bit-reversed order.
    The linear term m3 g.x is a row-wise ``einsum``, since a matrix-vector
    product split by rows can round differently.  Per block, each level's
    QV, QV - RHS and (QV - RHS)^2, and RHS, go into a :class:`_Moments`
    (rows by :func:`_qv_summary`).
    """

    def __init__(self, A, G, g, strides: Sequence[int], law: Law, paths: int):
        N, K = G.shape[0], len(A)
        for r, s in enumerate(_bit_reversal(K)):
            if r < s:
                A[[r, s]] = A[[s, r]]
        # the quantities' row of each distinct level read, of stride 2^level
        self._at = {level: i for i, level in enumerate(sorted({s.bit_length() - 1 for s in strides}))}
        self._rows = [self._at[s.bit_length() - 1] for s in strides]
        self._top = max(self._at)
        q = 3 * len(self._at) + 1
        self.N, self.rows = N, _block_rows(N, K, paths)
        self._fill = _form_table(A, -np.trace(A, axis1=1, axis2=2))
        # per row: the quantities, the increments, x' G and the form table's work space
        self._widths = (q, K, N, _form_route(K, N)[1])
        self.width = sum(self._widths)
        self._G, self._g, self._m3 = G, g, _skewness(law)
        self._moments = _Moments(q)

    def take(self, Xb: np.ndarray, work: np.ndarray) -> None:
        """Fill and fold the block Xb of paths, in the work space ``work``."""
        n, N, D = len(Xb), self.N, len(self._at)
        T, inc, XG, space = _split(work, n, self._widths)
        Tb = T.reshape(-1, n)
        np.einsum("pi,pi->p", np.matmul(Xb, self._G, out=XG.reshape(n, N)), Xb, out=Tb[3 * D])
        # m3 g.x in a row that the gaps overwrite below
        np.einsum("pi,i->p", Xb, self._g, out=Tb[D])
        Tb[D] *= self._m3
        Tb[3 * D] += Tb[D]
        table = inc.reshape(-1, n)
        self._fill(Xb, table, space)
        for level in range(self._top + 1):
            if level in self._at:
                # summed over the rows in order: einsum sums a lone column otherwise
                if n > 1:
                    np.einsum("kp,kp->p", table, table, out=Tb[self._at[level]])
                else:
                    Tb[self._at[level]] = sum(x * x for x in table[:, 0].tolist())
            if level < self._top:
                h = len(table) // 2
                table = np.add(table[:h], table[h:], out=table[:h])
        np.subtract(Tb[:D], Tb[3 * D], out=Tb[D : 2 * D])
        np.square(Tb[D : 2 * D], out=Tb[2 * D : 3 * D])
        self._moments.add(Tb)

    def summary(self) -> list:
        return _qv_summary(self._moments, self._rows)


class _RiemannBody:
    """E|S_d - I|^2 per depth d, as a body of :func:`_mc_pass` over
    ``paths`` paths (see :func:`riemann_experiment`): one form
    x' D_d x + tr A = S_d - I per distinct depth, in ascending order, filled
    by :func:`_form_table` per block, squared in place and folded into a
    :class:`_Moments`.  When g == h, c_g is c_h, from one sweep."""

    def __init__(self, h: PiecewisePoly, g: PiecewisePoly, N: int, depths: Sequence[int], paths: int):
        basis = LegendreBasis(N)
        dmax, self._strides = _dyadic_strides(depths)
        self._depths = depths
        self._distinct = sorted(set(self._strides), reverse=True)  # ascending depths
        points = [Q(k, 2**dmax) for k in range(2**dmax + 1)]
        C_h = cumulative_coeffs(h, basis, points)
        C_g = C_h if g == h else cumulative_coeffs(g, basis, points)
        B = cumulative_triangle(h, g, basis, [1])[0]
        A = 0.5 * (B + B.T)
        P = np.array([C_h[::s][:-1].T @ (C_g[::s][1:] - C_g[::s][:-1]) for s in self._distinct])
        D = 0.5 * (P + P.transpose(0, 2, 1)) - A
        K = len(D)
        self.N, self.rows = N, _block_rows(N, K, paths)
        self._fill = _form_table(D, np.full(K, np.trace(A)))
        # per row: the K forms and the form table's work space
        self._widths = (K, _form_route(K, N)[1])
        self.width = sum(self._widths)
        self._moments = _Moments(K)

    def take(self, Xb: np.ndarray, work: np.ndarray) -> None:
        """Fill and fold the block Xb of paths, in the work space ``work``."""
        T, space = _split(work, len(Xb), self._widths)
        Tb = T.reshape(-1, len(Xb))
        self._fill(Xb, Tb, space)
        np.square(Tb, out=Tb)
        self._moments.add(Tb)

    def summary(self) -> list:
        errs = dict(zip(self._distinct, self._moments.stats()))
        return [{"depth": d, "err": dict(errs[s])} for d, s in zip(self._depths, self._strides)]


def _mc_pass(law: Law, seed: int, paths: int, bodies: Sequence) -> list:
    """Each body's summary after one pass over ``paths`` paths of ``law``
    and ``seed``.

    The sample of a body of N draws per path is the first paths * N draws of
    one ``Sampler`` stream, so the pass draws paths * max N once, whatever
    the bodies.  Each body takes its own blocks of ``rows`` paths, as in a
    pass of its own, as views of one draw window: the body whose next block
    ends first in the stream goes next, so every other body's next block
    starts at most one of its blocks before that end, and the window holds
    at most the largest body's block of draws, shifting the draws that no
    body still needs out of its front.  Every body's block arrays are views
    of one work array, of the most that a body's block takes (``width``
    floats a row at its ``rows``).  So a body's rows are the same bits as in
    a pass of its own, and the pass holds one window and one work array
    however many bodies it has."""
    if paths < 2:
        raise ValueError("paths must be >= 2 for a standard error")
    # in draws: each body's block, the end of its sample, and where its next
    # block starts and ends (inf once it has taken every path)
    block = [min(b.rows, paths) * b.N for b in bodies]
    last = [paths * b.N for b in bodies]
    total = max(last)
    starts, ends = [0] * len(bodies), list(block)
    window = np.empty(max(block))
    work = np.empty(max(min(b.rows, paths) * b.width for b in bodies))
    stream = Sampler(law, seed)
    lo = hi = 0  # the stream positions of window[0] and of the next draw
    while (end := min(ends)) != math.inf:
        i = ends.index(end)
        if end > lo + len(window):
            start = min(starts)
            if hi > start:  # numpy copies forward: the overlap needs no temporary
                window[: hi - start] = window[start - lo : hi - lo]
            lo = start
        if end > hi:
            m = min(lo + len(window), total) - hi
            stream.draw(m, window[hi - lo : hi - lo + m])
            hi += m
        N = bodies[i].N
        bodies[i].take(window[starts[i] - lo : end - lo].reshape(-1, N), work)
        if end < last[i]:
            starts[i], ends[i] = end, min(end + block[i], last[i])
        else:
            starts[i] = ends[i] = math.inf
    return [b.summary() for b in bodies]


def _qv_summary(moments: _Moments, at: Sequence[int]) -> list:
    """One row per entry i of ``at`` from the moments of D levels' QV
    (quantities 0 to D - 1), QV - RHS (D to 2D - 1),
    err = (QV - RHS)^2 (2D to 3D - 1) and RHS (3D): ``mean_gap_stderr``
    takes QV and RHS as independent, ``mean_gap_paired_stderr`` is the
    standard error of QV - RHS."""
    stats = moments.stats()
    D = len(stats) // 3
    rhs = stats[3 * D]
    return [
        {
            "err": dict(stats[2 * D + i]),
            "qv": dict(stats[i]),
            "rhs": dict(rhs),
            "mean_gap": abs(stats[i]["mean"] - rhs["mean"]),
            "mean_gap_stderr": math.hypot(stats[i]["stderr"], rhs["stderr"]),
            "mean_gap_paired_stderr": stats[D + i]["stderr"],
        }
        for i in at
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


def _pass_rows(
    law: Law,
    paths: int,
    seed: int,
    riemann: Optional[tuple] = None,
    pairs: Optional[Sequence[tuple]] = None,
    h1: PiecewisePoly = PiecewisePoly.constant(1),
    h2: PiecewisePoly = PiecewisePoly.constant(1),
    t=Q(1),
    basis: Optional[LegendreBasis] = None,
) -> tuple:
    """(Riemann rows, QV rows) of one Monte Carlo pass (:func:`_mc_pass`):
    the rows of :func:`riemann_experiment` for riemann = (h, g, N, depths),
    and of each (N, depth) pair of ``pairs`` for h1, h2 and t, in pair order
    (None for either not asked).

    The pairs are grouped by N: each distinct N takes one kernel stack at
    the finest depth of its pairs and one :class:`_QVBody` over all its
    depths.  The whole pass's size is checked before any work
    (:func:`_check_size`).  A given ``basis`` serves a schedule of one N."""
    groups: dict = {}
    if pairs is not None:
        _finest_depth([d for _, d in pairs])
        for N, d in pairs:
            groups.setdefault(N, []).append(d)
    _check_size(paths, groups.items(), [riemann[2:]] if riemann else [])
    bodies = [_RiemannBody(*riemann, paths)] if riemann else []
    for N, depths in groups.items():
        dmax, strides = _dyadic_strides(depths)
        kernels = _qv_kernels(h1, h2, basis or LegendreBasis(N), t, dmax)
        bodies.append(_QVBody(*kernels, strides, law, paths))
    summaries = _mc_pass(law, seed, paths, bodies)
    errs = summaries.pop(0) if riemann else None
    if pairs is None:
        return errs, None
    rows = {N: iter(summary) for N, summary in zip(groups, summaries)}
    return errs, [next(rows[N]) for N, _ in pairs]


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
    pairs = [(N, d) for d in depths]
    _, rows = _pass_rows(law, paths, seed, pairs=pairs, h1=h1, h2=h2, t=t, basis=basis)
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
    normal law with h1 = h2 = 1.  The pairs are grouped by N: the pairs of
    one N share one kernel stack at their finest depth, and the whole
    schedule one pass, so a row depends on the other pairs of its N only
    through their finest depth, and is :func:`qv_experiment`'s row at that
    N for the depths of those pairs (same kernels, same sample, same
    blocks)."""
    _, rows = _pass_rows(law, paths, seed, pairs=pairs, h1=h1, h2=h2, t=as_fraction(t))
    rows = [{"N": N, "depth": d, **row} for (N, d), row in zip(pairs, rows)]
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
    depths share one sample of ``paths`` realizations.  One form is taken
    per distinct depth, in ascending order, so a row depends on the set of
    distinct depths asked, not on their order or repeats
    (:class:`_RiemannBody`).  A call above the cap of :func:`_check_size`
    is rejected before any grid point or stride is built.
    """
    rows, _ = _pass_rows(law, paths, seed, riemann=(h, g, N, depths))
    return {"N": N, "paths": paths, "seed": seed, "rows": rows}
