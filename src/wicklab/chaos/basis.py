"""Reference basis, piecewise-polynomial functions, exact kernel coefficients.

The basis over L^2([0,1], dx) is the shifted normalized Legendre system

    e_j(x) = sqrt(2j-1) * L_{j-1}(2x - 1),    j = 1..N,   e_1 = 1.

Coefficients of a piecewise polynomial against e_j are exact one-term
:class:`~wicklab.exact.RadSum` values ``(rational) * sqrt(2j-1)`` (built with
:func:`~wicklab.exact.Rad`); any product of two coefficients carrying the
same index set is therefore exactly rational, which is what makes the norm
and isometry identities checkable without floats.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from ..exact import (
    Poly,
    Q,
    Rad,
    RadSum,
    as_fraction,
    p_add,
    p_antideriv,
    p_eval,
    p_integrate,
    p_mul,
    p_scale,
    rad_form,
)

__all__ = [
    "shifted_legendre",
    "gauss_legendre",
    "LegendreBasis",
    "PiecewisePoly",
    "ChaosVector",
    "SymmetricKernel2",
    "coeffs_of",
    "triangle_kernel",
]


def shifted_legendre(n: int) -> Poly:
    """Exact coefficients of L_n(2x-1) on [0,1] (unnormalized, L_n(1) = 1)."""
    return next(itertools.islice(_shifted_legendre_polys(), n, None))


def _shifted_legendre_polys():
    """L_0(2x-1), L_1(2x-1), ... by the three-term recurrence, one pass."""
    prev, cur = [Q(1)], [Q(-1), Q(2)]  # L_0, L_1 in the shifted variable
    yield prev
    k = 1
    while True:
        yield cur
        nxt = p_scale(p_mul([Q(-1), Q(2)], cur), Q(2 * k + 1, k + 1))
        nxt = p_add(nxt, p_scale(prev, Q(-k, k + 1)))
        prev, cur, k = cur, nxt, k + 1


@functools.lru_cache(maxsize=64)
def gauss_legendre(n: int) -> tuple:
    """The n-point Gauss-Legendre rule on [-1, 1]: ``(x, w, S)``.

    The rule integrates polynomials of degree < 2n exactly.  ``S`` is the
    spectral integration matrix, ``(S @ f(x))[i] = integral from -1 to x_i``
    of the degree n-1 interpolant of f, so it is exact for degree < n.  The
    nodes come from Newton iteration on the three-term recurrence, started
    from cos(pi (k - 1/4) / (n + 1/2)) (Hale & Townsend 2013), not from an
    eigenvalue solver.  The arrays are shared between callers and read-only.
    """
    x = -np.cos(np.pi * (np.arange(1, n + 1) - 0.25) / (n + 0.5))
    for _ in range(100):
        P = _legendre_values(x, n + 1)
        dP = n * (P[:, n - 1] - x * P[:, n]) / (1.0 - x * x)
        step = P[:, n] / dP
        x = x - step
        if np.abs(step).max() < 1e-15:
            break
    P = _legendre_values(x, n + 1)
    dP = n * (P[:, n - 1] - x * P[:, n]) / (1.0 - x * x)
    w = 2.0 / ((1.0 - x * x) * dP * dP)
    # integral from -1 to x of P_m is (P_{m+1} - P_{m-1}) / (2m+1), with
    # P_{-1} = -1; the interpolant's coefficients are (2m+1)/2 sum_k w_k f_k P_m(x_k)
    below = np.hstack([-np.ones((n, 1)), P[:, : n - 1]])
    S = 0.5 * (P[:, 1:] - below) @ (P[:, :n] * w[:, None]).T
    for a in (x, w, S):
        a.setflags(write=False)
    return x, w, S


def _legendre_values(z: np.ndarray, m: int) -> np.ndarray:
    """P_0 .. P_{m-1} at the points z of [-1, 1], shape (len(z), m), by the
    three-term recurrence (k+1) P_{k+1} = (2k+1) z P_k - k P_{k-1}."""
    P = np.empty((z.size, m))
    P[:, 0] = 1.0
    if m > 1:
        P[:, 1] = z
    for k in range(1, m - 1):
        P[:, k + 1] = ((2 * k + 1) * z * P[:, k] - k * P[:, k - 1]) / (k + 1)
    return P


@dataclass(frozen=True)
class LegendreBasis:
    """The first N shifted normalized Legendre functions."""

    N: int

    def __post_init__(self):
        if self.N < 1:
            raise ValueError("truncation must be >= 1")

    @functools.cached_property
    def _polys(self) -> tuple:
        # built on first use: the float paths never need them
        return tuple(tuple(p) for p in itertools.islice(_shifted_legendre_polys(), self.N))

    def poly(self, j: int) -> Poly:
        """Unnormalized part of e_j (1-based index)."""
        return list(self._polys[j - 1])

    def weight(self, j: int) -> int:
        """Squared normalization: e_j = sqrt(weight) * poly."""
        return 2 * j - 1

    def values(self, x) -> np.ndarray:
        """Float values of e_1 .. e_N at the points x of [0, 1], shape
        (len(x), N), by the three-term recurrence.  Evaluating ``poly`` in
        the power basis instead is ill-conditioned from N of about 14."""
        z = 2.0 * np.asarray(x, dtype=float) - 1.0
        return _legendre_values(z, self.N) * np.sqrt(2.0 * np.arange(self.N) + 1.0)


@dataclass(frozen=True)
class PiecewisePoly:
    """Piecewise polynomial on [0,1] with exact rational breakpoints.

    ``pieces`` are (lo, hi, coeffs) with lo < hi; the function vanishes off
    the listed pieces.  Pieces must be non-overlapping and sorted.
    """

    pieces: tuple

    def __post_init__(self):
        norm = []
        last = Q(0)
        for lo, hi, coeffs in self.pieces:
            lo, hi = as_fraction(lo), as_fraction(hi)
            if not (0 <= lo < hi <= 1):
                raise ValueError("pieces must sit inside [0,1]")
            if lo < last:
                raise ValueError("pieces must be sorted and disjoint")
            last = hi
            norm.append((lo, hi, tuple(as_fraction(c) for c in coeffs)))
        object.__setattr__(self, "pieces", tuple(norm))

    # -- constructors --------------------------------------------------------
    @staticmethod
    def from_poly(coeffs: Sequence) -> "PiecewisePoly":
        return PiecewisePoly(((Q(0), Q(1), tuple(coeffs)),))

    @staticmethod
    def constant(c) -> "PiecewisePoly":
        return PiecewisePoly.from_poly([c])

    # -- algebra ---------------------------------------------------------------
    def cut(self, t) -> "PiecewisePoly":
        """Restriction to (0, t]."""
        t = as_fraction(t)
        out = []
        for lo, hi, c in self.pieces:
            if lo >= t:
                break
            out.append((lo, min(hi, t), c))
        return PiecewisePoly(tuple(out))

    def __mul__(self, other: "PiecewisePoly") -> "PiecewisePoly":
        prods = ((a, b, p_mul(pa or (), pb or ())) for a, b, pa, pb in _walk((Q(1),), self, other))
        return PiecewisePoly(tuple((a, b, tuple(prod)) for a, b, prod in prods if prod))

    def degree(self) -> int:
        """The largest degree over the pieces (0 for the zero function)."""
        return max((len(c) - 1 for _, _, c in self.pieces), default=0)

    def integral(self) -> Fraction:
        return sum((p_integrate(list(c), lo, hi) for lo, hi, c in self.pieces), Q(0))

    def eval(self, x) -> Fraction:
        x = as_fraction(x)
        for lo, hi, c in self.pieces:
            if lo < x <= hi or (x == 0 and lo == 0):
                return p_eval(list(c), x)
        return Q(0)


def _walk(points: Sequence[Fraction], *fs: PiecewisePoly):
    """``(a, b, c_1, ..., c_m)`` for each interval (a, b] between 0, the points
    and the breakpoints of the functions fs, up to the last point: c_i is the
    coefficients of f_i on (a, b], or None where f_i vanishes.  Every sweep
    over the breakpoints takes its intervals from here."""
    if min(points) < 0:
        raise ValueError(f"kernel points and t must be >= 0: {list(points)}")
    end = max(points)
    breaks = (x for f in fs for lo, hi, _ in f.pieces for x in (lo, hi) if x < end)
    for a, b in itertools.pairwise(sorted({Q(0), *points, *breaks})):
        yield (a, b, *(next((c for lo, hi, c in f.pieces if lo <= a < hi), None) for f in fs))


# ---------------------------------------------------------------------------
# coefficient containers


@dataclass(frozen=True)
class ChaosVector:
    """Coefficients <h, e_j>, j = 1..N, as exact radical-weighted rationals."""

    coeffs: tuple  # tuple[RadSum]

    @property
    def N(self) -> int:
        return len(self.coeffs)

    def norm2(self) -> Fraction:
        return sum((c.square() for c in self.coeffs), Q(0))

    def dot(self, other: "ChaosVector") -> Fraction:
        if self.N != other.N:
            raise ValueError("mismatched truncations")
        return sum(((a * b).rational() for a, b in zip(self.coeffs, other.coeffs)), Q(0))

    def floats(self) -> np.ndarray:
        return np.array([float(c) for c in self.coeffs])


@dataclass(frozen=True)
class SymmetricKernel2:
    """Symmetric order-2 coefficient matrix a_jk = <f, e_j (x) e_k> =
    (R[j][k] / den) sqrt(w_j w_k): R a symmetric integer matrix, den >= 1
    reduced against R (so ``==`` is value equality for given weights), and
    positive integer weights w (2j - 1 for triangle kernels, 1 for rational)."""

    R: tuple  # N tuples of N ints
    den: int
    w: tuple  # N positive ints

    def __post_init__(self):
        R, den, w = tuple(map(tuple, self.R)), self.den, tuple(self.w)
        n = len(R)
        if any(len(row) != n for row in R):
            raise ValueError("kernel matrix must be square")
        if any(R[j][k] != R[k][j] for j in range(n) for k in range(j)):
            raise ValueError("kernel matrix must be symmetric")
        if len(w) != n or any(x < 1 for x in w):
            raise ValueError("need one positive integer weight per kernel row")
        if den < 1:
            raise ValueError("denominator must be a positive integer")
        g = math.gcd(den, *(x for row in R for x in row))
        if g > 1:
            R, den = tuple(tuple(x // g for x in row) for row in R), den // g
        object.__setattr__(self, "R", R)
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "w", w)

    @property
    def N(self) -> int:
        return len(self.R)

    def at(self, j: int, k: int) -> RadSum:
        """Entry a_jk, 1-based indices."""
        return Rad(Q(self.R[j - 1][k - 1], self.den), self.w[j - 1] * self.w[k - 1])

    def _sq_sum(self, keep) -> Fraction:
        """Sum of a_jk^2 = R_jk^2 w_j w_k / den^2 over the (j, k) that keep
        selects."""
        R, w, n = self.R, self.w, range(self.N)
        total = sum(R[j][k] ** 2 * w[j] * w[k] for j in n for k in n if keep(j, k))
        return Q(total, self.den**2)

    def norm2(self) -> Fraction:
        """Full tensor norm: sum over ordered pairs of squared entries."""
        return self._sq_sum(lambda j, k: True)

    def diag_sq_sum(self) -> Fraction:
        return self._sq_sum(operator.eq)

    def offdiag_sq_sum(self) -> Fraction:
        return self._sq_sum(operator.ne)

    def floats(self) -> np.ndarray:
        """The entries as floats, each rounded as ``float(self.at(j, k))``."""
        out = np.zeros((self.N, self.N))
        for j, (row, wj) in enumerate(zip(self.R, self.w)):
            for k, (x, wk) in enumerate(zip(row, self.w)):
                if x:
                    n, w0 = rad_form(x, wj * wk)
                    out[j, k] = n / self.den * math.sqrt(w0)
        return out

    @staticmethod
    def from_rationals(rows: Sequence[Sequence]) -> "SymmetricKernel2":
        R, den = _scaled([[as_fraction(v) for v in row] for row in rows])
        return SymmetricKernel2(R, den, (1,) * len(R))


# ---------------------------------------------------------------------------
# exact kernel engine: one sweep over the breakpoints
#
# On each interval (a, b] between breakpoints every function involved is a
# polynomial: H_u(y) = int_0^y h L_u is the running value H_u(a) plus the
# antiderivative of h L_u from a, and g L_v is one product.  Their rows are
# scaled to one integer denominator each, so the interval's contribution
# H M G^T, with M the Hankel moment matrix, only multiplies and adds Python
# ints.  The running integer kernel and the values H_u, taken at given points,
# are snapshots: h (x) g 1_(s, t] has the difference of those at t and s.


def _scaled(rows: Sequence[Sequence[Fraction]]) -> tuple:
    """(int_rows, den): rational rows over the lcm of their denominators."""
    den = math.lcm(*(x.denominator for r in rows for x in r))
    return [[x.numerator * (den // x.denominator) for x in r] for r in rows], den


def _dot(a: Sequence[int], b: Sequence[int]) -> int:
    return sum(map(operator.mul, a, b))


def _h_rows(
    c: Optional[tuple], polys: Sequence[Poly], a: Fraction, b: Fraction, H: list
) -> tuple:
    """Power-basis rows of H_u(y) = int_0^y h L_u on (a, b], where h has the
    coefficients c there (None on a gap), from the values ``H`` at a.
    Returns the rows and the values at b."""
    if not c:
        return [[x] for x in H], H
    A = [p_antideriv(p_mul(c, L)) for L in polys]
    rows = [p_add(F, [x - p_eval(F, a)]) for F, x in zip(A, H)]
    return rows, [p_eval(r, b) for r in rows]


def _moments(a: Fraction, b: Fraction, n: int) -> tuple:
    """(M, den): M[m] / den = int_a^b y^m dy for m < n, the entries of the
    Hankel moment matrix int_a^b y^(i+j) dy."""
    q = math.lcm(a.denominator, b.denominator)
    A, B = a.numerator * (q // a.denominator), b.numerator * (q // b.denominator)
    lc = math.lcm(*range(1, n + 1))
    M = [(B ** (m + 1) - A ** (m + 1)) * q ** (n - 1 - m) * (lc // (m + 1)) for m in range(n)]
    return M, q**n * lc


def _kernel_sweep(
    h: PiecewisePoly, g: PiecewisePoly, basis: LegendreBasis, points: Sequence[Fraction]
) -> list:
    """``(num, den, H)`` at each of the sorted points p, from one walk over the
    intervals between 0, the breakpoints of h and g and the points: num / den
    is the running integer kernel of h (x) g 1_(p_0, p] (raw[u][v] /
    sqrt((2u-1)(2v-1))) and H the values H_u(p).  Where g vanishes, before
    p_0 included, only the H rows advance.  den grows by lcm, so each
    snapshot's den divides every later one's."""
    N, polys, p0 = basis.N, basis._polys, points[0]
    H, num, den = [Q(0)] * N, [[0] * N for _ in range(N)], 1
    at = {Q(0): (num, den, H)}
    for a, b, ch, cg in _walk(points, h, g):
        rows, H = _h_rows(ch, polys, a, b, H)
        G, gden = _scaled([p_mul(cg, L) for L in polys] if cg and b > p0 else [])
        nG = max(map(len, G), default=0)
        if nG:  # g does not vanish here
            Hn, hden = _scaled(rows)
            M, mden = _moments(a, b, max(map(len, Hn)) + nG - 1)
            HM = [[_dot(r, M[j:]) for j in range(nG)] for r in Hn]
            step = hden * mden * gden
            new = math.lcm(den, step)
            old_f, step_f = new // den, new // step
            num = [
                [x * old_f + _dot(hm, Gv) * step_f for x, Gv in zip(row, G)]
                for row, hm in zip(num, HM)
            ]
            den = new
        at[b] = (num, den, H)
    return [at[p] for p in points]


def _increment(lo: tuple, hi: tuple, basis: LegendreBasis) -> SymmetricKernel2:
    """The symmetrized kernel of h (x) g 1_(s, t] from the sweep's snapshots lo
    at s and hi at t: their difference over hi's denominator."""
    (n_s, d_s, _), (n_t, d_t, _) = lo, hi
    f = d_t // d_s
    D = [[x - y * f for x, y in zip(rt, rs)] for rt, rs in zip(n_t, n_s)]
    sym = [[x + y for x, y in zip(row, col)] for row, col in zip(D, zip(*D))]
    return SymmetricKernel2(sym, 2 * d_t, tuple(basis.weight(j) for j in range(1, basis.N + 1)))


def coeffs_of(
    h: PiecewisePoly, basis: LegendreBasis, t_cut: Optional[Fraction] = None
) -> ChaosVector:
    """Exact coefficients <h * 1_{(0,t]}, e_j> for piecewise-polynomial h
    (t = 1 by default): the values H_j(t) of the kernel sweep with no g."""
    t = Q(1) if t_cut is None else as_fraction(t_cut)
    [(_, _, H)] = _kernel_sweep(h, PiecewisePoly(()), basis, (t,))
    return ChaosVector(tuple(Rad(x, basis.weight(j)) for j, x in enumerate(H, 1)))


def triangle_kernel(
    h: PiecewisePoly, g: PiecewisePoly, basis: LegendreBasis, t_cut: Optional[Fraction] = None
):
    """Coefficients of the triangle kernel h(x) g(y) 1_{x < y} (g cut at t).

    Returns ``(sym, raw)``: ``raw[u][v] = <h (x) g 1_C, e_u (x) e_v>`` and
    ``sym`` the symmetrized kernel (raw + raw^T)/2 driving the integral.
    Both come from the kernel sweep's snapshot at t (by default the end of g).
    """
    end = g.pieces[-1][1] if g.pieces else Q(0)
    zero, snap = _kernel_sweep(h, g, basis, (Q(0), end if t_cut is None else as_fraction(t_cut)))
    num, den, _ = snap
    w = [basis.weight(j) for j in range(1, basis.N + 1)]
    raw = tuple(tuple(Rad(Q(x, den), wu * wv) for x, wv in zip(row, w)) for row, wu in zip(num, w))
    return _increment(zero, snap, basis), raw
