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

    def orthonormality_defect(self) -> Fraction:
        """max |<e_j, e_k> - delta_jk| over the truncation, exact."""
        worst = Q(0)
        for j in range(1, self.N + 1):
            for k in range(j, self.N + 1):
                val = p_integrate(p_mul(self.poly(j), self.poly(k)), Q(0), Q(1))
                if j == k:
                    val = val * self.weight(j) - 1
                else:
                    sq = val * val * self.weight(j) * self.weight(k)
                    val = sq  # off-diagonal enters squared to stay rational
                worst = max(worst, abs(val))
        return worst


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

    def mul_poly(self, q: Sequence) -> "PiecewisePoly":
        q = list(q)
        return PiecewisePoly(
            tuple((lo, hi, tuple(p_mul(list(c), q))) for lo, hi, c in self.pieces)
        )

    def __mul__(self, other: "PiecewisePoly") -> "PiecewisePoly":
        cuts = sorted(
            {x for lo, hi, _ in self.pieces for x in (lo, hi)}
            | {x for lo, hi, _ in other.pieces for x in (lo, hi)}
        )
        out = []
        for a, b in zip(cuts, cuts[1:]):
            pa = self._piece_at(a, b)
            pb = other._piece_at(a, b)
            if pa is not None and pb is not None:
                prod = p_mul(list(pa), list(pb))
                if prod:
                    out.append((a, b, tuple(prod)))
        return PiecewisePoly(tuple(out))

    def _piece_at(self, a: Fraction, b: Fraction) -> Optional[tuple]:
        for lo, hi, c in self.pieces:
            if lo <= a and b <= hi:
                return c
        return None

    def degree(self) -> int:
        """The largest degree over the pieces (0 for the zero function)."""
        return max((len(c) - 1 for _, _, c in self.pieces), default=0)

    def values_on(self, a: Fraction, b: Fraction, y: np.ndarray) -> np.ndarray:
        """Float values at the points y of (a, b], an interval that lies
        inside one piece or one gap."""
        c = self._piece_at(a, b)
        if c is None:
            return np.zeros_like(y)
        return np.polyval([float(v) for v in reversed(c)], y)

    def integral(self) -> Fraction:
        return sum((p_integrate(list(c), lo, hi) for lo, hi, c in self.pieces), Q(0))

    def antiderivative(self) -> "PiecewisePoly":
        """F(x) = integral over (0, x], extended by constants across gaps."""
        out = []
        acc = Q(0)
        cursor = Q(0)
        for lo, hi, c in self.pieces:
            if lo > cursor:
                out.append((cursor, lo, (acc,)))
            F = p_antideriv(list(c))
            shift = acc - p_eval(F, lo)
            out.append((lo, hi, tuple(p_add(F, [shift])) or (Q(0),)))
            acc = acc + p_integrate(list(c), lo, hi)
            cursor = hi
        if cursor < 1:
            out.append((cursor, Q(1), (acc,)))
        return PiecewisePoly(tuple(out))

    def eval(self, x) -> Fraction:
        x = as_fraction(x)
        for lo, hi, c in self.pieces:
            if lo < x <= hi or (x == 0 and lo == 0):
                return p_eval(list(c), x)
        return Q(0)

    def __call__(self, x: float) -> float:
        xf = float(x)
        for lo, hi, c in self.pieces:
            if float(lo) < xf <= float(hi) or (xf == 0.0 and lo == 0):
                acc = 0.0
                for coef in reversed(c):
                    acc = acc * xf + float(coef)
                return acc
        return 0.0


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

    @staticmethod
    def from_rationals(values: Sequence) -> "ChaosVector":
        return ChaosVector(tuple(Rad(as_fraction(v)) for v in values))


@dataclass(frozen=True)
class SymmetricKernel2:
    """Symmetric order-2 coefficient matrix a_jk = <f, e_j (x) e_k>."""

    entries: tuple  # tuple of N tuples of RadSum

    def __post_init__(self):
        n = len(self.entries)
        for row in self.entries:
            if len(row) != n:
                raise ValueError("kernel matrix must be square")
        for j in range(n):
            for k in range(j):
                if self.entries[j][k] != self.entries[k][j]:
                    raise ValueError("kernel matrix must be symmetric")

    @property
    def N(self) -> int:
        return len(self.entries)

    def at(self, j: int, k: int) -> RadSum:
        """Entry a_jk, 1-based indices."""
        return self.entries[j - 1][k - 1]

    def norm2(self) -> Fraction:
        """Full tensor norm: sum over ordered pairs of squared entries."""
        return sum((e.square() for row in self.entries for e in row), Q(0))

    def diag_sq_sum(self) -> Fraction:
        return sum((self.entries[j][j].square() for j in range(self.N)), Q(0))

    def offdiag_sq_sum(self) -> Fraction:
        return sum(
            (
                self.entries[j][k].square()
                for j in range(self.N)
                for k in range(self.N)
                if j != k
            ),
            Q(0),
        )

    def floats(self) -> np.ndarray:
        return np.array([[float(e) for e in row] for row in self.entries])

    @staticmethod
    def from_rationals(rows: Sequence[Sequence]) -> "SymmetricKernel2":
        return SymmetricKernel2(
            tuple(tuple(Rad(as_fraction(v)) for v in row) for row in rows)
        )

    @staticmethod
    def basis_element(N: int, j: int, k: int, value=1) -> "SymmetricKernel2":
        """value * (e_j o e_k): entries value at (j,k) and (k,j)."""
        rows = [[Rad(Q(0)) for _ in range(N)] for _ in range(N)]
        rows[j - 1][k - 1] = Rad(as_fraction(value))
        rows[k - 1][j - 1] = Rad(as_fraction(value))
        return SymmetricKernel2(tuple(tuple(r) for r in rows))


# ---------------------------------------------------------------------------
# exact projections


class QuadratureError(RuntimeError):
    """Adaptive quadrature failed to settle; carries the residual estimate."""

    def __init__(self, residual: float):
        self.residual = residual
        super().__init__(f"quadrature did not converge (residual {residual:.3e})")


def coeffs_of_callable(
    f, basis: LegendreBasis, t_cut: Optional[float] = None, tol: float = 1e-10
) -> np.ndarray:
    """Float coefficients <f 1_(0,t], e_j> for a black-box integrand.

    Composite Gauss-Legendre with dyadic refinement; raises
    :class:`QuadratureError` with the last inter-level residual when the
    refinement fails to settle below ``tol``.
    """
    hi = 1.0 if t_cut is None else float(t_cut)
    nodes, wts, _ = gauss_legendre(12)

    def level(m: int) -> np.ndarray:
        edges = np.linspace(0.0, hi, m + 1)
        out = np.zeros(basis.N)
        for a, b in zip(edges, edges[1:]):
            x = 0.5 * (b - a) * nodes + 0.5 * (a + b)
            fx = np.array([f(t) for t in x])
            out += 0.5 * (b - a) * ((wts * fx) @ basis.values(x))
        return out

    prev = level(1)
    for m in (2, 4, 8, 16, 32, 64):
        cur = level(m)
        residual = float(np.abs(cur - prev).max())
        if residual < tol:
            return cur
        prev = cur
    raise QuadratureError(residual)


# ---------------------------------------------------------------------------
# exact kernel engine: one sweep over the breakpoints
#
# On each interval (a, b] between breakpoints every function involved is a
# polynomial: H_u(y) = int_0^y h L_u is the running value H_u(a) plus the
# antiderivative of h L_u from a, and g L_v is one product.  Their rows are
# scaled to one integer denominator each, so the interval's contribution
# H M G^T, with M the Hankel moment matrix, only multiplies and adds Python
# ints; a Fraction is made once per kernel entry at the end.


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
    rows = []
    for L, start in zip(polys, H):
        A = p_antideriv(p_mul(c, L))
        rows.append(p_add(A, [start - p_eval(A, a)]))
    return rows, [p_eval(r, b) for r in rows]


def _moments(a: Fraction, b: Fraction, n: int) -> tuple:
    """(M, den): M[m] / den = int_a^b y^m dy for m < n, the entries of the
    Hankel moment matrix int_a^b y^(i+j) dy."""
    q = math.lcm(a.denominator, b.denominator)
    A, B = a.numerator * (q // a.denominator), b.numerator * (q // b.denominator)
    lc = math.lcm(*range(1, n + 1))
    M = [(B ** (m + 1) - A ** (m + 1)) * q ** (n - 1 - m) * (lc // (m + 1)) for m in range(n)]
    return M, q**n * lc


def coeffs_of(
    h: PiecewisePoly, basis: LegendreBasis, t_cut: Optional[Fraction] = None
) -> ChaosVector:
    """Exact coefficients <h * 1_{(0,t]}, e_j> for piecewise-polynomial h:
    the values H_j(1) of the kernel sweep's running integrals."""
    hh = h if t_cut is None else h.cut(t_cut)
    polys = basis._polys
    H = [Q(0)] * basis.N
    for lo, hi, c in hh.pieces:
        _, H = _h_rows(c, polys, lo, hi, H)
    return ChaosVector(tuple(Rad(x, basis.weight(j)) for j, x in enumerate(H, 1)))


def triangle_kernel(
    h: PiecewisePoly, g: PiecewisePoly, basis: LegendreBasis, t_cut: Optional[Fraction] = None
):
    """Coefficients of the triangle kernel h(x) g(y) 1_{x < y} (g cut at t).

    Returns ``(sym, raw)``: ``raw[u][v] = <h (x) g 1_C, e_u (x) e_v>`` and
    ``sym`` the symmetrized kernel (raw + raw^T)/2 driving the integral.

    One sweep over the merged breakpoints of h and g 1_(0,t]: on each interval
    the rows H of H_u(y) = int_0^y h L_u and G of g L_v give
    raw[u][v] / sqrt((2u-1)(2v-1)) += (H M G^T)[u][v], in integers.
    """
    gg = g if t_cut is None else g.cut(t_cut)
    N = basis.N
    polys = basis._polys
    end = gg.pieces[-1][1] if gg.pieces else Q(0)
    cuts = sorted({x for f in (h, gg) for lo, hi, _ in f.pieces for x in (lo, hi) if x <= end})
    H = [Q(0)] * N
    num, den = [[0] * N for _ in range(N)], 1
    for a, b in zip(cuts, cuts[1:]):
        rows, H = _h_rows(h._piece_at(a, b), polys, a, b, H)
        G, gden = _scaled([p_mul(gg._piece_at(a, b) or (), L) for L in polys])
        nG = max(map(len, G))
        if not nG:  # g vanishes here
            continue
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
    w = [basis.weight(j) for j in range(1, N + 1)]
    raw = tuple(tuple(Rad(Q(num[u][v], den), w[u] * w[v]) for v in range(N)) for u in range(N))
    sym = tuple(
        tuple(Rad(Q(num[u][v] + num[v][u], 2 * den), w[u] * w[v]) for v in range(N))
        for u in range(N)
    )
    return SymmetricKernel2(sym), raw
