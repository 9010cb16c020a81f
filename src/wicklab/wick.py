"""Wick-polynomial engine, entirely in exact rational arithmetic.

The n-th Wick power of a law with moments (m_k) is the monic degree-n
polynomial

    W_n(x) = sum_{k=0}^{n} C(n,k) a_k x^{n-k},

where (a_k) is the reciprocal Laplace-transform series of the law.  Three
independent routes to the same object are implemented (explicit formula and
two recurrences, each of which builds its table W_0, ..., W_n in one pass),
together with the two differential-equation residuals, the formal derivation
operator, the Laguerre bridge for gamma laws, and exact Gram products
E[W_n W_k].  Recurrences amplify rounding catastrophically, so nothing here
ever touches a float.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .exact import Poly, Q, gen_binom, p_add, p_compose, p_deriv, p_mul, p_scale, p_trim
from .laws import InverseLaplaceCoeffs, MomentSequence, inverse_laplace_coeffs

__all__ = [
    "WickPolynomial",
    "recurrence_aux",
    "wick_explicit",
    "wick_recurrence1",
    "wick_recurrence2",
    "ode_residual",
    "derive",
    "laguerre",
    "laguerre_wick",
    "wick_gram",
    "gram_matrix",
    "expect_poly",
    "affine_check",
]


@dataclass(frozen=True)
class WickPolynomial:
    """Dense exact-coefficient polynomial attached to its moment sequence."""

    coeffs: tuple  # little-endian, coeffs[k] multiplies x^k
    law_tag: MomentSequence

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(Q(c) for c in self.coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def poly(self) -> Poly:
        return list(self.coeffs)

    def is_monic(self) -> bool:
        return self.coeffs[-1] == 1

    def __str__(self) -> str:
        parts = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if c == 0:
                continue
            mon = "1" if k == 0 else ("x" if k == 1 else f"x^{k}")
            parts.append(f"{c}*{mon}" if k else f"{c}")
        return " + ".join(parts).replace("+ -", "- ") if parts else "0"


def _coeffs_for(m: MomentSequence, n: int) -> InverseLaplaceCoeffs:
    if n > m.order:
        raise ValueError(f"degree {n} needs moments to order {n}, have {m.order}")
    return inverse_laplace_coeffs(m, n)


def wick_explicit(m: MomentSequence, n: int) -> WickPolynomial:
    """W_n from the explicit binomial formula."""
    return _explicit(m, _coeffs_for(m, n), n)


def _explicit(m: MomentSequence, a: InverseLaplaceCoeffs, n: int) -> WickPolynomial:
    """W_n from the explicit binomial formula over a table a of order >= n."""
    coeffs = [Q(0)] * (n + 1)
    for k in range(n + 1):
        coeffs[n - k] = math.comb(n, k) * a[k]
    return WickPolynomial(tuple(coeffs), m)


def recurrence_aux(m: MomentSequence, K: int) -> list:
    """b_n = sum_k C(n,k) k m_k a_{n-k}, the weights of the first recurrence."""
    return _recurrence_weights(m, _coeffs_for(m, K))


def _recurrence_weights(m: MomentSequence, a: InverseLaplaceCoeffs) -> list:
    """b_0, ..., b_K of :func:`recurrence_aux` from the table a of order K."""
    return [
        sum(math.comb(n, k) * k * m[k] * a[n - k] for k in range(n + 1))
        for n in range(a.order + 1)
    ]


def _recurrence1_table(m: MomentSequence, n: int, b: list | None = None) -> list:
    """W_0, ..., W_n by the first recurrence, in one pass, from the weights
    b_0, ..., b_n (:func:`recurrence_aux`), built here if not given."""
    b = recurrence_aux(m, n) if b is None else b
    ws: list[Poly] = [[Q(1)]]
    for d in range(1, n + 1):
        lead = p_mul([-m[1], Q(1)], ws[d - 1])
        tail: Poly = []
        for k in range(d - 1):
            tail = p_add(tail, p_scale(ws[k], Q(math.comb(d, k)) * b[d - k]))
        ws.append(p_add(lead, p_scale(tail, Q(-1, d))))
    return [WickPolynomial(_as_dense(w, d), m) for d, w in enumerate(ws)]


def _recurrence2_table(m: MomentSequence, n: int) -> list:
    """W_0, ..., W_n by the second recurrence, in one pass."""
    ws: list[Poly] = [[Q(1)]]
    for d in range(1, n + 1):
        acc: Poly = []
        for k in range(1, d + 1):
            factor = [Q(-d) * m[k], Q(k) * m[k - 1]]  # k*x*m_{k-1} - d*m_k
            acc = p_add(acc, p_scale(p_mul(ws[d - k], factor), Q(math.comb(d, k))))
        ws.append(p_scale(acc, Q(1, d)))
    return [WickPolynomial(_as_dense(w, d), m) for d, w in enumerate(ws)]


def wick_recurrence1(m: MomentSequence, n: int) -> WickPolynomial:
    """W_n = (x - m_1) W_{n-1} - (1/n) sum_{k<=n-2} C(n,k) b_{n-k} W_k."""
    return _recurrence1_table(m, n)[n]


def wick_recurrence2(m: MomentSequence, n: int) -> WickPolynomial:
    """n W_n = sum_{k=1..n} C(n,k) W_{n-k} (k x m_{k-1} - n m_k)."""
    return _recurrence2_table(m, n)[n]


def _as_dense(p: Poly, n: int) -> tuple:
    out = list(p) + [Q(0)] * (n + 1 - len(p))
    return tuple(out[: n + 1])


def ode_residual(w: WickPolynomial, m: MomentSequence, which: int) -> Poly:
    """Residual polynomial of the first or second differential equation.

    Identically zero exactly when ``w`` is the Wick polynomial of ``m``; the
    polynomial is returned (not a boolean) so failures can be inspected.
    """
    k = min(w.law_tag.order, m.order)
    if w.law_tag.m[: k + 1] != m.m[: k + 1]:
        raise ValueError("polynomial was generated from different moments")
    n = w.degree
    p = w.poly()
    if which == 1:
        return _residual1(p, m, recurrence_aux(m, n))
    if which == 2:
        res = p_scale(p, Q(n))
        for k in range(1, n + 1):
            factor = [Q(-n) * m[k], Q(k) * m[k - 1]]
            res = p_add(
                res, p_scale(p_mul(factor, p_deriv(p, k)), Q(-1, math.factorial(k)))
            )
        return p_trim(res)
    raise ValueError("which must be 1 or 2")


def _residual1(p: Poly, m: MomentSequence, b: list) -> Poly:
    """The first equation's residual of p, of degree n = len(p) - 1, with
    the weights b of :func:`recurrence_aux` to order >= n."""
    n = len(p) - 1
    res = p_scale(p, Q(n))
    if n:  # the drift term (x - m_1) W' vanishes with W' at n = 0
        res = p_add(res, p_scale(p_mul([-m[1], Q(1)], p_deriv(p)), Q(-1)))
    for k in range(2, n + 1):
        res = p_add(res, p_scale(p_deriv(p, k), b[k] / math.factorial(k)))
    return p_trim(res)


def derive(w: WickPolynomial) -> WickPolynomial:
    """Formal derivation; satisfies derive(W_n) = n * W_{n-1}."""
    return WickPolynomial(_as_dense(p_deriv(w.poly()), max(w.degree - 1, 0)), w.law_tag)


# ---------------------------------------------------------------------------
# Laguerre bridge for gamma laws


def laguerre(n: int, alpha: Fraction) -> Poly:
    """Generalized Laguerre polynomial L_n^alpha, exact coefficients."""
    return p_trim(
        [
            Q(-1) ** k * gen_binom(Q(alpha) + n, n - k) / math.factorial(k)
            for k in range(n + 1)
        ]
    )


def laguerre_wick(a: Fraction, b: Fraction, n: int, law_tag: MomentSequence) -> WickPolynomial:
    """Wick polynomial of a gamma(a,b) law assembled from Laguerre pieces."""
    a, b = Q(a), Q(b)
    if n == 0:
        return WickPolynomial((Q(1),), law_tag)
    acc: Poly = []
    bx = [Q(0), b]
    for k in range(n):
        term = p_compose(laguerre(n - k, a - 1), bx)
        acc = p_add(acc, p_scale(term, Q(-1) ** (n - k) * math.comb(n - 1, k)))
    acc = p_scale(acc, Q(math.factorial(n)) / b**n)
    return WickPolynomial(_as_dense(acc, n), law_tag)


# ---------------------------------------------------------------------------
# exact expectations


def expect_poly(p: Poly, m: MomentSequence) -> Fraction:
    """E[p(X)] by pairing coefficients with raw moments."""
    if len(p) - 1 > m.order:
        raise ValueError("insufficient moment order for this polynomial")
    return sum(c * m[k] for k, c in enumerate(p)) if p else Q(0)


def wick_gram(m: MomentSequence, n: int, k: int) -> Fraction:
    """E[W_n(X) W_k(X)], exact."""
    if n + k > m.order:
        raise ValueError(f"gram entry ({n},{k}) needs moments to order {n + k}")
    wn = wick_explicit(m, n)
    wk = wick_explicit(m, k)
    return expect_poly(p_mul(wn.poly(), wk.poly()), m)


def gram_matrix(m: MomentSequence, nmax: int) -> list:
    return [[wick_gram(m, i, j) for j in range(nmax + 1)] for i in range(nmax + 1)]


def affine_check(m: MomentSequence, a: Fraction, b: Fraction, n: int) -> bool:
    """Covariance under x -> a x + b: the transported W_n composed with the
    affine map must equal a^n times the original W_n."""
    a, b = Q(a), Q(b)
    mh = m.affine(a, b)
    wh = wick_explicit(mh, n)
    lhs = p_compose(wh.poly(), [b, a])
    rhs = p_scale(wick_explicit(m, n).poly(), a**n)
    return p_trim(lhs) == p_trim(rhs)
