"""Piecewise-polynomial helpers for the test oracles: products with a
polynomial and running integrals, both exact.  The library's kernel engines
never build these; the tests use them to write kernels by their definition."""

from fractions import Fraction as Q

from wicklab.chaos.basis import PiecewisePoly
from wicklab.exact import p_add, p_antideriv, p_eval, p_integrate, p_mul


def mul_poly(h: PiecewisePoly, q) -> PiecewisePoly:
    """h times the polynomial q on each piece of h."""
    q = list(q)
    return PiecewisePoly(tuple((lo, hi, tuple(p_mul(list(c), q))) for lo, hi, c in h.pieces))


def antiderivative(h: PiecewisePoly) -> PiecewisePoly:
    """F(x) = integral of h over (0, x], extended by constants across gaps."""
    out = []
    acc = Q(0)
    cursor = Q(0)
    for lo, hi, c in h.pieces:
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
