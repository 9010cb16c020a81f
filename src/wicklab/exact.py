"""Exact arithmetic workhorses shared across the package.

Three layers live here:

* dense rational polynomials, stored little-endian as ``list[Fraction]``
  (index k holds the coefficient of ``x**k``);
* :class:`RadSum`, the real multi-quadratic numbers ``sum_w q_w * sqrt(w)``
  with rational ``q_w`` and squarefree radicands ``w``.  :func:`Rad` builds
  the one-term values ``q * sqrt(w)`` that carry orthonormal-basis
  coefficients exactly (a product of two coefficients with matching
  radicands collapses back to a rational); fourth-moment expectations mix
  several radicands;
* exact linear algebra on rational matrices (rank, kernel, PSD test) via
  fraction-free elimination, so ranks never depend on float thresholds.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Sequence

Q = Fraction

# ---------------------------------------------------------------------------
# rational parsing


def as_fraction(x) -> Fraction:
    """Coerce int/str/Fraction to Fraction; floats and bools are rejected on purpose."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    raise TypeError(f"expected an exact rational, got {type(x).__name__}: {x!r}")


def frac_str(x: Fraction) -> str:
    """Serialize a rational as 'p/q' (or 'p' when q == 1)."""
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


# ---------------------------------------------------------------------------
# dense rational polynomials

Poly = list  # list[Fraction], little-endian


def p_trim(p: Sequence[Fraction]) -> Poly:
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def p_add(a: Sequence[Fraction], b: Sequence[Fraction]) -> Poly:
    n = max(len(a), len(b))
    out = [Q(0)] * n
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    return p_trim(out)


def p_scale(a: Sequence[Fraction], c: Fraction) -> Poly:
    return p_trim([c * x for x in a])


def p_mul(a: Sequence[Fraction], b: Sequence[Fraction]) -> Poly:
    if not a or not b:
        return []
    out = [Q(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b):
            out[i + j] += x * y
    return p_trim(out)


def p_eval(a: Sequence[Fraction], x: Fraction) -> Fraction:
    acc = Q(0)
    for c in reversed(list(a)):
        acc = acc * x + c
    return acc


def p_deriv(a: Sequence[Fraction], order: int = 1) -> Poly:
    p = list(a)
    for _ in range(order):
        p = [Q(k) * p[k] for k in range(1, len(p))]
    return p_trim(p)


def p_antideriv(a: Sequence[Fraction]) -> Poly:
    """Antiderivative with zero constant term."""
    return p_trim([Q(0)] + [c / (k + 1) for k, c in enumerate(a)])


def p_integrate(a: Sequence[Fraction], lo: Fraction, hi: Fraction) -> Fraction:
    F = p_antideriv(a)
    return p_eval(F, hi) - p_eval(F, lo)


def p_compose(a: Sequence[Fraction], b: Sequence[Fraction]) -> Poly:
    """a(b(x)), exact."""
    out: Poly = []
    for c in reversed(list(a)):
        out = p_add(p_mul(out, b), [c])
    return out


def p_eval_float(a: Sequence[Fraction], x: float) -> float:
    acc = 0.0
    for c in reversed(list(a)):
        acc = acc * x + float(c)
    return acc


# ---------------------------------------------------------------------------
# exact scalars in the real multi-quadratic extension


@functools.lru_cache(maxsize=4096)
def _split_square(w: int) -> tuple[int, int]:
    """w = s^2 * w0 with w0 squarefree; returns (s, w0). Trial division,
    cached: the radicands met in practice are a few basis-weight products."""
    s, w0, d = 1, 1, 2
    while d * d <= w:
        while w % (d * d) == 0:
            s *= d
            w //= d * d
        if w % d == 0:
            w0 *= d
            w //= d
        d += 1
    return s, w0 * w


def Rad(q, w: int = 1) -> "RadSum":
    """Exact ``q * sqrt(w)`` for rational q and a positive integer w, as a
    one-term :class:`RadSum` with the square part of w moved into q."""
    if w <= 0:
        raise ValueError("radicand must be positive")
    s, w0 = _split_square(w)
    q = as_fraction(q)
    return RadSum._of({w0: q.numerator * s}, q.denominator)


class RadSum:
    """Finite sums ``sum_w q_w * sqrt(w)`` over squarefree radicands w.

    Kernel coefficients ``q * sqrt(w)`` (built with :func:`Rad`) are the
    one-term values; annihilation operators mix coefficients with different
    radicands, so fourth-moment expectations have several terms.  Supports
    ring arithmetic, exact equality, and certified rational enclosures for
    comparisons against rationals.

    A value is held as integer numerators over one positive denominator in
    lowest terms, ``q_w = _num[w] / _den``, so a sum over many radicands
    keeps one denominator, not one Fraction per term, and equal values have
    equal fields.  ``terms`` reads the coefficients as ``{radicand:
    Fraction}``, omitting zeros; values are never mutated after construction.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, terms=None):
        if isinstance(terms, RadSum):
            self._num, self._den = terms._num, terms._den
            return
        if isinstance(terms, dict):
            qs = {w: q for w, q in terms.items() if q}
        elif terms is None:
            qs = {}
        else:
            q = as_fraction(terms)
            qs = {1: q} if q else {}
        # over the lcm of reduced denominators the numerators share no factor
        # with it, so the fields are already in lowest terms
        den = math.lcm(*(q.denominator for q in qs.values()))
        self._num = {w: q.numerator * (den // q.denominator) for w, q in qs.items()}
        self._den = den

    @classmethod
    def _of(cls, num: dict, den: int) -> "RadSum":
        """sum_w (num[w] / den) sqrt(w) for integers num[w] and den > 0."""
        num = {w: n for w, n in num.items() if n}
        g = math.gcd(den, *num.values())
        out = cls.__new__(cls)
        out._num = {w: n // g for w, n in num.items()} if g > 1 else num
        out._den = den // g
        return out

    @property
    def terms(self) -> dict:
        den = self._den
        return {w: Fraction(n, den) for w, n in self._num.items()}

    @staticmethod
    def _coerce(x) -> "RadSum":
        return x if isinstance(x, RadSum) else RadSum(x)

    def __add__(self, other):
        other = self._coerce(other)
        if not other._num:
            return self
        den = math.lcm(self._den, other._den)
        fa, fb = den // self._den, den // other._den
        out = {w: n * fa for w, n in self._num.items()}
        for w, n in other._num.items():
            out[w] = out[w] + n * fb if w in out else n * fb
        return RadSum._of(out, den)

    __radd__ = __add__

    def __neg__(self):
        return RadSum._of({w: -n for w, n in self._num.items()}, self._den)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (Fraction, int)):
            p, q = other.numerator, other.denominator
            return RadSum._of({w: n * p for w, n in self._num.items()}, self._den * q)
        other = self._coerce(other)
        out: dict[int, int] = {}
        for w1, n1 in self._num.items():
            for w2, n2 in other._num.items():
                s, w0 = (w1, 1) if w1 == w2 else _split_square(w1 * w2)
                v = n1 * n2 if s == 1 else n1 * n2 * s
                out[w0] = out[w0] + v if w0 in out else v
        return RadSum._of(out, self._den * other._den)

    __rmul__ = __mul__

    def __eq__(self, other):
        try:
            other = self._coerce(other)
        except TypeError:
            return NotImplemented
        return other._den == self._den and other._num == self._num

    def __hash__(self):
        # equal values hash equal: a rational value compares == to its Fraction
        if self.is_rational:
            return hash(self.rational())
        return hash(frozenset(self.terms.items()))

    def __repr__(self):
        return f"RadSum({self.terms!r})"

    def __float__(self):
        den = self._den
        return float(sum(n / den * math.sqrt(w) for w, n in self._num.items()))

    def __bool__(self):
        return bool(self._num)

    @property
    def is_rational(self) -> bool:
        return all(w == 1 for w in self._num)

    def rational(self) -> Fraction:
        if not self.is_rational:
            raise ValueError(f"{self!r} carries surviving radicals")
        return Fraction(self._num.get(1, 0), self._den)

    def square(self) -> Fraction:
        """The square, which must be rational: a sum whose radicands do not
        cancel in it (such as sqrt(3) + sqrt(5)) raises ValueError."""
        if len(self._num) == 1:
            ((w, n),) = self._num.items()
            return Fraction(n * n * w, self._den * self._den)
        sq = self * self
        if not sq.is_rational:
            raise ValueError(f"square of {self!r} is not rational: incompatible radicands")
        return sq.rational()

    def bounds(self, digits: int = 30) -> tuple[Fraction, Fraction]:
        """Certified rational enclosure lo <= value <= hi."""
        scale = 10**digits
        lo = hi = 0
        for w, n in self._num.items():
            r = math.isqrt(w * scale * scale)
            if n >= 0:
                lo += n * r
                hi += n * (r + 1)
            else:
                lo += n * (r + 1)
                hi += n * r
        return Fraction(lo, self._den * scale), Fraction(hi, self._den * scale)

    def certified_le(self, bound: Fraction, digits: int = 30) -> bool:
        """True when value <= bound, provably at the given enclosure width."""
        lo, hi = self.bounds(digits)
        if hi <= bound:
            return True
        if lo > bound:
            return False
        raise ValueError("enclosure too wide to decide; raise digits")


# ---------------------------------------------------------------------------
# exact linear algebra on rational matrices


def mat_rank(rows: Sequence[Sequence[Fraction]]) -> int:
    """Rank over Q by Gaussian elimination with exact pivots."""
    m = [list(map(Fraction, r)) for r in rows]
    if not m:
        return 0
    nrows, ncols = len(m), len(m[0])
    rank, r = 0, 0
    for c in range(ncols):
        piv = next((i for i in range(r, nrows) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        pv = m[r][c]
        for i in range(r + 1, nrows):
            if m[i][c] != 0:
                f = m[i][c] / pv
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        r += 1
        rank += 1
        if r == nrows:
            break
    return rank


def mat_det(rows: Sequence[Sequence[Fraction]]) -> Fraction:
    m = [list(map(Fraction, r)) for r in rows]
    n = len(m)
    det = Q(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c] != 0), None)
        if piv is None:
            return Q(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            det = -det
        det *= m[c][c]
        inv = 1 / m[c][c]
        for i in range(c + 1, n):
            if m[i][c] != 0:
                f = m[i][c] * inv
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return det


def mat_psd(rows: Sequence[Sequence[Fraction]]) -> bool:
    """Exact PSD test for a symmetric rational matrix.

    All principal minors must be nonnegative; matrices here are tiny (the
    Hankel blocks are at most 5x5), so the 2^n enumeration is fine.
    """
    n = len(rows)
    for i in range(n):
        for j in range(i):
            if rows[i][j] != rows[j][i]:
                raise ValueError("matrix is not symmetric")
    for mask in range(1, 1 << n):
        idx = [i for i in range(n) if mask >> i & 1]
        sub = [[rows[i][j] for j in idx] for i in idx]
        if mat_det(sub) < 0:
            return False
    return True


def binom(n: int, k: int) -> int:
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def gen_binom(a: Fraction, k: int) -> Fraction:
    """Generalized binomial coefficient C(a, k) for rational a."""
    num = Q(1)
    for i in range(k):
        num *= a - i
    return num / math.factorial(k)
