"""Symmetric-tensor algebra behind the order decomposition.

Coordinates X_j are i.i.d. centered reduced draws from a law whose monic
orthogonal polynomials P_0..P_4 (h_k = E[P_k(X)^2]) drive two change-of-basis
tables:

    x^n = sum_k Gamma_{n,k} He_k(x)      (probabilists' Hermite)
    x^n = sum_k gamma_{n,k} P_k(x)       (law basis)

Order-n symmetric tensors are stored in "signature" form: a map from sorted
index tuples t = (j_1 <= ... <= j_n) to a coefficient lam_t, representing

    T = sum_t lam_t  e_{j_1} o ... o e_{j_n},
    Phi_n(T) = sum_t lam_t  prod_i P_{alpha_i}(X_{j_i}),

where alpha_i are the multiplicities in t.  With this normalization the
symmetric square of an order-2 kernel has

    lam_t(f o f) = sum over distinct arrangements (v1,v2,v3,v4) of t
                   of a_{v1 v2} a_{v3 v4},

which reproduces the classical combinatorial weights (8 on four distinct
indices, 4a_j a_jk on e_j^3 o e_k, ...).  Independence plus orthogonality give
the pairing rule E[Phi(T) Phi(S)] = sum_t lam^T_t lam^S_t prod_i h_{alpha_i},
with distinct signatures orthogonal -- the whole fourth-moment machinery
reduces to these dictionaries.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import permutations
from typing import Dict

from ..exact import Q, RadSum
from ..laws import Law, MomentSequence, standardized_moments
from ..wick import expect_poly
from ..exact import p_add, p_eval_float, p_mul, p_scale
from .basis import SymmetricKernel2

__all__ = ["GammaTables", "SymTensor", "hermite_connection"]


def hermite_connection(n: int, k: int) -> int:
    """Gamma_{n,k}: x^n = sum_k Gamma_{n,k} He_k(x)."""
    if (n - k) % 2 or k > n or k < 0:
        return 0
    m = (n - k) // 2
    return math.factorial(n) // (math.factorial(k) * 2**m * math.factorial(m))


@dataclass(frozen=True)
class GammaTables:
    """Orthogonal-polynomial data of a standardized law, to order 4.

    Requires exact standardized moments to order 8 and a nondegenerate
    Hankel form (so E[P_k^2] > 0 through k = 4); finite-support laws with
    fewer than five atoms are rejected.
    """

    moments: MomentSequence
    label: str = "custom"

    def __post_init__(self):
        m = self.moments
        if m.order < 8:
            raise ValueError("tables need standardized moments to order 8")
        if m[1] != 0 or m[2] != 1:
            raise ValueError("tables expect a centered reduced law")
        polys = [[Q(1)]]
        hs = [Q(1)]
        for n in range(1, 5):
            p = [Q(0)] * n + [Q(1)]  # monic x^n
            for k in range(n):
                num = expect_poly(p_mul(p, polys[k]), m)
                p = p_add(p, p_scale(polys[k], -num / hs[k]))
            h = expect_poly(p_mul(p, p), m)
            if h <= 0:
                raise ValueError(
                    f"degenerate law: E[P_{n}^2] = {h}; need five points of support"
                )
            polys.append(p)
            hs.append(h)
        gamma = [[Q(0)] * 5 for _ in range(5)]
        for n in range(5):
            xn = [Q(0)] * n + [Q(1)]
            for k in range(n + 1):
                gamma[n][k] = expect_poly(p_mul(xn, polys[k]), m) / hs[k]
        object.__setattr__(self, "_polys", tuple(tuple(p) for p in polys))
        object.__setattr__(self, "_h", tuple(hs))
        object.__setattr__(self, "_gamma", tuple(tuple(r) for r in gamma))
        object.__setattr__(
            self,
            "_polys_float",
            tuple(tuple(float(c) for c in p) for p in polys),
        )

    # -- accessors -------------------------------------------------------------
    @staticmethod
    def for_law(law: Law) -> "GammaTables":
        return GammaTables(standardized_moments(law, 8), label=law.label())

    def ortho_poly(self, k: int) -> list:
        return list(self._polys[k])

    def h(self, k: int) -> Fraction:
        """E[P_k(X)^2]."""
        return self._h[k]

    def gamma(self, n: int, k: int) -> Fraction:
        return self._gamma[n][k] if 0 <= k <= n <= 4 else Q(0)

    def Gamma(self, n: int, k: int) -> int:
        return hermite_connection(n, k)

    def ann_coeff(self, alpha: int, k: int) -> Fraction:
        """gamma_{alpha, alpha-k} - Gamma_{alpha, alpha-k} (0 when alpha < k)."""
        if k > alpha:
            return Q(0)
        return self.gamma(alpha, alpha - k) - self.Gamma(alpha, alpha - k)

    @property
    def m3(self) -> Fraction:
        return self.moments[3]

    @property
    def m4(self) -> Fraction:
        return self.moments[4]

    def p_values(self, xs) -> list:
        """pvals[a][i] = P_a(xs[i]) as floats, a = 0..4."""
        return [[p_eval_float(p, float(x)) for x in xs] for p in self._polys_float]

    # -- sup constants ----------------------------------------------------------
    def _compositions(self, total: int, parts: int, minimum: int):
        if parts == 1:
            if total >= minimum:
                yield (total,)
            return
        for first in range(minimum, total - minimum * (parts - 1) + 1):
            for rest in self._compositions(total - first, parts - 1, minimum):
                yield (first,) + rest

    def c_const(self, k: int, n: int = 4) -> Fraction:
        """sup over compositions of prod |gamma - Gamma| annihilation weights."""
        best = Q(0)
        for r in range(1, n + 1):
            for alphas in self._compositions(n, r, 1):
                for ks in self._compositions(k, r, 0):
                    if any(a < c for a, c in zip(alphas, ks)):
                        continue
                    val = Q(1)
                    for a, c in zip(alphas, ks):
                        if c:
                            val *= abs(self.ann_coeff(a, c))
                    best = max(best, val)
        return best


# ---------------------------------------------------------------------------
# symmetric tensors in signature form


@dataclass
class SymTensor:
    """Order-n symmetric tensor as {sorted index tuple: coefficient}.

    Coefficients may be RadSum, Fraction, or float; operations never mix
    exact and float inputs on their own.
    """

    order: int
    terms: Dict[tuple, object] = field(default_factory=dict)

    def add_term(self, t: tuple, coeff) -> None:
        if self.order and len(t) != self.order:
            raise ValueError("signature length does not match tensor order")
        if any(a > b for a, b in zip(t, t[1:])):
            t = tuple(sorted(t))
        cur = self.terms.get(t)
        new = coeff if cur is None else cur + coeff
        if not new:
            self.terms.pop(t, None)
        else:
            self.terms[t] = new

    def scaled(self, c) -> "SymTensor":
        return SymTensor(self.order, {t: v * c for t, v in self.terms.items()})

    def __add__(self, other: "SymTensor") -> "SymTensor":
        if other.order != self.order:
            raise ValueError("cannot add tensors of different orders")
        out = SymTensor(self.order, dict(self.terms))
        for t, v in other.terms.items():
            out.add_term(t, v)
        return out

    # -- constructors ------------------------------------------------------------
    @staticmethod
    def from_kernel(K: SymmetricKernel2) -> "SymTensor":
        """Order-2 signature form of a symmetric kernel: lam_(k,j) = 2 a_jk
        off the diagonal, lam_(j,j) = a_jj."""
        out = SymTensor(2)
        for j in range(1, K.N + 1):
            for k in range(1, j + 1):
                a = K.at(j, k)
                out.add_term((k, j), a if j == k else a * Q(2))
        return out

    @staticmethod
    def sym_square(K: SymmetricKernel2) -> "SymTensor":
        """f o f in signature form: distinct-arrangement pairing sums."""
        N = K.N
        out = SymTensor(4)
        entries = K.entries
        for t in _sorted_tuples(N, 4):
            seen = set()
            acc = None
            for arr in permutations(t):
                if arr in seen:
                    continue
                seen.add(arr)
                prod = entries[arr[0] - 1][arr[1] - 1] * entries[arr[2] - 1][arr[3] - 1]
                acc = prod if acc is None else acc + prod
            if acc:
                out.add_term(t, acc)
        return out

    # -- structure ----------------------------------------------------------------
    def signature(self, t: tuple):
        """Distinct indices with multiplicities, e.g. (1,1,2) -> ((1,2),(2,1))."""
        c = Counter(t)
        return tuple(sorted(c.items()))

    def annihilated(self, k: int, tables: GammaTables) -> "SymTensor":
        """a_k^n: degree-lowering transport weighted by gamma - Gamma gaps."""
        n = self.order
        if k > n:
            raise ValueError("cannot annihilate more degrees than the order")
        out = SymTensor(n - k)
        for t, lam in self.terms.items():
            sig = self.signature(t)
            r = len(sig)
            for ks in tables._compositions(k, r, 0):
                weight = Q(1)
                ok = True
                for (idx, alpha), ki in zip(sig, ks):
                    if ki == 0:
                        continue
                    if alpha < ki:
                        ok = False
                        break
                    weight *= tables.ann_coeff(alpha, ki)
                if not ok or weight == 0:
                    continue
                t_new = []
                for (idx, alpha), ki in zip(sig, ks):
                    t_new.extend([idx] * (alpha - ki))
                out.add_term(tuple(t_new), lam * weight)
        return out

    # -- evaluation and expectation --------------------------------------------
    def phi_eval(self, pvals) -> float:
        """Phi_n(T) on a realization; pvals from GammaTables.p_values(xs)."""
        total = 0.0
        for t, lam in self.terms.items():
            prod = float(lam)
            for idx, alpha in self.signature(t):
                prod *= pvals[alpha][idx - 1]
            total += prod
        return total

    def expect_product(self, other: "SymTensor", tables: GammaTables):
        """E[Phi(T) Phi(S)]: signature pairing, exact (RadSum)."""
        if self.order != other.order:
            return RadSum(0)  # distinct orders never share a signature
        acc = RadSum(0)
        for t, lam in self.terms.items():
            mu = other.terms.get(t)
            if mu is None:
                continue
            hprod = Q(1)
            for _, alpha in self.signature(t):
                hprod *= tables.h(alpha)
            acc = acc + lam * mu * hprod
        return acc


def _sorted_tuples(N: int, order: int):
    def rec(start, left):
        if left == 0:
            yield ()
            return
        for j in range(start, N + 1):
            for rest in rec(j, left - 1):
                yield (j,) + rest

    yield from rec(1, order)
