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

Storage is integer.  A tensor keeps one positive integer denominator D and,
per signature, a map {radicand w: integer c_w}, so that

    lam_t = sum_w (c_w / D) sqrt(w)        (w squarefree; only w = 1 for
                                            rational kernels).

Kernels are integer matrices R over den with weights w
(``SymmetricKernel2``), so their readers sum Python ints and split one square
per coefficient (``rad_form``, or for ``sym_square`` the gcd rule on weights
split once per kernel); the tensor loops go through the radicand
arithmetic of :mod:`wicklab.exact` (``_madd``, ``_axpy``).  The law enters
through integer tables built once per :class:`GammaTables`: the annihilation
gaps (gamma - Gamma) scaled by the lcm E of their denominators, the h_k
scaled likewise, and per (multiplicity pattern, k) a precompiled
annihilation plan.  A tensor is built once, from this integer form
(``SymTensor(order, coeffs, den)``), and never changes.
``SymTensor.terms`` reads the coefficients back as
:class:`~wicklab.exact.RadSum` values, and exact results leave as RadSum,
with one division at the end.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement, permutations, product
from operator import eq, mul
from types import MappingProxyType
from typing import Dict, Mapping

from ..exact import (
    Q, RadSum, _axpy, _madd, _square_free_product, as_fraction, rad_form
)
from ..laws import Law, MomentSequence, standardized_moments
from ..wick import expect_poly
from ..exact import p_add, p_eval_float, p_mul, p_scale
from .basis import SymmetricKernel2

__all__ = ["GammaTables", "SymTensor", "contraction1", "hermite_connection"]

# The tables reach order 4, the highest order in the square of a second-order
# chaos.
MAX_ORDER = 4


def hermite_connection(n: int, k: int) -> int:
    """Gamma_{n,k}: x^n = sum_k Gamma_{n,k} He_k(x)."""
    if (n - k) % 2 or k > n or k < 0:
        return 0
    m = (n - k) // 2
    return math.factorial(n) // (math.factorial(k) * 2**m * math.factorial(m))


# ---------------------------------------------------------------------------
# index patterns: law-free plans keyed by a sorted tuple's multiplicity pattern


def _mask(t: tuple) -> tuple:
    """Which neighbours of a sorted index tuple are equal, e.g. (1,1,2) ->
    (True, False): with the length, the tuple's multiplicity pattern."""
    return tuple(map(eq, t, t[1:]))


@functools.cache
def _runs(mask: tuple) -> tuple:
    """(start, multiplicity) of each run of equal indices, in index order."""
    runs, start = [], 0
    for i, same in enumerate(mask, 1):
        if not same:
            runs.append((start, i - start))
            start = i
    runs.append((start, len(mask) + 1 - start))
    return tuple(runs)


@functools.cache
def _pairings(mask: tuple) -> tuple:
    """The distinct arrangements (v1,v2,v3,v4) of a sorted 4-tuple, grouped
    by the unordered pairing {v1v2, v3v4} they give: (count, p1, p2, p3, p4)
    with positions into the tuple.  Kernels are symmetric, so each group
    contributes count * a_{p1 p2} a_{p3 p4}."""
    rep = [0]
    for same in mask:
        rep.append(rep[-1] if same else rep[-1] + 1)
    first = {v: rep.index(v) for v in rep}
    counts: dict = {}
    for arr in set(permutations(rep)):
        key = tuple(sorted((tuple(sorted(arr[:2])), tuple(sorted(arr[2:])))))
        counts[key] = counts.get(key, 0) + 1
    return tuple(
        (c, first[a], first[b], first[d], first[e])
        for ((a, b), (d, e)), c in sorted(counts.items())
    )


# E[J^4] for J = x'Ax - tr A and i.i.d. standardized x is a cumulant
# expansion over the set partitions of the eight index slots (factor s holds
# slots 2s, 2s+1).  A singleton block drops (kappa_1 = 0), and so does a
# block that is exactly one factor's slot pair (the - tr A centring); 572
# partitions remain.  Each gives a multigraph on its blocks with the four
# factors as edges, and a block of n slots carries kappa_n (kappa_2 = 1).
# The 15 classes up to isomorphism, as (number of partitions, edges), with
# the sum each stands for (d_i = a_ii, sums over i, j unrestricted):
FOURTH_MOMENT_CLASSES = (
    (1, ((0, 0), (0, 0), (0, 0), (0, 0))),  # k8 sum d_i^4
    (24, ((0, 0), (0, 0), (0, 1), (0, 1))),  # k6 sum d_i^2 a_ij^2
    (24, ((0, 0), (0, 0), (0, 1), (1, 1))),  # k5 k3 sum d_i^2 a_ij d_j
    (32, ((0, 0), (0, 1), (0, 1), (0, 1))),  # k5 k3 sum d_i a_ij^3
    (3, ((0, 0), (0, 0), (1, 1), (1, 1))),  # k4^2 (sum d_i^2)^2
    (24, ((0, 0), (0, 1), (0, 1), (1, 1))),  # k4^2 sum d_i a_ij^2 d_j
    (8, ((0, 1), (0, 1), (0, 1), (0, 1))),  # k4^2 sum a_ij^4
    (12, ((0, 0), (0, 0), (1, 2), (1, 2))),  # k4 (sum d_i^2) tr A^2
    (96, ((0, 0), (0, 1), (1, 2), (0, 2))),  # k4 sum d_i (A^3)_ii
    (48, ((0, 1), (0, 1), (0, 2), (0, 2))),  # k4 sum (A^2)_ii^2
    (96, ((0, 0), (0, 1), (1, 2), (1, 2))),  # k3^2 sum d_i a_ij (A^2)_jj
    (48, ((0, 0), (0, 2), (1, 2), (1, 1))),  # k3^2 d' A^2 d
    (96, ((0, 1), (0, 1), (0, 2), (1, 2))),  # k3^2 sum a_ij^2 (A^2)_ij
    (12, ((0, 1), (0, 1), (2, 3), (2, 3))),  # (tr A^2)^2
    (48, ((0, 1), (1, 2), (2, 3), (0, 3))),  # tr A^4
)


def _cumulants(m: MomentSequence, n: int) -> list:
    """kappa_0..kappa_n from the raw moments: kappa_k = m_k -
    sum_{j<k} C(k-1, j-1) kappa_j m_(k-j)."""
    kappa = [Q(0)]
    for k in range(1, n + 1):
        kappa.append(m[k] - sum(math.comb(k - 1, j - 1) * kappa[j] * m[k - j] for j in range(1, k)))
    return kappa


def _compositions(total: int, parts: int, minimum: int):
    if parts == 1:
        if total >= minimum:
            yield (total,)
        return
    for first in range(minimum, total - minimum * (parts - 1) + 1):
        for rest in _compositions(total - first, parts - 1, minimum):
            yield (first,) + rest


@dataclass(frozen=True)
class GammaTables:
    """Orthogonal-polynomial data of a standardized law, to order 4.

    Requires exact standardized moments to order 8 and a nondegenerate
    Hankel form (so E[P_k^2] > 0 through k = 4); finite-support laws with
    fewer than five atoms are rejected.  Construction also builds the
    integer tables the tensor loops read (annihilation plans per
    multiplicity pattern, pairing weights), the sup constants C4k and the
    integer weights of the E[J^4] classes.
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
        gamma = [[Q(0)] * 5 for _ in range(5)]
        gamma[0][0] = Q(1)
        for n in range(1, 5):
            p = [Q(0)] * n + [Q(1)]  # monic x^n
            # E[p P_k] = E[x^n P_k] as p - x^n spans P_0..P_(k-1), so each
            # projection coefficient is gamma_{n,k}: x^n = P_n + sum_k gamma_{n,k} P_k
            for k in range(n):
                gamma[n][k] = expect_poly(p_mul(p, polys[k]), m) / hs[k]
                p = p_add(p, p_scale(polys[k], -gamma[n][k]))
            h = expect_poly(p_mul(p, p), m)
            if h <= 0:
                raise ValueError(
                    f"degenerate law: E[P_{n}^2] = {h}; need five points of support"
                )
            polys.append(p)
            hs.append(h)
            gamma[n][n] = Q(1)
        object.__setattr__(self, "_polys", tuple(tuple(p) for p in polys))
        object.__setattr__(self, "_h", tuple(hs))
        object.__setattr__(self, "_gamma", tuple(tuple(r) for r in gamma))
        object.__setattr__(
            self,
            "_polys_float",
            tuple(tuple(float(c) for c in p) for p in polys),
        )
        self._build_integer_tables()

    def _build_integer_tables(self) -> None:
        """Integer forms of the law data the tensor loops use.

        ``_ann_plans[n, k][mask]`` lists (kept positions, W) for a sorted
        order-n tuple of that multiplicity pattern: annihilating k degrees
        keeps those positions with weight W / E^k, where W is the product of
        the integer gaps E (gamma - Gamma) over the runs that lose degrees,
        times E^(k - number of such runs).  ``_h_weights[n][mask]`` is
        prod_runs h_alpha as an integer over ``_h_den``^n.  The sup constant
        C4k is the largest |W| / E^k over the order-4 plans: their patterns are
        the compositions of 4, and each plan entry one composition of k.
        ``_j4_weights`` holds, per :data:`FOURTH_MOMENT_CLASSES` entry, its
        count times the cumulants of its vertex degrees, as an integer over
        ``_j4_den``.
        """
        ann = {(a, k): self.ann_coeff(a, k) for a in range(1, 5) for k in range(1, a + 1)}
        E = math.lcm(*(q.denominator for q in ann.values()))
        gaps = {key: int(q * E) for key, q in ann.items()}
        Eh = math.lcm(*(h.denominator for h in self._h))
        hint = [int(h * Eh) for h in self._h]
        plans, hweights = {}, {0: {(): 1}}
        for n in range(1, MAX_ORDER + 1):
            for mask in product((False, True), repeat=n - 1):
                runs = _runs(mask)
                hweights.setdefault(n, {})[mask] = math.prod(
                    hint[alpha] for _, alpha in runs
                ) * Eh ** (n - len(runs))
                for k in range(n + 1):
                    plans.setdefault((n, k), {})[mask] = self._plan(runs, k, gaps, E)
        object.__setattr__(self, "_ann_den", E)
        object.__setattr__(self, "_ann_plans", plans)
        object.__setattr__(self, "_h_den", Eh)
        object.__setattr__(self, "_h_weights", hweights)
        c_const = {
            k: max(
                (Q(abs(W), E**k) for plan in plans[MAX_ORDER, k].values() for _, W in plan),
                default=Q(0),
            )
            for k in range(MAX_ORDER + 1)
        }
        object.__setattr__(self, "_c_const", c_const)
        kappa = _cumulants(self.moments, 8)
        weights = []
        for count, edges in FOURTH_MOMENT_CLASSES:
            degrees = [sum(e.count(v) for e in edges) for v in range(4)]
            weights.append(count * math.prod(kappa[d] for d in degrees if d))
        L = math.lcm(*(q.denominator for q in weights))
        object.__setattr__(self, "_j4_den", L)
        object.__setattr__(self, "_j4_weights", tuple(int(q * L) for q in weights))

    @staticmethod
    def _plan(runs: tuple, k: int, gaps: dict, E: int) -> tuple:
        """Annihilation plan of one multiplicity pattern, in the order of the
        compositions of k over its runs."""
        plan = []
        for ks in _compositions(k, len(runs), 0):
            if any(alpha < ki for (_, alpha), ki in zip(runs, ks)):
                continue
            W, hit = 1, 0
            for (_, alpha), ki in zip(runs, ks):
                if ki:
                    W *= gaps[alpha, ki]
                    hit += 1
            if W:
                keep = tuple(
                    p for (start, alpha), ki in zip(runs, ks) for p in range(start, start + alpha - ki)
                )
                plan.append((keep, W * E ** (k - hit)))
        return tuple(plan)

    # -- accessors -------------------------------------------------------------
    @staticmethod
    def for_law(law: Law) -> "GammaTables":
        return GammaTables(standardized_moments(law, 8), label=law.label())

    def h(self, k: int) -> Fraction:
        """E[P_k(X)^2]."""
        return self._h[k]

    def gamma(self, n: int, k: int) -> Fraction:
        return self._gamma[n][k] if 0 <= k <= n <= 4 else Q(0)

    def ann_coeff(self, alpha: int, k: int) -> Fraction:
        """gamma_{alpha, alpha-k} - Gamma_{alpha, alpha-k} (0 when alpha < k)."""
        if k > alpha:
            return Q(0)
        return self.gamma(alpha, alpha - k) - hermite_connection(alpha, alpha - k)

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
    def c_const(self, k: int) -> Fraction:
        """sup over compositions of prod |gamma - Gamma| annihilation weights
        (order 4, k = 0..4), built with the tables."""
        return self._c_const[k]

    @functools.cached_property
    def bound_constants(self) -> Mapping:
        """The printed increment bound's constants, built once per law:
        C41..C44 and const = 7/2 C41 + C42 + C43 + C44 + 2.  Every
        ``fourth_moment_check`` report on these tables shares this one
        mapping, so it is read-only (a mappingproxy, which cannot be
        pickled: copy it with ``dict()`` first)."""
        c = {f"C4{k}": self.c_const(k) for k in (1, 2, 3, 4)}
        c["const"] = Q(7, 2) * c["C41"] + c["C42"] + c["C43"] + c["C44"] + 2
        return MappingProxyType(c)


# ---------------------------------------------------------------------------
# symmetric tensors in signature form


def _add_scaled(terms: dict, t: tuple, lam: dict, c: int) -> None:
    """terms[t] += c * lam; a signature whose coefficient reaches 0 leaves."""
    cur = terms.get(t)
    if cur is None:
        terms[t] = {w: n * c for w, n in lam.items()}
        return
    _axpy(cur, lam, c)
    if not cur:
        del terms[t]


def _rwr(K: SymmetricKernel2) -> list:
    """R diag(w) R as N lists of ints: (A^2)_jk = (out_jk / den^2)
    sqrt(w_j w_k) for the kernel's matrix A."""
    R, w = K.R, K.w
    out = [[0] * K.N for _ in range(K.N)]
    for u, ru in enumerate(R):
        rw = [x * wk for x, wk in zip(ru, w)]
        for v, rv in enumerate(R[: u + 1]):
            out[u][v] = out[v][u] = sum(map(mul, rw, rv))
    return out


def contraction1(K: SymmetricKernel2) -> SymmetricKernel2:
    """(f ~1 f)(s,t) = int f(s,u) f(t,u) du: the matrix square, entrywise.
    With a_jk = (R_jk / den) sqrt(w_j w_k) it is R diag(w) R over den^2,
    with the same weights."""
    return SymmetricKernel2(_rwr(K), K.den**2, K.w)


class SymTensor:
    """Order-n symmetric tensor: {sorted index tuple: coefficient}.

    ``SymTensor(order, coeffs, den)`` takes the integer form of the module
    docstring, ``{signature: {radicand: int}}`` over one positive integer
    ``den``, and holds ``coeffs`` as given: each signature a sorted tuple of
    length ``order``, each radicand squarefree and no coefficient zero.
    ``terms`` reads the coefficients back as ``{signature: RadSum}``.  A
    built tensor never changes; every operation returns a new one.
    """

    __slots__ = ("order", "_den", "_c")

    def __init__(self, order: int, coeffs: Dict[tuple, dict] = None, den: int = 1):
        self.order = order
        self._c = {} if coeffs is None else coeffs
        self._den = den

    @property
    def terms(self) -> Dict[tuple, RadSum]:
        return {t: RadSum._of(c, self._den) for t, c in self._c.items()}

    def scaled(self, c) -> "SymTensor":
        c = as_fraction(c)
        if not c:
            return SymTensor(self.order)
        p = c.numerator
        return SymTensor(
            self.order,
            {t: {w: n * p for w, n in lam.items()} for t, lam in self._c.items()},
            self._den * c.denominator,
        )

    def __add__(self, other: "SymTensor") -> "SymTensor":
        if other.order != self.order:
            raise ValueError("cannot add tensors of different orders")
        den = math.lcm(self._den, other._den)
        f = den // self._den
        out = {t: {w: n * f for w, n in lam.items()} for t, lam in self._c.items()}
        f = den // other._den
        for t, lam in other._c.items():
            _add_scaled(out, t, lam, f)
        return SymTensor(self.order, out, den)

    # -- constructors ------------------------------------------------------------
    @staticmethod
    def from_kernel(K: SymmetricKernel2) -> "SymTensor":
        """Order-2 signature form of a symmetric kernel: lam_(k,j) = 2 a_jk
        off the diagonal, lam_(j,j) = a_jj."""
        w = K.w
        coeffs = {}
        for j, row in enumerate(K.R):
            for k, x in enumerate(row[: j + 1]):
                if x:
                    n, w0 = rad_form(x if j == k else 2 * x, w[j] * w[k])
                    coeffs[k + 1, j + 1] = {w0: n}
        return SymTensor(2, coeffs, K.den)

    @staticmethod
    def sym_square(K: SymmetricKernel2) -> "SymTensor":
        """f o f in signature form: distinct-arrangement pairing sums.  Every
        pairing of a signature t carries sqrt(w_t1 w_t2 w_t3 w_t4), so the
        pairings sum as integers and each signature splits one square: the
        weights are split once, their pairwise products by one gcd each, and
        a signature's product by one more gcd of its two pairs."""
        R = K.R
        split = [rad_form(1, x) for x in K.w]
        pair = [[_square_free_product(a, b) for b in split] for a in split]
        coeffs = {}
        for t in combinations_with_replacement(range(K.N), 4):
            acc = 0
            for c, p, q, r, s in _pairings(_mask(t)):
                acc += c * R[t[p]][t[q]] * R[t[r]][t[s]]
            if acc:
                root, w0 = _square_free_product(pair[t[0]][t[1]], pair[t[2]][t[3]])
                coeffs[tuple(j + 1 for j in t)] = {w0: acc * root}
        return SymTensor(4, coeffs, K.den**2)

    # -- structure ----------------------------------------------------------------
    def annihilated(self, k: int, tables: GammaTables) -> "SymTensor":
        """a_k^n: degree-lowering transport weighted by gamma - Gamma gaps."""
        n = self.order
        if k > n:
            raise ValueError("cannot annihilate more degrees than the order")
        if n > MAX_ORDER:
            raise ValueError(f"annihilation tables reach order {MAX_ORDER}")
        plans = tables._ann_plans[n, k]
        out: dict = {}
        for t, lam in self._c.items():
            for keep, W in plans[_mask(t)]:
                _add_scaled(out, tuple([t[p] for p in keep]), lam, W)
        return SymTensor(n - k, out, self._den * tables._ann_den**k)

    # -- evaluation and expectation --------------------------------------------
    def phi_eval(self, pvals) -> float:
        """Phi_n(T) on a realization; pvals from GammaTables.p_values(xs)."""
        total = 0.0
        den = self._den
        for t, lam in self._c.items():
            prod = float(sum(n / den * math.sqrt(w) for w, n in lam.items()))
            for start, alpha in _runs(_mask(t)):
                prod *= pvals[alpha][t[start] - 1]
            total += prod
        return total

    def expect_product(self, other: "SymTensor", tables: GammaTables) -> RadSum:
        """E[Phi(T) Phi(S)]: signature pairing, exact."""
        if self.order != other.order:
            return RadSum(0)  # distinct orders never share a signature
        n = self.order
        if n > MAX_ORDER:
            raise ValueError(f"pairing tables reach order {MAX_ORDER}")
        weights = tables._h_weights[n]
        acc: dict = {}
        for t, lam in self._c.items():
            mu = other._c.get(t)
            if mu is not None:
                _madd(acc, lam, mu, weights[_mask(t)])
        return RadSum._of(acc, self._den * other._den * tables._h_den**n)
