"""Generalized Rademacher systems, CDF transport, and jump-placement schemes.

A partition system splits (0,1] recursively: level k+1 cuts every level-k
cell in the ratio alpha_{k+1} : 1 - alpha_{k+1}.  The sign functions

    r_k = sum_j (-1)^j 1_{]a_j^k, a_{j+1}^k]}

are exactly independent under Lebesgue measure, with single-variable law
P(r_k = +1) = alpha_k.  Everything here is exact rational arithmetic.

Transport composes the r_k with a distribution function F carrying at most
one jump of height delta at a point whose pre-jump probability level is
``fx0``.  Convention (it matters, and it is pinned by worked counterexamples):
the transported events are read through *open* cells ]a, b[, so a point mass
sitting exactly on a partition endpoint contributes sign 0.  The pullback
measure of an open cell is then

    (b - a)  -  |]a,b[ ∩ ]fx0, fx0 + delta[|  +  delta * 1[a < fx0 < b].

For a diffuse F (delta = 0) this reduces to plain length and transport is
invisible; for a jump strictly inside one cell per level the same holds, which
is exactly what the three alpha schemes below arrange.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

from .exact import Q, as_fraction

__all__ = [
    "PartitionSystem",
    "JumpCDF",
    "AlphaScheme",
    "InfeasibleSchemeError",
    "build_partition",
    "evaluate_r",
    "phi_factor",
    "joint_law",
    "transport_joint_law",
    "transport_product_expectation",
    "gap_inside_cell",
    "alpha_scheme",
    "check_depth",
    "MAX_CELLS",
]

# Most cells of a partition system: level k has 2^k cells, each an exact
# rational endpoint, and transport reads them per tuple and sign pattern.
# ``rademacher verify --scheme jump_alternating --depth 14``, the largest
# admitted, takes 2.0 s end to end (the timings past it: CHANGES.md,
# "Library code states rules").
MAX_CELLS = 2**14


@dataclass(frozen=True)
class PartitionSystem:
    """Nested interval partitions of (0,1] with exact rational endpoints."""

    alphas: tuple
    levels: tuple  # levels[k] = endpoints (a_0^k, ..., a_{2^k}^k)

    @property
    def depth(self) -> int:
        return len(self.levels) - 1


def check_depth(depth: int) -> None:
    """Reject a partition system of more than ``MAX_CELLS`` cells at its
    finest level before any cell is built."""
    # past depth 64 the cells alone exceed any cap
    if 2 ** min(depth, 64) > MAX_CELLS:
        raise ValueError(f"depth {depth} needs 2^{depth} cells, above the cap of {MAX_CELLS}")


def build_partition(alphas: Sequence, depth: int) -> PartitionSystem:
    """Refine (0,1] ``depth`` times with the given split ratios (at most
    :func:`check_depth`'s cap)."""
    check_depth(depth)
    alphas = tuple(as_fraction(a) for a in alphas)
    for a in alphas:
        if not (0 < a < 1):
            raise ValueError(f"split ratio {a} outside (0,1)")
    if depth > len(alphas):
        raise ValueError("depth exceeds the number of supplied ratios")
    levels = [(Q(0), Q(1))]
    for k in range(depth):
        prev, a = levels[-1], alphas[k]
        nxt = []
        for j in range(len(prev) - 1):
            lo, hi = prev[j], prev[j + 1]
            nxt.extend((lo, lo + a * (hi - lo)))
        nxt.append(prev[-1])
        levels.append(tuple(nxt))
    return PartitionSystem(alphas, tuple(levels))


def evaluate_r(ps: PartitionSystem, k: int, x) -> int:
    """Sign of the level-k function at x, cells half-open ]left, right]."""
    x = as_fraction(x)
    if not (0 < x <= 1):
        raise ValueError("argument must lie in (0,1]")
    if k < 0 or k > ps.depth:
        raise ValueError(f"level {k} outside [0, {ps.depth}]")
    if k == 0:
        return 1
    # the cell j with a_j < x <= a_{j+1}
    j = bisect_left(ps.levels[k], x) - 1
    return -1 if j % 2 else 1


def phi_factor(ps: PartitionSystem, k: int, eps: int) -> Fraction:
    """Single-variable law of r_k: alpha_k for +1, 1 - alpha_k for -1."""
    if eps not in (-1, 1):
        raise ValueError("sign must be +-1")
    a = ps.alphas[k - 1]
    return a if eps == 1 else 1 - a


def _check_tuple(ps: PartitionSystem, ks: Sequence[int], eps: Sequence[int]) -> None:
    if len(ks) != len(eps) or not ks:
        raise ValueError("levels and signs must align and be nonempty")
    if list(ks) != sorted(set(ks)):
        raise ValueError("levels must be strictly increasing")
    if ks[0] < 1 or ks[-1] > ps.depth:
        raise ValueError("levels outside the built depth")


def _qualifying_cells(ps: PartitionSystem, ks: Sequence[int], eps: Sequence[int]):
    """Indices of level-k_N cells on which every r_{k_i} takes sign eps_i."""
    kN = ks[-1]
    for j in range(2**kN):
        if all((j >> (kN - k)) % 2 == (0 if e == 1 else 1) for k, e in zip(ks, eps)):
            yield j


def joint_law(ps: PartitionSystem, ks: Sequence[int], eps: Sequence[int]) -> Fraction:
    """Exact Lebesgue measure of {r_{k_1} = eps_1, ..., r_{k_N} = eps_N}: the
    transport law under the diffuse CDF, whose cell measure is the length."""
    return transport_joint_law(ps, JumpCDF.diffuse(), ks, eps)


# ---------------------------------------------------------------------------
# CDF transport


@dataclass(frozen=True)
class JumpCDF:
    """A distribution function with at most one jump, seen in probability scale.

    ``fx0`` is the pre-jump value F(X_0) and ``delta`` the jump height; the
    continuous parts are piecewise affine and do not enter.
    """

    fx0: Fraction
    delta: Fraction

    def __post_init__(self):
        object.__setattr__(self, "fx0", as_fraction(self.fx0))
        object.__setattr__(self, "delta", as_fraction(self.delta))
        if self.delta < 0:
            raise ValueError("jump height must be nonnegative")
        if self.delta > 0 and not (0 < self.fx0 and self.fx0 + self.delta < 1):
            raise ValueError("need 0 < F(X_0) and F(X_0) + delta < 1")

    @staticmethod
    def diffuse() -> "JumpCDF":
        return JumpCDF(Q(0), Q(0))

    def cell_measure(self, lo: Fraction, hi: Fraction) -> Fraction:
        """Pullback measure of the open cell ]lo, hi[ under this CDF."""
        length = hi - lo
        if self.delta == 0:
            return length
        glo, ghi = self.fx0, self.fx0 + self.delta
        overlap = max(Q(0), min(hi, ghi) - max(lo, glo))
        atom = self.delta if lo < self.fx0 < hi else Q(0)
        return length - overlap + atom


def transport_joint_law(
    ps: PartitionSystem, cdf: JumpCDF, ks: Sequence[int], eps: Sequence[int]
) -> Fraction:
    """Exact mu-measure of {r_{k_1} o F = eps_1, ...} via pseudo-inverse transport."""
    _check_tuple(ps, ks, eps)
    ends = ps.levels[ks[-1]]
    return sum(
        (cdf.cell_measure(ends[j], ends[j + 1]) for j in _qualifying_cells(ps, ks, eps)),
        Q(0),
    )


def transport_product_expectation(
    ps: PartitionSystem, cdf: JumpCDF, ks: Sequence[int]
) -> Fraction:
    """E[prod_i r_{k_i} o F], exact (endpoint atoms contribute sign zero)."""
    _check_tuple(ps, ks, [1] * len(ks))
    kN = ks[-1]
    ends = ps.levels[kN]
    total = Q(0)
    for j in range(2**kN):
        sign = 1
        for k in ks:
            sign *= -1 if (j >> (kN - k)) % 2 else 1
        total += sign * cdf.cell_measure(ends[j], ends[j + 1])
    return total


def gap_inside_cell(ps: PartitionSystem, cdf: JumpCDF, k: int) -> bool:
    """True when the jump gap sits strictly inside a single level-k cell."""
    if cdf.delta == 0:
        return True
    ends = ps.levels[k]
    for j in range(len(ends) - 1):
        if ends[j] < cdf.fx0 and cdf.fx0 + cdf.delta < ends[j + 1]:
            return True
    return False


# ---------------------------------------------------------------------------
# jump-placement schemes


class InfeasibleSchemeError(ValueError):
    """A scheme whose technical condition fails; carries the first failure."""

    def __init__(self, variant: str, condition: str, depth: int):
        self.variant, self.condition, self.depth = variant, condition, depth
        super().__init__(
            f"{variant}: condition {condition} first fails at depth {depth}"
        )


@dataclass(frozen=True)
class AlphaScheme:
    """A feasible ratio sequence together with its verified condition."""

    variant: str
    condition: str
    alphas: tuple
    cdf: JumpCDF
    params: dict = field(default_factory=dict, compare=False)
    diagnostics: dict = field(default_factory=dict, compare=False)

    def partition(self, depth: Optional[int] = None) -> PartitionSystem:
        depth = len(self.alphas) if depth is None else depth
        return build_partition(self.alphas, depth)


def _c1_products(alphas):
    prods, p = [], Q(1)
    for a in alphas:
        p *= a
        prods.append(p)
    return prods


def _c2_sums(alphas):
    sums, acc, prod = [], Q(0), Q(1)
    for k, a in enumerate(alphas):
        acc += a * prod  # alpha_1 + sum alpha_k prod_{j<k} (1 - alpha_j)
        prod *= 1 - a
        sums.append(acc)
    return sums


def _c3_bounds(alphas):
    """g(k) for odd k and d(k) for even k, both indexed by k (1-based)."""
    g, d = {}, {}
    acc_g = Q(0)  # running sum of the odd-step cut lengths D(2j+1)
    u = Q(1)  # current cell length after an even step, U(2k)
    for k, a in enumerate(alphas, start=1):
        if k % 2 == 1:
            cut = u * a
            acc_g += cut
            g[k] = acc_g
            u = u * (1 - a)
        else:
            u = u * a
            d[k] = acc_g + u
    return g, d


def _scheme_jump_after(cdf: JumpCDF, depth: int, a) -> AlphaScheme:
    level = cdf.fx0 + cdf.delta
    a = as_fraction(a) if a is not None else (1 - level) / 2
    if not (0 < a < 1 - level):
        raise ValueError("free parameter must lie in (0, 1 - F(X_0) - delta)")
    alphas = [level + a]
    for k in range(2, depth + 1):
        alphas.append((level + a**k) / (level + a ** (k - 1)))
    prods = _c1_products(alphas)
    for n, p in enumerate(prods, start=1):
        if not p > level:
            raise InfeasibleSchemeError("jump_after", "C1", n)
        if p != level + a**n:  # closed form of the running product
            raise AssertionError("product identity violated")
    return AlphaScheme(
        "jump_after",
        "C1",
        tuple(alphas),
        cdf,
        params={"a": a},
        diagnostics={"running_products": tuple(prods)},
    )


def _scheme_jump_before(cdf: JumpCDF, depth: int, a) -> AlphaScheme:
    if a is None:
        a = min(cdf.fx0, Q(1, 2)) / 2
        while a / (1 - a * (1 + a)) >= cdf.fx0:
            a /= 2
    else:
        a = as_fraction(a)
    if not (0 < a and a * (1 + a) < 1 and a / (1 - a * (1 + a)) < cdf.fx0):
        raise InfeasibleSchemeError("jump_before", "C2", 1)
    alphas = [a**k for k in range(1, depth + 1)]
    for n, s in enumerate(_c2_sums(alphas), start=1):
        if not s < cdf.fx0:
            raise InfeasibleSchemeError("jump_before", "C2", n)
    return AlphaScheme(
        "jump_before",
        "C2",
        tuple(alphas),
        cdf,
        params={"a": a},
        diagnostics={"partial_sums": tuple(_c2_sums(alphas))},
    )


def _scheme_alternating(cdf: JumpCDF, depth: int, p) -> AlphaScheme:
    fx0, delta = float(cdf.fx0), float(cdf.delta)
    ln2 = math.log(2.0)

    def feasible(pp: int) -> bool:
        dt = (delta + 10.0**-pp) * ln2
        aa = 1.0 - (fx0 + delta + 10.0 ** -(pp + 1))
        return (
            fx0 + delta + 10.0 ** -(pp + 1) < 1
            and fx0 - 9 * 10.0 ** -(pp + 1) > 0
            and dt + aa < ln2  # alpha_1 = 1 - (dt + aa)/ln2 must be positive
        )

    if p is None:
        # the parameterization only exists for F(X_0) > (1 - ln 2)(1 - delta);
        # inside that region some finite p works
        p = 1
        while not feasible(p):
            p += 1
            if p > 30:
                raise InfeasibleSchemeError("jump_alternating", "C3", 1)
    elif not feasible(p):
        raise InfeasibleSchemeError("jump_alternating", "C3", 1)
    A = 1.0 / ln2
    dtil = (delta + 10.0**-p) * ln2
    a = 1.0 - (fx0 + delta + 10.0 ** -(p + 1))

    def tval(k: int) -> float:
        return dtil + a / k

    alphas_f = [1.0 - A * tval(1)]
    for k in range(2, depth + 1):
        if k % 2 == 0:
            alphas_f.append(tval(k) / tval(k - 1))
        else:
            alphas_f.append(1.0 - tval(k) / tval(k - 1))
    if not all(0.0 < x < 1.0 for x in alphas_f):
        raise InfeasibleSchemeError("jump_alternating", "C3", 1)
    # exact binary rationalization; C3 margins (~10^-(p+1)) dwarf float error,
    # so the conditions can then be certified exactly on the rational alphas
    alphas = tuple(Fraction(x) for x in alphas_f)
    g, d = _c3_bounds(alphas)
    for k in range(1, depth + 1):
        if k % 2 == 1 and not g[k] < cdf.fx0:
            raise InfeasibleSchemeError("jump_alternating", "C3", k)
        if k % 2 == 0 and not d[k] > cdf.fx0 + cdf.delta:
            raise InfeasibleSchemeError("jump_alternating", "C3", k)
    g_limit = fx0 - 9 * 10.0 ** -(p + 1)
    d_limit = fx0 + delta + 10.0 ** -(p + 1)
    return AlphaScheme(
        "jump_alternating",
        "C3",
        alphas,
        cdf,
        params={"p": p, "a": a, "delta_tilde": dtil},
        diagnostics={
            "g": {k: v for k, v in g.items()},
            "d": {k: v for k, v in d.items()},
            "g_limit": g_limit,
            "d_limit": d_limit,
        },
    )


def _reject_constant(cdf: JumpCDF, depth: int, alpha) -> None:
    alpha = as_fraction(alpha) if alpha is not None else Q(1, 2)
    if not (0 < alpha < 1):
        raise ValueError("constant ratio must lie in (0,1)")
    level = cdf.fx0 + cdf.delta
    # C1: alpha^N decreases to 0 < F(X_0) + delta, so it must fail
    p = Q(1)
    for n in range(1, 10_000):
        p *= alpha
        if not p > level:
            raise InfeasibleSchemeError("constant", "C1", n)
    raise AssertionError("unreachable: alpha^N tends to zero")


def alpha_scheme(variant: str, cdf: JumpCDF, depth: int, **params) -> AlphaScheme:
    """Build and certify a ratio sequence for the given jump placement.

    ``constant`` always raises :class:`InfeasibleSchemeError` (no constant
    ratio can satisfy any of the three conditions when delta > 0), reporting
    the violated condition and the depth of first failure.
    """
    if cdf.delta <= 0:
        raise ValueError("jump schemes need a CDF with a positive jump")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    check_depth(depth)
    if variant == "jump_after":
        return _scheme_jump_after(cdf, depth, params.get("a"))
    if variant == "jump_before":
        return _scheme_jump_before(cdf, depth, params.get("a"))
    if variant == "jump_alternating":
        return _scheme_alternating(cdf, depth, params.get("p"))
    if variant == "constant":
        _reject_constant(cdf, depth, params.get("alpha"))
    raise ValueError(f"unknown scheme variant {variant!r}")
