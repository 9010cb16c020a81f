"""Independence on finite probability spaces.

The bilinear criterion: two variables b, c on atoms with weights (p_k) are
independent iff (f(b), A g(c)) = 0 for all measurable f, g, where

    a_ii = p_i^2 - p_i,    a_ij = p_i p_j  (i != j).

Indicator functions of value-level sets span everything f(b) and g(c) can
reach, so the test below sweeps only those.  A classical joint-factorization
oracle is implemented independently; the two must agree everywhere, and the
test suite holds them against each other.  All linear algebra is exact.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

from .exact import Q, as_fraction, mat_rank

__all__ = [
    "FiniteSpace",
    "DiscreteRV",
    "a_matrix",
    "independent",
    "independent_oracle",
    "n_max",
    "necessary_conditions",
    "build_max_system",
    "atom_condition",
    "walsh_gram_rank",
    "GRAM_SIZE_CAP",
    "MAX_ATOMS",
]

GRAM_SIZE_CAP = 4096
# Most atoms of a maximal system: each pair of its N variables sums the 4^N
# entries of one exact matrix (``a_matrix``), so the cost grows about
# fivefold per N.  ``discrete maxsystem --N 6``, the largest admitted, takes
# 0.5 s end to end (the timings past it: CHANGES.md, "One breakpoint walk
# for the piecewise layer").
MAX_ATOMS = 2**6


@dataclass(frozen=True)
class FiniteSpace:
    """Atoms 1..n with exact positive weights summing to one."""

    p: tuple

    def __post_init__(self):
        p = tuple(as_fraction(x) for x in self.p)
        if not p or any(not (0 < x < 1) for x in p):
            raise ValueError("atom weights must lie in (0,1)")
        if sum(p) != 1:
            raise ValueError("atom weights must sum to 1 exactly")
        object.__setattr__(self, "p", p)

    @property
    def n(self) -> int:
        return len(self.p)

    @staticmethod
    def uniform(n: int) -> "FiniteSpace":
        return FiniteSpace((Q(1, n),) * n)


@dataclass(frozen=True)
class DiscreteRV:
    """A random variable as its value vector on the atoms."""

    values: tuple

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(as_fraction(x) for x in self.values))

    def level_sets(self) -> dict:
        out: dict = {}
        for i, v in enumerate(self.values):
            out.setdefault(v, []).append(i)
        return out

    @property
    def ncd(self) -> int:
        return len(set(self.values))

    def is_constant(self) -> bool:
        return self.ncd == 1


@functools.lru_cache(maxsize=8)
def a_matrix(sp: FiniteSpace) -> tuple:
    """The rows of A: a_ii = p_i^2 - p_i, a_ij = p_i p_j (i != j), built once per space."""
    n, p = sp.n, sp.p
    return tuple(
        tuple(p[i] * p[i] - p[i] if i == j else p[i] * p[j] for j in range(n))
        for i in range(n)
    )


def _check_space(sp: FiniteSpace, *rvs: DiscreteRV) -> None:
    for rv in rvs:
        if len(rv.values) != sp.n:
            raise ValueError("variable does not live on this space")


def independent(sp: FiniteSpace, b: DiscreteRV, c: DiscreteRV) -> bool:
    """Bilinear test over indicator functions of value-level sets:
    (1_B, A 1_C) = sum_{i in B, j in C} a_ij vanishes for every pair."""
    _check_space(sp, b, c)
    A = a_matrix(sp)
    cs = list(c.level_sets().values())
    return all(
        sum(A[i][j] for i in ib for j in ic) == 0 for ib in b.level_sets().values() for ic in cs
    )


def independent_oracle(sp: FiniteSpace, b: DiscreteRV, c: DiscreteRV) -> bool:
    """Classical oracle: P(b = x, c = y) = P(b = x) P(c = y) for all (x, y)."""
    _check_space(sp, b, c)
    pb = {v: sum(sp.p[i] for i in idx) for v, idx in b.level_sets().items()}
    pc = {v: sum(sp.p[i] for i in idx) for v, idx in c.level_sets().items()}
    for vb, ib in b.level_sets().items():
        for vc, ic in c.level_sets().items():
            joint = sum(sp.p[i] for i in set(ib) & set(ic))
            if joint != pb[vb] * pc[vc]:
                return False
    return True


def n_max(n: int) -> int:
    """Largest size of a globally independent family on n atoms."""
    if n < 1:
        raise ValueError("need at least one atom")
    return n.bit_length()  # max{k : 2^(k-1) <= n}


def necessary_conditions(sp: FiniteSpace, c: DiscreteRV, bs: Sequence[DiscreteRV]) -> dict:
    """Per-condition report for a candidate independent family around c."""
    _check_space(sp, c, *bs)
    n = sp.n
    c_sizes = [len(idx) for idx in c.level_sets().values()]
    report: dict = {}

    singleton = next((i for i, s in enumerate(c_sizes) if s == 1), None)
    nonconst = next((i for i, b in enumerate(bs) if not b.is_constant()), None)
    report["singleton_level_set"] = {
        "ok": singleton is None or nonconst is None,
        "witness": None
        if singleton is None or nonconst is None
        else {"c_level": singleton, "b_index": nonconst},
    }

    bad = None
    for i, b in enumerate(bs):
        if b.is_constant():
            continue
        sizes = [len(idx) for idx in b.level_sets().values()]
        if any(s < 2 for s in sizes):
            bad = i
            break
    report["level_sets_at_least_two"] = {"ok": bad is None, "witness": bad}

    # q <= min_{j != k} min(N_j, n - N_j) for each k; with two or more level
    # sets the tightest of these is the smallest min(N_j, n - N_j) of all
    q_bound = min(min(s, n - s) for s in c_sizes) if c.ncd >= 2 else n
    bad_q = next((i for i, b in enumerate(bs) if not b.is_constant() and b.ncd > q_bound), None)
    report["distinct_value_bound"] = {"ok": bad_q is None, "bound": q_bound, "witness": bad_q}

    count = c.ncd
    for b in bs:
        if not b.is_constant():
            count *= b.ncd
    report["counting_bound"] = {"ok": count <= n, "product": count, "atoms": n}

    report["ok"] = all(v["ok"] for k, v in report.items() if isinstance(v, dict))
    return report


def build_max_system(N: int):
    """The dyadic block construction on 2^N uniform atoms: N sign variables.
    Above ``MAX_ATOMS`` atoms it is rejected before any atom is built."""
    if N < 1:
        raise ValueError("need N >= 1")
    # past N = 64 the atoms alone exceed any cap
    if 2 ** min(N, 64) > MAX_ATOMS:
        raise ValueError(f"N = {N} needs 2^{N} atoms, above the cap of {MAX_ATOMS}")
    sp = FiniteSpace.uniform(2**N)
    bs = []
    for k in range(1, N + 1):
        block = 2 ** (N - k)
        vals = tuple(Q(1) if (i // block) % 2 == 0 else Q(-1) for i in range(2**N))
        bs.append(DiscreteRV(vals))
    return sp, bs


def atom_condition(sp: FiniteSpace, bs: Sequence[DiscreteRV]) -> bool:
    """Global independence on atoms: products of marginals match intersections,
    and every combination of level sets meets in a nonempty event."""
    _check_space(sp, *bs)
    levels = [list(b.level_sets().values()) for b in bs]
    combos = [[]]
    for lv in levels:
        combos = [c + [idx] for c in combos for idx in lv]
    for combo in combos:
        inter = set(range(sp.n))
        prod = Q(1)
        for idx in combo:
            inter &= set(idx)
            prod *= sum(sp.p[i] for i in idx)
        if not inter:
            return False
        if prod != sum(sp.p[i] for i in inter):
            return False
    return True


def walsh_gram_rank(values: Sequence, probs: Sequence, n_vars: int) -> int:
    """Rank of the exact Gram matrix of all monomials X_1^{a_1}...X_n^{a_n},
    a_i in {0..N-1}, for i.i.d. variables on the given atom values."""
    values = [as_fraction(v) for v in values]
    probs = [as_fraction(p) for p in probs]
    if len(set(values)) != len(values):
        raise ValueError("atom values must be distinct")
    if sum(probs) != 1 or any(p <= 0 for p in probs):
        raise ValueError("atom probabilities must be positive and sum to 1")
    N = len(values)
    size = N**n_vars
    if size > GRAM_SIZE_CAP:
        raise ValueError(f"gram size {size} exceeds cap {GRAM_SIZE_CAP}")
    mom = [sum(p * v**r for p, v in zip(probs, values)) for r in range(2 * N - 1)]
    exps = [[]]
    for _ in range(n_vars):
        exps = [e + [a] for e in exps for a in range(N)]
    gram = [
        [math.prod(mom[ai + bi] for ai, bi in zip(ea, eb)) for eb in exps] for ea in exps
    ]
    return mat_rank(gram)
