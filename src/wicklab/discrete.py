"""Independence on finite probability spaces.

The bilinear criterion: two variables b, c on atoms with weights (p_k) are
independent iff (f(b), A g(c)) = 0 for all measurable f, g, where

    a_ii = p_i^2 - p_i,    a_ij = p_i p_j  (i != j).

Indicator functions of value-level sets span everything f(b) and g(c) can
reach, so the test below sweeps only those, literally, as the criterion
under test.  The classical factorization oracle and the atom condition for
a whole family share one counting pass over the atoms: the joint law keyed
by each atom's tuple of values, with its marginals, must give every
combination of values the product of its marginals.  The bilinear test and
the oracle must agree everywhere, and the test suite holds them against
each other.

All arithmetic is exact, and the checks run on integers: a space holds its
weights as p_i = w_i / den over one common denominator, so each entry of A
is the integer a_ij den^2 = w_i w_j - [i = j] w_i den, and each probability
of the counting pass an integer sum of the w_i.
"""

from __future__ import annotations

import itertools
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

# Largest Gram matrix ``walsh_gram_rank`` ranks: exact elimination costs
# about size^3 operations on entries that grow with the moments, so the time
# depends on the atom values as well as on the size.  Measured (2 cores,
# Python 3.11): size 100 (10 values, 2 variables), the largest admitted,
# 1.2 s and 81 (9 values, 2 variables) 0.9 s; above the cap, 121 (11 values,
# 2 variables) 2.4 s, 125 (5 values, 3 variables) 1.4 s, 243 (3 values, 5
# variables) 2.1-5.7 s, 256 (4 values, 4 variables) 7.7 s and 1024 (2
# values, 10 variables) 15 s.
GRAM_SIZE_CAP = 100
# Most atoms of a finite space: the atom condition and each of the
# N(N - 1)/2 pairwise checks of a maximal system make one counting pass over
# its 2^N atoms, and the bilinear test reads all n^2 entries of A.  At 2^12
# atoms ``discrete maxsystem --N 12`` takes 0.8-0.9 s end to end and a
# ``discrete check`` of two variables 1.0-1.1 s; at 2^13 they take 1.6-1.7 s
# and 3.3-4.7 s (2 cores, Python 3.11).
MAX_ATOMS = 2**12


def _check_atoms(n: int) -> None:
    if n > MAX_ATOMS:
        raise ValueError(f"the space has {n} atoms, above the cap of {MAX_ATOMS}")


@dataclass(frozen=True)
class FiniteSpace:
    """Atoms 1..n with exact positive weights summing to one, at most
    ``MAX_ATOMS`` of them.  ``w`` holds the weights as integers over one
    denominator ``den``, the lcm of theirs: p_i = w_i / den."""

    p: tuple

    def __post_init__(self):
        _check_atoms(len(self.p))
        p = tuple(as_fraction(x) for x in self.p)
        if not p or any(not (0 < x < 1) for x in p):
            raise ValueError("atom weights must lie in (0,1)")
        if sum(p) != 1:
            raise ValueError("atom weights must sum to 1 exactly")
        den = math.lcm(*(x.denominator for x in p))
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "w", tuple(x.numerator * (den // x.denominator) for x in p))
        object.__setattr__(self, "den", den)

    @property
    def n(self) -> int:
        return len(self.p)

    @staticmethod
    def uniform(n: int) -> "FiniteSpace":
        _check_atoms(n)  # before the n weights are listed
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


def a_matrix(sp: FiniteSpace) -> tuple:
    """The rows of A as Fractions: a_ii = p_i^2 - p_i, a_ij = p_i p_j (i != j)."""
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
    (1_B, A 1_C) = sum_{i in B, j in C} a_ij vanishes for every pair, each
    entry read as the integer a_ij den^2."""
    _check_space(sp, b, c)
    w, den = sp.w, sp.den
    cs = list(c.level_sets().values())
    return all(
        sum(w[i] * (w[j] - den) if i == j else w[i] * w[j] for i in ib for j in ic) == 0
        for ib in b.level_sets().values() for ic in cs
    )


def independent_oracle(sp: FiniteSpace, b: DiscreteRV, c: DiscreteRV) -> bool:
    """Classical oracle: P(b = x, c = y) = P(b = x) P(c = y) for all (x, y),
    the atom condition on the pair."""
    return atom_condition(sp, (b, c))


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

    smallest = [min(map(len, b.level_sets().values())) for b in bs]
    bad = next((i for i, b in enumerate(bs) if not b.is_constant() and smallest[i] < 2), None)
    report["level_sets_at_least_two"] = {"ok": bad is None, "witness": bad}

    # q <= min_{j != k} min(N_j, n - N_j) for each k; with two or more level
    # sets the tightest of these is the smallest min(N_j, n - N_j) of all
    q_bound = min(min(s, n - s) for s in c_sizes) if c.ncd >= 2 else n
    bad_q = next((i for i, b in enumerate(bs) if not b.is_constant() and b.ncd > q_bound), None)
    report["distinct_value_bound"] = {"ok": bad_q is None, "bound": q_bound, "witness": bad_q}

    count = c.ncd * math.prod(b.ncd for b in bs if not b.is_constant())
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
    # one Fraction per sign: the counting pass then matches keys by identity
    bs, signs = [], (Q(1), Q(-1))
    for k in range(1, N + 1):
        block = 2 ** (N - k)
        vals = tuple(signs[(i // block) % 2] for i in range(2**N))
        bs.append(DiscreteRV(vals))
    return sp, bs


def _joint_table(sp: FiniteSpace, bs: Sequence[DiscreteRV]) -> tuple:
    """One pass over the atoms: the family's joint law, keyed by each atom's
    tuple of values, and the marginal law of each variable, as integer
    weights over ``sp.den``."""
    _check_space(sp, *bs)
    joint: dict = {}
    for i, w in enumerate(sp.w):
        key = tuple(b.values[i] for b in bs)
        joint[key] = joint.get(key, 0) + w
    margins = [{} for _ in bs]
    for key, w in joint.items():
        for m, v in zip(margins, key):
            m[v] = m.get(v, 0) + w
    return joint, margins


def atom_condition(sp: FiniteSpace, bs: Sequence[DiscreteRV]) -> bool:
    """Global independence on atoms: every combination of values occurs, each
    with the product of its marginals as its probability.  Over den, for a
    family of k variables: w_key den^k = den prod(marginals)."""
    joint, margins = _joint_table(sp, bs)
    den, k = sp.den, len(bs)
    return len(joint) == math.prod(map(len, margins)) and all(
        w * den**k == den * math.prod(m[v] for m, v in zip(margins, key))
        for key, w in joint.items()
    )


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
    # past 64 variables the size alone exceeds any cap
    if N ** min(n_vars, 64) > GRAM_SIZE_CAP:
        raise ValueError(f"gram size {N}^{n_vars} exceeds cap {GRAM_SIZE_CAP}")
    mom = [sum(p * v**r for p, v in zip(probs, values)) for r in range(2 * N - 1)]
    exps = list(itertools.product(range(N), repeat=n_vars))
    gram = [
        [math.prod(mom[ai + bi] for ai, bi in zip(ea, eb)) for eb in exps] for ea in exps
    ]
    return mat_rank(gram)
