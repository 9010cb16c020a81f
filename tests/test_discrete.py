"""Finite-space independence: bilinear criterion vs the classical oracle."""

import random
import tracemalloc
from fractions import Fraction as Q

import pytest

from wicklab.discrete import (
    MAX_ATOMS,
    DiscreteRV,
    FiniteSpace,
    a_matrix,
    atom_condition,
    build_max_system,
    independent,
    independent_oracle,
    n_max,
    necessary_conditions,
    walsh_gram_rank,
)
from wicklab.exact import mat_rank


def test_a_matrix_small():
    sp = FiniteSpace((Q(1, 2), Q(1, 2)))
    A = a_matrix(sp)
    assert A == ((Q(-1, 4), Q(1, 4)), (Q(1, 4), Q(-1, 4)))


def test_a_matrix_kernel_is_constants():
    for p in [(Q(1, 2), Q(1, 4), Q(1, 4)), (Q(1, 6),) * 6, (Q(2, 5), Q(2, 5), Q(1, 5))]:
        sp = FiniteSpace(p)
        A = a_matrix(sp)
        assert all(sum(row) == 0 for row in A)  # A * 1 = 0
        assert mat_rank([list(r) for r in A]) == sp.n - 1
        assert [list(r) for r in A] == [
            [A[j][i] for j in range(sp.n)] for i in range(sp.n)
        ]  # symmetric


def test_constant_is_independent_of_everything():
    sp = FiniteSpace((Q(1, 2), Q(1, 4), Q(1, 4)))
    c = DiscreteRV((1, 1, 1))
    b = DiscreteRV((3, -1, 7))
    assert independent(sp, b, c) and independent_oracle(sp, b, c)


def test_all_distinct_values_block_everything():
    sp = FiniteSpace((Q(1, 2), Q(1, 4), Q(1, 4)))
    c = DiscreteRV((0, 1, 2))
    b = DiscreteRV((1, 1, 2))
    assert not independent(sp, b, c)
    assert not independent_oracle(sp, b, c)


def test_dyadic_block_pair():
    sp = FiniteSpace.uniform(4)
    b1 = DiscreteRV((1, 1, -1, -1))
    b2 = DiscreteRV((1, -1, 1, -1))
    assert independent(sp, b1, b2)
    assert independent_oracle(sp, b1, b2)


def test_bilinear_test_matches_oracle_random_sweep():
    rng = random.Random(13)
    for _ in range(400):
        n = rng.randint(2, 6)
        w = [rng.randint(1, 6) for _ in range(n)]
        sp = FiniteSpace(tuple(Q(x, sum(w)) for x in w))
        b = DiscreteRV(tuple(Q(rng.randint(-2, 2)) for _ in range(n)))
        c = DiscreteRV(tuple(Q(rng.randint(-2, 2)) for _ in range(n)))
        assert independent(sp, b, c) == independent_oracle(sp, b, c)


def test_n_max_values():
    assert n_max(1) == 1
    assert n_max(4) == 3
    assert n_max(8) == 4
    assert n_max(5) == 3


def test_necessary_conditions_singleton_level():
    sp = FiniteSpace((Q(1, 2), Q(1, 4), Q(1, 4)))
    c = DiscreteRV((0, 0, 5))  # level set {5} has one atom
    b = DiscreteRV((1, 2, 1))
    rep = necessary_conditions(sp, c, [b])
    assert not rep["singleton_level_set"]["ok"]
    assert not rep["ok"]


def test_necessary_conditions_counting_bound():
    sp = FiniteSpace.uniform(4)
    c = DiscreteRV((0, 0, 1, 1))
    b1 = DiscreteRV((0, 1, 2, 3))  # NCD(c) * n(b1) = 8 > 4
    rep = necessary_conditions(sp, c, [b1])
    assert not rep["counting_bound"]["ok"]


def test_necessary_conditions_max_system_passes():
    for N in (2, 3, 4):
        sp, bs = build_max_system(N)
        rep = necessary_conditions(sp, bs[0], bs[1:])
        assert rep["ok"], rep


@pytest.mark.parametrize("N", [1, 2, 3, 4, 5, 6])
def test_build_max_system(N):
    sp, bs = build_max_system(N)
    assert sp.n == 2**N and len(bs) == N
    assert atom_condition(sp, bs)
    for i in range(N):
        for j in range(i + 1, N):
            assert independent(sp, bs[i], bs[j])
            assert independent_oracle(sp, bs[i], bs[j])
    assert len(bs) + 1 == n_max(2**N)  # plus the constant variable


@pytest.mark.parametrize("N", [7, 10, 64, 10**9])
def test_max_system_above_the_atom_cap_returns_at_once(N):
    # rejected before any atom is built: at N = 10 the pairwise matrices
    # alone would take minutes, and 2^(10^9) atoms could not be counted
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="above the cap"):
            build_max_system(N)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**16


def test_max_system_atom_cap_admits_n_6():
    sp, _ = build_max_system(6)
    assert sp.n == MAX_ATOMS


def test_build_max_system_blocks():
    sp, bs = build_max_system(2)
    assert bs[0].values == (1, 1, -1, -1)
    assert bs[1].values == (1, -1, 1, -1)
    for eps1 in (1, -1):
        for eps2 in (1, -1):
            atoms = [
                i
                for i in range(4)
                if bs[0].values[i] == eps1 and bs[1].values[i] == eps2
            ]
            assert sum(sp.p[i] for i in atoms) == Q(1, 4)


def test_atom_condition_three_blocks():
    sp, bs = build_max_system(3)
    # every triple intersection is a single atom of mass 1/8
    seen = set()
    for i in range(8):
        key = tuple(b.values[i] for b in bs)
        assert key not in seen
        seen.add(key)
    assert len(seen) == 8


def test_walsh_gram_rank_sign_system():
    assert walsh_gram_rank([Q(1), Q(-1)], [Q(1, 2), Q(1, 2)], 3) == 8


def test_walsh_gram_rank_three_values():
    vals = [Q(-1), Q(3), Q(-2)]
    probs = [Q(1, 3)] * 3
    assert walsh_gram_rank(vals, probs, 1) == 3
    assert walsh_gram_rank(vals, probs, 2) == 9
    assert walsh_gram_rank(vals, probs, 3) == 27
    # the cubic moment of this atom law, fixed by direct summation
    assert sum(Q(1, 3) * v**3 for v in vals) == 6


def test_walsh_gram_rank_generic_sweep():
    rng = random.Random(7)
    for _ in range(5):
        vals = []
        while len(set(vals)) != 3:
            vals = [Q(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(3)]
        w = [rng.randint(1, 5) for _ in range(3)]
        probs = [Q(x, sum(w)) for x in w]
        assert walsh_gram_rank(vals, probs, 2) == 9


def test_walsh_gram_size_cap():
    with pytest.raises(ValueError):
        walsh_gram_rank([Q(0), Q(1), Q(2)], [Q(1, 3)] * 3, 9)


def test_space_validation():
    with pytest.raises(ValueError):
        FiniteSpace((Q(1, 2), Q(1, 3)))
    with pytest.raises(ValueError):
        FiniteSpace((Q(3, 2), Q(-1, 2)))
