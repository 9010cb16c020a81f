"""Finite-space independence: bilinear criterion vs the classical oracle."""

import random
import time
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

from oracles import atom_condition_by_intersection, independent_by_intersection


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


@pytest.mark.parametrize("N", [13, 16, 64, 10**9])
def test_max_system_above_the_atom_cap_returns_at_once(N):
    # rejected before any atom is built: N = 13 takes 3 s end to end, and
    # 2^(10^9) atoms could not be counted
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="above the cap"):
            build_max_system(N)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**16


def test_space_above_the_atom_cap_is_refused_before_any_weight():
    # no weight is read: these would fail as_fraction, and sum to nothing
    with pytest.raises(ValueError, match=f"has {MAX_ATOMS + 1} atoms, above the cap of {MAX_ATOMS}"):
        FiniteSpace(("x",) * (MAX_ATOMS + 1))
    # nor listed: 2^20 references alone take 8 MiB
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"has {2**20} atoms, above the cap"):
            FiniteSpace.uniform(2**20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**16
    assert FiniteSpace.uniform(MAX_ATOMS).n == MAX_ATOMS


def test_bilinear_test_on_1024_atoms_builds_no_matrix():
    # 1024^2 integer entries a_ij den^2, each added as it is read: no n x n
    # matrix is held
    sp, bs = build_max_system(10)
    tracemalloc.start()
    try:
        start = time.perf_counter()
        assert independent(sp, bs[0], bs[9])
        assert not independent(sp, bs[0], DiscreteRV(bs[0].values[:-1] + (Q(0),)))
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert elapsed < 1.0
    assert peak < 2**20


def test_max_system_atom_cap_admits_n_12():
    sp, _ = build_max_system(12)
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


def _checked_atom_condition(sp, bs) -> bool:
    """The counting atom condition, held == to the literal reference."""
    out = atom_condition(sp, bs)
    assert out == atom_condition_by_intersection(sp, bs)
    return out


def _checked_oracle(sp, b, c) -> bool:
    """The counting oracle, held == to the literal reference."""
    out = independent_oracle(sp, b, c)
    assert out == independent_by_intersection(sp, b, c)
    return out


def test_xor_family_is_pairwise_but_not_globally_independent():
    sp = FiniteSpace.uniform(4)
    b1 = DiscreteRV((1, 1, -1, -1))
    b2 = DiscreteRV((1, -1, 1, -1))
    b3 = DiscreteRV(tuple(x * y for x, y in zip(b1.values, b2.values)))
    for b, c in ((b1, b2), (b1, b3), (b2, b3)):
        assert independent(sp, b, c) and _checked_oracle(sp, b, c)
    assert _checked_atom_condition(sp, [b1, b2])
    assert not _checked_atom_condition(sp, [b1, b2, b3])


def test_every_combination_occurring_is_not_enough():
    # each of the four sign pairs occurs, but (1, 1) has mass 1/8, not 1/4
    sp = FiniteSpace((Q(1, 8), Q(3, 8), Q(3, 8), Q(1, 8)))
    b1 = DiscreteRV((1, 1, -1, -1))
    b2 = DiscreteRV((1, -1, 1, -1))
    assert not independent(sp, b1, b2)
    assert not _checked_oracle(sp, b1, b2)
    assert not _checked_atom_condition(sp, [b1, b2])


def test_empty_family_and_single_variable_are_independent():
    sp = FiniteSpace((Q(1, 2), Q(1, 3), Q(1, 6)))
    assert _checked_atom_condition(sp, [])
    for values in ((1, 1, 1), (0, 1, 1), (3, -1, 7)):
        assert _checked_atom_condition(sp, [DiscreteRV(values)])


def test_counting_rejects_a_variable_off_the_space():
    sp = FiniteSpace.uniform(4)
    with pytest.raises(ValueError, match="does not live on this space"):
        atom_condition(sp, [DiscreteRV((1, -1))])
    with pytest.raises(ValueError, match="does not live on this space"):
        independent_oracle(sp, DiscreteRV((1, -1, 1, -1)), DiscreteRV((1, -1)))


@pytest.mark.parametrize("n_vars", [5, 9, 64, 10**9])
def test_walsh_gram_size_cap_refuses_before_any_work(n_vars):
    # 3^5 = 243 monomials are past the cap; 3^(10^9) could not be listed
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="exceeds cap"):
            walsh_gram_rank([Q(0), Q(1), Q(2)], [Q(1, 3)] * 3, n_vars)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**16


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
