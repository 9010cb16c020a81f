"""Property-based invariants over randomized structures."""

import itertools
import math
from fractions import Fraction as Q

import pytest
from hypothesis import given, settings, strategies as st

from wicklab.chaos.basis import SymmetricKernel2
from wicklab.chaos.identities import fourth_moment_lhs
from wicklab.chaos.tensors import GammaTables, SymTensor
from wicklab.discrete import (
    DiscreteRV,
    FiniteSpace,
    independent,
    independent_oracle,
    n_max,
    necessary_conditions,
)
from wicklab.exact import Rad, RadSum, _madd, _split_square, _square_free_product, mat_psd
from wicklab.laws import Law, MomentSequence, inverse_laplace_coeffs, moments
from wicklab.rademacher import build_partition, evaluate_r, joint_law, phi_factor
from wicklab.wick import expect_poly, wick_explicit, wick_recurrence1, wick_recurrence2

from oracles import (
    cell_by_bisection,
    n_max_by_counting,
    principal_minor_psd,
    q_bound_by_exclusion,
    sym_square_by_trial_division,
)

rationals_01 = st.fractions(min_value=Q(1, 100), max_value=Q(99, 100))


@st.composite
def atom_laws(draw):
    """A finite law given by distinct rational atoms with positive weights."""
    n = draw(st.integers(2, 4))
    values = draw(
        st.lists(
            st.fractions(min_value=-4, max_value=4),
            min_size=n,
            max_size=n,
            unique=True,
        )
    )
    weights = draw(st.lists(st.integers(1, 9), min_size=n, max_size=n))
    total = sum(weights)
    return values, [Q(w, total) for w in weights]


@given(atom_laws())
@settings(max_examples=40, deadline=None)
def test_reciprocal_series_is_exact_inverse(law):
    values, probs = law
    ms = MomentSequence(
        tuple(sum(p * v**k for p, v in zip(probs, values)) for k in range(7))
    )
    a = inverse_laplace_coeffs(ms, 6)
    for n in range(1, 7):
        assert sum(math.comb(n, k) * ms[k] * a[n - k] for k in range(n + 1)) == 0


@given(atom_laws())
@settings(max_examples=25, deadline=None)
def test_wick_triple_oracle_on_atom_laws(law):
    values, probs = law
    ms = MomentSequence(
        tuple(sum(p * v**k for p, v in zip(probs, values)) for k in range(7))
    )
    # degree is capped by the support size: beyond it the construction is
    # still defined as long as the reciprocal convolution stays solvable
    for n in range(min(len(values), 4)):
        w = wick_explicit(ms, n)
        assert w.coeffs == wick_recurrence1(ms, n).coeffs
        assert w.coeffs == wick_recurrence2(ms, n).coeffs
        if n >= 1:
            assert expect_poly(w.poly(), ms) == 0


@given(st.lists(rationals_01, min_size=3, max_size=5), st.data())
@settings(max_examples=30, deadline=None)
def test_rademacher_factorization_property(alphas, data):
    depth = len(alphas)
    ps = build_partition(alphas, depth)
    size = data.draw(st.integers(1, min(3, depth)))
    ks = sorted(
        data.draw(
            st.lists(
                st.integers(1, depth), min_size=size, max_size=size, unique=True
            )
        )
    )
    for eps in itertools.product((-1, 1), repeat=len(ks)):
        expected = Q(1)
        for k, e in zip(ks, eps):
            expected *= phi_factor(ps, k, e)
        assert joint_law(ps, ks, list(eps)) == expected


@st.composite
def small_spaces(draw):
    n = draw(st.integers(2, 5))
    w = draw(st.lists(st.integers(1, 6), min_size=n, max_size=n))
    total = sum(w)
    sp = FiniteSpace(tuple(Q(x, total) for x in w))
    b = DiscreteRV(tuple(draw(st.integers(-2, 2)) for _ in range(n)))
    c = DiscreteRV(tuple(draw(st.integers(-2, 2)) for _ in range(n)))
    return sp, b, c


@given(small_spaces())
@settings(max_examples=60, deadline=None)
def test_bilinear_criterion_matches_factorization(space):
    sp, b, c = space
    assert independent(sp, b, c) == independent_oracle(sp, b, c)


@given(st.integers(0, 6))
@settings(max_examples=7, deadline=None)
def test_hankel_moments_of_catalog_laws_psd(k):
    from wicklab.laws import hankel_psd

    for law in (Law.normal(), Law.exponential(1), Law.poisson(1)):
        assert hankel_psd(moments(law, 2 + k))


rationals = st.fractions(min_value=-20, max_value=20, max_denominator=60)
radicands = st.integers(1, 500)
rad_terms = st.lists(st.tuples(rationals, radicands), min_size=1, max_size=4)


def _rad_sum(terms):
    """sum of q * sqrt(w) over the pairs: exact, as floats, and the float
    magnitude sum |q| sqrt(w) that rounding errors scale with."""
    exact = sum((Rad(q, w) for q, w in terms), RadSum())
    value = sum(float(q) * math.sqrt(w) for q, w in terms)
    mag = sum(abs(float(q)) * math.sqrt(w) for q, w in terms)
    return exact, value, mag


@given(rationals, st.integers(1, 40), radicands, rad_terms, rad_terms)
@settings(max_examples=80, deadline=None)
def test_rad_arithmetic_matches_floats(q, s, w, xs, ys):
    # the square part of the radicand moves into the coefficient
    assert Rad(q, s * s * w) == Rad(q * s, w)
    assert Rad(q, w).square() == q * q * w
    x, fx, mx = _rad_sum(xs)
    y, fy, my = _rad_sum(ys)
    # agreement to 1e-12 relative to the magnitudes, so cancellation is covered
    assert abs(float(x) - fx) <= 1e-12 * mx
    assert abs(float(x + y) - (fx + fy)) <= 1e-12 * (mx + my)
    assert abs(float(x * y) - fx * fy) <= 1e-12 * mx * my
    lo, hi = x.bounds()
    assert hi - lo < Q(1, 10**25)
    lo60, hi60 = x.bounds(60)  # a finer enclosure nests inside
    assert lo <= lo60 <= hi60 <= hi
    assert float(lo) - 1e-12 * mx <= float(x) <= float(hi) + 1e-12 * mx


@given(rad_terms, rad_terms)
@settings(max_examples=60, deadline=None)
def test_radsum_one_form_per_value(xs, ys):
    # a value has one integer-over-denominator form: sums reached by
    # different routes compare and hash equal, and its terms rebuild it
    x, _, _ = _rad_sum(xs)
    y, _, _ = _rad_sum(ys)
    assert (x + y) - y == x
    assert hash((x + y) - y) == hash(x)
    assert x * y == y * x
    backwards = sum((Rad(q, w) for q, w in reversed(xs)), RadSum())
    assert backwards == x and float(backwards) == float(x)
    assert RadSum(x.terms) == x and RadSum(x.terms).terms == x.terms


@given(st.dictionaries(radicands, rationals, max_size=4))
@settings(max_examples=80, deadline=None)
def test_radsum_dict_is_the_sum_of_its_terms(terms):
    # the dict constructor splits square parts as Rad does, so both routes
    # reach one form
    x = RadSum(terms)
    assert x == sum((Rad(q, w) for w, q in terms.items()), RadSum())
    assert all(_split_square(w) == (1, w) for w in x.terms)


def test_radsum_dict_splits_square_parts():
    assert RadSum({12: 1}) == Rad(1, 12) == Rad(2, 3)
    assert hash(RadSum({12: 1})) == hash(Rad(1, 12))
    assert RadSum({4: 1}).rational() == 2
    assert not RadSum({12: 1}) - Rad(1, 12)
    assert RadSum({3: 1, 12: Q(-1, 2)}) == 0


@pytest.mark.parametrize("w", [0, -3])
def test_radsum_dict_rejects_radicands_below_one(w):
    with pytest.raises(ValueError, match="radicand"):
        RadSum({w: 1})


SQUAREFREE_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23)
squarefree = st.sets(st.sampled_from(SQUAREFREE_PRIMES)).map(math.prod)


@given(squarefree, squarefree, st.integers(-9, 9).filter(bool), st.integers(-9, 9).filter(bool))
@settings(max_examples=120, deadline=None)
def test_radical_product_by_gcd_matches_trial_division(w1, w2, n1, n2):
    acc: dict = {}
    _madd(acc, {w1: n1}, {w2: n2}, 3)
    s, w0 = _split_square(w1 * w2)
    assert acc == {w0: 3 * n1 * n2 * s}


odd_weights = st.integers(0, 60).map(lambda k: 2 * k + 1)


@given(st.lists(odd_weights, min_size=4, max_size=4))
@settings(max_examples=120, deadline=None)
def test_four_weight_radicand_by_gcd_matches_trial_division(w):
    # odd weights reach squares (9, 25, 49) and shared factors (15, 21)
    a = _square_free_product(_split_square(w[0]), _split_square(w[1]))
    b = _square_free_product(_split_square(w[2]), _split_square(w[3]))
    assert _square_free_product(a, b) == _split_square(math.prod(w))


@given(st.integers(1, 5), st.data())
@settings(max_examples=40, deadline=None)
def test_sym_square_matches_trial_division_route(N, data):
    w = data.draw(st.lists(odd_weights, min_size=N, max_size=N))
    R = [[0] * N for _ in range(N)]
    for j in range(N):
        for k in range(j + 1):
            R[j][k] = R[k][j] = data.draw(st.integers(-3, 3))
    K = SymmetricKernel2(R, data.draw(st.integers(1, 4)), w)
    assert SymTensor.sym_square(K).terms == sym_square_by_trial_division(K)


@st.composite
def symmetric_matrices(draw):
    """Symmetric rationals with n <= 5: random (mostly indefinite), Gram
    matrices B B' of rank below n (PSD and singular), and Gram matrices with
    one entry moved (often indefinite with a zero pivot on the way)."""
    n = draw(st.integers(1, 5))
    entry = st.fractions(min_value=-3, max_value=3, max_denominator=3)
    kind = draw(st.sampled_from(["random", "gram", "perturbed gram"]))
    if kind == "random":
        rows = [[Q(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1):
                rows[i][j] = rows[j][i] = draw(entry)
        return rows
    r = draw(st.integers(0, n))
    B = [[draw(entry) for _ in range(r)] for _ in range(n)]
    rows = [[sum((a * b for a, b in zip(B[i], B[j])), Q(0)) for j in range(n)] for i in range(n)]
    if kind == "perturbed gram":
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        d = draw(entry)
        rows[i][j] += d
        if i != j:
            rows[j][i] += d
    return rows


@given(symmetric_matrices())
@settings(max_examples=150, deadline=None)
def test_psd_pivot_pass_matches_principal_minors(rows):
    assert mat_psd(rows) == principal_minor_psd(rows)


@pytest.mark.parametrize(
    "rows, psd",
    [
        ([[1, 1], [1, 1]], True),  # rank 1
        ([[0, 0], [0, 2]], True),  # zero pivot, zero row
        ([[1, 2], [2, 1]], False),  # negative pivot
        ([[0, 1], [1, 0]], False),  # zero pivot, non-zero row
        ([[1, 1, 2], [1, 1, 3], [2, 3, 5]], False),  # the same, one step in
        ([[1, 1, 1], [1, 1, 1], [1, 1, 2]], True),  # a zero pivot one step in
    ],
    ids=["rank one", "zero row", "negative pivot", "zero pivot beside b", "b one step in",
         "zero row one step in"],
)
def test_psd_pivot_cases(rows, psd):
    rows = [[Q(x) for x in row] for row in rows]
    assert mat_psd(rows) == principal_minor_psd(rows) == psd


def test_n_max_is_the_bit_length():
    assert all(n_max(n) == n_max_by_counting(n) for n in range(1, 3000))


@given(st.lists(st.integers(-2, 2), min_size=2, max_size=9))
@settings(max_examples=200, deadline=None)
def test_q_bound_is_the_smallest_level_set_bound(values):
    n = len(values)
    sp = FiniteSpace.uniform(n)
    c = DiscreteRV(tuple(values))
    sizes = [len(idx) for idx in c.level_sets().values()]
    bound = necessary_conditions(sp, c, [])["distinct_value_bound"]["bound"]
    assert bound == q_bound_by_exclusion(sizes, n)


@given(st.lists(rationals_01, min_size=1, max_size=5), st.data())
@settings(max_examples=100, deadline=None)
def test_evaluate_r_matches_bisection(alphas, data):
    ps = build_partition(alphas, len(alphas))
    k = data.draw(st.integers(1, ps.depth))
    ends = ps.levels[k]
    # the endpoints themselves and points between them
    x = data.draw(st.sampled_from(ends[1:]) | st.fractions(min_value=Q(1, 10**6), max_value=1))
    assert evaluate_r(ps, k, x) == (-1 if cell_by_bisection(ends, x) % 2 else 1)


def test_radsum_float_ignores_term_order():
    # summed left to right, these per-term floats round differently in the
    # two orders; the value's float does not
    terms = [(Q(1, 10), 2), (Q(1, 10), 3), (Q(2, 10), 5)]
    x = sum((Rad(q, w) for q, w in terms), RadSum())
    y = sum((Rad(q, w) for q, w in reversed(terms)), RadSum())
    floats = [float(q) * math.sqrt(w) for q, w in terms]
    assert sum(floats) != sum(reversed(floats))
    assert x == y and float(x) == float(y) == math.fsum(floats)


TABLES = [GammaTables.for_law(law) for law in (Law.normal(), Law.exponential(1), Law.poisson(1))]


@st.composite
def rational_kernels(draw):
    """A symmetric kernel with small rational entries, N = 1..5."""
    n = draw(st.integers(1, 5))
    entry = st.fractions(min_value=-3, max_value=3, max_denominator=4)
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            rows[i][j] = rows[j][i] = draw(entry)
    return rows


@given(rational_kernels(), st.fractions(min_value=-3, max_value=3, max_denominator=5),
       st.sampled_from(TABLES))
@settings(max_examples=40, deadline=None)
def test_fourth_moment_is_homogeneous_of_degree_four(rows, c, tab):
    K = SymmetricKernel2.from_rationals(rows)
    cK = SymmetricKernel2.from_rationals([[c * v for v in row] for row in rows])
    assert fourth_moment_lhs(cK, tab) == fourth_moment_lhs(K, tab) * c**4


@given(rational_kernels(), st.data(), st.sampled_from(TABLES))
@settings(max_examples=40, deadline=None)
def test_fourth_moment_invariant_under_index_permutation(rows, data, tab):
    n = len(rows)
    perm = data.draw(st.permutations(range(n)))
    permuted = [[rows[perm[i]][perm[j]] for j in range(n)] for i in range(n)]
    assert fourth_moment_lhs(SymmetricKernel2.from_rationals(permuted), tab) == fourth_moment_lhs(
        SymmetricKernel2.from_rationals(rows), tab
    )
