"""Property-based invariants over randomized structures."""

import itertools
import math
from fractions import Fraction as Q

from hypothesis import given, settings, strategies as st

from wicklab.discrete import DiscreteRV, FiniteSpace, independent, independent_oracle
from wicklab.exact import Rad, RadSum
from wicklab.laws import Law, MomentSequence, inverse_laplace_coeffs, moments
from wicklab.rademacher import build_partition, joint_law, phi_factor
from wicklab.wick import wick_explicit, wick_recurrence1, wick_recurrence2

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
            assert w.centering_defect() == 0


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
    assert sum((Rad(q, w) for q, w in reversed(xs)), RadSum()) == x
    assert RadSum(x.terms) == x and RadSum(x.terms).terms == x.terms
