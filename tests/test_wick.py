"""Wick polynomial engine: golden tables, triple oracle, ODEs, Laguerre bridge."""

import math
from fractions import Fraction as Q

import pytest

from wicklab.cli import WICK_CATALOG
from wicklab.exact import p_mul, p_trim
from wicklab.laws import Law, moments
from wicklab.wick import (
    _recurrence1_table,
    _recurrence2_table,
    affine_check,
    derive,
    expect_poly,
    gram_matrix,
    laguerre_wick,
    ode_residual,
    wick_explicit,
    wick_gram,
    wick_recurrence1,
    wick_recurrence2,
)

LAWS6 = [
    Law.normal(),
    Law.exponential(1),
    Law.gamma(2, 3),
    Law.gamma(Q(1, 2), Q(1, 2)),
    Law.gamma_combo(1, 2, 3, 2, Q(1, 2), 1),
    Law.poisson(1),
    Law.binomial(3, Q(1, 2)),
]


# --- golden tables, little-endian coefficient lists -------------------------

HERMITE = {
    0: [1],
    1: [0, 1],
    2: [-1, 0, 1],
    3: [0, -3, 0, 1],
    4: [3, 0, -6, 0, 1],
    5: [0, 15, 0, -10, 0, 1],
}


def exp_table(lam, n):
    # x^n - (n/lam) x^{n-1}
    c = [Q(0)] * (n + 1)
    c[n] = Q(1)
    if n >= 1:
        c[n - 1] = -Q(n) / lam
    return c


def gamma_table(a, b, nmax):
    # coefficient of x^k in row n: C(n, n-k) * (-1)^{n-k} a(a-1)...(a-(n-k-1)) / b^{n-k}
    rows = {}
    for n in range(nmax + 1):
        c = [Q(0)] * (n + 1)
        for k in range(n + 1):
            j = n - k
            fall = Q(1)
            for i in range(j):
                fall *= a - i
            c[k] = math.comb(n, k) * Q(-1) ** j * fall / b**j
        rows[n] = c
    return rows


GAMMA_HALF_HALF = {
    0: [1],
    1: [-1, 1],
    2: [-1, -2, 1],
    3: [-3, -3, -3, 1],
    4: [-15, -12, -6, -4, 1],
    5: [-105, -75, -30, -10, -5, 1],
}


def poisson_printed_table(a):
    """The Poisson rows exactly as printed in the reference table, including
    the suspected misprint in the cubic constant (reused at two higher rows)."""
    t3 = -(a**3) + 3 * a - a  # printed value; correct reading is -a^3 + 3a^2 - a
    t4 = a**4 - 6 * a**3 + 7 * a**2 - a
    t5 = -(a**5) + 10 * a**4 - 25 * a**3 + 15 * a**2 - a
    return {
        0: [Q(1)],
        1: [-a, Q(1)],
        2: [a**2 - a, -2 * a, Q(1)],
        3: [t3, 3 * (a**2 - a), -3 * a, Q(1)],
        4: [t4, 4 * t3, 6 * (a**2 - a), -4 * a, Q(1)],
        5: [t5, 5 * t4, 10 * t3, 10 * (a**2 - a), -5 * a, Q(1)],
    }


def poisson_corrected_table(a):
    t3 = -(a**3) + 3 * a**2 - a
    t = poisson_printed_table(a)
    t[3][0] = t3
    t[4][1] = 4 * t3
    t[5][2] = 10 * t3
    return t


def test_hermite_golden():
    m = moments(Law.normal(), 5)
    for n, row in HERMITE.items():
        assert list(wick_explicit(m, n).coeffs) == [Q(c) for c in row]


def test_exponential_golden():
    for lam in (Q(1), Q(2), Q(5, 3)):
        m = moments(Law.exponential(lam), 5)
        for n in range(6):
            assert list(wick_explicit(m, n).coeffs) == exp_table(lam, n)


def test_gamma_golden():
    for a, b in ((Q(2), Q(3)), (Q(7, 2), Q(1, 4))):
        m = moments(Law.gamma(a, b), 5)
        table = gamma_table(a, b, 5)
        for n in range(6):
            assert list(wick_explicit(m, n).coeffs) == table[n]


def test_gamma_half_half_golden():
    m = moments(Law.gamma(Q(1, 2), Q(1, 2)), 5)
    for n, row in GAMMA_HALF_HALF.items():
        assert list(wick_explicit(m, n).coeffs) == [Q(c) for c in row]


def test_poisson_table_diverges_only_at_known_misprints():
    a = Q(2)  # a=1 masks the misprint since 3a == 3a^2 there
    m = moments(Law.poisson(a), 5)
    printed = poisson_printed_table(a)
    divergences = []
    for n in range(6):
        got = list(wick_explicit(m, n).coeffs)
        for k, (g, p) in enumerate(zip(got, printed[n])):
            if g != p:
                divergences.append((n, k))
    assert divergences == [(3, 0), (4, 1), (5, 2)]
    corrected = poisson_corrected_table(a)
    for n in range(6):
        assert list(wick_explicit(m, n).coeffs) == corrected[n]


# --- triple oracle and structural properties --------------------------------


@pytest.mark.parametrize("law", LAWS6, ids=lambda l: l.label())
def test_triple_oracle(law):
    m = moments(law, 6)
    for n in range(7):
        w1 = wick_explicit(m, n)
        w2 = wick_recurrence1(m, n)
        w3 = wick_recurrence2(m, n)
        assert w1.coeffs == w2.coeffs == w3.coeffs
        assert w1.is_monic()
        if n >= 1:
            assert expect_poly(w1.poly(), m) == 0


@pytest.mark.parametrize("law", LAWS6, ids=lambda l: l.label())
def test_ode_residuals_vanish(law):
    m = moments(law, 6)
    for n in range(7):
        w = wick_explicit(m, n)
        assert ode_residual(w, m, 1) == []
        assert ode_residual(w, m, 2) == []


def test_ode_rejects_non_wick_cubic():
    m = moments(Law.normal(), 4)
    fake = wick_explicit(m, 3)
    fake = type(fake)((Q(0), Q(0), Q(0), Q(1)), m)  # bare x^3
    assert ode_residual(fake, m, 1) != []


def test_derive_lowers_degree():
    m = moments(Law.exponential(2), 5)
    for n in range(1, 6):
        dw = derive(wick_explicit(m, n))
        target = [Q(n) * c for c in wick_explicit(m, n - 1).coeffs]
        assert list(dw.coeffs) == target
    w0 = wick_explicit(m, 0)
    assert derive(w0).coeffs == (Q(0),)


@pytest.mark.parametrize("law", WICK_CATALOG, ids=lambda l: l.label())
def test_recurrence_tables_hold_each_degree(law):
    # a table to W_6 holds each lower degree as that degree's own call builds
    # it: neither recurrence, nor the weights b_n, reads past the degree
    m = moments(law, 6)
    for table, single in ((_recurrence1_table, wick_recurrence1),
                          (_recurrence2_table, wick_recurrence2)):
        entries = table(m, 6)
        assert len(entries) == 7
        for k, w in enumerate(entries):
            assert w.degree == k and w.coeffs == single(m, k).coeffs


def test_recurrence_degree_one():
    for law in LAWS6:
        m = moments(law, 2)
        assert list(wick_recurrence1(m, 1).coeffs) == [-m[1], Q(1)]
        assert list(wick_recurrence2(m, 1).coeffs) == [-m[1], Q(1)]


# --- Laguerre bridge ---------------------------------------------------------


def test_laguerre_bridge_half_half():
    m = moments(Law.gamma(Q(1, 2), Q(1, 2)), 5)
    w = laguerre_wick(Q(1, 2), Q(1, 2), 3, m)
    assert list(w.coeffs) == [Q(-3), Q(-3), Q(-3), Q(1)]


def test_laguerre_bridge_matches_explicit():
    for a, b, n in ((Q(2), Q(3), 5), (Q(1, 2), Q(1, 2), 4), (Q(5, 2), Q(7), 3)):
        m = moments(Law.gamma(a, b), n)
        assert laguerre_wick(a, b, n, m).coeffs == wick_explicit(m, n).coeffs


def test_laguerre_bridge_degree_zero():
    m = moments(Law.gamma(2, 3), 0)
    assert laguerre_wick(2, 3, 0, m).coeffs == (Q(1),)


# --- orthogonality dichotomy -------------------------------------------------


def test_gram_normal_diagonal():
    m = moments(Law.normal(), 10)
    g = gram_matrix(m, 5)
    for i in range(6):
        for j in range(6):
            if i != j:
                assert g[i][j] == 0
            elif i > 0:
                assert g[i][i] == math.factorial(i)  # E[H_n^2] = n!
    assert wick_gram(m, 1, 3) == 0


def test_gram_off_normal_not_diagonal():
    for law in (Law.exponential(1), Law.gamma(2, 3), Law.poisson(1)):
        m = moments(law, 10)
        g = gram_matrix(m, 5)
        off = [g[i][j] for i in range(6) for j in range(6) if i != j]
        assert any(x != 0 for x in off), law.label()
    assert wick_gram(moments(Law.exponential(1), 3), 1, 2) != 0


def test_gram_order_guard():
    m = moments(Law.normal(), 4)
    with pytest.raises(ValueError):
        wick_gram(m, 3, 3)
    assert wick_gram(m, 0, 0) == 1


def test_gram_by_brute_force_expansion():
    # independent route: expand the product polynomial and pair with moments
    m = moments(Law.poisson(1), 8)
    for n in range(4):
        for k in range(4):
            prod = p_trim(
                p_mul(list(wick_explicit(m, n).coeffs), list(wick_explicit(m, k).coeffs))
            )
            assert wick_gram(m, n, k) == expect_poly(prod, m)


# --- affine covariance --------------------------------------------------------


@pytest.mark.parametrize("law", LAWS6, ids=lambda l: l.label())
def test_affine_covariance(law):
    m = moments(law, 6)
    for a, b in ((Q(2), Q(1)), (Q(1, 3), Q(-2)), (Q(-1), Q(5, 7))):
        for n in range(5):
            assert affine_check(m, a, b, n)
