"""Product identity, integration by parts, norms, isometries, order decomposition."""

import itertools
import math
import random
from fractions import Fraction as Q

import numpy as np
import pytest

from wicklab.chaos import identities
from wicklab.chaos.basis import (
    LegendreBasis,
    PiecewisePoly,
    SymmetricKernel2,
    coeffs_of,
    triangle_kernel,
)
from wicklab.chaos.identities import (
    contraction1,
    expected_integral_sq,
    fourth_moment_check,
    fourth_moment_grid,
    fourth_moment_lhs,
    integral_eval,
    isometry_check,
    ito_bracket,
    ito_residual,
    j2_eval,
    norm_identity,
    order_decomposition,
    order_tensors,
    phi,
    phi2,
    phi11,
    product_identity_residual,
    sandwich_bounds,
)
from wicklab.chaos.tensors import (
    FOURTH_MOMENT_CLASSES,
    GammaTables,
    SymTensor,
    hermite_connection,
)
from wicklab.exact import Rad, RadSum
from wicklab.laws import Law, MomentSequence, parse_law, sample, standardized_moments

from oracles import basis_element, gamma_by_projection, signature_terms

ONE = PiecewisePoly.constant(1)
X = PiecewisePoly.from_poly([0, 1])
PW = PiecewisePoly(((Q(0), Q(1, 3), (1, 2)), (Q(1, 2), Q(1), (Q(-1, 2), 0, 1))))


def random_sym_kernel(rng, N, den=3):
    rows = [[Q(rng.randint(-4, 4), rng.randint(1, den)) for _ in range(N)] for _ in range(N)]
    for i in range(N):
        for j in range(i):
            rows[j][i] = rows[i][j]
    return SymmetricKernel2.from_rationals(rows)


def monomial_expectation(moments, exps):
    """Independence oracle: E[prod_j X_j^{e_j}] = prod_j m_{e_j}."""
    out = Q(1)
    for e in exps:
        out *= moments[e]
    return out


# --- gamma tables -------------------------------------------------------------


def test_hermite_connection_rows():
    assert [hermite_connection(3, k) for k in range(4)] == [0, 3, 0, 1]
    assert [hermite_connection(4, k) for k in range(5)] == [3, 0, 6, 0, 1]


def test_tables_printed_rows():
    tab = GammaTables.for_law(Law.exponential(1))
    assert tab.gamma(2, 1) == tab.m3 == 2
    assert list(tab._polys[2]) == [Q(-1), -tab.m3, Q(1)]
    assert tab.gamma(0, 0) == 1 and tab.gamma(1, 1) == 1 and tab.gamma(2, 2) == 1


def test_tables_gaussian_matches_hermite():
    tab = GammaTables.for_law(Law.normal())
    for n in range(5):
        for k in range(n + 1):
            assert tab.gamma(n, k) == hermite_connection(n, k)
        assert tab.h(n) == math.factorial(n)


def test_tables_orthogonality():
    from wicklab.exact import p_mul
    from wicklab.wick import expect_poly

    for law in (Law.exponential(1), Law.poisson(1)):
        tab = GammaTables.for_law(law)
        m = standardized_moments(law, 8)
        for i in range(5):
            for j in range(i):
                assert expect_poly(p_mul(list(tab._polys[i]), list(tab._polys[j])), m) == 0


def test_gamma_is_the_projection_coefficient():
    # the Gram-Schmidt coefficients recorded while building P_n are
    # E[x^n P_k] / h_k, with gamma_{n,n} = 1
    laws = (Law.normal(), Law.exponential(1), Law.exponential(2), Law.poisson(1),
            Law.binomial(4, Q(1, 2)))
    for tab in [GammaTables.for_law(law) for law in laws] + [five_atom_tables()]:
        for n in range(5):
            for k in range(5):
                expected = gamma_by_projection(tab, n, k) if k <= n else 0
                assert tab.gamma(n, k) == expected, (tab.label, n, k)


def test_tables_reject_degenerate_support():
    with pytest.raises(ValueError):
        GammaTables.for_law(Law.binomial(3, Q(1, 2)))


# --- pointwise product identity -------------------------------------------------


def test_product_identity_unit_vector():
    c = np.zeros(4)
    c[0] = 1.0
    xs = np.array([0.7, -1.2, 0.4, 2.0])
    assert phi(c, xs) == pytest.approx(0.7)
    assert product_identity_residual(c, c, xs) < 1e-14
    outer = np.outer(c, c)
    assert phi2(outer, xs) == pytest.approx(0.7**2 - 1)
    assert phi11(outer + outer.T, xs) == 0.0


def test_phi11_phi2_unit_offdiagonal():
    xs = np.array([0.5, -2.0, 1.0])
    m = np.zeros((3, 3))
    m[1, 0] = 1.0  # e_2 (x) e_1
    assert phi11(m, xs) == pytest.approx(0.5 * -2.0)
    assert phi2(m, xs) == 0.0


def test_product_identity_random():
    rng = np.random.default_rng(5)
    for _ in range(200):
        c = rng.standard_normal(8)
        d = rng.standard_normal(8)
        xs = rng.standard_normal(8)
        scale = max(1.0, abs(phi(c, xs) * phi(d, xs)))
        assert product_identity_residual(c, d, xs) < 1e-12 * scale


def test_product_identity_orthogonal_constant_term():
    h = PiecewisePoly(((Q(0), Q(1, 2), (1,)),))
    g = PiecewisePoly(((Q(1, 2), Q(1), (1,)),))
    gaps = []
    for N in (4, 8, 16):
        b = LegendreBasis(N)
        gaps.append(abs(coeffs_of(h, b).dot(coeffs_of(g, b))))
    assert gaps[0] > gaps[1] > gaps[2]  # truncated <h,g> tends to 0


def test_phi_isometry_mc():
    b = LegendreBasis(8)
    c = coeffs_of(PW, b)
    n = 200_000
    law = Law.exponential(1)
    xs = sample(law, 3, n * 8).reshape(n, 8)
    vals = xs @ c.floats()
    target = float(c.norm2())
    tol = 4 * vals.std() ** 2 / math.sqrt(n) + 4 * abs(vals**2).std() / math.sqrt(n)
    assert abs((vals**2).mean() - target) < tol
    assert abs(vals.mean()) < 4 * vals.std() / math.sqrt(n)


# --- component second moments against an independence oracle --------------------


def test_component_expectations_against_moment_oracle():
    rng = random.Random(11)
    law = Law.poisson(1)
    m = standardized_moments(law, 8)
    N = 4
    for _ in range(10):
        K1 = random_sym_kernel(rng, N)
        K2 = random_sym_kernel(rng, N)
        f1 = K1.floats()
        f2 = K2.floats()
        # E[phi11(f1) phi11(f2)] = sum_{j>k} f1_jk f2_jk for symmetric inputs:
        # expand E[X_j X_k X_j' X_k'] with the moment oracle
        acc = Q(0)
        for j in range(N):
            for k in range(j):
                for jj in range(N):
                    for kk in range(jj):
                        exps = [0] * N
                        for idx in (j, k, jj, kk):
                            exps[idx] += 1
                        e = monomial_expectation(m, exps)
                        if e:
                            a1 = K1.at(j + 1, k + 1).rational()
                            a2 = K2.at(jj + 1, kk + 1).rational()
                            acc += a1 * a2 * e
        direct = sum(
            (
                (K1.at(j + 1, k + 1) * K2.at(j + 1, k + 1)).rational()
                for j in range(N)
                for k in range(j)
            ),
            Q(0),
        )
        assert acc == direct


def test_phi11_phi2_orthogonality_symbolic():
    # E[phi11(f1) phi2(f2)] = sum a1_jk a2_ll E[X_j X_k (X_l^2 - 1)] = 0:
    # every monomial has a lone first power because j > k
    law = Law.exponential(1)
    m = standardized_moments(law, 8)
    N = 3
    total = Q(0)
    for j in range(N):
        for k in range(j):
            for l in range(N):
                exps = [0] * N
                exps[j] += 1
                exps[k] += 1
                exps[l] += 2
                val = monomial_expectation(m, exps) - monomial_expectation(
                    m, [1 if i in (j, k) else 0 for i in range(N)]
                )
                total += val
    assert total == 0


# --- integration by parts --------------------------------------------------------


def test_ito_bracket_values():
    b = LegendreBasis(8)
    br = ito_bracket(ONE, ONE, b)
    assert br["bracket_truncated"] == 1 and br["bracket_exact"] == 1
    h = PiecewisePoly(((Q(0), Q(1, 2), (1,)),))
    g = PiecewisePoly(((Q(1, 2), Q(1), (1,)),))
    br2 = ito_bracket(h, g, b)
    assert br2["bracket_exact"] == 0
    assert br2["diagonal_kernel_zero"]


def test_ito_bracket_truncation_error_decreases():
    # both arguments must be genuinely piecewise: a polynomial argument is
    # fully resolved once the truncation passes its degree
    h = PiecewisePoly(((Q(0), Q(2, 3), (1,)),))
    g = PiecewisePoly(((Q(1, 3), Q(1), (1, 1)),))
    errs = [
        abs(ito_bracket(h, g, LegendreBasis(N))["truncation_error"])
        for N in (2, 4, 8, 16)
    ]
    assert errs[0] > errs[-1] > 0
    assert all(a >= b for a, b in zip(errs, errs[1:]))


def test_ito_pointwise_residual_is_rounding():
    rng = np.random.default_rng(9)
    b = LegendreBasis(12)
    xs = np.stack([rng.standard_normal(12) for _ in range(20)])
    res = ito_residual(X, PW, b, xs)
    assert res.shape == (20,)
    assert (res < 1e-12).all()


# --- norm identity ----------------------------------------------------------------


def random_piecewise(rng) -> PiecewisePoly:
    cuts = sorted(rng.sample([Q(k, 8) for k in range(1, 8)], rng.randint(1, 2)))
    points = [Q(0)] + cuts + [Q(1)]
    pieces = []
    for lo, hi in zip(points, points[1:]):
        deg = rng.randint(0, 2)
        coeffs = tuple(Q(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(deg + 1))
        if any(coeffs):
            pieces.append((lo, hi, coeffs))
    if not pieces:
        pieces = [(Q(0), Q(1), (Q(1),))]
    return PiecewisePoly(tuple(pieces))


@pytest.mark.parametrize(
    "law", [Law.normal(), Law.exponential(1), Law.gamma(4, 3), Law.poisson(1)],
    ids=lambda l: l.label(),
)
def test_norm_identity_exact(law):
    rng = random.Random(17)
    tab = GammaTables.for_law(law)
    b = LegendreBasis(8)
    for _ in range(5):
        h = random_piecewise(rng)
        g = random_piecewise(rng)
        rep = norm_identity(h, g, b, tab)
        assert rep["equal"], (law.label(), rep["lhs"], rep["rhs"])
        if law.kind == "normal":
            assert rep["second_term"] == 0


def test_norm_identity_truncation_gap_is_the_transpose_pairing():
    # the plain truncated norm differs from the symmetrized one by <f, f~>_N
    tab = GammaTables.for_law(Law.exponential(1))
    rep = norm_identity(X, PW, LegendreBasis(6), tab)
    assert rep["lhs"] == rep["plain_norm"] + rep["symmetrization_gap"] + rep["second_term"]


def test_norm_identity_rhs_is_the_closed_form(monkeypatch):
    # rhs reads expected_integral_sq, so a wrong diagonal factor there,
    # m4 - 1 - m3^2 for m4 - 1, breaks the identity for a skewed law
    tab = GammaTables.for_law(Law.exponential(1))
    b = LegendreBasis(6)
    assert norm_identity(PW, ONE, b, tab)["equal"]

    def wrong(K, tables):
        return 2 * K.offdiag_sq_sum() + (tables.m4 - 1 - tables.m3**2) * K.diag_sq_sum()

    monkeypatch.setattr(identities, "expected_integral_sq", wrong)
    assert not norm_identity(PW, ONE, b, tab)["equal"]


def test_phi11_operator_norm_one():
    # E|phi11(e_2 x e_1)|^2 = E[X_1^2 X_2^2] = 1
    law = Law.exponential(1)
    m = standardized_moments(law, 4)
    assert m[2] * m[2] == 1


# --- isometries --------------------------------------------------------------------


def test_isometry_c_exact_zero_sweep():
    rng = random.Random(23)
    for law in (Law.normal(), Law.exponential(1)):
        tab = GammaTables.for_law(law)
        for _ in range(25):
            K = random_sym_kernel(rng, 6)
            assert isometry_check(K, tab) == 0


def test_isometry_c_unit_cases():
    tab = GammaTables.for_law(Law.normal())
    Kd = basis_element(3, 1, 1)
    assert expected_integral_sq(Kd, tab) == 2  # E(X^2-1)^2 for the gaussian
    # a_12 = sqrt(2)/2: the normalized off-diagonal direction
    Ko = SymmetricKernel2(((0, 1, 0), (1, 0, 0), (0, 0, 0)), 2, (1, 2, 1))
    assert expected_integral_sq(Ko, tab) == 2


@pytest.mark.parametrize(
    "spec", ["normal", "exponential:1", "poisson:1", "binomial:4,1/2", "five atoms"]
)
def test_pairing_side_closed_form(spec):
    # the pairing side of isometry_check, E[Phi_2(f)^2], equals
    # 2 sum_{j != k} a_jk^2 + (m4 - 1 - m3^2) sum_j a_jj^2
    tab = five_atom_tables() if spec == "five atoms" else GammaTables.for_law(parse_law(spec))
    rng = random.Random(41)
    kernels = [random_sym_kernel(rng, N) for N in (1, 3, 6) for _ in range(4)]
    tri, _ = triangle_kernel(X, PW, LegendreBasis(5))
    assert max(tri.w) > 1  # radicands survive in the entries
    for K in kernels + [tri]:
        T = SymTensor.from_kernel(K)
        closed = 2 * K.offdiag_sq_sum() + (tab.m4 - 1 - tab.m3**2) * K.diag_sq_sum()
        assert T.expect_product(T, tab) == closed


def test_b_isometries_componentwise_mc():
    # the two quadratic components are isometries for the B-weight on their
    # own subspaces (strictly-ordered pairs, diagonal): check the second
    # moments against Monte Carlo
    rng = np.random.default_rng(29)
    law = Law.poisson(1)
    tab = GammaTables.for_law(law)
    N, n = 4, 300_000
    m = np.zeros((N, N))
    m[2, 0], m[3, 1], m[1, 0] = 0.7, -1.2, 0.4   # lower-triangle support
    d = np.diag([0.5, -1.0, 0.0, 2.0])
    xs = sample(law, 83, n * N).reshape(n, N)
    v11 = np.einsum("pi,ij,pj->p", xs, np.tril(m, -1), xs)
    v2 = (xs * xs - 1.0) @ np.diag(d)
    b_norm_11 = float((m[2, 0] ** 2 + m[3, 1] ** 2 + m[1, 0] ** 2))
    b_norm_2 = float(tab.m4 - 1) * float((np.diag(d) ** 2).sum())
    tol11 = 6 * (v11**2).std() / math.sqrt(n)
    tol2 = 6 * (v2**2).std() / math.sqrt(n)
    assert abs((v11**2).mean() - b_norm_11) < tol11
    assert abs((v2**2).mean() - b_norm_2) < tol2
    # orthogonality of the two components
    cross = v11 * v2
    assert abs(cross.mean()) < 6 * cross.std() / math.sqrt(n)


def test_sandwich_sweep():
    rng = random.Random(31)
    for law in (Law.normal(), Law.exponential(1), Law.poisson(1)):
        tab = GammaTables.for_law(law)
        a, b = sandwich_bounds(tab)
        for _ in range(100):
            K = random_sym_kernel(rng, 6)
            n2 = K.norm2()
            e2 = expected_integral_sq(K, tab)
            assert a * n2 <= e2 <= b * n2


def test_operator_norm_bound():
    # E|phi2(f)|^2 <= (K4 + 2 K2 + 1) ||f||^2 with K_p the absolute moments
    rng = random.Random(37)
    for law in (Law.exponential(1), Law.poisson(1)):
        tab = GammaTables.for_law(law)
        bound = tab.m4 + 2 * tab.moments[2] + 1
        for _ in range(50):
            K = random_sym_kernel(rng, 5)
            # E[phi2(f)^2] = (m4 - 1) sum a_jj^2
            val = (tab.m4 - 1) * K.diag_sq_sum()
            assert val <= bound * K.norm2()


# --- contraction and annihilation ---------------------------------------------------


def contraction1_series(K: SymmetricKernel2) -> dict:
    """Independent series route to the contraction, in signature form
    (``{signature: RadSum}``).

    Spelled directly from the triple/double-sum expansion:
      2(a_{j1j2}a_{j2j3} e_{j1}oe_{j3} + a_{j1j3}a_{j2j3} e_{j1}oe_{j2}
        + a_{j1j2}a_{j1j3} e_{j2}oe_{j3})                   over j3<j2<j1
      + 2(a_{j1j2}a_{j2} + a_{j1j2}a_{j1}) e_{j1}oe_{j2}    over j2<j1
      + a_{j1j2}^2 (e_{j1}^2 + e_{j2}^2)                    over j2<j1
      + a_j^2 e_j^2,
    the e_j o e_k coefficients being exactly the signature coefficients.
    """
    N = K.N
    out = []
    a = K.at
    for j1 in range(1, N + 1):
        for j2 in range(1, j1):
            for j3 in range(1, j2):
                out.append(((j3, j1), a(j1, j2) * a(j2, j3) * Q(2)))
                out.append(((j2, j1), a(j1, j3) * a(j2, j3) * Q(2)))
                out.append(((j3, j2), a(j1, j2) * a(j1, j3) * Q(2)))
    for j1 in range(1, N + 1):
        for j2 in range(1, j1):
            out.append(((j2, j1), (a(j1, j2) * a(j2, j2) + a(j1, j2) * a(j1, j1)) * Q(2)))
            sq = a(j1, j2) * a(j1, j2)
            out.append(((j1, j1), sq))
            out.append(((j2, j2), sq))
    for j in range(1, N + 1):
        out.append(((j, j), a(j, j) * a(j, j)))
    return signature_terms(2, out)


def test_contraction_matrix_vs_series():
    rng = random.Random(41)
    for _ in range(10):
        K = random_sym_kernel(rng, 5)
        T1 = SymTensor.from_kernel(contraction1(K))
        assert T1.terms == contraction1_series(K)


def test_contraction_examples():
    K = basis_element(3, 1, 1)
    C1 = contraction1(K)
    assert C1.at(1, 1).rational() == 1
    assert all(C1.at(j, k) == Rad(0) for j in range(1, 4) for k in range(1, 4) if (j, k) != (1, 1))
    K2 = basis_element(3, 1, 2)
    C2 = contraction1(K2)
    assert C2.at(1, 1).rational() == 1 and C2.at(2, 2).rational() == 1
    assert C2.at(1, 2) == Rad(0)


def test_annihilation_special_cases():
    tabe = GammaTables.for_law(Law.exponential(1))
    # a_1^2 (e_j o e_j) = m3 e_j, and 0 off the diagonal
    Kd = basis_element(3, 2, 2)
    ann = SymTensor.from_kernel(Kd).annihilated(1, tabe)
    assert ann.terms == {(2,): RadSum(tabe.m3)}
    Ko = basis_element(3, 1, 2)
    assert SymTensor.from_kernel(Ko).annihilated(1, tabe).terms == {}
    # a_1^4 (e_1^{o4}) = gamma_{4,3} e_1^{o3}
    T = SymTensor(4, {(1, 1, 1, 1): {1: 1}})
    out = T.annihilated(1, tabe)
    assert out.terms == {(1, 1, 1): RadSum(tabe.gamma(4, 3))}


def test_annihilation_zero_for_gaussian():
    tab = GammaTables.for_law(Law.normal())
    rng = random.Random(43)
    K = random_sym_kernel(rng, 4)
    ff = SymTensor.sym_square(K)
    for k in (1, 2, 3, 4):
        assert ff.annihilated(k, tab).terms == {}


def a14_series(K, tab):
    """Printed expansion of a_1^4(f o f), as an independent oracle
    (``{signature: RadSum}``)."""
    out = []
    N = K.N
    a = K.at
    g21 = tab.gamma(2, 1)
    g32 = tab.gamma(3, 2)
    g43 = tab.gamma(4, 3)
    for j1 in range(1, N + 1):
        for j2 in range(1, j1):
            for j3 in range(1, j2):
                coeff = g21 * (
                    8 * (a(j1, j2) * a(j1, j3) + a(j1, j2) * a(j2, j3) + a(j1, j3) * a(j2, j3))
                    + 4 * (a(j1, j1) * a(j2, j3) + a(j2, j2) * a(j1, j3) + a(j3, j3) * a(j1, j2))
                )
                out.append(((j3, j2, j1), RadSum(coeff)))
    for j1 in range(1, N + 1):
        for j2 in range(1, j1):
            sq = a(j1, j2) * a(j1, j2) * 4 + a(j1, j1) * a(j2, j2) * 2
            out.append(((j2, j1, j1), RadSum(a(j1, j1) * a(j1, j2) * (4 * g32)) + RadSum(sq * g21)))
            out.append(((j2, j2, j1), RadSum(a(j1, j2) * a(j2, j2) * (4 * g32)) + RadSum(sq * g21)))
    for j in range(1, N + 1):
        val = a(j, j) * a(j, j) * g43
        out.append(((j, j, j), RadSum(val)))
    return signature_terms(3, out)


def test_a14_table_on_random_kernels():
    rng = random.Random(47)
    tab = GammaTables.for_law(Law.exponential(1))
    for _ in range(5):
        K = random_sym_kernel(rng, 5)
        direct = SymTensor.sym_square(K).annihilated(1, tab)
        assert direct.terms == a14_series(K, tab)


def test_a34_and_a12_contraction_tables():
    rng = random.Random(53)
    tab = GammaTables.for_law(Law.poisson(1))
    g30, g41 = tab.gamma(3, 0), tab.gamma(4, 1)
    m3 = tab.m3
    for _ in range(5):
        K = random_sym_kernel(rng, 4)
        a = K.at
        N = K.N
        # a_3^4(f o f) = 4 g30 (sum a_j1 a_j1j2 e_j2 + sum a_j1j2 a_j2 e_j1)
        #               + g41 sum a_j^2 e_j
        expected = []
        for j1 in range(1, N + 1):
            for j2 in range(1, j1):
                expected.append(((j2,), RadSum(a(j1, j1) * a(j1, j2) * (4 * g30))))
                expected.append(((j1,), RadSum(a(j1, j2) * a(j2, j2) * (4 * g30))))
        for j in range(1, N + 1):
            expected.append(((j,), RadSum(a(j, j) * a(j, j) * g41)))
        direct = SymTensor.sym_square(K).annihilated(3, tab)
        assert direct.terms == signature_terms(1, expected)
        # a_1^2 (f ~1 f) = m3 sum_{j2<j1} a_{j1j2}^2 (e_j1 + e_j2) + m3 sum a_j^2 e_j
        expected2 = []
        for j1 in range(1, N + 1):
            for j2 in range(1, j1):
                sq = a(j1, j2) * a(j1, j2)
                expected2.append(((j1,), RadSum(sq * m3)))
                expected2.append(((j2,), RadSum(sq * m3)))
        for j in range(1, N + 1):
            expected2.append(((j,), RadSum(a(j, j) * a(j, j) * m3)))
        direct2 = SymTensor.from_kernel(contraction1(K)).annihilated(1, tab)
        assert direct2.terms == signature_terms(1, expected2)


# --- order decomposition --------------------------------------------------------------


@pytest.mark.parametrize("law", [Law.normal(), Law.exponential(1)], ids=lambda l: l.label())
def test_order_decomposition_residual_sweep(law):
    rng = random.Random(59)
    tab = GammaTables.for_law(law)
    for trial in range(40):
        K = random_sym_kernel(rng, 5)
        xs = sample(law, 6000 + trial, 5)
        res = order_decomposition(K, tab, xs)
        assert res["residual"] < 1e-10 * res["scale"]


def test_order_decomposition_hermite_square():
    # gaussian, f = e_1 o e_1: (X^2-1)^2 decomposes through the hermite table
    tab = GammaTables.for_law(Law.normal())
    K = basis_element(2, 1, 1)
    ts = order_tensors(K, tab)
    assert ts["t4"].terms == {(1, 1, 1, 1): Rad(1)}
    assert ts["t3"].terms == {}
    assert ts["t2"].terms == {(1, 1): Rad(4)}
    assert ts["t1"].terms == {}
    assert ts["t0"] == RadSum(2)
    xs = np.array([1.3, 0.2])
    res = order_decomposition(K, tab, xs)
    assert res["residual"] < 1e-12


def test_order_decomposition_evaluates_the_order_tensors():
    # both read one build of the orders: each evaluated order is the
    # evaluation of the matching exact component
    law = Law.exponential(1)
    tab = GammaTables.for_law(law)
    K = random_sym_kernel(random.Random(37), 5)
    xs = sample(law, 37, 5)
    ts = order_tensors(K, tab)
    pv = tab.p_values(xs)
    expected = (float(ts["t0"]), *(ts[f"t{i}"].phi_eval(pv) for i in range(1, 5)))
    assert order_decomposition(K, tab, xs)["orders"] == expected


def test_order_components_mean_zero_and_fourth_moment_mc():
    law = Law.exponential(1)
    tab = GammaTables.for_law(law)
    rng = random.Random(61)
    K = random_sym_kernel(rng, 4, den=2)
    exact = fourth_moment_lhs(K, tab)
    n = 400_000
    xs = sample(law, 71, n * 4).reshape(n, 4)
    vals = np.einsum("pi,ij,pj->p", xs, K.floats(), xs) - np.trace(K.floats())
    v4 = vals**4
    tol = 6 * v4.std() / math.sqrt(n)
    assert abs(v4.mean() - float(exact)) < tol


def test_cross_order_expectations_vanish():
    law = Law.poisson(1)
    tab = GammaTables.for_law(law)
    rng = random.Random(67)
    K = random_sym_kernel(rng, 4)
    ts = order_tensors(K, tab)
    keys = ["t1", "t2", "t3", "t4"]
    for i, ki in enumerate(keys):
        for kj in keys[i + 1 :]:
            assert ts[ki].expect_product(ts[kj], tab) == RadSum(0)


# --- fourth moment ---------------------------------------------------------------------


@pytest.mark.parametrize("N", [3, 8, 12])
def test_fourth_moment_gaussian_closed_form_exact(N):
    # Magnus (1978): E[(x'Ax - tr A)^4] = 12 (tr A^2)^2 + 48 tr A^4 for
    # standard normal x, equal as rationals, not to a tolerance
    tab = GammaTables.for_law(Law.normal())
    K = random_sym_kernel(random.Random(N), N)
    A = [[K.at(i, j).rational() for j in range(1, N + 1)] for i in range(1, N + 1)]
    A2 = [[sum((A[i][k] * A[k][j] for k in range(N)), Q(0)) for j in range(N)] for i in range(N)]
    tr2 = sum((A2[i][i] for i in range(N)), Q(0))
    tr4 = sum((A2[i][j] * A2[j][i] for i in range(N) for j in range(N)), Q(0))
    assert fourth_moment_lhs(K, tab) == 12 * tr2**2 + 48 * tr4


# a standardized law on five atoms with m3 != 0: the fewest atoms the tables accept
FIVE_ATOMS = (
    (Q(-7, 4), Q(1, 9)),
    (Q(-1), Q(1, 9)),
    (Q(-1, 4), Q(1, 3)),
    (Q(1, 2), Q(1, 3)),
    (Q(2), Q(1, 9)),
)


def enumerated_moment(K, atoms, power):
    """E[(x'Ax - tr A)^power] summed over all len(atoms)^N coordinate tuples."""
    N = K.N
    trace = sum((K.at(i, i) for i in range(1, N + 1)), RadSum())
    acc = RadSum()
    for draw in itertools.product(atoms, repeat=N):
        xs = [x for x, _ in draw]
        J = -trace
        for u in range(N):
            for v in range(N):
                J = J + K.at(u + 1, v + 1) * (xs[u] * xs[v])
        J2 = J * J
        acc = acc + (J2 if power == 2 else J2 * J2) * math.prod(p for _, p in draw)
    return acc


@pytest.mark.parametrize("kind", ["rational N=4", "triangle N=3"])
def test_fourth_moment_matches_five_atom_enumeration(kind):
    tab = five_atom_tables()
    assert (tab.moments[1], tab.moments[2]) == (0, 1) and tab.m3 != 0
    if kind == "rational N=4":
        K = random_sym_kernel(random.Random(83), 4)
    else:
        K, _ = triangle_kernel(X, PW, LegendreBasis(3))
    lhs = fourth_moment_lhs(K, tab)
    if kind == "triangle N=3":
        assert len(lhs.terms) > 1  # radicals survive, so the RadSum path is exercised
    assert lhs == enumerated_moment(K, FIVE_ATOMS, 4)


@pytest.mark.parametrize("kind", ["rational N=4", "triangle N=3"])
def test_second_moment_matches_five_atom_enumeration(kind):
    # an oracle independent of both sides of isometry_check, with m3 != 0
    tab = five_atom_tables()
    if kind == "rational N=4":
        K = random_sym_kernel(random.Random(83), 4)
    else:
        K, _ = triangle_kernel(X, PW, LegendreBasis(3))
    assert enumerated_moment(K, FIVE_ATOMS, 2) == expected_integral_sq(K, tab)


def order_route_fourth_moment(K, tab):
    """E[J^4] by the order decomposition: the orders are mutually orthogonal,
    so it is ord0^2 + sum_i E[(order i)^2]."""
    ts = order_tensors(K, tab)
    acc = ts["t0"] * ts["t0"]
    for key in ("t1", "t2", "t3", "t4"):
        acc = acc + ts[key].expect_product(ts[key], tab)
    return acc


def five_atom_tables():
    moments = MomentSequence(tuple(sum(p * x**n for x, p in FIVE_ATOMS) for n in range(9)))
    return GammaTables(moments, label="five atoms")


@pytest.mark.parametrize("N", [3, 8, 12])
@pytest.mark.parametrize("kind", ["rational", "triangle"])
def test_fourth_moment_cumulant_route_equals_order_route(N, kind):
    if kind == "rational":
        K = random_sym_kernel(random.Random(N), N)
    else:
        K, _ = triangle_kernel(X, PW, LegendreBasis(N))
    tables = [GammaTables.for_law(law) for law in (Law.normal(), Law.exponential(1), Law.poisson(1))]
    for tab in tables + [five_atom_tables()]:
        assert fourth_moment_lhs(K, tab) == order_route_fourth_moment(K, tab), tab.label


def test_fourth_moment_cumulant_route_at_n32():
    # two-piece h1, h2 at N = 32: 263 distinct squarefree radicands survive
    h1 = PiecewisePoly(((Q(0), Q(3, 8), (1, 2)), (Q(3, 8), Q(1), (Q(-1, 2), 3))))
    h2 = PiecewisePoly(((Q(0), Q(5, 8), (2, -1)), (Q(5, 8), Q(1), (Q(3, 2), 1))))
    K, _ = triangle_kernel(h1, h2, LegendreBasis(32))
    tab = GammaTables.for_law(Law.exponential(1))
    lhs = fourth_moment_lhs(K, tab)
    assert len(lhs.terms) == 263
    assert lhs == order_route_fourth_moment(K, tab)


def _set_partitions(items):
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        yield [[first]] + part
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]


def _canonical_multigraph(edges, n_vertices):
    """The least sorted edge list over all relabellings of the vertices."""
    return min(
        tuple(sorted(tuple(sorted((perm[a], perm[b]))) for a, b in edges))
        for perm in itertools.permutations(range(n_vertices))
    )


def test_fourth_moment_classes_derived_from_set_partitions():
    # E[(x'Ax - tr A)^4] sums over partitions of the 8 slots (factor s holds
    # slots 2s, 2s+1) with every block of size >= 2 (kappa_1 = 0) and no block
    # equal to a factor's own pair (the centring); blocks are vertices and
    # factors are edges
    counts = {}
    for part in _set_partitions(list(range(8))):
        if any(len(b) < 2 or (len(b) == 2 and min(b) % 2 == 0 and max(b) == min(b) + 1)
               for b in part):
            continue
        block = {slot: v for v, b in enumerate(part) for slot in b}
        edges = [(block[2 * s], block[2 * s + 1]) for s in range(4)]
        key = _canonical_multigraph(edges, len(part))
        counts[key] = counts.get(key, 0) + 1
    assert sum(counts.values()) == 572 and len(counts) == 15
    table = {}
    for count, edges in FOURTH_MOMENT_CLASSES:
        n_vertices = 1 + max(v for e in edges for v in e)
        table[_canonical_multigraph(edges, n_vertices)] = count
    assert table == counts
    assert [c for c, _ in FOURTH_MOMENT_CLASSES] == [
        1, 24, 24, 32, 3, 24, 8, 12, 96, 48, 96, 48, 96, 12, 48
    ]


def test_fourth_moment_trivial_and_small_increment():
    b = LegendreBasis(6)
    for law in (Law.normal(), Law.exponential(1)):
        tab = GammaTables.for_law(law)
        chk = fourth_moment_check(ONE, ONE, Q(1, 4), Q(1, 4), b, tab)
        assert chk["lhs"] == RadSum(0) and chk["rhs"] == 0
        chk = fourth_moment_check(ONE, ONE, Q(0), Q(1, 4), b, tab)
        assert chk["holds"], law.label()


def test_fourth_moment_gaussian_constants():
    tab = GammaTables.for_law(Law.normal())
    assert all(tab.c_const(k) == 0 for k in (1, 2, 3, 4))
    chk = fourth_moment_check(ONE, ONE, Q(0), Q(1, 2), LegendreBasis(6), tab)
    assert chk["constants"]["const"] == 2
    assert chk["rhs"] == 2 * Q(1, 4)


def test_fourth_moment_printed_bound_fails_at_late_increments():
    # the printed increment bound undercounts the low-order multiplicities;
    # the brownian case with s = 1/2, t = 1 exceeds it by a factor ~3.3
    tab = GammaTables.for_law(Law.normal())
    chk = fourth_moment_check(ONE, ONE, Q(1, 2), Q(1), LegendreBasis(6), tab)
    assert not chk["holds"]
    assert chk["lhs_float"] > 3 * float(chk["rhs"])
    # exact brownian value at full resolution: 3.75 t^4 + 15 t^3 s + 9 t^2 s^2
    # with (s, tau) = (1/2, 1/2); the truncated value sits just below it
    full = 3.75 / 16 + 15 / 16 + 9 / 16
    assert chk["lhs_float"] < full
    assert chk["lhs_float"] > 0.9 * full


def test_fourth_moment_grid_rows_equal_per_pair_checks():
    # one sweep's snapshot differences against one check per pair: s = t,
    # s = 0, points on and off the breakpoints of h1 and h2
    h2 = PiecewisePoly(((Q(0), Q(3, 5), (Q(2, 3), 1)), (Q(2, 3), Q(1), (-1, 0, Q(5, 4)))))
    pairs = [(0, Q(1, 3)), (Q(1, 3), Q(1, 2)), (Q(1, 2), Q(1, 2)), (Q(3, 5), Q(2, 3)), ("1/8", 1)]
    b = LegendreBasis(6)
    for law in (Law.normal(), Law.exponential(1)):
        tab = GammaTables.for_law(law)
        rep = fourth_moment_grid(PW, h2, b, tab, pairs)
        for (s, t), row in zip(pairs, rep["rows"]):
            chk = fourth_moment_check(PW, h2, s, t, b, tab)
            assert (row["s"], row["t"]) == (str(Q(s)), str(Q(t)))
            assert list(row["lhs"].terms.items()) == list(chk["lhs"].terms.items())
            assert (row["rhs"], row["holds"]) == (chk["rhs"], chk["holds"])
        widths = [Q(1, 2**k) for k in range(1, 7)]
        lhss = [fourth_moment_check(PW, h2, 0, tau, b, tab)["lhs_float"] for tau in widths]
        slope = float(np.polyfit(np.log([float(x) for x in widths]), np.log(lhss), 1)[0])
        assert rep["slope"] == slope


def test_fourth_moment_grid_slope_names_widths_with_zero_moment():
    # h2 vanishes on (0, 1/2], so Z_t - Z_0 = 0 at every slope width 2^-k
    h2 = PiecewisePoly(((Q(1, 2), Q(1), (1,)),))
    tab = GammaTables.for_law(Law.normal())
    with pytest.raises(ValueError, match="widths 1/2, 1/4, 1/8, 1/16, 1/32, 1/64"):
        fourth_moment_grid(ONE, h2, LegendreBasis(4), tab, [(Q(1, 2), Q(1))])


def test_fourth_moment_endpoints_must_be_exact():
    b, tab = LegendreBasis(4), GammaTables.for_law(Law.normal())
    with pytest.raises(TypeError, match="exact rational"):
        fourth_moment_check(ONE, ONE, 0.1, Q(1, 2), b, tab)
    with pytest.raises(TypeError, match="exact rational"):
        fourth_moment_grid(ONE, ONE, b, tab, [(0.1, Q(1, 2))])
    chk = fourth_moment_check(ONE, ONE, "1/10", 1, b, tab)
    assert chk["norms"]["h2_strip_sq"] == Q(9, 10)
    with pytest.raises(ValueError, match="0 <= s <= t <= 1"):
        fourth_moment_grid(ONE, ONE, b, tab, [(Q(1, 2), Q(1, 4))])


def test_self_integral_identity_pointwise():
    # 2 I(h,h) = Phi(h)^2 - <h,h>_N on every realization: the h = g case of
    # integration by parts, with the bracket equal to the truncated norm
    rng = np.random.default_rng(101)
    b = LegendreBasis(10)
    for h in (ONE, X, PW):
        ch = coeffs_of(h, b)
        K, _ = triangle_kernel(h, h, b)
        A = K.floats()
        cf = ch.floats()
        for _ in range(10):
            xs = rng.standard_normal(10)
            lhs = 2 * (xs @ A @ xs - np.trace(A))
            rhs = float(cf @ xs) ** 2 - float(ch.norm2())
            assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs))


def test_phi2_cross_expectation_exact():
    # E[phi2(f1) phi2(f2)] = (m4 - 1) sum_j f1_jj f2_jj: the diagonal pairing
    # carries the factor E(X^2-1)^2, consistent with the norm identity
    law = Law.exponential(1)
    m = standardized_moments(law, 8)
    rng = random.Random(71)
    N = 4
    for _ in range(10):
        K1 = random_sym_kernel(rng, N)
        K2 = random_sym_kernel(rng, N)
        acc = Q(0)
        for j in range(N):
            for k in range(N):
                e_cross = (
                    monomial_expectation(m, [2 if i in (j, k) else 0 for i in range(N)])
                    if j != k
                    else m[4]
                )
                val = (
                    e_cross
                    - monomial_expectation(m, [2 if i == j else 0 for i in range(N)])
                    - monomial_expectation(m, [2 if i == k else 0 for i in range(N)])
                    + 1
                )
                acc += K1.at(j + 1, j + 1).rational() * K2.at(k + 1, k + 1).rational() * val
        direct = (m[4] - 1) * sum(
            (K1.at(j, j).rational() * K2.at(j, j).rational() for j in range(1, N + 1)),
            Q(0),
        )
        assert acc == direct
