"""Basis exactness, piecewise-polynomial algebra, kernel coefficients."""

import math
from fractions import Fraction as Q

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wicklab.chaos.basis import (
    ChaosVector,
    LegendreBasis,
    PiecewisePoly,
    SymmetricKernel2,
    coeffs_of,
    shifted_legendre,
    triangle_kernel,
)
from wicklab.exact import Rad, RadSum, p_eval


def test_shifted_legendre_first_rows():
    assert shifted_legendre(0) == [1]
    assert shifted_legendre(1) == [-1, 2]
    assert shifted_legendre(2) == [1, -6, 6]


def test_basis_polys_match_shifted_legendre_and_closed_form():
    # one pass of the recurrence gives every e_j; the closed form
    # L_n(2x-1) = sum_k (-1)^(n+k) C(n,k) C(n+k,k) x^k is an independent check
    basis = LegendreBasis(20)
    for j in range(20):
        closed = [(-1) ** (j + k) * math.comb(j, k) * math.comb(j + k, k) for k in range(j + 1)]
        assert basis.poly(j + 1) == shifted_legendre(j) == closed


def test_basis_orthonormal_exact():
    assert LegendreBasis(8).orthonormality_defect() == 0


def test_coeffs_of_constant():
    b = LegendreBasis(6)
    cv = coeffs_of(PiecewisePoly.constant(1), b)
    assert cv.coeffs[0] == Rad(1)
    assert all(c == Rad(0) for c in cv.coeffs[1:])


def test_coeffs_of_cut_constant():
    b = LegendreBasis(4)
    cv = coeffs_of(PiecewisePoly.constant(1), b, t_cut=Q(1, 2))
    assert cv.coeffs[0] == Rad(Q(1, 2))
    assert cv.coeffs[1] == Rad(Q(-1, 4), 3)  # -sqrt(3)/4
    assert float(cv.coeffs[1]) == pytest.approx(-math.sqrt(3) / 4)


def test_parseval_linear_function_is_exact_at_degree():
    b = LegendreBasis(2)
    cv = coeffs_of(PiecewisePoly.from_poly([0, 1]), b)
    assert cv.norm2() == Q(1, 3)


def test_parseval_tail_indicator():
    h = PiecewisePoly.constant(1)
    tails = []
    for N in (4, 8, 16):
        cv = coeffs_of(h, LegendreBasis(N), t_cut=Q(1, 2))
        tails.append(Q(1, 2) - cv.norm2())
    assert all(t > 0 for t in tails)
    assert tails[0] > tails[1] > tails[2]
    assert tails[-1] < Q(1, 50)


def test_triangle_kernel_area():
    one = PiecewisePoly.constant(1)
    _, raw = triangle_kernel(one, one, LegendreBasis(3))
    assert raw[0][0] == Rad(Q(1, 2))


def test_triangle_kernel_swap_transpose():
    b = LegendreBasis(5)
    h = PiecewisePoly.from_poly([0, 1])
    g = PiecewisePoly(((Q(0), Q(1, 2), (1,)), (Q(1, 2), Q(1), (0, 2))))
    _, raw_hg = triangle_kernel(h, g, b)
    _, raw_gh = triangle_kernel(g, h, b)
    # kernel of (h,g) on the triangle vs kernel of (g,h) on the transpose:
    # <g x h 1_C~, e_u x e_v> = <h x g 1_C, e_v x e_u>, and the two regions
    # partition the square, so raw_hg[u][v] + raw_gh[v][u] = <h,e_u><g,e_v>
    ch = coeffs_of(h, b)
    cg = coeffs_of(g, b)
    for u in range(5):
        for v in range(5):
            total = raw_hg[u][v] + raw_gh[v][u]
            assert total == ch.coeffs[u] * cg.coeffs[v]


def test_triangle_kernel_swap_transpose_n12():
    # the same identity at a truncation where the kernel rows reach degree 11,
    # on pieces with gaps and breakpoints in thirds, fifths and eighths
    b = LegendreBasis(12)
    h = PiecewisePoly(((Q(0), Q(1, 3), (1, Q(-2, 5))), (Q(2, 5), Q(7, 8), (0, Q(3, 2), -1))))
    g = PiecewisePoly(((Q(1, 8), Q(3, 5), (Q(2, 3),)), (Q(2, 3), Q(1), (-1, 0, 0, Q(5, 4)))))
    _, raw_hg = triangle_kernel(h, g, b)
    _, raw_gh = triangle_kernel(g, h, b)
    ch = coeffs_of(h, b)
    cg = coeffs_of(g, b)
    for u in range(12):
        for v in range(12):
            assert raw_hg[u][v] + raw_gh[v][u] == ch.coeffs[u] * cg.coeffs[v]


# --- the kernel sweep against the piecewise-product definition ---------------


def _triangle_kernel_oracle(h, g, basis, t_cut=None):
    """triangle_kernel by its definition: N^2 piecewise products against the
    antiderivatives of h e_u, integrated with Fractions."""
    gg = g if t_cut is None else g.cut(t_cut)
    N = basis.N
    inner = [h.mul_poly(basis.poly(u)).antiderivative() for u in range(1, N + 1)]
    raw = [[None] * N for _ in range(N)]
    for u in range(N):
        for v in range(N):
            integrand = (gg.mul_poly(basis.poly(v + 1))) * inner[u]
            raw[u][v] = Rad(integrand.integral(), basis.weight(u + 1) * basis.weight(v + 1))
    sym = tuple(tuple((raw[u][v] + raw[v][u]) * Q(1, 2) for v in range(N)) for u in range(N))
    return SymmetricKernel2(sym), tuple(tuple(row) for row in raw)


def _coeffs_oracle(h, basis, t_cut=None):
    hh = h if t_cut is None else h.cut(t_cut)
    return tuple(
        Rad(hh.mul_poly(basis.poly(j)).integral(), basis.weight(j)) for j in range(1, basis.N + 1)
    )


# breakpoints with mixed denominators: thirds, fifths and eighths
_GRID = sorted({Q(i, d) for d in (3, 5, 8) for i in range(d + 1)})


@st.composite
def _piecewise(draw):
    """1-3 pieces of degree 0-3, separated by gaps."""
    m = draw(st.integers(1, 3))
    grid = st.lists(st.sampled_from(_GRID), min_size=2 * m, max_size=2 * m, unique=True)
    pts = sorted(draw(grid))
    coeff = st.builds(Q, st.integers(-4, 4), st.integers(1, 6))
    return PiecewisePoly(
        tuple(
            (lo, hi, tuple(draw(st.lists(coeff, min_size=1, max_size=4))))
            for lo, hi in zip(pts[::2], pts[1::2])
        )
    )


@given(_piecewise(), _piecewise(), st.integers(1, 10), st.data())
@settings(max_examples=40, deadline=None)
def test_triangle_kernel_and_coeffs_match_definition(h, g, N, data):
    b = LegendreBasis(N)
    lo, hi, _ = data.draw(st.sampled_from(g.pieces))
    t_cut = data.draw(st.sampled_from([None, Q(0), (lo + hi) / 2, hi, Q(1)]))
    sym, raw = triangle_kernel(h, g, b, t_cut=t_cut)
    sym_ref, raw_ref = _triangle_kernel_oracle(h, g, b, t_cut=t_cut)
    assert raw == raw_ref
    assert sym.entries == sym_ref.entries
    assert coeffs_of(h, b, t_cut=t_cut).coeffs == _coeffs_oracle(h, b, t_cut=t_cut)


def test_triangle_parseval_tail():
    one = PiecewisePoly.constant(1)
    tails = []
    for N in (4, 8, 16):
        _, raw = triangle_kernel(one, one, LegendreBasis(N))
        mass = sum((raw[u][v].square() for u in range(N) for v in range(N)), Q(0))
        tails.append(Q(1, 2) - mass)
    assert all(t > 0 for t in tails)
    assert tails[0] > tails[1] > tails[2]


def test_piecewise_product_and_integral_against_quadrature():
    h = PiecewisePoly(((Q(0), Q(1, 3), (1, 2)), (Q(1, 2), Q(1), (Q(-1, 2), 0, 3))))
    g = PiecewisePoly.from_poly([1, -1, Q(1, 4)])
    prod = h * g
    xs = np.linspace(0, 1, 200001)
    vals = np.array([h(x) * g(x) for x in xs])
    # trapezoid accuracy is jump-limited at the breakpoints
    assert float(prod.integral()) == pytest.approx(np.trapezoid(vals, xs), abs=1e-5)


def test_piecewise_antiderivative_continuity():
    h = PiecewisePoly(((Q(0), Q(1, 3), (1,)), (Q(2, 3), Q(1), (2,))))
    F = h.antiderivative()
    assert F.eval(Q(1, 3)) == Q(1, 3)
    assert F.eval(Q(2, 3)) == Q(1, 3)  # constant across the gap
    assert F.eval(1) == Q(1, 3) + Q(2, 3)
    # piecewise antiderivative agrees with direct integration of the cut
    for t in (Q(1, 5), Q(1, 2), Q(4, 5)):
        assert F.eval(t) == h.cut(t).integral()


def test_piecewise_validation():
    with pytest.raises(ValueError):
        PiecewisePoly(((Q(0), Q(2), (1,)),))
    with pytest.raises(ValueError):
        PiecewisePoly(((Q(0), Q(1, 2), (1,)), (Q(1, 4), Q(1), (1,))))


def test_kernel_validation():
    with pytest.raises(ValueError):
        SymmetricKernel2.from_rationals([[0, 1], [2, 0]])
    K = SymmetricKernel2.from_rationals([[1, 2], [2, 3]])
    assert K.norm2() == 1 + 4 + 4 + 9


def test_chaos_vector_dot_rational():
    b = LegendreBasis(6)
    h = PiecewisePoly.from_poly([0, 0, 1])
    g = PiecewisePoly.from_poly([1, -2])
    ch, cg = coeffs_of(h, b), coeffs_of(g, b)
    # truncated inner products are exact rationals and match the full
    # integral once the polynomials are resolved by the basis
    assert ch.dot(cg) == (h * g).integral()


# --- exact scalar helpers -----------------------------------------------------


def test_rad_normalization():
    assert Rad(Q(1), 12) == Rad(Q(2), 3)
    assert Rad(Q(1), 9) == Rad(Q(3))
    assert (Rad(Q(2), 3) * Rad(Q(5), 3)).rational() == 30


def test_rad_incompatible_addition():
    # the sum of two coefficients with different radicands is a two-term
    # value; the mix is caught where a rational is required
    s = Rad(Q(1), 3) + Rad(Q(1), 5)
    assert isinstance(s, RadSum) and s.terms == {3: 1, 5: 1}
    with pytest.raises(ValueError):
        s.square()
    with pytest.raises(ValueError):
        s.rational()


def test_radsum_mixing_and_bounds():
    s = RadSum(Rad(Q(1), 3)) + Rad(Q(2), 5) + Q(1, 7)
    lo, hi = s.bounds()
    val = math.sqrt(3) + 2 * math.sqrt(5) + 1 / 7
    assert float(lo) <= val <= float(hi)
    assert hi - lo < Q(1, 10**25)
    assert s.certified_le(Q(13, 2))       # value is ~6.347
    assert not s.certified_le(Q(63, 10))
    sq = s * s
    assert float(sq) == pytest.approx(val * val, rel=1e-12)


def test_radsum_rational_detection():
    s = RadSum(Rad(Q(2), 3)) * RadSum(Rad(Q(5), 3))
    assert s.is_rational and s.rational() == 30
    t = RadSum(Rad(Q(1), 3)) + RadSum(Rad(Q(-1), 3))
    assert t.is_rational and t.rational() == 0


def test_radsum_hashes_as_its_value():
    assert RadSum(Q(1, 2)) in {Q(1, 2)}
    assert RadSum(Q(0)) in {0} and RadSum(Q(3)) in {3}
    assert hash(Rad(Q(2), 3)) == hash(RadSum({3: Q(2)}))
    assert len({Rad(Q(1, 2)), Q(1, 2), RadSum(Q(1, 2))}) == 1


@pytest.mark.parametrize("N", [16, 32])
def test_black_box_quadrature_at_high_truncation(N):
    from wicklab.chaos.basis import coeffs_of_callable

    b = LegendreBasis(N)
    one = coeffs_of_callable(lambda x: 1.0, b)
    assert np.abs(one - coeffs_of(PiecewisePoly.constant(1), b).floats()).max() < 1e-13
    quad = coeffs_of_callable(lambda x: x * x, b, t_cut=Q(1, 3))
    exact = coeffs_of(PiecewisePoly.from_poly([0, 0, 1]), b, t_cut=Q(1, 3)).floats()
    assert np.abs(quad - exact).max() < 1e-13


def test_black_box_quadrature_fallback():
    import math

    from wicklab.chaos.basis import QuadratureError, coeffs_of_callable

    b = LegendreBasis(8)
    exact = coeffs_of(PiecewisePoly.from_poly([0, 0, 1]), b, t_cut=Q(2, 3)).floats()
    quad = coeffs_of_callable(lambda x: x * x, b, t_cut=2 / 3)
    assert np.abs(exact - quad).max() < 1e-12
    smooth = coeffs_of_callable(math.exp, b)
    assert smooth[0] == pytest.approx(math.e - 1, rel=1e-12)
    with pytest.raises(QuadratureError) as exc:
        coeffs_of_callable(lambda x: math.sin(1 / (x + 1e-12)) / (x + 1e-12), b, tol=1e-12)
    assert exc.value.residual > 0
