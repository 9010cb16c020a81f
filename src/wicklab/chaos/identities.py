"""Pointwise and symbolic identities of the second-order calculus.

Pointwise layer (floats, per realization): the product identity

    Phi(h) Phi(g) = phi2(h x g) + phi11(h x g + g x h) + <h, g>_N

is algebraic at fixed truncation, as is the order decomposition of the
squared integral; residuals are rounding noise only.

Symbolic layer (exact): expectations are computed by signature pairing with
the law's exact moments.  The key subtlety is the truncated norm of the
triangle kernel: the full-space identity <f, f~> = 0 (the triangle and its
transpose are disjoint) fails under truncation, so the squared norm entering
the norm identity is evaluated through the symmetrization 2 ||f_sym||^2 =
||f||^2 + <f, f~>, which is the truncation-consistent reading and restores
exact equality at every N.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Optional

import numpy as np

from ..exact import Q, RadSum
from .basis import LegendreBasis, PiecewisePoly, SymmetricKernel2, coeffs_of, triangle_kernel
from .tensors import GammaTables, SymTensor, contraction1

__all__ = [
    "phi",
    "phi2",
    "phi11",
    "product_identity_residual",
    "integral_eval",
    "j2_eval",
    "ito_bracket",
    "norm_identity",
    "weighted_norm",
    "isometry_check",
    "sandwich_bounds",
    "order_tensors",
    "order_decomposition",
    "fourth_moment_check",
    "fourth_moment_lhs",
]


# ---------------------------------------------------------------------------
# pointwise layer


def phi(coeffs: np.ndarray, xs: np.ndarray) -> float:
    """First-order map: sum_j c_j x_j."""
    c = np.asarray(coeffs, dtype=float)
    if len(xs) < len(c):
        raise ValueError("realization shorter than the truncation")
    return float(c @ np.asarray(xs, dtype=float)[: len(c)])


def phi2(mat: np.ndarray, xs: np.ndarray) -> float:
    """Diagonal quadratic component: sum_j m_jj (x_j^2 - 1)."""
    m = np.asarray(mat, dtype=float)
    x = np.asarray(xs, dtype=float)[: m.shape[0]]
    return float(np.diag(m) @ (x * x - 1.0))


def phi11(mat: np.ndarray, xs: np.ndarray) -> float:
    """Strictly-lower-triangle component: sum_{j>k} m_jk x_j x_k."""
    m = np.asarray(mat, dtype=float)
    x = np.asarray(xs, dtype=float)[: m.shape[0]]
    return float(x @ np.tril(m, -1) @ x)


def product_identity_residual(c: np.ndarray, d: np.ndarray, xs: np.ndarray) -> float:
    """|Phi(h)Phi(g) - [phi2 + phi11(sym) + <h,g>_N]| on one realization."""
    c = np.asarray(c, dtype=float)
    d = np.asarray(d, dtype=float)
    outer = np.outer(c, d)
    lhs = phi(c, xs) * phi(d, xs)
    rhs = phi2(outer, xs) + phi11(outer + outer.T, xs) + float(c @ d)
    return abs(lhs - rhs)


def j2_eval(mat: np.ndarray, xs: np.ndarray) -> float:
    """Second-order chaos of a symmetric matrix: x' A x - tr A."""
    m = np.asarray(mat, dtype=float)
    x = np.asarray(xs, dtype=float)[: m.shape[0]]
    return float(x @ m @ x - np.trace(m))


def integral_eval(K: SymmetricKernel2, xs: np.ndarray) -> float:
    """The stochastic integral on one realization, via its symmetrized kernel."""
    return j2_eval(K.floats(), xs)


# ---------------------------------------------------------------------------
# integration by parts


def ito_bracket(
    h: PiecewisePoly, g: PiecewisePoly, basis: LegendreBasis
) -> dict:
    """Bracket data for the integration-by-parts identity.

    For the diffuse reference measure the diagonal-set kernel has exactly
    zero coefficients, so the bracket reduces to the truncated inner product;
    the full-space bracket is the exact integral of h g.  The pointwise
    identity Phi(h)Phi(g) = I(h,g) + I(g,h) + bracket_N holds exactly at
    every truncation, so only the bracket truncation error carries content.
    """
    ch = coeffs_of(h, basis)
    cg = coeffs_of(g, basis)
    bracket_n = ch.dot(cg)
    bracket_full = (h * g).integral()
    return {
        "bracket_truncated": bracket_n,
        "bracket_exact": bracket_full,
        "diagonal_kernel_zero": True,
        "truncation_error": bracket_full - bracket_n,
    }


def ito_residual(
    h: PiecewisePoly, g: PiecewisePoly, basis: LegendreBasis, xs: np.ndarray
) -> np.ndarray:
    """|Phi(h)Phi(g) - I(h,g) - I(g,h) - bracket_N| on each realization, one
    per row of the (paths, N) array ``xs``; the kernels are built once."""
    ch = coeffs_of(h, basis)
    cg = coeffs_of(g, basis)
    ch_f, cg_f = ch.floats(), cg.floats()
    Ahg = triangle_kernel(h, g, basis)[0].floats()
    Agh = triangle_kernel(g, h, basis)[0].floats()
    bracket = float(ch.dot(cg))
    return np.array(
        [
            abs(phi(ch_f, x) * phi(cg_f, x) - (j2_eval(Ahg, x) + j2_eval(Agh, x) + bracket))
            for x in xs
        ]
    )


# ---------------------------------------------------------------------------
# exact second-moment identities


def expected_integral_sq(K: SymmetricKernel2, tables: GammaTables) -> Fraction:
    """E[I(h,g)^2] for the symmetrized kernel, exact:
    4 sum_{j>k} a_jk^2 + (m4 - 1) sum_j a_jj^2."""
    off = K.offdiag_sq_sum()  # ordered pairs, so this is 2 sum_{j>k}
    diag = K.diag_sq_sum()
    return 2 * off + (tables.m4 - 1) * diag


def norm_identity(
    h: PiecewisePoly,
    g: PiecewisePoly,
    basis: LegendreBasis,
    tables: GammaTables,
    t_cut: Optional[Fraction] = None,
) -> dict:
    """Both sides of the squared-norm identity, exact rationals.

    lhs = E[I^2] from the quadratic components; rhs = truncated kernel norm
    (through the symmetrization) + (m4 - 3)-weighted diagonal.  The two agree
    identically; ``symmetrization_gap`` records <f, f~>_N, the term that the
    full space kills and truncation does not.
    """
    K, raw = triangle_kernel(h, g, basis, t_cut=t_cut)
    N = K.N
    # lhs: E[I^2] assembled from the component expectations of the raw kernel
    # (off-diagonal route uses the symmetrized coefficients b_jk + b_kj, the
    # diagonal route the fourth moment; cross terms vanish)
    lhs = Q(0)
    for j in range(N):
        for k in range(j):
            lhs += ((raw[j][k] + raw[k][j]) * (raw[j][k] + raw[k][j])).rational()
        lhs += raw[j][j].square() * (tables.m4 - 1)
    # rhs: the kernel-norm formula at the same truncation, through the
    # symmetrization (the full-space form; truncation keeps <f, f~> alive)
    diag = K.diag_sq_sum()
    rhs = 2 * K.norm2() + (tables.m4 - 3) * diag
    plain = sum((e.square() for row in raw for e in row), Q(0))
    gap = sum(
        ((raw[u][v] * raw[v][u]).rational() for u in range(N) for v in range(N)),
        Q(0),
    )
    return {
        "lhs": lhs,
        "rhs": rhs,
        "equal": lhs == rhs,
        "plain_norm": plain,
        "symmetrization_gap": gap,
        "second_term": (tables.m4 - 3) * diag,
    }


# ---------------------------------------------------------------------------
# weighted norms and isometries


def weighted_norm(K: SymmetricKernel2, variant: str, tables: GammaTables) -> Fraction:
    """Squared weighted norms of a symmetric kernel.

    B: identity off the diagonal, E(X^2-1)^2 on it (isometry norms for the
    two quadratic components separately); C: 2 off the diagonal, E(X^2-1)^2
    on it (the second-order isometry); A: the signature-weighted norm that
    makes the pure order-2 map an isometry, ||f||_A^2 = E[Phi_2(f)^2] =
    sum_t lam_t^2 prod h_alpha.  E[J_2(f)^2] exceeds it by m3^2 sum_j a_jj^2,
    the order-1 component contributed by the annihilation part.
    """
    m4_1 = tables.m4 - 1
    if variant == "B":
        return K.offdiag_sq_sum() + m4_1 * K.diag_sq_sum()
    if variant == "C":
        return 2 * K.offdiag_sq_sum() + m4_1 * K.diag_sq_sum()
    if variant == "A":
        T = SymTensor.from_kernel(K)
        return T.expect_product(T, tables).rational()
    raise ValueError("variant must be one of A, B, C")


def isometry_check(K: SymmetricKernel2, variant: str, tables: GammaTables) -> Fraction:
    """|E[J_2(f)^2] - ||f||_variant^2|, exactly zero for variant C."""
    return abs(expected_integral_sq(K, tables) - weighted_norm(K, variant, tables))


def sandwich_bounds(tables: GammaTables) -> tuple:
    """(a, b) with a ||f||^2 <= E[J_2 f]^2 <= b ||f||^2 on symmetric kernels."""
    e = tables.m4 - 1  # E(X^2-1)^2 for a reduced law
    return min(e, Q(2)), max(e, Q(2))


# ---------------------------------------------------------------------------
# order decomposition


def order_tensors(K: SymmetricKernel2, tables: GammaTables) -> dict:
    """The five exact components of (Phi_2 + Phi a_1^2)(f) squared.

    order 4: f o f;  order 3: a_1^4 (f o f);
    order 2: 4 f ~1 f + a_2^4 (f o f);
    order 1: a_3^4 (f o f) + 4 a_1^2 (f ~1 f) - 6 a_1^2 ((pi_1 f) ~1 (pi_1 f));
    order 0: 2 ||f||^2 + a_4^4 (f o f)   (a scalar).

    The order-1 correction uses the contraction of the *diagonal part of f*
    (value m3 sum_j a_jj^2 e_j): writing it as a projection of the full
    contraction would change the identity, and only this reading makes the
    pointwise residual vanish.
    """
    ff = SymTensor.sym_square(K)
    contr = SymTensor.from_kernel(contraction1(K))
    # (pi_1 f) ~1 (pi_1 f) = sum_j a_jj^2 e_j o e_j
    diag_contr = SymTensor(2, {(j, j): K.at(j, j) * K.at(j, j) for j in range(1, K.N + 1)})
    t4 = ff
    t3 = ff.annihilated(1, tables)
    t2 = contr.scaled(Q(4)) + ff.annihilated(2, tables)
    t1 = (
        ff.annihilated(3, tables)
        + contr.scaled(Q(4)).annihilated(1, tables)
        + diag_contr.scaled(Q(-6)).annihilated(1, tables)
    )
    t0 = RadSum(2 * K.norm2()) + ff.annihilated(4, tables).terms.get((), 0)
    return {"t4": t4, "t3": t3, "t2": t2, "t1": t1, "t0": t0}


def contraction1_series(K: SymmetricKernel2) -> SymTensor:
    """Independent series route to the contraction, in signature form.

    Spelled directly from the triple/double-sum expansion:
      2(a_{j1j2}a_{j2j3} e_{j1}oe_{j3} + a_{j1j3}a_{j2j3} e_{j1}oe_{j2}
        + a_{j1j2}a_{j1j3} e_{j2}oe_{j3})                   over j3<j2<j1
      + 2(a_{j1j2}a_{j2} + a_{j1j2}a_{j1}) e_{j1}oe_{j2}    over j2<j1
      + a_{j1j2}^2 (e_{j1}^2 + e_{j2}^2)                    over j2<j1
      + a_j^2 e_j^2,
    the e_j o e_k coefficients being exactly the signature coefficients.
    """
    N = K.N
    out = SymTensor(2)
    a = K.at
    for j1 in range(1, N + 1):
        for j2 in range(1, j1):
            for j3 in range(1, j2):
                out.add_term((j3, j1), a(j1, j2) * a(j2, j3) * Q(2))
                out.add_term((j2, j1), a(j1, j3) * a(j2, j3) * Q(2))
                out.add_term((j3, j2), a(j1, j2) * a(j1, j3) * Q(2))
    for j1 in range(1, N + 1):
        for j2 in range(1, j1):
            out.add_term((j2, j1), (a(j1, j2) * a(j2, j2) + a(j1, j2) * a(j1, j1)) * Q(2))
            sq = a(j1, j2) * a(j1, j2)
            out.add_term((j1, j1), sq)
            out.add_term((j2, j2), sq)
    for j in range(1, N + 1):
        out.add_term((j, j), a(j, j) * a(j, j))
    return out


def order_decomposition(
    K: SymmetricKernel2, tables: GammaTables, xs: np.ndarray
) -> dict:
    """The five order components on a realization, plus the identity residual."""
    ts = order_tensors(K, tables)
    pv = tables.p_values(xs)
    o4 = ts["t4"].phi_eval(pv)
    o3 = ts["t3"].phi_eval(pv)
    o2 = ts["t2"].phi_eval(pv)
    o1 = ts["t1"].phi_eval(pv)
    o0 = float(ts["t0"])
    direct = j2_eval(K.floats(), xs) ** 2
    total = o0 + o1 + o2 + o3 + o4
    return {
        "orders": (o0, o1, o2, o3, o4),
        "direct_square": direct,
        "residual": abs(total - direct),
        "scale": max(abs(direct), 1.0),
    }


# ---------------------------------------------------------------------------
# fourth moment


def fourth_moment_lhs(K: SymmetricKernel2, tables: GammaTables) -> RadSum:
    """E[(J_2 f)^4] exactly: orders are mutually orthogonal, so the fourth
    moment is ord0^2 + sum_i E[(order i)^2]."""
    ts = order_tensors(K, tables)
    acc = ts["t0"] * ts["t0"]
    for key in ("t1", "t2", "t3", "t4"):
        acc = acc + ts[key].expect_product(ts[key], tables)
    return acc


def fourth_moment_check(
    h1: PiecewisePoly,
    h2: PiecewisePoly,
    s: Fraction,
    t: Fraction,
    basis: LegendreBasis,
    tables: GammaTables,
) -> dict:
    """lhs = E|Z_t - Z_s|^4 at truncation; rhs = the printed increment bound

        (7/2 C41 + C42 + C43 + C44 + 2) ||h1||^4 ||h2 1_(s,t]||^4

    with C4k the annihilation sup-constants and exact (untruncated) norms.
    The report carries both sides; ``holds`` compares the certified upper
    end of ``lhs_bounds`` with ``rhs``.  Its ``constants`` are the tables'
    shared read-only :attr:`GammaTables.bound_constants`.

    The printed constant is too small.  With h1 = h2 = 1 and (s, t) = (0, 1)
    the symmetric kernel is exactly (1/2) e_1 (x) e_1 at every truncation,
    so lhs = E(x^2 - 1)^4 / 16 = mu4 / 16: 15/4 for normal against a printed
    2, and 864 for exponential:1 against a printed 130.  Acceptance
    criterion 9 checks lhs against a proved constant instead,
    (c_D + 4 c_O) / 2 from the standardized moments (96 for normal, 7314
    for exponential:1); the proof is in that test.
    """
    s, t = Q(s), Q(t)
    if not (0 <= s <= t <= 1):
        raise ValueError("need 0 <= s <= t <= 1")
    h2st = _restrict_above(h2, s, t)
    K, _ = triangle_kernel(h1, h2st, basis)
    lhs = fourth_moment_lhs(K, tables)
    constants = tables.bound_constants
    n1 = (h1 * h1).integral()
    n2 = (h2st * h2st).integral()
    rhs = constants["const"] * n1**2 * n2**2
    lo, hi = lhs.bounds()
    return {
        "lhs": lhs,
        "lhs_float": float(lhs),
        "lhs_bounds": (lo, hi),
        "rhs": rhs,
        "holds": hi <= rhs,
        "constants": constants,
        "norms": {"h1_sq": n1, "h2_strip_sq": n2},
    }


def _restrict_above(h: PiecewisePoly, s: Fraction, t: Fraction) -> PiecewisePoly:
    """h * 1_(s, t]."""
    out = []
    for lo, hi, c in h.cut(t).pieces:
        if hi <= s:
            continue
        out.append((max(lo, s), hi, c))
    return PiecewisePoly(tuple(out))
