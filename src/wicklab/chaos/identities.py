"""Pointwise and symbolic identities of the second-order calculus.

Pointwise layer (floats, per realization): the product identity

    Phi(h) Phi(g) = phi2(h x g) + phi11(h x g + g x h) + <h, g>_N

is algebraic at fixed truncation, as is the order decomposition of the
squared integral; residuals are rounding noise only.

Symbolic layer (exact): the second moment E[J_2(f)^2] has one closed form,
``expected_integral_sq``, in the kernel's squared entries and m4.  Two
checks set it against a second route: ``norm_identity`` against the
component expectations of the raw triangle kernel, and ``isometry_check``
against the signature pairing E[Phi_2(f)^2] = ||f||_A^2, which reads the law
only through the orthogonal-polynomial norms h_alpha, plus the order-1 term
m3^2 sum_j a_jj^2 by which E[J_2(f)^2] exceeds ||f||_A^2.  The order
components are computed by signature pairing with the law's exact moments.
The fourth moment E[J^4] takes the cumulant route instead: a sum over the 15
multigraph classes of the eight index slots, evaluated in integer arithmetic
on the kernel's R and w with one O(N^3) matrix product (``fourth_moment_lhs``).
The order route, ord0^2 + sum_i E[(order i)^2] over ``order_tensors``, gives
the same value and is kept as its check in the tests; the pointwise order
identity (``order_decomposition``) still runs on it.  ``fourth_moment_check``
and ``fourth_moment_grid`` set E|Z_t - Z_s|^4 against the printed bound; the
kernel of each increment (s, t] is the difference of the snapshots at t and s
of one kernel sweep, and ||h2 1_(s,t]||^2 the integral of h2^2 over (s, t].

The key subtlety is the truncated norm of the triangle kernel: the
full-space identity <f, f~> = 0 (the triangle and its transpose are
disjoint) fails under truncation, so the squared norm entering the norm
identity is evaluated through the symmetrization 2 ||f_sym||^2 = ||f||^2 +
<f, f~>, which is the truncation-consistent reading and restores exact
equality at every N.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

import numpy as np

from ..exact import Q, RadSum, as_fraction, rad_form
from .basis import LegendreBasis, PiecewisePoly, SymmetricKernel2, coeffs_of, triangle_kernel
from .basis import _increment, _kernel_sweep
from .tensors import GammaTables, SymTensor, _rwr, contraction1

__all__ = [
    "phi",
    "phi2",
    "phi11",
    "product_identity_residual",
    "integral_eval",
    "j2_eval",
    "ito_bracket",
    "norm_identity",
    "isometry_check",
    "sandwich_bounds",
    "order_tensors",
    "order_decomposition",
    "fourth_moment_check",
    "fourth_moment_grid",
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
    """E[J_2(f)^2] for the symmetric kernel f, exact: the second-order isometry

        2 sum_{j != k} a_jk^2 + (m4 - 1) sum_j a_jj^2.
    """
    off = K.offdiag_sq_sum()  # ordered pairs, so this is sum_{j != k}
    diag = K.diag_sq_sum()
    return 2 * off + (tables.m4 - 1) * diag


def norm_identity(
    h: PiecewisePoly,
    g: PiecewisePoly,
    basis: LegendreBasis,
    tables: GammaTables,
) -> dict:
    """Both sides of the squared-norm identity, exact rationals.

    lhs = E[I^2] from the quadratic components of the raw kernel; rhs = the
    closed form :func:`expected_integral_sq` of the symmetrized kernel, which
    is 2 ||f_sym||^2 + (m4 - 3) sum_j a_jj^2 (``second_term`` is the second
    summand).  The two agree identically; ``symmetrization_gap`` records
    <f, f~>_N, the term that the full space kills and truncation does not.
    """
    K, raw = triangle_kernel(h, g, basis)
    N = K.N
    # lhs: E[I^2] assembled from the component expectations of the raw kernel
    # (off-diagonal route uses the symmetrized coefficients b_jk + b_kj, the
    # diagonal route the fourth moment; cross terms vanish)
    lhs = Q(0)
    for j in range(N):
        for k in range(j):
            lhs += ((raw[j][k] + raw[k][j]) * (raw[j][k] + raw[k][j])).rational()
        lhs += raw[j][j].square() * (tables.m4 - 1)
    rhs = expected_integral_sq(K, tables)
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
        "second_term": (tables.m4 - 3) * K.diag_sq_sum(),
    }


# ---------------------------------------------------------------------------
# isometries


def isometry_check(K: SymmetricKernel2, tables: GammaTables) -> Fraction:
    """|E[J_2(f)^2] - (||f||_A^2 + m3^2 sum_j a_jj^2)|, exactly zero.

    The two sides are two routes to one value.  E[J_2(f)^2] is the closed
    form :func:`expected_integral_sq`.  ||f||_A^2 = E[Phi_2(f)^2] =
    sum_t lam_t^2 prod h_alpha is the signature-weighted norm that makes the
    pure order-2 map an isometry, the pairing of f with itself; it reads the
    law only through the orthogonal-polynomial norms h_alpha, not through
    m4.  E[J_2(f)^2] exceeds ||f||_A^2 by m3^2 sum_j a_jj^2, the order-1
    component contributed by the annihilation part.
    """
    T = SymTensor.from_kernel(K)
    pairing = T.expect_product(T, tables).rational()
    return abs(expected_integral_sq(K, tables) - (pairing + tables.m3**2 * K.diag_sq_sum()))


def sandwich_bounds(tables: GammaTables) -> tuple:
    """(a, b) with a ||f||^2 <= E[J_2 f]^2 <= b ||f||^2 on symmetric kernels."""
    e = tables.m4 - 1  # E(X^2-1)^2 for a reduced law
    return min(e, Q(2)), max(e, Q(2))


# ---------------------------------------------------------------------------
# order decomposition


def _orders(K: SymmetricKernel2, tables: GammaTables):
    """(name, component) for the five components of :func:`order_tensors`,
    in the order t4, t3, t2, t1, t0.

    Each component is built only when asked for, so a caller that evaluates
    each and drops it before asking again holds one at a time, beside f o f
    and the contraction that later orders reuse.
    """
    ff = SymTensor.sym_square(K)
    yield "t4", ff
    yield "t3", ff.annihilated(1, tables)
    contr4 = SymTensor.from_kernel(contraction1(K)).scaled(4)
    yield "t2", contr4 + ff.annihilated(2, tables)
    # (pi_1 f) ~1 (pi_1 f) = sum_j a_jj^2 e_j o e_j, a_jj = R_jj w_j / den
    R, w = K.R, K.w
    diag = {(j + 1, j + 1): {1: (R[j][j] * w[j]) ** 2} for j in range(K.N) if R[j][j]}
    diag_contr = SymTensor(2, diag, K.den**2)
    yield "t1", (
        ff.annihilated(3, tables)
        + contr4.annihilated(1, tables)
        + diag_contr.scaled(-6).annihilated(1, tables)
    )
    del contr4, diag_contr
    yield "t0", RadSum(2 * K.norm2()) + ff.annihilated(4, tables).terms.get((), 0)


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
    return dict(_orders(K, tables))


def order_decomposition(
    K: SymmetricKernel2, tables: GammaTables, xs: np.ndarray
) -> dict:
    """The five order components on a realization, plus the identity residual.

    Each component is evaluated as soon as it is built and then dropped."""
    pv = tables.p_values(xs)
    orders = {}
    for name, t in _orders(K, tables):
        orders[name] = t.phi_eval(pv) if isinstance(t, SymTensor) else float(t)
        del t
    o0, o1, o2, o3, o4 = (orders[f"t{i}"] for i in range(5))
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
    """E[(J_2 f)^4] exactly, by the cumulant expansion of E[(x'Ax - tr A)^4]
    over the classes of :data:`~wicklab.chaos.tensors.FOURTH_MOMENT_CLASSES`.

    With a_ij = (R_ij / den) sqrt(w_i w_j) every class is a sum of integers
    over den^4.  The only O(N^3) step is T = R diag(w) R, since (A^2)_ij =
    (T_ij / den^2) sqrt(w_i w_j).  The classes with two odd-degree vertices
    (the kappa_5 kappa_3 and kappa_3^2 ones) carry sqrt(w_i w_j); they are
    collected into one integer matrix M, whose diagonal is rational and whose
    off-diagonal pairs are split once each.  The order route
    (``order_tensors``: ord0^2 + sum_i E[(order i)^2]) gives the same value
    and serves as its check.
    """
    R, w, N = K.R, K.w, K.N
    # the class weights in table order, named by their cumulant products
    c8, c6, c53a, c53b, c44a, c44b, c44c, c4a, c4b, c4c, c33a, c33b, c33c, c2a, c2b = (
        tables._j4_weights
    )
    T = _rwr(K)
    r = [R[i][i] * w[i] for i in range(N)]  # den * d_i
    t = [T[i][i] * w[i] for i in range(N)]  # den^2 * (A^2)_ii
    r2, tr2 = sum(x * x for x in r), sum(t)  # den^2 * (sum d_i^2, tr A^2)
    q = (
        c8 * sum(x**4 for x in r)
        + c6 * sum(x * x * y for x, y in zip(r, t))
        + c44a * r2 * r2
        + c4a * r2 * tr2
        + c4c * sum(y * y for y in t)
        + c2a * tr2 * tr2
    )
    # the pair classes; M_ij sqrt(w_i w_j) / den^4 collects the odd ones
    M = [[0] * N for _ in range(N)]
    for i, (Ri, Ti, ri) in enumerate(zip(R, T, r)):
        for j, (x, y, rj, tj) in enumerate(zip(Ri, Ti, r, t)):
            if not (x or y):
                continue
            p = w[i] * w[j]
            x2p = x * x * p  # den^2 * a_ij^2
            q += (c44b * ri * rj + c44c * x2p) * x2p + (c4b * ri * x + c2b * y) * y * p
            M[i][j] = x * ri * (c53a * ri * rj + c53b * x2p + c33a * tj) + y * (
                c33b * ri * rj + c33c * x2p
            )
    num = {1: q + sum(M[i][i] * w[i] for i in range(N))}
    for i in range(N):
        for j in range(i):
            if M[i][j] + M[j][i]:
                n, w0 = rad_form(M[i][j] + M[j][i], w[i] * w[j])
                num[w0] = num.get(w0, 0) + n
    return RadSum._of(num, tables._j4_den * K.den**4)


def _bound_rows(h1, h2, basis, tables, pairs):
    """The :func:`fourth_moment_check` report of each exact (s, t) of pairs,
    in turn, all from one kernel sweep over their points."""
    if not all(0 <= s <= t <= 1 for s, t in pairs):
        raise ValueError("need 0 <= s <= t <= 1")
    points = sorted({x for pair in pairs for x in pair})
    snaps = dict(zip(points, _kernel_sweep(h1, h2, basis, points)))
    sq = h2 * h2
    strip = {p: sq.cut(p).integral() for p in points}
    n1, constants = (h1 * h1).integral(), tables.bound_constants
    for s, t in pairs:
        lhs = fourth_moment_lhs(_increment(snaps[s], snaps[t], basis), tables)
        norms = {"h1_sq": n1, "h2_strip_sq": strip[t] - strip[s]}
        rhs = constants["const"] * n1**2 * norms["h2_strip_sq"] ** 2
        lo, hi = lhs.bounds()
        row = {"lhs": lhs, "lhs_float": float(lhs), "lhs_bounds": (lo, hi), "rhs": rhs}
        yield {**row, "holds": hi <= rhs, "constants": constants, "norms": norms}


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

    with C4k the annihilation sup-constants and exact (untruncated) norms,
    for exact rationals s and t (int, str or Fraction).  The report carries
    both sides; ``holds`` compares the certified upper end of ``lhs_bounds``
    with ``rhs``.  Its ``constants`` are the tables' shared read-only
    :attr:`GammaTables.bound_constants`.

    The printed constant is too small.  With h1 = h2 = 1 and (s, t) = (0, 1)
    the symmetric kernel is exactly (1/2) e_1 (x) e_1 at every truncation,
    so lhs = E(x^2 - 1)^4 / 16 = mu4 / 16: 15/4 for normal against a printed
    2, and 864 for exponential:1 against a printed 130.  Acceptance
    criterion 9 checks lhs against a proved constant instead,
    (c_D + 4 c_O) / 2 from the standardized moments (96 for normal, 7314
    for exponential:1); the proof is in that test.
    """
    return next(_bound_rows(h1, h2, basis, tables, [(as_fraction(s), as_fraction(t))]))


def fourth_moment_grid(
    h1: PiecewisePoly,
    h2: PiecewisePoly,
    basis: LegendreBasis,
    tables: GammaTables,
    pairs: Sequence[tuple],
) -> dict:
    """Increment fourth moments against the printed bound on an (s,t) grid,
    plus the log-log slope of the fourth moment in the increment width.

    One kernel sweep from 0 serves every row and the six slope widths 2^-k;
    each row is :func:`fourth_moment_check`'s report, with the exact ``lhs``
    (a RadSum) and ``rhs`` (a Fraction).  The slope is a float fit to the lhs
    values at s = 0; a ``ValueError`` names the widths where the fourth
    moment is 0."""
    pairs = [tuple(map(as_fraction, pair)) for pair in pairs]
    widths = [Q(1, 2**k) for k in range(1, 7)]
    chks = list(_bound_rows(h1, h2, basis, tables, pairs + [(Q(0), tau) for tau in widths]))
    rows = [
        {"s": str(s), "t": str(t), **{k: c[k] for k in ("lhs", "rhs", "holds")}}
        for (s, t), c in zip(pairs, chks)
    ]
    # slope: fourth moment of Z_t - Z_s versus t - s, at s = 0
    lhss = [c["lhs_float"] for c in chks[len(pairs) :]]
    if zero := [str(tau) for tau, x in zip(widths, lhss) if x == 0]:
        raise ValueError(f"the fourth moment is 0 at widths {', '.join(zero)}: no log-log slope")
    slope = float(np.polyfit(np.log([float(tau) for tau in widths]), np.log(lhss), 1)[0])
    return {"rows": rows, "slope": slope, "all_hold": all(r["holds"] for r in rows)}
