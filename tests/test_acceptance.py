"""Acceptance suite: one test per criterion, printed pass/fail lines.

Each criterion is implemented at its stated tolerance.  Two criteria check
the true form of a statement whose printed form is false:

* criterion 9 bounds increment fourth moments with a constant proved in
  :func:`proved_fourth_moment_constant`; the printed constant is too small,
  and the exact Brownian counterexample on (0, 1) (lhs = mu4/16 against a
  printed 2) stays as a passing check;
* criterion 10 runs the quadratic variation along (N, depth) = (4, 1),
  (16, 2), (64, 3), where the truncation outruns the mesh; at fixed N the
  partition QV collapses to 0.  Its mean check fails for exponential:1,
  whose (m4 - 3) diagonal term only halves per level: a deeper schedule
  needs N >= 8 * 2^depth at depth 5-6, too slow for the float kernel engine.
"""

import itertools
import json
import math
import random
import time
from fractions import Fraction as Q

import numpy as np
import pytest

import wicklab.chaos as chaos
from wicklab.chaos.experiments import qv_joint_refinement
from wicklab.chaos.identities import (
    isometry_check,
    expected_integral_sq,
    fourth_moment_check,
    fourth_moment_grid,
    norm_identity,
    order_decomposition,
    product_identity_residual,
    sandwich_bounds,
)
from wicklab.cli import main as cli_main
from wicklab.discrete import (
    DiscreteRV,
    FiniteSpace,
    atom_condition,
    build_max_system,
    independent,
    independent_oracle,
    n_max,
    walsh_gram_rank,
)
from wicklab.exact import RadSum
from wicklab.laws import Law, moments, sample, standardized_moments
from wicklab.rademacher import (
    JumpCDF,
    alpha_scheme,
    build_partition,
    gap_inside_cell,
    joint_law,
    phi_factor,
    transport_joint_law,
    transport_product_expectation,
)
from wicklab.wick import (
    gram_matrix,
    ode_residual,
    wick_explicit,
    wick_recurrence1,
    wick_recurrence2,
)

ONE = chaos.PiecewisePoly.constant(1)


def report(num, ok, detail=""):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} {detail}")
    return ok


def timed(budget):
    """Context collecting elapsed seconds against the stated budget."""

    class _T:
        def __enter__(self):
            self.t0 = time.perf_counter()
            return self

        def __exit__(self, *exc):
            self.elapsed = time.perf_counter() - self.t0
            assert self.elapsed < budget, f"runtime {self.elapsed:.1f}s over budget {budget}s"

    return _T()


# -- 1 ------------------------------------------------------------------------


def test_criterion_1_golden_tables():
    with timed(1.0):
        ok = True
        # item 1: standard normal rows through n = 5
        mN = moments(Law.normal(), 10)
        golden_normal = {
            0: [1], 1: [0, 1], 2: [-1, 0, 1], 3: [0, -3, 0, 1],
            4: [3, 0, -6, 0, 1], 5: [0, 15, 0, -10, 0, 1],
        }
        for n, row in golden_normal.items():
            ok &= list(wick_explicit(mN, n).coeffs) == [Q(c) for c in row]
        # item 2: exponential rows are x^n - (n/lam) x^{n-1}
        for lam in (Q(1), Q(3), Q(5, 2)):
            mE = moments(Law.exponential(lam), 5)
            for n in range(6):
                row = [Q(0)] * (n + 1)
                row[n] = Q(1)
                if n:
                    row[n - 1] = -Q(n) / lam
                ok &= list(wick_explicit(mE, n).coeffs) == row
        # item 3: gamma rows via the falling-factorial pattern
        for a, b in ((Q(2), Q(3)), (Q(7, 3), Q(1, 2))):
            mG = moments(Law.gamma(a, b), 5)
            for n in range(6):
                row = []
                for k in range(n + 1):
                    j = n - k
                    fall = Q(1)
                    for i in range(j):
                        fall *= a - i
                    row.append(math.comb(n, k) * Q(-1) ** j * fall / b**j)
                ok &= list(wick_explicit(mG, n).coeffs) == row
        # item 4: gamma(1/2, 1/2) printed rows
        mH = moments(Law.gamma(Q(1, 2), Q(1, 2)), 5)
        golden_half = {
            0: [1], 1: [-1, 1], 2: [-1, -2, 1], 3: [-3, -3, -3, 1],
            4: [-15, -12, -6, -4, 1], 5: [-105, -75, -30, -10, -5, 1],
        }
        for n, row in golden_half.items():
            ok &= list(wick_explicit(mH, n).coeffs) == [Q(c) for c in row]
        # item 5: poisson from the explicit construction, logging divergences
        # from the printed table (its cubic constant reads -a^3 + 3a - a)
        a = Q(2)
        mP = moments(Law.poisson(a), 5)
        printed_t3 = -(a**3) + 3 * a - a
        true_t3 = -(a**3) + 3 * a**2 - a
        divergences = []
        w3 = wick_explicit(mP, 3)
        if w3.coeffs[0] != printed_t3:
            divergences.append(("n=3 constant", printed_t3, w3.coeffs[0]))
        w4 = wick_explicit(mP, 4)
        if w4.coeffs[1] != 4 * printed_t3:
            divergences.append(("n=4 linear", 4 * printed_t3, w4.coeffs[1]))
        w5 = wick_explicit(mP, 5)
        if w5.coeffs[2] != 10 * printed_t3:
            divergences.append(("n=5 quadratic", 10 * printed_t3, w5.coeffs[2]))
        for where, printed, computed in divergences:
            print(f"  poisson table divergence at {where}: printed {printed}, computed {computed}")
        ok &= w3.coeffs[0] == true_t3 and w4.coeffs[1] == 4 * true_t3 and w5.coeffs[2] == 10 * true_t3
        ok &= len(divergences) == 3
    assert report(1, ok, "golden polynomial tables, divergences logged for the poisson rows")


# -- 2 ------------------------------------------------------------------------


def test_criterion_2_triple_oracle():
    with timed(5.0):
        laws6 = [
            Law.normal(),
            Law.exponential(1),
            Law.gamma(2, 3),
            Law.gamma_combo(1, 2, 3, 2, Q(1, 2), 1),
            Law.poisson(1),
            Law.binomial(3, Q(1, 2)),
        ]
        ok = True
        for law in laws6:
            m = moments(law, 6)
            for n in range(7):
                w = wick_explicit(m, n)
                ok &= w.coeffs == wick_recurrence1(m, n).coeffs
                ok &= w.coeffs == wick_recurrence2(m, n).coeffs
                ok &= ode_residual(w, m, 1) == []
                ok &= ode_residual(w, m, 2) == []
    assert report(2, ok, "explicit = recurrence1 = recurrence2, both ODE residuals zero, 6 laws, n <= 6")


# -- 3 ------------------------------------------------------------------------


def test_criterion_3_orthogonality_dichotomy():
    with timed(5.0):
        g = gram_matrix(moments(Law.normal(), 10), 5)
        diag_ok = all(g[i][j] == 0 for i in range(6) for j in range(6) if i != j)
        off_ok = True
        for law in (Law.exponential(1), Law.gamma(2, 3), Law.poisson(1)):
            go = gram_matrix(moments(law, 10), 5)
            off_ok &= any(go[i][j] != 0 for i in range(6) for j in range(6) if i != j)
        ok = diag_ok and off_ok
    assert report(3, ok, "gram diagonal iff gaussian moments")


# -- 4 ------------------------------------------------------------------------


def test_criterion_4_rademacher_independence():
    with timed(30.0):
        rng = random.Random(20240417)
        ok = True
        for _ in range(10):
            alphas = [Q(rng.randint(1, 29), 30) for _ in range(8)]
            ps = build_partition(alphas, 8)
            # full sign atoms at depth 8 factorize; marginals follow by summing
            ends = ps.levels[8]
            for j in range(2**8):
                prod = Q(1)
                for k in range(1, 9):
                    bit = (j >> (8 - k)) % 2
                    prod *= phi_factor(ps, k, 1 if bit == 0 else -1)
                ok &= ends[j + 1] - ends[j] == prod
            # plus a random sample of proper sub-tuples through joint_law
            for _ in range(25):
                size = rng.randint(1, 4)
                ks = sorted(rng.sample(range(1, 9), size))
                eps = [rng.choice((-1, 1)) for _ in ks]
                expected = Q(1)
                for k, e in zip(ks, eps):
                    expected *= phi_factor(ps, k, e)
                ok &= joint_law(ps, ks, eps) == expected
        # worked counterexample: jump of 1/4 at probability level 1/2
        ps2 = build_partition([Q(1, 2), Q(1, 2)], 2)
        cdf = JumpCDF(Q(1, 2), Q(1, 4))
        e12 = transport_product_expectation(ps2, cdf, [1, 2])
        e1e2 = transport_product_expectation(ps2, cdf, [1]) * transport_product_expectation(
            ps2, cdf, [2]
        )
        ok &= e12 == Q(1, 4) and e1e2 == Q(-1, 16)
        # jump schemes to depth 12 with exactly independent transported tuples
        cdf2 = JumpCDF(Q(3, 10), Q(1, 5))
        for variant in ("jump_after", "jump_before", "jump_alternating"):
            sch = alpha_scheme(variant, cdf2, 12)
            ps3 = sch.partition()
            ok &= all(gap_inside_cell(ps3, cdf2, k) for k in range(1, 13))
            for ks in ([3, 8], [2, 7, 12]):
                for eps in itertools.product((-1, 1), repeat=len(ks)):
                    prod = Q(1)
                    for k, e in zip(ks, eps):
                        prod *= phi_factor(ps3, k, e)
                    ok &= transport_joint_law(ps3, cdf2, ks, list(eps)) == prod
    assert report(4, ok, "exact factorization, worked counterexample, three schemes to depth 12")


# -- 5 ------------------------------------------------------------------------


def test_criterion_5_finite_space_layer():
    with timed(30.0):
        rng = random.Random(99)
        ok = True
        for _ in range(1000):
            n = rng.randint(2, 6)
            w = [rng.randint(1, 7) for _ in range(n)]
            sp = FiniteSpace(tuple(Q(x, sum(w)) for x in w))
            b = DiscreteRV(tuple(Q(rng.randint(-2, 2)) for _ in range(n)))
            c = DiscreteRV(tuple(Q(rng.randint(-2, 2)) for _ in range(n)))
            ok &= independent(sp, b, c) == independent_oracle(sp, b, c)
        ok &= n_max(1) == 1 and n_max(4) == 3 and n_max(8) == 4
        for N in range(1, 7):
            sp, bs = build_max_system(N)
            ok &= atom_condition(sp, bs)
        ok &= walsh_gram_rank([Q(1), Q(-1)], [Q(1, 2)] * 2, 3) == 8
        ok &= walsh_gram_rank([Q(-1), Q(3), Q(-2)], [Q(1, 3)] * 3, 2) == 9
        ok &= walsh_gram_rank([Q(-1), Q(3), Q(-2)], [Q(1, 3)] * 3, 3) == 27
    assert report(5, ok, "bilinear test vs oracle on 10^3 pairs, n_max, max systems, monomial ranks")


# -- 6 ------------------------------------------------------------------------


def test_criterion_6_pointwise_identities():
    with timed(30.0):
        rng = random.Random(2718)
        nprng = np.random.default_rng(2718)
        ok = True
        worst_prod = 0.0
        worst_order = 0.0
        for law in (Law.normal(), Law.exponential(1)):
            tab = chaos.GammaTables.for_law(law)
            xs_all = sample(law, 31415, 500 * 5).reshape(500, 5)
            for i in range(500):
                c = nprng.standard_normal(5)
                d = nprng.standard_normal(5)
                xs = xs_all[i]
                scale = max(1.0, abs(float(c @ xs) * float(d @ xs)))
                worst_prod = max(worst_prod, product_identity_residual(c, d, xs) / scale)
                rows = [[Q(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(5)] for _ in range(5)]
                for u in range(5):
                    for v in range(u):
                        rows[v][u] = rows[u][v]
                K = chaos.SymmetricKernel2.from_rationals(rows)
                out = order_decomposition(K, tab, xs)
                worst_order = max(worst_order, out["residual"] / out["scale"])
        ok = worst_prod < 1e-10 and worst_order < 1e-10
    assert report(
        6, ok, f"product and order-decomposition residuals (worst {worst_prod:.2e}, {worst_order:.2e}) over 10^3 draws"
    )


# -- 7 ------------------------------------------------------------------------


def _random_piecewise(rng):
    cuts = sorted(rng.sample([Q(k, 8) for k in range(1, 8)], rng.randint(1, 2)))
    points = [Q(0)] + cuts + [Q(1)]
    pieces = []
    for lo, hi in zip(points, points[1:]):
        coeffs = tuple(Q(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(rng.randint(1, 3)))
        if any(coeffs):
            pieces.append((lo, hi, coeffs))
    if not pieces:
        pieces = [(Q(0), Q(1), (Q(1),))]
    return chaos.PiecewisePoly(tuple(pieces))


def test_criterion_7_norm_identity_exact():
    with timed(60.0):
        rng = random.Random(1618)
        basis = chaos.LegendreBasis(8)
        ok = True
        for law in (Law.normal(), Law.exponential(1), Law.gamma(4, 3), Law.poisson(1)):
            tab = chaos.GammaTables.for_law(law)
            for _ in range(20):
                h = _random_piecewise(rng)
                g = _random_piecewise(rng)
                out = norm_identity(h, g, basis, tab)
                ok &= out["equal"]
                if law.kind == "normal":
                    ok &= out["second_term"] == 0
    assert report(7, ok, "lhs = rhs as exact rationals, N = 8, 20 random (h,g) per law")


# -- 8 ------------------------------------------------------------------------


def test_criterion_8_isometries():
    with timed(30.0):
        rng = random.Random(577)
        ok = True
        for law in (Law.normal(), Law.exponential(1), Law.poisson(1)):
            tab = chaos.GammaTables.for_law(law)
            a, b = sandwich_bounds(tab)
            for i in range(334):
                N = 6
                rows = [[Q(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(N)] for _ in range(N)]
                for u in range(N):
                    for v in range(u):
                        rows[v][u] = rows[u][v]
                K = chaos.SymmetricKernel2.from_rationals(rows)
                ok &= isometry_check(K, tab) == 0
                n2 = K.norm2()
                e2 = expected_integral_sq(K, tab)
                ok &= a * n2 <= e2 <= b * n2
    assert report(8, ok, "two-route isometry residual exactly zero and sandwich bounds on a 10^3-kernel sweep")


# -- 9 ------------------------------------------------------------------------


def proved_fourth_moment_constant(law):
    """C(law) with E|Z_t - Z_s|^4 <= C ||h1||^4 ||h2 1_(s,t]||^4 at every truncation.

    With m_k the standardized moments, mu4 = E(x^2 - 1)^4 = m8 - 4 m6 + 6 m4 - 3,

        c_D = max(mu4, 3 (m4 - 1)^2),
        c_O = max(m4^2, 3 m4) + 24 + 24 m3^2,
        C   = (c_D + 4 c_O) / 2.

    Proof.  At truncation N the increment is J = x'Ax - tr A, with A the
    symmetric N x N kernel matrix and x_1..x_N i.i.d. standardized.  Write
    J = D + O with D = sum_i a_ii (x_i^2 - 1) and O = sum_{i != j} a_ij x_i x_j,
    and d = sum_i a_ii^2, o = sum_{i != j} a_ij^2, so tr A^2 = d + o.

    1. D sums independent centred terms, so
       E D^4 = mu4 sum_i a_ii^4 + 3 (m4 - 1)^2 sum_{i != j} a_ii^2 a_jj^2 <= c_D d^2.
    2. O = 2S with S = sum_{i<j} a_ij x_i x_j and w = sum_{i<j} a_ij^2 = o/2.
       E S^4 runs over 4-edge multigraphs, and a term survives only if no
       vertex has degree 1: one edge four times (moment m4^2); two edges
       twice each (6 orderings; moment 1 if disjoint, m4 if they meet);
       4-cycles (24 orderings, moment 1); triangles with one edge doubled
       (12 orderings, moment m3^2).  The first two kinds sum to at most
       max(m4^2, 3 m4) w^2.  Each 4-cycle is 8 closed walks, so with M the
       matrix of |a_ij| off the diagonal the cycles give at most
       3 tr(M^4) <= 3 (tr M^2)^2 = 3 o^2 = 12 w^2.  A doubled edge ij
       meets a third vertex k with sum_k |a_ik a_jk| <= w, so the triangles
       give at most 12 m3^2 w^2.  Hence E S^4 <= c_O w^2 (c_O keeps the
       cycle terms at twice these counts), and E O^4 = 16 E S^4 <= 4 c_O o^2.
    3. Minkowski and Cauchy-Schwarz:
       ||J||_4 <= c_D^(1/4) d^(1/2) + (4 c_O)^(1/4) o^(1/2), so
       E J^4 <= (c_D^(1/2) + 2 c_O^(1/2))^2 (d + o)^2 <= (2 c_D + 8 c_O)(tr A^2)^2.
    4. A projects the symmetrization of f(r, u) = h1(r) h2(u) 1_{r<u} 1_(s,t](u)
       onto span{e_u (x) e_v}.  f and its transpose have disjoint supports,
       so the symmetrization has half the squared norm of f, and
       2 tr A^2 <= ||f||^2 <= ||h1||^2 ||h2 1_(s,t]||^2.

    Together, E J^4 <= (2 c_D + 8 c_O) / 4 ||h1||^4 ||h2 1_(s,t]||^4 = C.
    The law enters only through its moments, so C is one formula for the
    whole catalog: 96 for normal, 7314 for exponential:1.
    """
    m = standardized_moments(law, 8)
    c_d = max(diagonal_fourth_moment(law), 3 * (m[4] - 1) ** 2)
    c_o = max(m[4] ** 2, 3 * m[4]) + 24 + 24 * m[3] ** 2
    return (c_d + 4 * c_o) / 2


def diagonal_fourth_moment(law):
    """mu4 = E(x^2 - 1)^4 for x standardized."""
    m = standardized_moments(law, 8)
    return m[8] - 4 * m[6] + 6 * m[4] - 3


def test_criterion_9_fourth_moment_bound():
    # with h1 = h2 = 1 on (0, 1] the kernel is exactly (1/2) e_1 (x) e_1, so
    # the fourth moment is mu4/16, above the printed constant for both laws
    with timed(120.0):
        basis = chaos.LegendreBasis(6)
        pairs = [(Q(k, 16), Q(k + 1, 16)) for k in range(16)]
        ok = True
        for law in (Law.normal(), Law.exponential(1)):
            tab = chaos.GammaTables.for_law(law)
            C = proved_fourth_moment_constant(law)
            printed_fails = []
            for s, t in pairs:
                chk = fourth_moment_check(ONE, ONE, s, t, basis, tab)
                norms = chk["norms"]
                ok &= chk["lhs_bounds"][1] <= C * norms["h1_sq"] ** 2 * norms["h2_strip_sq"] ** 2
                if not chk["holds"]:
                    printed_fails.append((str(s), str(t)))
            slope = fourth_moment_grid(ONE, ONE, basis, tab, [])["slope"]
            ok &= slope >= 1.9
            mu4 = diagonal_fourth_moment(law)
            whole = fourth_moment_check(ONE, ONE, Q(0), Q(1), basis, tab)
            ok &= whole["lhs"] == RadSum(mu4 / 16) and not whole["holds"]
            print(
                f"  {law.label()}: slope {slope:.3f}, proved constant {C}; printed bound "
                f"{whole['rhs']} against lhs {mu4 / 16} on (0, 1), violated on {printed_fails}"
            )
    assert report(9, ok, "proved increment bound on the 16-pair dyadic grid, Holder slope >= 1.9, printed bound violated on (0, 1)")


# -- 10 (red for exponential:1: its (m4 - 3) diagonal bias outlasts depth 3) ---


def test_criterion_10_quadratic_variation():
    # at fixed N the path is a polynomial in t and QV_d -> 0 (see
    # test_qv_fixed_truncation_collapses_past_resolution), so the truncation
    # must outrun the mesh: N / 2^d = 2^d grows along this schedule
    with timed(300.0):
        schedule = [(4, 1), (16, 2), (64, 3)]
        failing = []
        for law in (Law.normal(), Law.exponential(1)):
            rep = qv_joint_refinement(law, schedule, 10_000, 42)
            errs = [(r["err"]["mean"], r["err"]["stderr"]) for r in rep["rows"]]
            mono = all(
                errs[i + 1][0] <= errs[i][0] + math.sqrt(errs[i][1] ** 2 + errs[i + 1][1] ** 2)
                for i in range(len(errs) - 1)
            )
            last = rep["rows"][-1]
            gap = abs(last["qv"]["mean"] - last["rhs"]["mean"])
            close = gap < 3 * last["mean_gap_stderr"]
            if law.kind == "exponential" and standardized_moments(law, 3)[3] == 0:
                failing.append(f"{law.label()} m3 = 0")  # the correction term must be live
            if not mono:
                failing.append(f"{law.label()} monotonicity")
            if not close:
                failing.append(f"{law.label()} mean check")
            print(
                f"  {law.label()}: errors {[round(e, 4) for e, _ in errs]}, monotone={mono}, "
                f"E[QV] {last['qv']['mean']:.4f} vs E[RHS] {last['rhs']['mean']:.4f}, "
                f"|mean gap|/3se={gap / (3 * last['mean_gap_stderr']):.2f}"
            )
    detail = "E|QV - RHS|^2 decreasing over (N, d) = (4,1), (16,2), (64,3) and means within 3 stderr at (64,3)"
    if failing:
        detail += f"; failing: {', '.join(failing)}"
    assert report(10, not failing, detail)


# -- 11 ------------------------------------------------------------------------


def test_criterion_11_determinism(tmp_path):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    code1 = cli_main(["--out", str(out1), "all", "--quick", "--seed", "42"])
    code2 = cli_main(["--out", str(out2), "all", "--quick", "--seed", "42"])
    strip = lambda t: "\n".join(l for l in t.splitlines() if '"wall_time_s"' not in l)
    same = strip(out1.read_text()) == strip(out2.read_text())
    ok = same and code1 == 0 and code2 == 0
    assert report(11, ok, "all --quick --seed 42 byte-reproducible modulo the wall-time field")
