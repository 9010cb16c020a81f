"""Partition systems, exact independence, CDF transport, jump schemes."""

import itertools
import random
import time
import tracemalloc
from fractions import Fraction as Q

import pytest

from wicklab.rademacher import (
    MAX_CELLS,
    AlphaScheme,
    InfeasibleSchemeError,
    JumpCDF,
    alpha_scheme,
    build_partition,
    evaluate_r,
    gap_inside_cell,
    joint_law,
    phi_factor,
    transport_joint_law,
    transport_product_expectation,
)

from oracles import product_expectation_by_patterns


def beta_product(alphas, N, nu):
    """Independent oracle for cell lengths: the product over the binary
    expansion of nu-1 (most significant bit first), bit 0 -> alpha_i,
    bit 1 -> 1 - alpha_i."""
    bits = [(nu - 1) >> (N - 1 - i) & 1 for i in range(N)]
    out = Q(1)
    for i, b in enumerate(bits):
        out *= (1 - alphas[i]) if b else alphas[i]
    return out


def test_dyadic_partition():
    ps = build_partition([Q(1, 2)] * 3, 3)
    assert ps.levels[3] == tuple(Q(j, 8) for j in range(9))


def test_single_split():
    ps = build_partition([Q(3, 10)], 1)
    assert ps.levels[1] == (0, Q(3, 10), 1)


def test_refinement_recurrence():
    alphas = [Q(1, 3), Q(1, 4), Q(2, 5), Q(1, 2)]
    ps = build_partition(alphas, 4)
    for k in range(4):
        prev, nxt = ps.levels[k], ps.levels[k + 1]
        for j in range(len(prev) - 1):
            assert nxt[2 * j] == prev[j]
            assert nxt[2 * j + 1] == prev[j] + alphas[k] * (prev[j + 1] - prev[j])


def test_cell_lengths_are_beta_products():
    alphas = [Q(1, 3), Q(1, 4), Q(2, 5), Q(1, 2)]
    ps = build_partition(alphas, 4)
    ends = ps.levels[4]
    for nu in range(1, 17):
        assert ends[nu] - ends[nu - 1] == beta_product(alphas, 4, nu)


def test_evaluate_r_conventions():
    ps = build_partition([Q(1, 2)] * 3, 3)
    assert evaluate_r(ps, 1, Q(1, 4)) == 1
    assert evaluate_r(ps, 2, Q(3, 8)) == -1
    ps2 = build_partition([Q(3, 10)], 1)
    assert evaluate_r(ps2, 1, Q(3, 10)) == 1  # right endpoint belongs to the cell
    with pytest.raises(ValueError):
        evaluate_r(ps, 1, Q(0))
    assert evaluate_r(ps, 0, Q(1, 2)) == 1


def test_joint_law_dyadic():
    ps = build_partition([Q(1, 2)] * 2, 2)
    assert joint_law(ps, [1, 2], [1, 1]) == Q(1, 4)


def test_single_level_law_is_alpha():
    alphas = [Q(2, 7), Q(3, 5), Q(1, 6)]
    ps = build_partition(alphas, 3)
    for k in range(1, 4):
        assert joint_law(ps, [k], [1]) == alphas[k - 1]
        assert joint_law(ps, [k], [-1]) == 1 - alphas[k - 1]


def test_exact_independence_random_systems():
    rng = random.Random(20240901)
    for _ in range(10):
        alphas = [Q(rng.randint(1, 19), 20) for _ in range(8)]
        ps = build_partition(alphas, 8)
        for n in (1, 2, 3):
            ks = sorted(rng.sample(range(1, 9), n))
            for eps in itertools.product((-1, 1), repeat=n):
                expected = Q(1)
                for k, e in zip(ks, eps):
                    expected *= phi_factor(ps, k, e)
                assert joint_law(ps, ks, list(eps)) == expected


def test_triple_factorization_generic():
    alphas = [Q(1, 3), Q(2, 7), Q(4, 9)]
    ps = build_partition(alphas, 3)
    for eps in itertools.product((-1, 1), repeat=3):
        prod = Q(1)
        for k, e in zip((1, 2, 3), eps):
            prod *= phi_factor(ps, k, e)
        assert joint_law(ps, [1, 2, 3], list(eps)) == prod


# --- transport ----------------------------------------------------------------


def _jump_law(ps, ks, eps):
    return transport_joint_law(ps, JumpCDF(Q(1, 8), Q(1, 4)), ks, eps)


@pytest.mark.parametrize("law", [joint_law, _jump_law], ids=["joint_law", "transport_joint_law"])
@pytest.mark.parametrize("eps", [[0], [2], [Q(1, 2)]])
def test_joint_law_rejects_signs_other_than_plus_minus_one(law, eps):
    # r_1 takes only the values +-1: no sign other than +1 may read as -1
    with pytest.raises(ValueError, match=r"sign must be \+-1"):
        law(build_partition([Q(1, 3), Q(1, 2)], 2), [1], eps)


def test_product_expectation_matches_the_cell_walk():
    # the one cell walk against the sum over sign patterns of the transport law
    rng = random.Random(5)
    for _ in range(60):
        depth = rng.randint(1, 6)
        ps = build_partition([Q(rng.randint(1, 9), 10) for _ in range(depth)], depth)
        fx0 = Q(rng.randint(1, 10), 16)
        for cdf in (JumpCDF.diffuse(), JumpCDF(fx0, (1 - fx0) * Q(rng.randint(0, 7), 8))):
            ks = sorted(rng.sample(range(1, depth + 1), rng.randint(1, depth)))
            assert transport_product_expectation(ps, cdf, ks) == product_expectation_by_patterns(
                ps, cdf, ks
            )


def test_product_expectation_over_twelve_levels_takes_one_walk():
    # one walk over the 2^12 cells, not one filtered walk of them per sign
    # pattern (4096 patterns), against the sign-pattern sum
    ps, cdf, ks = build_partition([Q(1, 3)] * 12, 12), JumpCDF(Q(1, 7), Q(1, 5)), list(range(1, 13))
    start = time.perf_counter()
    value = transport_product_expectation(ps, cdf, ks)
    assert time.perf_counter() - start < 3.0
    assert value == product_expectation_by_patterns(ps, cdf, ks)


@pytest.mark.parametrize("ks", [[], [0], [2, 1], [3]])
def test_product_expectation_rejects_bad_levels(ks):
    with pytest.raises(ValueError):
        transport_product_expectation(build_partition([Q(1, 3), Q(1, 2)], 2), JumpCDF.diffuse(), ks)


def test_build_partition_rejects_a_negative_depth():
    with pytest.raises(ValueError, match="depth must be >= 0"):
        build_partition([Q(1, 2)], -1)
    assert build_partition([Q(1, 2)], 0).depth == 0


def test_diffuse_transport_is_identity():
    alphas = [Q(1, 3), Q(2, 7), Q(4, 9), Q(1, 2)]
    ps = build_partition(alphas, 4)
    cdf = JumpCDF.diffuse()
    for n in (1, 2, 3):
        for ks in itertools.combinations(range(1, 5), n):
            for eps in itertools.product((-1, 1), repeat=n):
                assert transport_joint_law(ps, cdf, list(ks), list(eps)) == joint_law(
                    ps, list(ks), list(eps)
                )


def test_counterexample_jump_at_cell_boundary():
    # identity CDF with a jump of 1/4 at probability level 1/2: the dyadic
    # pair (r_1 o F, r_2 o F) is correlated
    ps = build_partition([Q(1, 2)] * 2, 2)
    cdf = JumpCDF(Q(1, 2), Q(1, 4))
    e12 = transport_product_expectation(ps, cdf, [1, 2])
    e1 = transport_product_expectation(ps, cdf, [1])
    e2 = transport_product_expectation(ps, cdf, [2])
    assert e12 == Q(1, 4)
    assert e1 * e2 == Q(-1, 16)


def test_counterexample_jump_interior():
    # second worked example: jump at level 3/8; the product expectation and
    # the product of expectations are computed, not hard-coded (the printed
    # source values for this example do not match any transport convention)
    ps = build_partition([Q(1, 2)] * 2, 2)
    cdf = JumpCDF(Q(3, 8), Q(1, 4))
    e12 = transport_product_expectation(ps, cdf, [1, 2])
    e1 = transport_product_expectation(ps, cdf, [1])
    e2 = transport_product_expectation(ps, cdf, [2])
    assert e12 != e1 * e2  # not independent
    assert e12 == 0
    assert e1 * e2 == Q(-1, 16)


def test_gap_strictly_inside_cell_factorizes():
    alphas = [Q(1, 2), Q(1, 2), Q(1, 2)]
    ps = build_partition(alphas, 3)
    cdf = JumpCDF(Q(1, 16), Q(1, 32))  # gap inside ]0, 1/8] at every level <= 3
    for k in range(1, 4):
        assert gap_inside_cell(ps, cdf, k)
    for ks in ([1], [2], [1, 2], [1, 3], [1, 2, 3]):
        for eps in itertools.product((-1, 1), repeat=len(ks)):
            prod = Q(1)
            for k, e in zip(ks, eps):
                prod *= phi_factor(ps, k, e)
            assert transport_joint_law(ps, cdf, ks, list(eps)) == prod


# --- schemes --------------------------------------------------------------------


def test_jump_after_running_product():
    cdf = JumpCDF(Q(1, 4), Q(1, 4))  # F(X_0) + delta = 1/2
    sch = alpha_scheme("jump_after", cdf, 3, a=Q(1, 4))
    assert sch.diagnostics["running_products"][2] == Q(1, 2) + Q(1, 64)


def test_constant_rejected_with_condition():
    cdf = JumpCDF(Q(1, 4), Q(1, 8))
    with pytest.raises(InfeasibleSchemeError) as exc:
        alpha_scheme("constant", cdf, 6, alpha=Q(3, 4))
    assert exc.value.condition == "C1"
    assert exc.value.depth >= 1


@pytest.mark.parametrize("variant", ["jump_after", "jump_before", "jump_alternating"])
def test_schemes_pass_conditions_and_transport_independently(variant):
    cdf = JumpCDF(Q(3, 10), Q(1, 5))
    sch = alpha_scheme(variant, cdf, 12)
    assert isinstance(sch, AlphaScheme)
    assert len(sch.alphas) == 12
    ps = sch.partition()
    for k in range(1, 13):
        assert gap_inside_cell(ps, cdf, k), (variant, k)
    for ks in ([2, 5], [1, 4, 9], [3, 7, 12]):
        for eps in itertools.product((-1, 1), repeat=len(ks)):
            prod = Q(1)
            for k, e in zip(ks, eps):
                prod *= phi_factor(ps, k, e)
            assert transport_joint_law(ps, cdf, ks, list(eps)) == prod, (variant, ks, eps)


def test_alternating_limits_match_closed_forms():
    import math

    cdf = JumpCDF(Q(3, 10), Q(1, 5))
    sch = alpha_scheme("jump_alternating", cdf, 12)
    p, a, dtil = sch.params["p"], sch.params["a"], sch.params["delta_tilde"]
    A = 1.0 / math.log(2.0)
    fx0, delta = float(cdf.fx0), float(cdf.delta)
    # series limit of the cut positions, summed analytically:
    #   g = alpha_1 + A*a*(1 - ln 2) = 1 - A*(dtil + a*ln 2)
    alpha1 = 1.0 - A * (dtil + a)
    g_series = alpha1 + A * a * (1.0 - math.log(2.0))
    assert abs(g_series - (fx0 - 9 * 10.0 ** -(p + 1))) < 1e-12
    assert abs(g_series - sch.diagnostics["g_limit"]) < 1e-12
    # d - g = A * dtil = delta + 10^-p, hence the second closed form
    assert abs(g_series + A * dtil - (fx0 + delta + 10.0 ** -(p + 1))) < 1e-12
    # monotonicity is exact on the rationalized ratios
    g_vals = [sch.diagnostics["g"][k] for k in sorted(sch.diagnostics["g"])]
    d_vals = [sch.diagnostics["d"][k] for k in sorted(sch.diagnostics["d"])]
    assert all(x < y for x, y in zip(g_vals, g_vals[1:]))
    assert all(x > y for x, y in zip(d_vals, d_vals[1:]))
    assert all(v < cdf.fx0 for v in g_vals)
    assert all(v > cdf.fx0 + cdf.delta for v in d_vals)


def test_alternating_recursion_tends_to_limits():
    # the cut positions converge harmonically (defect ~ A*a/k); run a float
    # replica of the recursion deep and check against the predicted envelope
    import math

    cdf = JumpCDF(Q(3, 10), Q(1, 5))
    sch = alpha_scheme("jump_alternating", cdf, 8)
    p, a, dtil = sch.params["p"], sch.params["a"], sch.params["delta_tilde"]
    A = 1.0 / math.log(2.0)

    def tval(k):
        return dtil + a / k

    g_acc, u = 0.0, 1.0
    for k in range(1, 200_001):
        alpha = (1.0 - A * tval(1)) if k == 1 else (
            tval(k) / tval(k - 1) if k % 2 == 0 else 1.0 - tval(k) / tval(k - 1)
        )
        if k % 2 == 1:
            g_acc += u * alpha
            u *= 1.0 - alpha
        else:
            u *= alpha
    k = 199_999  # last odd index reached
    defect = sch.diagnostics["g_limit"] - g_acc
    envelope = A * a / k
    assert 0 < defect < 1.2 * envelope


def test_joint_law_matches_pointwise_sign_functions():
    # independent route: stratified evaluation of the sign functions on a
    # fine rational grid reproduces each joint probability up to the grid
    # resolution (the functions are piecewise constant between endpoints)
    alphas = [Q(2, 7), Q(3, 5), Q(1, 6)]
    ps = build_partition(alphas, 3)
    grid = 7 * 5 * 6 * 8  # common denominator multiple: endpoints are hit exactly
    points = [Q(2 * i + 1, 2 * grid) for i in range(grid)]  # cell midpoints
    for ks in ([1], [2], [2, 3], [1, 3], [1, 2, 3]):
        for eps in itertools.product((-1, 1), repeat=len(ks)):
            hits = sum(
                1
                for x in points
                if all(evaluate_r(ps, k, x) == e for k, e in zip(ks, eps))
            )
            assert Q(hits, grid) == joint_law(ps, ks, list(eps))


@pytest.mark.parametrize(
    "call",
    [
        lambda: build_partition([Q(1, 2)] * 15, 15),
        lambda: build_partition([Q(1, 3)], 10**9),
        lambda: alpha_scheme("jump_after", JumpCDF(Q(3, 10), Q(1, 5)), 15),
        lambda: alpha_scheme("jump_alternating", JumpCDF(Q(3, 10), Q(1, 5)), 10**6),
    ],
    ids=["partition", "huge depth", "scheme", "huge scheme"],
)
def test_partition_above_the_cell_cap_returns_at_once(call):
    # rejected before any ratio or cell is built: jump_after took 9.7 s at
    # depth 16 and 49 s at 20, and a scheme of depth 10^6 would run its
    # exact ratios for far longer
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="above the cap"):
            call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**16


def test_partition_cell_cap_admits_depth_14():
    ps = build_partition([Q(1, 3)] * 14, 14)
    assert len(ps.levels[-1]) - 1 == MAX_CELLS
