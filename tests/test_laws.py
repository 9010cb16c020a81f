"""Moment sequences, reciprocal-series coefficients, samplers."""

import math
import tracemalloc
from fractions import Fraction as Q

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from wicklab.exact import mat_rank
from wicklab.laws import (
    Law,
    MomentSequence,
    NoSamplerError,
    Sampler,
    _FILL_STEP,
    hankel_psd,
    inverse_laplace_coeffs,
    moments,
    moments_to_json,
    sample,
    standardized_moments,
)

CATALOG = [
    Law.normal(),
    Law.exponential(1),
    Law.exponential(2),
    Law.gamma(2, 3),
    Law.gamma(Q(1, 2), Q(1, 2)),
    Law.gamma_combo(1, 2, 3, 2, Q(1, 2), 1),
    Law.poisson(1),
    Law.poisson(Q(3, 2)),
    Law.binomial(3, Q(1, 2)),
]


def series_inverse_oracle(ms, K):
    """Brute-force reciprocal of an exponential generating series.

    Written independently of laws.inverse_laplace_coeffs: solves for the
    Taylor coefficients of 1/phi by long division of power series in t^n/n!.
    """
    phi = [Q(ms[n]) / math.factorial(n) for n in range(K + 1)]  # plain t^n coeffs
    inv = [Q(1)]
    for n in range(1, K + 1):
        inv.append(-sum(phi[k] * inv[n - k] for k in range(1, n + 1)) / phi[0])
    return [inv[n] * math.factorial(n) for n in range(K + 1)]


def test_normal_moments_frozen():
    assert moments(Law.normal(), 4).m == (1, 0, 1, 0, 3)


def test_zero_order_is_trivial():
    for law in CATALOG:
        assert moments(law, 0).m == (Q(1),)


def test_exponential_moments_against_geometric_expansion():
    # phi(t) = lam/(lam - t) = sum (t/lam)^n, so m_n = n!/lam^n
    lam = Q(1)
    expected = [Q(math.factorial(n)) / lam**n for n in range(5)]
    assert list(moments(Law.exponential(lam), 4).m) == expected == [1, 1, 2, 6, 24]
    lam = Q(3, 2)
    expected = [Q(math.factorial(n)) / lam**n for n in range(7)]
    assert list(moments(Law.exponential(lam), 6).m) == expected


def test_poisson_moments_match_atom_sum():
    # independent oracle: truncated sum over the Poisson atoms with exact
    # rational weights scaled by e^a (the factor cancels in the comparison
    # only in the limit, so compare partial sums at high cutoff with floats)
    a = 1.0
    for n in range(1, 7):
        acc = sum(math.exp(-a) * a**k / math.factorial(k) * k**n for k in range(60))
        assert float(moments(Law.poisson(1), 6)[n]) == pytest.approx(acc, rel=1e-12)


def test_gamma_combo_is_binomial_convolution():
    alpha, a1, b1, beta, a2, b2 = Q(1), Q(2), Q(3), Q(2), Q(1, 2), Q(1)
    mx = moments(Law.gamma(a1, b1), 6)
    my = moments(Law.gamma(a2, b2), 6)
    mz = moments(Law.gamma_combo(alpha, a1, b1, beta, a2, b2), 6)
    for n in range(7):
        s = sum(
            math.comb(n, k) * alpha**k * mx[k] * beta ** (n - k) * my[n - k]
            for k in range(n + 1)
        )
        assert mz[n] == s


def test_inverse_laplace_triangular_identity_exact():
    for law in CATALOG:
        m = moments(law, 8)
        a = inverse_laplace_coeffs(m, 8)
        for n in range(1, 9):
            conv = sum(math.comb(n, k) * m[k] * a[n - k] for k in range(n + 1))
            assert conv == 0, (law.label(), n)
        assert a[0] == 1
        assert a[1] == -m[1]


def test_inverse_laplace_matches_series_oracle():
    for law in CATALOG:
        m = moments(law, 6)
        a = inverse_laplace_coeffs(m, 6)
        assert list(a.a) == series_inverse_oracle(m.m, 6)


def test_normal_reciprocal_series_frozen():
    m = moments(Law.normal(), 4)
    assert list(inverse_laplace_coeffs(m, 4).a) == [1, 0, -1, 0, 3]


def test_hankel_psd_catalog():
    for law in CATALOG:
        assert hankel_psd(moments(law, 8)), law.label()


def test_binomial_hankel_is_singular_but_psd():
    # finite support on 4 atoms: the 5x5 Hankel block has rank 4
    m = moments(Law.binomial(3, Q(1, 2)), 8)
    h = [[m[i + j] for j in range(5)] for i in range(5)]
    assert mat_rank(h) == 4
    assert hankel_psd(m)


def test_standardized_moments():
    for law in [Law.normal(), Law.exponential(1), Law.exponential(3), Law.poisson(1)]:
        ms = standardized_moments(law, 8)
        assert ms[1] == 0 and ms[2] == 1
    # standardized exponential skewness is 2 regardless of the rate
    assert standardized_moments(Law.exponential(5), 3)[3] == 2


def test_standardization_refuses_irrational_scale():
    with pytest.raises(ValueError):
        standardized_moments(Law.gamma(2, 3), 4)


def test_custom_law_order_guard():
    law = Law.custom_moments([1, 0, 1])
    assert moments(law, 2).m == (1, 0, 1)
    with pytest.raises(ValueError):
        moments(law, 3)
    with pytest.raises(NoSamplerError):
        sample(law, 1, 10)
    with pytest.raises(NoSamplerError):
        Sampler(law, 1)


@pytest.mark.parametrize("seed", [-1, -5, 2**64])
def test_sampler_rejects_a_seed_outside_uint64(seed):
    with pytest.raises(ValueError, match=r"seed must be an integer in \[0, 2\*\*64\)"):
        Sampler(Law.normal(), seed)
    with pytest.raises(ValueError, match="seed must be"):
        sample(Law.exponential(1), seed, 3)


def test_sampler_determinism():
    for law in CATALOG:
        x = sample(law, 123, 50)
        y = sample(law, 123, 50)
        assert np.array_equal(x, y)
        z = sample(law, 124, 50)
        assert not np.array_equal(x, z)


def _sample_reference(law, seed, count):
    """The sampler as whole-array expressions, one new array per step."""
    rng = np.random.default_rng([np.uint64(seed), np.uint64(0)])
    if law.kind == "normal":
        return rng.standard_normal(count)
    if law.kind == "exponential":
        return rng.exponential(1.0, count) - 1.0
    if law.kind == "gamma":
        af = float(law.params[0])
        return (rng.gamma(af, 1.0, count) - af) / math.sqrt(af)
    if law.kind == "gamma_combo":
        alpha, a1, b1, beta, a2, b2 = (float(x) for x in law.params)
        # the two gammas interleaved, one pair per draw
        pairs = [(rng.gamma(a1, 1.0 / b1), rng.gamma(a2, 1.0 / b2)) for _ in range(count)]
        x = alpha * np.array([p[0] for p in pairs])
        y = beta * np.array([p[1] for p in pairs])
        mean = alpha * a1 / b1 + beta * a2 / b2
        var = alpha**2 * a1 / b1**2 + beta**2 * a2 / b2**2
        return (x + y - mean) / math.sqrt(var)
    if law.kind == "poisson":
        af = float(law.params[0])
        return (rng.poisson(af, count) - af) / math.sqrt(af)
    if law.kind == "binomial":
        N, p = law.params
        pf = float(p)
        return (rng.binomial(N, pf, count) - N * pf) / math.sqrt(N * pf * (1 - pf))
    raise AssertionError(law.kind)


@pytest.mark.parametrize("law", CATALOG, ids=lambda law: law.label())
def test_sampler_in_place_steps_match_whole_array_reference(law):
    # centring and scaling in place rounds every draw as the expressions do
    for seed, count in ((3, 1), (3, 1000), (8, 4097), (5, _FILL_STEP + 1)):
        x = sample(law, seed, count)
        assert x.dtype == np.float64
        assert np.array_equal(x, _sample_reference(law, seed, count))


@given(
    st.sampled_from(CATALOG),
    st.integers(0, 2**32),
    st.lists(st.integers(0, 40), min_size=1, max_size=8),
)
@example(Law.gamma_combo(1, 2, 3, 2, Q(1, 2), 1), 5, [1, 1, 1])
@example(Law.poisson(1), 5, [16, 1])
@example(Law.binomial(3, Q(1, 2)), 5, [17, 0])
@example(Law.normal(), 5, [_FILL_STEP - 1, 2, _FILL_STEP + 3])
@settings(max_examples=60, deadline=None)
def test_stream_blocks_concatenate_to_sample(law, seed, sizes):
    # successive draws of one stream are the whole draw, however it is split:
    # 1-draw blocks, empty ones, a split before or after the last draw
    stream = Sampler(law, seed)
    blocks = [stream.draw(k) for k in sizes]
    assert [len(b) for b in blocks] == sizes
    assert np.array_equal(np.concatenate(blocks), sample(law, seed, sum(sizes)))


@pytest.mark.parametrize("law", [Law.poisson(1), Law.binomial(3, Q(1, 2))], ids=Law.label)
def test_integer_laws_fill_one_float_array(law):
    # the integer draws are taken one fill step at a time, so the draw holds
    # its float result and one step's integers, not a whole int64 draw
    count = 16 * _FILL_STEP
    sample(law, 1, _FILL_STEP)
    tracemalloc.start()
    try:
        sample(law, 1, count)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * count + 3 * 8 * _FILL_STEP


def test_sampler_standardization_clt():
    n = 10**6
    x = sample(Law.exponential(1), 7, n)
    assert abs(x.mean()) < 0.01  # 3 sigma/sqrt(n) ~ 0.003
    assert abs((x**2).mean() - 1.0) < 0.02


def test_poisson_third_moment_mc():
    n = 10**6
    law = Law.poisson(1)
    ms = standardized_moments(law, 6)
    x = sample(law, 11, n)
    tol = 3.0 * math.sqrt(float(ms[6])) / math.sqrt(n)
    assert abs((x**3).mean() - float(ms[3])) < tol


def test_moments_json_roundtrip():
    m = moments(Law.gamma(Q(1, 2), Q(1, 2)), 4)
    as_json = moments_to_json(m)
    assert as_json[0] == "1"
    assert MomentSequence(tuple(as_json)).m == m.m


def test_parameter_validation():
    with pytest.raises(ValueError):
        Law.exponential(0)
    with pytest.raises(ValueError):
        Law.gamma(1, -1)
    with pytest.raises(ValueError):
        Law.binomial(3, 1)
    with pytest.raises(ValueError):
        Law.binomial(0, Q(1, 2))
