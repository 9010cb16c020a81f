"""Routes the library no longer takes, kept as test oracles.

Piecewise-polynomial products with a polynomial, running integrals and
restrictions to an interval, all exact: the kernel engines never build
these, and the tests use them to write kernels by their definition, as
they build a basis element e_j o e_k.  The rest are the earlier, longer routes to values the library now reaches by a
direct rule; property tests set each against the rule that replaced it."""

import math
from fractions import Fraction as Q
from itertools import combinations_with_replacement, product

import numpy as np

from wicklab.chaos.basis import LegendreBasis, PiecewisePoly, SymmetricKernel2
from wicklab.chaos.experiments import (
    _Moments,
    _bit_reversal,
    _block_rows,
    _qv_summary,
    _skewness,
    cumulative_coeffs,
    cumulative_triangle,
)
from wicklab.chaos.tensors import _mask, _pairings
from wicklab.exact import RadSum, p_add, p_antideriv, p_eval, p_integrate, p_mul, rad_form
from wicklab.laws import sample
from wicklab.rademacher import transport_joint_law
from wicklab.wick import expect_poly


def mul_poly(h: PiecewisePoly, q) -> PiecewisePoly:
    """h times the polynomial q on each piece of h."""
    q = list(q)
    return PiecewisePoly(tuple((lo, hi, tuple(p_mul(list(c), q))) for lo, hi, c in h.pieces))


def antiderivative(h: PiecewisePoly) -> PiecewisePoly:
    """F(x) = integral of h over (0, x], extended by constants across gaps."""
    out = []
    acc = Q(0)
    cursor = Q(0)
    for lo, hi, c in h.pieces:
        if lo > cursor:
            out.append((cursor, lo, (acc,)))
        F = p_antideriv(list(c))
        shift = acc - p_eval(F, lo)
        out.append((lo, hi, tuple(p_add(F, [shift])) or (Q(0),)))
        acc = acc + p_integrate(list(c), lo, hi)
        cursor = hi
    if cursor < 1:
        out.append((cursor, Q(1), (acc,)))
    return PiecewisePoly(tuple(out))


def restrict(h: PiecewisePoly, s, t) -> PiecewisePoly:
    """h * 1_(s, t], the increment's factor that the kernel sweep replaces by
    a difference of snapshots."""
    return PiecewisePoly(tuple((max(lo, s), hi, c) for lo, hi, c in h.cut(t).pieces if hi > s))


def det(rows) -> Q:
    """Determinant by Gaussian elimination with row swaps."""
    m = [list(map(Q, r)) for r in rows]
    n = len(m)
    out = Q(1)
    for c in range(n):
        piv = next((i for i in range(c, n) if m[i][c] != 0), None)
        if piv is None:
            return Q(0)
        if piv != c:
            m[c], m[piv] = m[piv], m[c]
            out = -out
        out *= m[c][c]
        for i in range(c + 1, n):
            f = m[i][c] / m[c][c]
            m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return out


def principal_minor_psd(rows) -> bool:
    """A symmetric matrix is PSD iff all 2^n - 1 principal minors are >= 0."""
    n = len(rows)
    for mask in range(1, 1 << n):
        idx = [i for i in range(n) if mask >> i & 1]
        if det([[rows[i][j] for j in idx] for i in idx]) < 0:
            return False
    return True


def gamma_by_projection(tab, n: int, k: int) -> Q:
    """gamma_{n,k} = E[x^n P_k] / h_k, the coefficient of P_k in x^n."""
    xn = [Q(0)] * n + [Q(1)]
    return expect_poly(p_mul(xn, list(tab._polys[k])), tab.moments) / tab.h(k)


def basis_element(N: int, j: int, k: int, value=1) -> SymmetricKernel2:
    """value * (e_j o e_k): entries value at (j, k) and (k, j)."""
    rows = [[0] * N for _ in range(N)]
    rows[j - 1][k - 1] = rows[k - 1][j - 1] = value
    return SymmetricKernel2.from_rationals(rows)


def n_max_by_counting(n: int) -> int:
    """max{k : 2^(k-1) <= n}, counted up from k = 1."""
    k = 1
    while 2**k <= n:
        k += 1
    return k


def q_bound_by_exclusion(c_sizes, n: int) -> int:
    """min over k of min_{j != k} min(N_j, n - N_j), for level-set sizes N_j."""
    if len(c_sizes) < 2:
        return n
    mins = [min(s, n - s) for s in c_sizes]
    return min(min(m for i, m in enumerate(mins) if i != k) for k in range(len(mins)))


def cell_by_bisection(ends, x) -> int:
    """The j with ends[j] < x <= ends[j + 1], by a hand-written binary search."""
    lo, hi = 0, len(ends) - 1
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if ends[mid] < x:
            lo = mid
        else:
            hi = mid
    return lo


def quadratic_form(X: np.ndarray, A: np.ndarray) -> np.ndarray:
    """x' A x for each row x of X, by one matrix product."""
    return np.einsum("pi,pi->p", X @ A, X)


def _stats(x: np.ndarray) -> dict:
    """Mean and standard error of a whole table of paths, by numpy's two passes."""
    return {
        "mean": float(x.mean()),
        "stderr": float(x.std(ddof=1) / math.sqrt(len(x))),
    }


def qv_rows_per_increment(B, G, g, strides, law, paths, seed) -> list:
    """The QV rows with one quadratic form per finest increment: each block of
    the body's paths (``_block_rows``) takes its K increments' forms in the
    order of k, and each coarser level's forms as the sums of adjacent pairs
    2j, 2j + 1 of the finer level's.  A level's squares are summed in the
    body's order, the bit-reversed order of the increment
    (``_bit_reversal``).  The blocks' QV and RHS go through the body's
    statistics, one fold per block (``_Moments``), with a row of quantities
    per stride, repeats included."""
    N = G.shape[0]
    A = B[1:] - B[:-1]
    K, D = len(A), len(strides)
    X = sample(law, seed, paths * N).reshape(paths, N)
    rows = _block_rows(N, K, paths)
    blocks = (X[lo : lo + rows] for lo in range(0, paths, rows))
    moments = _Moments(3 * D + 1)
    m3 = _skewness(law)
    traces = np.trace(A, axis1=1, axis2=2)
    for Xb in blocks:
        T = np.empty((3 * D + 1, len(Xb)))
        QVb, RHSb = T[:D], T[3 * D]
        QVb[:] = 0
        RHSb[:] = quadratic_form(Xb, G)
        RHSb += m3 * np.einsum("pi,i->p", Xb, g)
        level, stride = [quadratic_form(Xb, A[k]) - traces[k] for k in range(K)], 1
        while stride <= K:
            for i, s in enumerate(strides):
                if s == stride:
                    for k in _bit_reversal(len(level)):
                        QVb[i] += level[k] * level[k]
            level = [level[2 * j] + level[2 * j + 1] for j in range(len(level) // 2)]
            stride *= 2
        T[D : 2 * D] = QVb - RHSb
        T[2 * D : 3 * D] = T[D : 2 * D] ** 2
        moments.add(T)
    return _qv_summary(moments, range(D))


def riemann_rows_by_products(h, g, N, law, depths, paths, seed) -> list:
    """The Riemann rows by the sums' definition over the whole sample: for
    each depth, S = sum_k (x . c_h(t_k)) (x . dc_g(k)) from the (paths x 2^d)
    products of the sample with the left points and the increments, against
    I = x' A x - tr A."""
    basis = LegendreBasis(N)
    dmax = max(depths)
    points = [Q(k, 2**dmax) for k in range(2**dmax + 1)]
    C_h = cumulative_coeffs(h, basis, points)
    C_g = cumulative_coeffs(g, basis, points)
    B = cumulative_triangle(h, g, basis, [1])[0]
    A = 0.5 * (B + B.T)
    X = sample(law, seed, paths * N).reshape(paths, N)
    I = quadratic_form(X, A) - np.trace(A)
    rows = []
    for d in depths:
        stride = 2 ** (dmax - d)
        ch, cg = C_h[::stride], C_g[::stride]
        S = ((X @ ch[:-1].T) * (X @ (cg[1:] - cg[:-1]).T)).sum(axis=1)
        rows.append({"depth": d, "err": _stats((S - I) ** 2)})
    return rows


def sym_square_by_trial_division(K):
    """f o f with each signature's radicand w_t1 w_t2 w_t3 w_t4 split by
    trial division (``rad_form``), as ``{signature: RadSum}``."""
    R, w = K.R, K.w
    out = {}
    for t in combinations_with_replacement(range(K.N), 4):
        acc = sum(c * R[t[p]][t[q]] * R[t[r]][t[s]] for c, p, q, r, s in _pairings(_mask(t)))
        if acc:
            n, w0 = rad_form(acc, w[t[0]] * w[t[1]] * w[t[2]] * w[t[3]])
            out[tuple(j + 1 for j in t)] = RadSum._of({w0: n}, K.den**2)
    return out


def signature_terms(order: int, pairs) -> dict:
    """``{signature: RadSum}`` from (index tuple, coefficient) pairs, as
    ``SymTensor.terms`` reads: each tuple sorted, repeats summed and zero
    coefficients dropped."""
    out = {}
    for t, c in pairs:
        if len(t) != order:
            raise ValueError(f"signature {t} is not of order {order}")
        t = tuple(sorted(t))
        out[t] = RadSum(c) + out.get(t, 0)
    return {t: c for t, c in out.items() if c}


def independent_by_intersection(sp, b, c) -> bool:
    """P(b = x, c = y) = P(b = x) P(c = y) for every pair of level sets, the
    joint mass summed over the intersection of their atom sets."""
    pb = {v: sum(sp.p[i] for i in idx) for v, idx in b.level_sets().items()}
    pc = {v: sum(sp.p[i] for i in idx) for v, idx in c.level_sets().items()}
    for vb, ib in b.level_sets().items():
        for vc, ic in c.level_sets().items():
            joint = sum(sp.p[i] for i in set(ib) & set(ic))
            if joint != pb[vb] * pc[vc]:
                return False
    return True


def atom_condition_by_intersection(sp, bs) -> bool:
    """Global independence by listing every combination of level sets: each
    meets in a nonempty event whose mass is the product of the marginals."""
    combos = [[]]
    for b in bs:
        combos = [c + [idx] for c in combos for idx in b.level_sets().values()]
    for combo in combos:
        inter = set(range(sp.n))
        prod = Q(1)
        for idx in combo:
            inter &= set(idx)
            prod *= sum(sp.p[i] for i in idx)
        if not inter or prod != sum(sp.p[i] for i in inter):
            return False
    return True


def product_expectation_by_patterns(ps, cdf, ks):
    """E[prod_i r_{k_i} o F] as the sum over the 2^len(ks) sign patterns of
    the product of the signs times the pattern's transport law."""
    patterns = product((1, -1), repeat=len(ks))
    return sum((math.prod(e) * transport_joint_law(ps, cdf, ks, e) for e in patterns), Q(0))
