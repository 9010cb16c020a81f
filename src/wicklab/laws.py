"""Law catalog: exact moment sequences, reciprocal-transform coefficients, samplers.

Each catalog law is described by a closed-form Laplace transform
``phi(t) = E[exp(tX)] = sum m_n t^n / n!``; raw moments are extracted as exact
Taylor coefficients, never by numeric integration.  The reciprocal series
``1/phi(t) = sum a_n t^n / n!`` is obtained from the triangular convolution

    a_0 = 1,    sum_k C(n,k) m_k a_{n-k} = 0   (n >= 1),

which is the identity every downstream polynomial construction rests on.

Convention notes:

* the standard normal uses ``phi(t) = exp(+t^2/2)``; the variant with a
  negative exponent that sometimes appears in tables is inconsistent with the
  Hermite generating function and is not used;
* samplers return the *centered, reduced* law (mean 0, variance 1), because
  the chaos layer assumes standardized coordinates throughout.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Optional, Sequence

import numpy as np

from .exact import Q, as_fraction, frac_str, mat_psd

__all__ = [
    "Law",
    "MomentSequence",
    "InverseLaplaceCoeffs",
    "NoSamplerError",
    "Sampler",
    "moments",
    "standardized_moments",
    "inverse_laplace_coeffs",
    "sample",
    "hankel_matrices",
    "hankel_psd",
    "moments_to_json",
]


class NoSamplerError(RuntimeError):
    """Raised when asked to sample a law that has no sampler (custom moments)."""


@dataclass(frozen=True)
class MomentSequence:
    """Raw moments m_0..m_K as exact rationals, m_0 = 1."""

    m: tuple

    def __post_init__(self):
        m = tuple(as_fraction(x) for x in self.m)
        if not m or m[0] != 1:
            raise ValueError("a moment sequence must start with m_0 = 1")
        object.__setattr__(self, "m", m)

    @property
    def order(self) -> int:
        return len(self.m) - 1

    def __getitem__(self, n: int) -> Fraction:
        if n > self.order:
            raise IndexError(f"moment m_{n} not available (order {self.order})")
        return self.m[n]

    def affine(self, a: Fraction, b: Fraction) -> "MomentSequence":
        """Moments of a*X + b."""
        a, b = as_fraction(a), as_fraction(b)
        out = []
        for n in range(self.order + 1):
            s = Q(0)
            for k in range(n + 1):
                s += math.comb(n, k) * a**k * b ** (n - k) * self.m[k]
            out.append(s)
        return MomentSequence(tuple(out))

    def standardized(self) -> "MomentSequence":
        """Moments of (X - m_1)/sigma; needs m_2 > m_1^2."""
        var = self.m[2] - self.m[1] ** 2 if self.order >= 2 else None
        if var is None or var <= 0:
            raise ValueError("standardization needs a positive variance")
        centered = self.affine(Q(1), -self.m[1])
        # odd standardized moments are rational only when var is a rational
        # square; exact callers must rescale parameters, float callers sample()
        num, den = var.numerator, var.denominator
        rn, rd = math.isqrt(num), math.isqrt(den)
        if rn * rn != num or rd * rd != den:
            raise ValueError(
                "variance is not a rational square; exact standardized moments "
                "would be irrational (use sample() or rescale parameters)"
            )
        s = Q(rn, rd)
        return MomentSequence(tuple(centered.m[n] / s**n for n in range(self.order + 1)))


@dataclass(frozen=True)
class InverseLaplaceCoeffs:
    """Coefficients a_0..a_K of the reciprocal Laplace-transform series."""

    a: tuple

    def __post_init__(self):
        a = tuple(as_fraction(x) for x in self.a)
        if not a or a[0] != 1:
            raise ValueError("reciprocal series must start with a_0 = 1")
        object.__setattr__(self, "a", a)

    @property
    def order(self) -> int:
        return len(self.a) - 1

    def __getitem__(self, n: int) -> Fraction:
        return self.a[n]


@dataclass(frozen=True)
class Law:
    """A probability law from the catalog, or a custom moment sequence."""

    kind: str
    params: tuple = ()
    custom: Optional[MomentSequence] = field(default=None, compare=False)

    # -- constructors --------------------------------------------------------
    @staticmethod
    def normal() -> "Law":
        return Law("normal")

    @staticmethod
    def exponential(lam) -> "Law":
        lam = as_fraction(lam)
        if lam <= 0:
            raise ValueError("exponential rate must be positive")
        return Law("exponential", (lam,))

    @staticmethod
    def gamma(a, b) -> "Law":
        a, b = as_fraction(a), as_fraction(b)
        if a <= 0 or b <= 0:
            raise ValueError("gamma parameters must be positive")
        return Law("gamma", (a, b))

    @staticmethod
    def gamma_combo(alpha, a1, b1, beta, a2, b2) -> "Law":
        ps = tuple(as_fraction(x) for x in (alpha, a1, b1, beta, a2, b2))
        if any(p <= 0 for p in ps):
            raise ValueError("gamma-combination parameters must be positive")
        return Law("gamma_combo", ps)

    @staticmethod
    def poisson(a) -> "Law":
        a = as_fraction(a)
        if a <= 0:
            raise ValueError("poisson intensity must be positive")
        return Law("poisson", (a,))

    @staticmethod
    def binomial(n: int, p) -> "Law":
        p = as_fraction(p)
        if not isinstance(n, int) or n < 1:
            raise ValueError("binomial size must be a positive integer")
        if not (0 < p < 1):
            raise ValueError("binomial probability must lie in (0,1)")
        return Law("binomial", (n, p))

    @staticmethod
    def custom_moments(ms: Sequence) -> "Law":
        return Law("custom", (), MomentSequence(tuple(ms)))

    # -- description ----------------------------------------------------------
    def label(self) -> str:
        if self.kind == "normal":
            return "normal"
        if self.kind == "custom":
            return f"custom[{self.custom.order}]"
        return self.kind + ":" + ",".join(frac_str(Q(p)) for p in self.params)


# ---------------------------------------------------------------------------
# raw moments


def _moments_normal(K: int) -> list:
    # phi(t) = exp(t^2/2): m_{2n} = (2n)!/(2^n n!), odd moments vanish
    out = []
    for n in range(K + 1):
        if n % 2:
            out.append(Q(0))
        else:
            h = n // 2
            out.append(Q(math.factorial(n), 2**h * math.factorial(h)))
    return out


def _moments_gamma(a: Fraction, b: Fraction, K: int) -> list:
    # phi(t) = (b/(b-t))^a: m_n = a(a+1)...(a+n-1) / b^n
    out, rising = [], Q(1)
    for n in range(K + 1):
        out.append(rising / b**n)
        rising *= a + n
    return out


def _moments_poisson(a: Fraction, K: int) -> list:
    # Touchard/Bell recursion m_{n+1} = a * sum_k C(n,k) m_k
    out = [Q(1)]
    for n in range(K):
        out.append(a * sum(math.comb(n, k) * out[k] for k in range(n + 1)))
    return out


def _moments_binomial(N: int, p: Fraction, K: int) -> list:
    q = 1 - p
    weights = [math.comb(N, k) * p**k * q ** (N - k) for k in range(N + 1)]
    return [sum(w * Q(k) ** n for k, w in enumerate(weights)) for n in range(K + 1)]


def moments(law: Law, K: int) -> MomentSequence:
    """Exact raw moments m_0..m_K of the (unstandardized) law."""
    if K < 0:
        raise ValueError("moment order must be nonnegative")
    if law.kind == "normal":
        return MomentSequence(tuple(_moments_normal(K)))
    if law.kind == "exponential":
        (lam,) = law.params
        return MomentSequence(tuple(_moments_gamma(Q(1), lam, K)))
    if law.kind == "gamma":
        a, b = law.params
        return MomentSequence(tuple(_moments_gamma(a, b, K)))
    if law.kind == "gamma_combo":
        alpha, a1, b1, beta, a2, b2 = law.params
        mx = _moments_gamma(a1, b1, K)
        my = _moments_gamma(a2, b2, K)
        out = []
        for n in range(K + 1):
            s = Q(0)
            for k in range(n + 1):
                s += math.comb(n, k) * alpha**k * mx[k] * beta ** (n - k) * my[n - k]
            out.append(s)
        return MomentSequence(tuple(out))
    if law.kind == "poisson":
        (a,) = law.params
        return MomentSequence(tuple(_moments_poisson(a, K)))
    if law.kind == "binomial":
        N, p = law.params
        return MomentSequence(tuple(_moments_binomial(N, p, K)))
    if law.kind == "custom":
        if law.custom.order < K:
            raise ValueError(
                f"custom law supplies moments to order {law.custom.order}, "
                f"but order {K} was requested"
            )
        return MomentSequence(law.custom.m[: K + 1])
    raise ValueError(f"unknown law kind {law.kind!r}")


def standardized_moments(law: Law, K: int) -> MomentSequence:
    """Moments of the centered, reduced law (mean 0, variance 1)."""
    return moments(law, K).standardized()


def inverse_laplace_coeffs(m: MomentSequence, K: int) -> InverseLaplaceCoeffs:
    """Solve the triangular convolution for the reciprocal-series coefficients."""
    if K > m.order:
        raise ValueError(f"need moments to order {K}, have {m.order}")
    a = [Q(1)]
    for n in range(1, K + 1):
        a.append(-sum(math.comb(n, k) * m[k] * a[n - k] for k in range(1, n + 1)))
    return InverseLaplaceCoeffs(tuple(a))


# ---------------------------------------------------------------------------
# Hankel positivity


def hankel_matrices(m: MomentSequence) -> list:
    """The moment Hankel matrix (m_{i+j}) of maximal size fitting the order."""
    h = m.order // 2
    return [[m[i + j] for j in range(h + 1)] for i in range(h + 1)]


def hankel_psd(m: MomentSequence) -> bool:
    return mat_psd(hankel_matrices(m))


# ---------------------------------------------------------------------------
# samplers (centered, reduced)


# Draws per step when a stream fills its result: an integer-valued law holds
# one step's integer draws beside the float result, never a whole draw's.
_FILL_STEP = 2**16

_SAMPLED_KINDS = ("normal", "exponential", "gamma", "gamma_combo", "poisson", "binomial")


class Sampler:
    """One seeded stream of i.i.d. draws from the centered reduced law.

    Successive ``draw`` calls continue the stream, and their results
    concatenate ``==`` to ``sample(law, seed, total)`` however the total is
    split: every law takes its variates from numpy one draw after another
    (gamma_combo its two gammas interleaved), so no draw depends on how many
    were asked for at once.
    """

    def __init__(self, law: Law, seed: int):
        if law.kind not in _SAMPLED_KINDS:
            raise NoSamplerError(f"law kind {law.kind!r} has no sampler")
        if not 0 <= seed < 2**64:
            raise ValueError(f"seed must be an integer in [0, 2**64): {seed}")
        self.law = law
        self._rng = np.random.default_rng([np.uint64(seed), np.uint64(0)])

    def draw(self, count: int) -> np.ndarray:
        """The next ``count`` draws, as one float64 array filled in steps of
        ``_FILL_STEP`` draws and centred and scaled in place."""
        out = np.empty(count)
        for lo in range(0, count, _FILL_STEP):
            self._fill(out[lo : lo + _FILL_STEP])
        return out

    def _fill(self, out: np.ndarray) -> None:
        rng, kind, params, n = self._rng, self.law.kind, self.law.params, len(out)
        if kind == "normal":
            rng.standard_normal(out=out)
        elif kind == "exponential":
            # (X - 1/lam) * lam is Exp(1) - 1 for every rate
            rng.standard_exponential(out=out)
            out -= 1.0
        elif kind == "gamma":
            af = float(params[0])
            rng.standard_gamma(af, out=out)
            out -= af
            out /= math.sqrt(af)
        elif kind == "gamma_combo":
            alpha, a1, b1, beta, a2, b2 = (float(x) for x in params)
            xy = rng.gamma((a1, a2), (1.0 / b1, 1.0 / b2), (n, 2))
            xy *= (alpha, beta)
            np.add(xy[:, 0], xy[:, 1], out=out)
            out -= alpha * a1 / b1 + beta * a2 / b2
            out /= math.sqrt(alpha**2 * a1 / b1**2 + beta**2 * a2 / b2**2)
        elif kind == "poisson":
            af = float(params[0])
            out[:] = rng.poisson(af, n)
            out -= af
            out /= math.sqrt(af)
        else:  # binomial
            N, p = params
            pf = float(p)
            out[:] = rng.binomial(N, pf, n)
            out -= N * pf
            out /= math.sqrt(N * pf * (1 - pf))


def sample(law: Law, seed: int, count: int) -> np.ndarray:
    """Deterministic i.i.d. draws from the centered reduced law: the first
    ``count`` draws of ``Sampler(law, seed)``, a pure function of the seed."""
    return Sampler(law, seed).draw(count)


# ---------------------------------------------------------------------------
# serialization


def moments_to_json(m: MomentSequence) -> list:
    return [frac_str(x) for x in m.m]


def parse_law(spec: str) -> Law:
    """Parse CLI law specs like 'normal', 'exponential:1', 'gamma:2,3'."""
    kind, _, rest = spec.partition(":")
    kind = kind.strip().lower()
    args = [s.strip() for s in rest.split(",")] if rest else []

    def params(*names):
        if len(args) != len(names):
            form = f"{kind}:{','.join(names)}" if names else kind
            raise ValueError(f"law spec {spec!r} needs the parameters {form}")
        return args

    if kind in ("normal", "gauss", "gaussian", "n01"):
        params()
        return Law.normal()
    if kind in ("exponential", "exp"):
        (rate,) = params("RATE")
        return Law.exponential(as_fraction(rate))
    if kind == "gamma":
        a, b = params("A", "B")
        return Law.gamma(as_fraction(a), as_fraction(b))
    if kind in ("gamma_combo", "gammacombo"):
        ps = params("ALPHA", "A1", "B1", "BETA", "A2", "B2")
        return Law.gamma_combo(*(as_fraction(p) for p in ps))
    if kind == "poisson":
        (a,) = params("A")
        return Law.poisson(as_fraction(a))
    if kind == "binomial":
        n, p = params("N", "P")
        return Law.binomial(int(n), as_fraction(p))
    raise ValueError(f"unknown law spec {spec!r}")
