"""Reference values the benchmark checks rssinfo against.

Every formula here is written out again from the mathematics, in a different
arrangement from the package's own closed forms, so a broken closed form in
the package cannot vouch for itself.  Values are in nats.
"""

from __future__ import annotations

import math

from scipy import special

EULER_GAMMA = 0.5772156649015329


def beta_entropy(a: float, b: float) -> float:
    """Shannon entropy of Beta(a, b)."""
    return (
        special.betaln(a, b)
        - (a - 1.0) * special.digamma(a)
        - (b - 1.0) * special.digamma(b)
        + (a + b - 2.0) * special.digamma(a + b)
    )


def beta_renyi(a: float, b: float, alpha: float) -> float:
    """Renyi entropy of order alpha of Beta(a, b)."""
    log_int = special.betaln(alpha * (a - 1.0) + 1.0, alpha * (b - 1.0) + 1.0) - alpha * special.betaln(a, b)
    return log_int / (1.0 - alpha)


def h_uniform_order(n: int, i: int) -> float:
    """Entropy of the i-th of n uniform order statistics, i.e. of Beta(i, n-i+1)."""
    return beta_entropy(i, n - i + 1)


def k_gap(n: int) -> float:
    """Distribution-free Shannon gap H(RSS_n) - H(SRS_n)."""
    return math.fsum(h_uniform_order(n, i) for i in range(1, n + 1))


def kl_component(n: int, i: int) -> float:
    """integral over (0, 1) of -log Beta(i, n-i+1)(u) du = n - 1 + log B(i, n-i+1)."""
    return n - 1.0 + special.betaln(i, n - i + 1)


def d_n(n: int) -> float:
    """Distribution-free K(SRS_n, RSS_n)."""
    return math.fsum(kl_component(n, i) for i in range(1, n + 1))


def eta(a: float) -> float:
    """-(2 / (1 - 2a)) * integral_a^{1-a} u log u du, with eta(1/2) = log 2."""
    d = 1.0 - 2.0 * a
    if abs(d) < 1e-6:
        return math.log(2.0)
    lo, hi = a, 1.0 - a
    # antiderivative of u log u is u^2 log(u) / 2 - u^2 / 4
    prim = lambda u: (0.5 * u * u * math.log(u) if u > 0 else 0.0) - 0.25 * u * u
    return -2.0 / d * (prim(hi) - prim(lo))


# --- one draw from each parent family (params as parsed by rssinfo) ---------


def shannon_one(family: str, params: tuple[float, ...]) -> float:
    if family == "unif":
        return 0.0
    if family == "exp":
        (lam,) = params
        return 1.0 - math.log(lam)
    if family == "norm":
        _, sigma = params
        return 0.5 * math.log(2.0 * math.pi * math.e) + math.log(sigma)
    if family == "weibull":
        k, theta = params
        return EULER_GAMMA * (1.0 - 1.0 / k) + math.log(theta / k) + 1.0
    raise ValueError(family)


def renyi_one(family: str, params: tuple[float, ...], alpha: float) -> float:
    om = 1.0 - alpha
    if family == "unif":
        return 0.0
    if family == "exp":
        (lam,) = params
        return -math.log(lam) - math.log(alpha) / om
    if family == "norm":
        _, sigma = params
        return math.log(sigma) + 0.5 * math.log(2.0 * math.pi) - 0.5 * math.log(alpha) / om
    if family == "weibull":
        # integral of f^alpha = (k/theta)^(alpha-1) Gamma(s) alpha^(-s), s = (alpha(k-1)+1)/k
        k, theta = params
        s = (alpha * (k - 1.0) + 1.0) / k
        return ((alpha - 1.0) * math.log(k / theta) + special.gammaln(s) - s * math.log(alpha)) / om
    raise ValueError(family)


def exp_rss2_renyi(lam: float, alpha: float) -> float:
    """Renyi entropy of a perfect RSS of size 2 from exponential(lam)."""
    om = 1.0 - alpha
    first = -math.log(2.0 * lam) - math.log(alpha) / om  # min of two: exponential(2 lam)
    # f_(2) = 2 lam e^{-lam x} (1 - e^{-lam x}); integral of f^alpha = 2^alpha lam^(alpha-1) B(alpha, alpha+1)
    second = (alpha * math.log(2.0) + (alpha - 1.0) * math.log(lam) + special.betaln(alpha, alpha + 1.0)) / om
    return first + second


def exp_irss2_shannon(lam: float, p12: float) -> float:
    """Shannon entropy of an imperfect RSS of size 2 from exponential(lam)."""
    p11 = 1.0 - p12
    return 2.0 - 2.0 * math.log(2.0 * lam) + 2.0 * eta(p11)
