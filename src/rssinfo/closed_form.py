"""Distribution-free and exponential-family closed forms.

Everything here is exact up to floating point: entropies of uniform order
statistics, the distribution-free Shannon gap k(n) (direct and recursive), the
distribution-free KL constant d_n and its 2 x 2 rows, perfect-RSS Renyi
information on a uniform or exponential parent, the alpha > 1 Renyi gap lower
bound, and the exponential set-size-2 Shannon/Renyi formulas, each read from
the design's 2 x 2 matrix.  At integer arguments
log-gamma is the log of an exact factorial or binomial, and digamma differences
are harmonic sums, psi(m) - psi(k) = sum_{j=k}^{m-1} 1/j, taken with fsum.

The eta helper is defined normatively so that eta(0) = 1/2, which is the sign
making the imperfect-ranking entropy collapse to the perfect-RSS entropy when
ranking is perfect and to the SRS entropy when ranking is random.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .distributions import Exponential
from .errors import InputError, check_alpha, check_count, check_dimension, check_unit
from .order_stats import _log_coeffs, beta_order_log_pdf, log_order_coeff
from .ranking_error import RankingErrorMatrix


def xlogy(x, y):
    """x log y, and 0 where x == 0 unless y is NaN (the rule of scipy.special.xlogy)."""
    x, y = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where((x == 0.0) & ~np.isnan(y), 0.0, x * np.log(y))


def _harmonic(lo: int, hi: int) -> float:
    """sum_{j=lo}^{hi} 1/j = psi(hi + 1) - psi(lo)."""
    return math.fsum(1.0 / j for j in range(lo, hi + 1))


def h_uniform_order(n: int, i: int) -> float:
    """Shannon entropy of the i-th order statistic of n Uniform(0,1) draws:
    log B(i, n-i+1) - (i-1)(psi(i) - psi(n+1)) - (n-i)(psi(n-i+1) - psi(n+1))."""
    return math.fsum((-log_order_coeff(n, i), (i - 1) * _harmonic(i, n), (n - i) * _harmonic(n - i + 1, n)))


def k_direct(n: int) -> float:
    """Distribution-free Shannon gap H(RSS) - H(SRS) for set size n.

    Equals sum_j (n - 2j) log j - n log n - 2 sum_i (i-1) psi(i)
    + n(n-1) psi(n+1), i.e. the sum of the uniform order-statistic entropies.
    With psi(k) = -gamma + H_{k-1} the digamma terms sum to exactly n(n-1)/2.
    """
    check_count("n", n, 1)
    return math.fsum([n * (n - 1) / 2, -n * math.log(n), *((n - 2 * j) * math.log(j) for j in range(2, n))])


def k_recursive(n: int) -> float:
    """Same gap via the recursion k(m+1) = k(m) + m + log Gamma(m+1) - (m+1) log(m+1)."""
    check_count("n", n, 1)
    k = 0.0  # single draw: RSS is SRS
    for m in range(1, n):
        k = k + m + math.lgamma(m + 1) - (m + 1) * math.log(m + 1)
    return k


def d_n(n: int) -> float:
    """Distribution-free KL divergence K(SRS, RSS) = -sum log(i*C(n,i)) + n(n-1);
    i C(n, i) is the order-statistic coefficient n! / ((i-1)! (n-i)!)."""
    check_count("n", n, 1)
    return math.fsum([n * (n - 1), *(-log_c for log_c in _log_coeffs(n).tolist())])


# B_2k / (2k (2k-1)), the coefficients of Stirling's series for log Gamma
_STIRLING = ((1, 12), (-1, 360), (1, 1260), (-1, 1680), (1, 1188), (-691, 360360), (1, 156))


@functools.cache
def _decimal_series():
    """A 24-digit context, Stirling's coefficients in it, last first, and log(2 pi) / 2."""
    from decimal import Context  # imported on first use, as only _rss_lgamma_c needs it

    ctx = Context(prec=24)
    return ctx, [ctx.divide(p, q) for p, q in reversed(_STIRLING)], ctx.create_decimal("0.918938533204672741780329736")


def _rss_lgamma_c(n: int, alpha: float, tail: float) -> list[float]:
    """n log Gamma(c), c = alpha (n-1) + 1 + tail, as two floats, in 24-digit
    decimals: Stirling's series at c + m >= 20, less log c (c+1) ... (c+m-1).
    A log is one Newton step, y + x exp(-y) - 1, from the float log y.  The
    sum is right to 23 digits (6e-19 at n <= 50, alpha <= 10, where it nears
    5e4): 7 more than the float it enters, far inside the oracle's 5e-14."""
    from decimal import Decimal, localcontext

    ctx, series_coeffs, half_log_2pi = _decimal_series()
    with localcontext(ctx):

        def log(x):
            y = Decimal(math.log(float(x)))
            return y + x * (-y).exp() - 1

        c, prod = Decimal(alpha) * (n - 1) + 1 + Decimal(tail), Decimal(1)
        while c < 20:
            prod, c = prod * c, c + 1
        inv, series = 1 / c, Decimal(0)
        for coeff in series_coeffs:
            series = series * inv * inv + coeff
        total = n * ((c - Decimal("0.5")) * log(c) - c + half_log_2pi + series * inv - log(prod))
        hi = float(total)
        return [hi, float(total - Decimal(hi))]


def rss_renyi(n: int, alpha: float, tail: float) -> float | None:
    """Renyi information of order alpha of perfect RSS(n) whose rank-i
    u-space integrand is c_i^alpha u^(alpha(i-1)) (1-u)^(alpha(n-i) + tail - 1):
    sum_i [alpha log c_i + log B(alpha(i-1) + 1, alpha(n-i) + tail)] / (1 - alpha).
    ``tail`` is 1 for the standard uniform parent and alpha for the standard
    exponential, whose f(F^-1(u))^(alpha-1) is (1-u)^(alpha-1).  None where
    the float evaluation overflows: a log Gamma or the sum, near alpha = 1e305."""
    check_count("n", n, 1)
    check_alpha(alpha)
    terms = []
    try:
        for i, log_c in enumerate(_log_coeffs(n).tolist()):
            a, b = alpha * i + 1.0, alpha * (n - 1 - i) + tail
            terms += [alpha * log_c, math.lgamma(a), math.lgamma(b)]
        # every rank's a + b is the same c: its log Gamma in floats would carry one rounding n times
        return math.fsum(terms + [-v for v in _rss_lgamma_c(n, alpha, tail)]) / (1.0 - alpha)
    except OverflowError:
        return None


def psi_bound(alpha: float, n: int) -> float:
    """Lower bound on the alpha > 1 Renyi gap H_a(RSS) - H_a(SRS).

    Built from the modes of the Beta(i, n-i+1) kernels, with 0**0 = 1 at the
    rank extremes.  Lies in [n*a/(1-a) log n, 0) and is nonincreasing in n.
    """
    check_alpha(alpha, 1)
    check_count("n", n, 2)
    # the log Beta(i, n-i+1) density at its mode (i-1)/(n-1)
    terms = [beta_order_log_pdf(n, i, (i - 1) / (n - 1)) for i in range(1, n + 1)]
    return float(alpha / (1.0 - alpha) * math.fsum(terms))


def eta(a: float) -> float:
    """eta(a) = 1/2 + [a^2 log a - (1-a)^2 log(1-a)] / (1-2a), eta(1/2) = log 2.

    Equals -(2/(1-2a)) * int_a^{1-a} u log u du; symmetric about a = 1/2.
    """
    check_unit("eta argument", a)
    d = 1.0 - 2.0 * a
    if abs(d) < 0.5:
        # near a = 1/2 the closed form below cancels; its series there,
        # log 2 - sum_k d^(2k) / ((2k+1) 2k (2k-1)), is converged by k = 30 for |d| < 1/2
        return math.log(2.0) - math.fsum(d ** (2 * k) / ((2 * k + 1) * 2 * k * (2 * k - 1)) for k in range(1, 30))
    num = xlogy(a * a, a) - xlogy((1.0 - a) ** 2, 1.0 - a)
    return float(0.5 + num / d)


def kl_row_2x2(a: float) -> float:
    """-log 2 - int_0^1 log(a + (1-2a) u) du, a row's share of K(SRS || P)
    for a 2 x 2 P with that diagonal entry: 1 - log 2 - [(1-a) log(1-a) -
    a log a] / (1-2a), 0 at a = 1/2 and 1 - log 2 at a = 0 or 1."""
    check_unit("2x2 row entry", a)
    d = 1.0 - 2.0 * a
    if abs(d) < 0.5:
        # near a = 1/2 the closed form below cancels; its series there,
        # sum_k d^(2k) / (2k (2k+1)), is converged by k = 30 for |d| < 1/2
        return math.fsum(d ** (2 * k) / (2 * k * (2 * k + 1)) for k in range(1, 30))
    return float(1.0 - math.log(2.0) - (xlogy(1.0 - a, 1.0 - a) - xlogy(a, a)) / d)


def exp_shannon(design: RankingErrorMatrix, lam: float) -> float:
    """Shannon entropy of an exponential(lam) sample of set size 2 under the
    design's 2x2 matrix, in the paper's printed form its name picks: SRS's for
    the uniform matrix, perfect RSS's for the identity, and otherwise the eta
    form, where double stochasticity makes p22 = p11, so (p22 - p11) vanishes.
    """
    Exponential(lam)  # checks the rate
    check_dimension(design.n, 2)
    if design.name == "uniform":
        return 2.0 - 2.0 * math.log(lam)
    if design.name == "identity":
        return 3.0 - 2.0 * math.log(2.0 * lam)
    p11, p22 = design.entries.diagonal().tolist()
    return 2.0 - 2.0 * math.log(2.0 * lam) + (p22 - p11) + eta(p11) + eta(p22)


def exp_renyi(design: RankingErrorMatrix, lam: float, alpha: float) -> float | None:
    """Renyi information of an exponential(lam) sample of set size 2 in the printed form its 2x2
    matrix's name picks: SRS's for the uniform matrix, perfect RSS's order-1 plus order-2 pieces
    for the identity (None where the order-2 log Gamma overflows, alpha near 1e306); no other matrix has one."""
    Exponential(lam)  # checks the rate
    check_alpha(alpha)
    check_dimension(design.n, 2)
    om = 1.0 - alpha
    if design.name == "uniform":
        return -2.0 * math.log(lam) - 2.0 / om * math.log(alpha)
    if design.name != "identity":
        raise InputError("the printed Renyi forms are SRS's and perfect RSS's: the uniform matrix or the identity")
    order1 = -math.log(lam) - math.log(2.0) - math.log(alpha) / om
    try:
        log_beta = math.lgamma(alpha + 1.0) + math.lgamma(alpha) - math.lgamma(2.0 * alpha + 1.0)
    except OverflowError:
        return None
    return order1 + (-math.log(lam) + alpha / om * math.log(2.0) + log_beta / om)
