"""Densities of order statistics and judged (imperfectly ranked) order
statistics, all built on one kernel, ``judged_log_weight(rows)``: for each
row p of a ranking-error matrix (one row, or a stack of k rows evaluated
together) it gives, from the parent's cdf F and survival S,

    log sum_r p_r n! / ((r-1)! (n-r)!) F^(r-1) S^(n-r),

the log density of the judged unit relative to the parent.  Each call takes
log F and log S once each, and only if a rank reads it (rank 1 reads S alone,
rank n F alone), and builds the Beta log kernel (r-1) log F + (n-r) log S of
every rank the rows use.  A row is read by its least entry f.  A uniform row
weighs exactly 0; uniform rows alone give a read-only broadcast 0, which
allocates nothing.  As the n Beta densities B_r sum to n, f > 0 gives a sum of
positive terms, each B_r at most n: log(n f + sum_r (p_r - f) B_r), one
matmul, or where each row reads one rank (a blend, a 2x2) that rank's B_r
picked by index and scaled, which is the matmul bit for bit and calls no BLAS.
With f = 0 a one-hot row adds its coefficient to the kernel, the others take a
max-shifted log-sum-exp, so large n stays finite.  Coefficients are the logs of
exact integers, tabled per n under ``ranking_error.memo``'s bound; 0**0 = 1 at
the rank extremes, whose zero exponent is dropped when the rows are analysed.
``judged_pdf`` takes a matrix and a rank, and reads the set size from the matrix.

The analysis reads neither the parent law nor alpha, so it is memoized on the
values of the float64 rows by ``ranking_error.memo``: every alpha and every
parent of a scan cell reads one kernel.  The memo keys a copy of the rows, so
changing an array after a call never reaches its kernel.
"""

from __future__ import annotations

import math

import numpy as np

from .distributions import Distribution, Uniform
from .errors import check_count, check_rank
from .ranking_error import RankingErrorMatrix, identity_row, memo


@memo(lambda n: 8 * n)
def _log_coeffs(n: int) -> np.ndarray:
    """log n! / ((i-1)! (n-i)!) for i = 1..n, read-only: each the log of the
    exact integer c = n C(n-1, i-1), stepped from c = n by exact integer
    division, so the log is its only rounding."""
    table, c = np.empty(n), n
    for r in range(n):
        table[r], c = math.log(c), c * (n - 1 - r) // (r + 1)
    return table


def log_order_coeff(n: int, i: int) -> float:
    """log of n! / ((i-1)! (n-i)!) = -log B(i, n-i+1)."""
    check_count("set size", n, 1)
    check_rank(n, i)
    return float(_log_coeffs(n)[i - 1])


def judged_log_weight(rows):
    """Analyse rows of a ranking-error matrix once; return the function
    (F, S) -> log weight.  ``rows`` is one row, giving F's shape, or a stack
    of k rows, giving (k,) + F's shape.  Taking the cdf and the survival
    separately keeps the upper tail, where F rounds to 1, exact."""
    return _kernel(np.asarray(rows, dtype=float))


@memo()
def _kernel(rows):
    """``judged_log_weight`` of the float64 ``rows``."""
    stack = np.atleast_2d(rows)
    k, n = stack.shape
    floor = stack.min(axis=1, keepdims=True)
    needs = stack != floor  # the ranks each row reads: none for a uniform row, whose weight is exactly 0
    kind = np.minimum(needs.sum(axis=1), 2) + 3 * (floor[:, 0] > 0.0)  # 1 one-hot, 2 mixed, 3 uniform, 4-5 floored
    one_hot, mixed, floored = (kind == 1).nonzero()[0], (kind == 2).nonzero()[0], (kind > 3).nonzero()[0]
    ranks = needs.any(axis=0).nonzero()[0]  # the kernel's rows: every rank a row needs
    p, log_c = stack[:, ranks], _log_coeffs(n)[ranks, None]  # by kernel row
    # the Beta log kernel r log F + (n-1-r) log S of 0-based rank r, without rank 1's F term or rank n's S term:
    # kernel rows [0, lo) read S alone, [lo, hi) both and [hi, len) F alone
    r = ranks.tolist()
    lo, hi = int(r[:1] == [0]), len(r) - int(r[-1:] == [n - 1])
    a, b = np.array(r[lo:], dtype=float)[:, None], n - 1.0 - np.array(r[:hi], dtype=float)[:, None]
    parts = []  # (rows, their log weight from the kernel)
    if mixed.size:
        with np.errstate(divide="ignore"):
            log_pc = np.log(p[mixed])[:, :, None] + log_c  # log p_r + coefficient

        def log_sum_exp(beta):  # shifted by each point's finite max, so large n stays finite
            terms = log_pc + beta
            top = terms.max(axis=1)
            top = np.where(np.isfinite(top), top, 0.0)
            return top + np.log(np.exp(terms - top[:, None]).sum(axis=1))

        parts.append((mixed, log_sum_exp))
    if floored.size:  # n f + sum_r (p_r - f) B_r: each Beta density B_r is at most n
        f = floor[floored]
        Q, nf = p[floored] - f, n * f
        if (kind[floored] == 4).all():  # one rank a row: its B_r picked by index and scaled, bit for bit the matmul
            at, q = Q.argmax(axis=1), Q.max(axis=1, keepdims=True)
            pick = slice(None) if len(r) == 1 or at.tolist() == list(range(len(r))) else at
            parts.append((floored, lambda beta: np.log(q * np.exp(beta + log_c)[pick] + nf)))
        else:
            parts.append((floored, lambda beta: np.log(np.matmul(Q, np.exp(beta + log_c)) + nf)))
    if one_hot.size:  # the kernel plus each row's coefficient, in place on a view of it: so it comes last
        true = p[one_hot].argmax(axis=1)  # the kernel row of each one's true rank
        hot, hot_c = slice(None) if true.tolist() == list(range(len(r))) else true, log_c[true]
        parts.append((one_hot, lambda beta: np.add(beta[hot], hot_c, out=beta[hot])))

    def log_weight(F, S):
        F, S = np.asarray(F, dtype=float), np.asarray(S, dtype=float)
        if F.shape != S.shape:
            F, S = np.broadcast_arrays(F, S)
        shape = rows.shape[:-1] + F.shape
        if not parts:  # uniform rows alone
            return np.broadcast_to(0.0, shape)
        beta = np.empty((ranks.size, F.size))
        with np.errstate(divide="ignore", invalid="ignore"):
            if a.size:
                np.multiply(a, np.log(F).reshape(-1), out=beta[lo:])
            if b.size:
                log_S = np.log(S).reshape(-1)
                if lo:
                    np.multiply(b[0], log_S, out=beta[0])
                if hi > lo:
                    beta[lo:hi] += b[lo:] * log_S
            values = [(idx, fn(beta)) for idx, fn in parts]
        if len(values) == 1 and len(values[0][0]) == k:
            return values[0][1].reshape(shape)
        out = np.zeros((k, F.size))  # uniform rows stay 0
        for idx, v in values:
            out[idx] = v
        return out.reshape(shape)

    return log_weight


def judged_log_pdf(dist: Distribution, rows):
    """x -> log density of the unit judged by ``rows`` (one row, or a stack
    of k giving (k,) + x's shape): the kernel at the parent's cdf and
    survival plus its log density, each evaluated once (a uniform row's is 0)."""
    log_weight = judged_log_weight(rows)
    return lambda x: log_weight(dist.cdf(x), dist.survival(x)) + dist.log_pdf(x)


def beta_order_pdf(n: int, i: int, u):
    """Beta(i, n-i+1) density, the law of the i-th of n uniform order stats."""
    return np.exp(beta_order_log_pdf(n, i, u))


def beta_order_log_pdf(n: int, i: int, u):
    """log Beta(i, n-i+1) density: log u and log(1-u) taken once each, and only
    with a nonzero exponent, so 0 log 0 = 0 at u = 0 (i = 1) and u = 1 (i = n)."""
    c = log_order_coeff(n, i)
    u = np.asarray(u, dtype=float)
    with np.errstate(divide="ignore"):
        log_pdf = c + (i - 1) * np.log(u) if i > 1 else np.full(u.shape, c)
        if i < n:
            log_pdf = log_pdf + (n - i) * np.log(1.0 - u)
    return log_pdf


def order_stat_pdf(dist: Distribution, n: int, i: int, x):
    """Density of the i-th order statistic of n iid draws from ``dist``."""
    return np.exp(order_stat_log_pdf(dist, n, i, x))


def order_stat_log_pdf(dist: Distribution, n: int, i: int, x):
    """Its log: the judged density on row i of the identity, where ``mc_oracle.sample_order_stat`` draws."""
    return judged_log_pdf(dist, identity_row(n, i))(x)


def judged_pdf(dist: Distribution, P: RankingErrorMatrix, i: int, x):
    """Density of the unit judged to have rank i: the p[i, r] mixture of the
    true order-statistic densities."""
    return np.exp(judged_log_pdf(dist, P.row(i))(x))


def judged_beta_mixture_pdf(P: RankingErrorMatrix, i: int, u):
    """``judged_pdf`` on the uniform law: sum_r p[i, r] Beta(r, n-r+1)(u) on [0, 1], 0 outside."""
    return judged_pdf(Uniform(), P, i, u)
