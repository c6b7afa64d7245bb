import math
from unittest import mock

import numpy as np
import pytest
from scipy import special, stats

import pins
from rssinfo import closed_form, mc_oracle, order_stats
from rssinfo import ranking_error as re
from rssinfo.distributions import Exponential
from rssinfo.errors import InputError
from rssinfo.order_stats import (
    beta_order_log_pdf,
    beta_order_pdf,
    judged_beta_mixture_pdf,
    judged_log_weight,
    judged_pdf,
    log_order_coeff,
    order_stat_log_pdf,
    order_stat_pdf,
)
from rssinfo.quadrature import integrate, integrate_support


def test_log_order_coeff_known_values():
    # n! / ((i-1)! (n-i)!)
    assert abs(log_order_coeff(2, 1) - math.log(2)) < 1e-12
    assert abs(log_order_coeff(5, 3) - math.log(30)) < 1e-12
    assert abs(log_order_coeff(1, 1) - 0.0) < 1e-12


def test_order_coeff_large_n_stays_finite():
    assert math.isfinite(log_order_coeff(500, 250))


def test_beta_kernel_endpoint_convention():
    # 0**0 = 1 at the rank extremes: densities finite at u = 0 and u = 1
    assert beta_order_pdf(4, 1, 0.0) == pytest.approx(4.0)
    assert beta_order_pdf(4, 4, 1.0) == pytest.approx(4.0)
    assert beta_order_pdf(4, 2, 0.0) == 0.0


def test_beta_kernel_normalizes_and_logs_match():
    u = np.linspace(1e-6, 1 - 1e-6, 101)
    for n, i in [(2, 1), (3, 2), (5, 5), (7, 3)]:
        r = integrate(lambda v, n=n, i=i: beta_order_pdf(n, i, v), 0.0, 1.0)
        assert abs(r.value - 1.0) < 1e-9
        np.testing.assert_allclose(
            np.exp(beta_order_log_pdf(n, i, u)), beta_order_pdf(n, i, u), rtol=1e-12
        )


def test_beta_mode_location():
    # argmax of Beta(i, n-i+1) sits at (i-1)/(n-1) for n >= 2
    u = np.linspace(0.0, 1.0, 2001)
    for n, i in [(3, 2), (5, 2), (5, 4), (8, 5)]:
        argmax = u[np.argmax(beta_order_pdf(n, i, u))]
        assert abs(argmax - (i - 1) / (n - 1)) <= 1.0 / 2000.0 + 1e-12


def test_uniform_mixture_identity(families, interior_u):
    # (1/n) sum_i f_(i) = f pointwise
    for dist in families:
        x = dist.quantile(np.linspace(0.02, 0.98, 25))
        for n in [2, 4, 6]:
            total = sum(order_stat_pdf(dist, n, i, x) for i in range(1, n + 1))
            np.testing.assert_allclose(total / n, dist.pdf(x), rtol=0, atol=1e-10)


def test_judged_mixture_identity(families):
    # double stochasticity: (1/n) sum_i f_[i] = f for any valid P
    P = re.blend(4, 0.4)
    for dist in families:
        x = dist.quantile(np.linspace(0.05, 0.95, 19))
        total = sum(judged_pdf(dist, P, i, x) for i in range(1, 5))
        np.testing.assert_allclose(total / 4.0, dist.pdf(x), rtol=0, atol=1e-10)


def test_order_stat_density_normalizes():
    dist = Exponential(1.0)
    for n, i in [(2, 1), (3, 2), (5, 5)]:
        r = integrate_support(
            lambda x, n=n, i=i: order_stat_pdf(dist, n, i, x),
            dist.support,
        )
        assert abs(r.value - 1.0) < 1e-8


def test_known_exponential_order_stat_values():
    dist = Exponential(1.0)
    # min of two Exp(1) is Exp(2): density 2 at the origin
    assert order_stat_pdf(dist, 2, 1, 0.0) == pytest.approx(2.0)
    # middle of three at x = 1: 6 e^-1 (1 - e^-1) e^-1
    expected = 6.0 * math.exp(-1.0) * (1.0 - math.exp(-1.0)) * math.exp(-1.0)
    assert order_stat_pdf(dist, 3, 2, 1.0) == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(0.5133, abs=5e-4)


def test_order_stat_log_pdf_outside_support():
    dist = Exponential(1.0)
    assert order_stat_log_pdf(dist, 3, 2, -1.0) == -np.inf


def test_judged_pdf_limits():
    dist = Exponential(1.0)
    x = np.linspace(0.1, 4.0, 17)
    for n in (2, 5, 8):
        for i in range(1, n + 1):
            # identity matrix: judged = true order statistic, through the same kernel
            ident = judged_pdf(dist, re.identity(n), i, x)
            assert np.array_equal(ident, order_stat_pdf(dist, n, i, x))
            # uniform matrix: judged = parent, whose log density is used as is
            rand = judged_pdf(dist, re.uniform(n), i, x)
            assert np.array_equal(rand, np.exp(dist.log_pdf(x)))
            np.testing.assert_allclose(rand, dist.pdf(x), rtol=0, atol=1e-12)


def test_judged_beta_mixture_matches_x_space():
    dist = Exponential(1.3)
    P = re.blend(3, 0.5)
    u = np.linspace(0.05, 0.95, 19)
    x = dist.quantile(u)
    for i in range(1, 4):
        mixture = judged_beta_mixture_pdf(P, i, u)
        np.testing.assert_allclose(mixture * dist.pdf(x), judged_pdf(dist, P, i, x), rtol=1e-10)
        reference = sum(P.row(i)[r - 1] * stats.beta.pdf(u, r, 3 - r + 1) for r in range(1, 4))
        np.testing.assert_allclose(mixture, reference, rtol=1e-12)


def test_judged_beta_mixture_vanishes_outside_the_unit_interval():
    # the polynomial read off [0, 1] once gave 2.315 at u = -0.1 and NaN at u = 1.1
    P = re.blend(3, 0.5)
    outside = np.array([-np.inf, -0.1, -1e-300, 1.0 + 2**-52, 1.1, np.inf])
    for i in range(1, 4):
        assert np.array_equal(judged_beta_mixture_pdf(P, i, outside), np.zeros(outside.size)), i
        assert judged_beta_mixture_pdf(P, i, -0.1) == 0.0 == judged_beta_mixture_pdf(P, i, 1.1)


def test_judged_log_weight_large_n_tails_stay_finite():
    P = re.blend(50, 0.5)
    u = np.array([1e-9, 1.0 - 1e-9])
    stacked = judged_log_weight(P.entries)(u, 1.0 - u)
    assert stacked.shape == (50, 2)
    for i in (1, 2, 25, 49, 50):
        reference = sum(P.row(i)[r - 1] * stats.beta.pdf(u, r, 50 - r + 1) for r in range(1, 51))
        for lw in (judged_log_weight(P.row(i))(u, 1.0 - u), stacked[i - 1]):
            assert np.all(np.isfinite(lw)), (i, lw)
            np.testing.assert_allclose(lw, np.log(reference), rtol=1e-12)


def test_rank_validation():
    dist = Exponential(1.0)
    with pytest.raises(ValueError):
        order_stat_pdf(dist, 3, 0, 0.5)
    with pytest.raises(ValueError):
        order_stat_pdf(dist, 3, 4, 0.5)
    with pytest.raises(ValueError):
        beta_order_pdf(0, 1, 0.5)
    with pytest.raises(ValueError):
        judged_pdf(dist, re.identity(2), 3, 0.5)


@pytest.mark.parametrize("n, i", pins.IDENTITY_ROWS)
def test_identity_row_keeps_the_bits_of_the_matrix_row(n, i):
    assert re.identity_row(n, i).tobytes() == re.blend(n, 1.0).row(i).tobytes()
    assert pins.CASES["identity_row"][f"{n}-{i}"]() == pins.stored("identity_row", f"{n}-{i}")


def test_order_statistics_build_no_matrix_above_the_blend_memo(monkeypatch):
    def refuse(self):
        raise AssertionError("an n x n matrix was built")

    monkeypatch.setattr(re.RankingErrorMatrix, "__post_init__", refuse)
    x = np.linspace(0.1, 3.0, 15)
    assert np.all(order_stat_pdf(Exponential(1.0), 300, 150, x) > 0.0)
    assert mc_oracle.sample_order_stat(Exponential(1.0), 300, 150, np.random.default_rng(0), size=4).shape == (4,)
    for bad in ((0, 1), (3, 0), (3, 4), (3, 1.5)):
        with pytest.raises(InputError):
            re.identity_row(*bad)


def test_judged_log_weight_stack_matches_rows():
    # uniform, one-hot, floored and zero-floor mixed rows in one stack give,
    # row for row, exactly what each row gives alone
    n = 4
    mixed = [0.0, 0.3, 0.7, 0.0]
    rows = np.vstack([np.full(n, 1.0 / n), np.eye(n)[2], re.blend(n, 0.3).entries[:2], np.eye(n)[0], mixed])
    u = np.array([1e-9, 0.3, 0.7, 1.0 - 1e-9])
    stacked = judged_log_weight(rows)(u, 1.0 - u)
    assert stacked.shape == (len(rows), u.size)
    assert np.all(stacked[0] == 0.0)
    for row, lw in zip(rows, stacked):
        np.testing.assert_array_equal(lw, judged_log_weight(row)(u, 1.0 - u))
    # uniform rows alone weigh exactly 0, as a read-only broadcast of the stack's shape
    zero = judged_log_weight(np.full((2, n), 1.0 / n))(u, 1.0 - u)
    assert zero.shape == (2, u.size) and not zero.any() and not zero.flags.writeable
    # a scalar survival broadcasts against the cdf's grid
    half = judged_log_weight(rows)(u, 0.5)
    np.testing.assert_array_equal(half, judged_log_weight(rows)(u, np.full_like(u, 0.5)))


def _dense_reference(rows, B):
    """log(n f + (p - f) . B) of each row p with least entry f, by an explicit dense np.matmul
    over every rank; B holds each rank's Beta density exp(beta + log c) at the levels."""
    rows = np.atleast_2d(rows)
    f = rows.min(axis=1, keepdims=True)
    return np.log(np.matmul(rows - f, B) + rows.shape[1] * f)


def _beta_densities(n, F, S):
    """exp(beta + log c) of every rank: the identity's kernel adds each coefficient to the same Beta log kernel."""
    return np.exp(judged_log_weight(np.eye(n))(F, S))


FLOORED_ONE_RANK = {
    **{f"blend-{n}": (lambda n=n: re.blend(n, 0.3).entries) for n in (2, 3, 8, 50, 65)},
    # the scan's distinct rows of three blends: each rank's row read three times, picked by index
    **{f"blends-{n}": (lambda n=n: np.vstack([re.blend(n, w).entries for w in (0.75, 0.5, 0.25)])) for n in (3, 8, 50)},
    "2x2": lambda: re.two_by_two(0.3).entries,
}


@pytest.mark.parametrize("case", list(FLOORED_ONE_RANK))
def test_floored_rows_reading_one_rank_pick_it_bit_for_bit_as_the_matmul(case):
    # each such row has one non-zero term, so picking its rank's Beta density and scaling it is
    # the dense matmul bit for bit, with no BLAS call: on the first panel set's levels, and on a
    # Monte Carlo block whole (up to n = 8) and one row at a time, as the oracle reads it (ranks
    # 1, n // 2 + 1 and n: the S-only, two-sided and F-only kernel rows)
    from rssinfo import quadrature as Q

    rows = FLOORED_ONE_RANK[case]()
    n = rows.shape[1]
    panels = Q._fold(Q._nodes((0.0, *Q._BREAKS, Q._T))[1])[:2]
    u = np.random.default_rng(2024).random(mc_oracle._BLOCK)
    block = (u, 1.0 - u)
    B_panels, B_block = _beta_densities(n, *panels), _beta_densities(n, *block)
    checks = [(rows, panels, B_panels)] + [(rows[i], block, B_block) for i in (0, n // 2, n - 1)]
    if n <= 8:
        checks.append((rows, block, B_block))
    for part, (F, S), B in checks:
        expected = _dense_reference(part, B)
        with mock.patch.object(np, "matmul", wraps=np.matmul) as matmul:
            got = order_stats._kernel.__wrapped__(np.asarray(part, dtype=float))(F, S)
        assert not matmul.called, case
        assert got.tobytes() == expected.reshape(got.shape).tobytes(), case


def test_floored_rows_reading_several_ranks_keep_the_matmul():
    P = re.RankingErrorMatrix(np.array([[0.5, 0.3, 0.2], [0.3, 0.4, 0.3], [0.2, 0.3, 0.5]]))
    u = np.random.default_rng(7).random(1000)
    with mock.patch.object(np, "matmul", wraps=np.matmul) as matmul:
        got = order_stats._kernel.__wrapped__(P.entries)(u, 1.0 - u)
    assert matmul.call_count == 1
    assert got.tobytes() == _dense_reference(P.entries, _beta_densities(3, u, 1.0 - u)).tobytes()


KERNEL_U = np.array([0.0, 5e-324, 1e-300, 0.5, 1.0 - 2.0**-53, 1.0])

MEMO_ROWS = {
    "one-hot": np.eye(4)[1],
    "mixed": np.array([0.0, 0.3, 0.7, 0.0]),
    "floored": re.blend(4, 0.3).row(2),
    "uniform": np.full(4, 0.25),
}


def _fresh_log_weight(rows):
    """The kernel of ``rows`` built now, past the memo."""
    return order_stats._kernel.__wrapped__(np.asarray(rows, dtype=float))


@pytest.mark.parametrize("kind", [*MEMO_ROWS, "stacked"])
def test_memoized_kernel_is_bitwise_a_fresh_one(kind):
    rows = np.vstack(list(MEMO_ROWS.values())) if kind == "stacked" else MEMO_ROWS[kind]
    u, S = KERNEL_U, 1.0 - KERNEL_U
    order_stats._kernel.cache_clear()
    memo = judged_log_weight(rows)
    first = memo(u, S)
    memo(np.array([0.25, 0.75]), np.array([0.75, 0.25]))  # no call leaves a trace in the kernel
    assert judged_log_weight(rows.copy()) is memo  # equal rows share one analysis
    assert order_stats._kernel.cache_info()[:2] == (1, 1)  # hits, misses
    for again in (memo(u, S), _fresh_log_weight(rows)(u, S)):
        assert again.shape == first.shape and again.tobytes() == first.tobytes()


def test_kernel_memo_keeps_a_copy_of_its_rows():
    rows = MEMO_ROWS["mixed"].copy()
    u, S = KERNEL_U, 1.0 - KERNEL_U
    order_stats._kernel.cache_clear()
    log_weight = judged_log_weight(rows)
    before = log_weight(u, S)
    rows[1:3] = rows[2:0:-1]  # the caller's array changes after the call
    assert log_weight(u, S).tobytes() == before.tobytes()
    changed = judged_log_weight(rows)
    assert changed is not log_weight and order_stats._kernel.cache_info().misses == 2
    assert changed(u, S).tobytes() == _fresh_log_weight(rows)(u, S).tobytes()
    assert not np.array_equal(changed(u, S), before)


def _beta_mixture_log_pdf(row, u):
    """log sum_r p_r Beta(r, n-r+1)(u), summed in logs from scipy's Beta
    log densities so that tiny densities do not underflow."""
    n = len(row)
    with np.errstate(divide="ignore"):
        terms = [np.log(row[r]) + stats.beta.logpdf(u, r + 1, n - r) for r in np.flatnonzero(row)]
        return special.logsumexp(terms, axis=0)


def _assert_log_density(value, reference):
    assert not np.any(np.isnan(value))
    # -inf exactly where the density is 0 (a rank above 1 at u = 0, below n at
    # u = 1); atol because a log density of 0 carries no relative precision
    np.testing.assert_allclose(value, reference, rtol=1e-12, atol=1e-13)


@pytest.mark.parametrize("n", [1, 2, 5, 50])
def test_kernel_endpoints_match_scipy_beta_mixtures(n):
    # log F and log S are taken once per call, so at F = 0 or S = 0 the kernel
    # must still give 0 log 0 = 0 for the zero exponents of ranks 1 and n
    u, S = KERNEL_U, 1.0 - KERNEL_U
    rows = [np.eye(n)[r] for r in sorted({0, n // 2, n - 1})] + [np.full(n, 1.0 / n)]
    if n > 1:
        ends = np.zeros(n)
        ends[[0, -1]] = 0.3, 0.7  # mixes both zero-exponent ranks
        rows += [ends, re.blend(n, 0.5).row(n // 2 + 1)]
    for row in rows:
        _assert_log_density(judged_log_weight(row)(u, S), _beta_mixture_log_pdf(row, u))
    for stack in (rows, rows[:-1]):  # without the blend row, mixed rows skip some kernel ranks
        stacked = judged_log_weight(np.vstack(stack))(u, S)
        assert stacked.shape == (len(stack), u.size)
        for row, lw in zip(stack, stacked):
            _assert_log_density(lw, _beta_mixture_log_pdf(row, u))
    for i in sorted({i for i in (1, 2, n // 2 + 1, n - 1, n) if 1 <= i <= n}):
        _assert_log_density(beta_order_log_pdf(n, i, u), stats.beta.logpdf(u, i, n - i + 1))


def _oracle_matrices():
    """The ranking-error matrices of the kernel oracle: a 2x2, blends up to
    n = 600, a dense one with all entries distinct, and a tridiagonal one,
    whose rows have a zero floor."""
    yield "p12=0.3", re.two_by_two(0.3).entries
    for n in (8, 50, 200, 600):
        yield f"blend n={n}", re.blend(n, 0.5).entries
    dense = np.array([[12, 37, 40, 11], [33, 3, 23, 41], [45, 44, 6, 5], [10, 16, 31, 43]]) / 100.0
    assert np.unique(dense).size == dense.size
    yield "dense", dense
    yield "tridiagonal", 0.6 * np.eye(5) + 0.2 * (np.eye(5, k=1) + np.eye(5, k=-1)) + 0.2 * np.diag([1, 0, 0, 0, 1])


def test_kernel_matches_a_40_digit_oracle():
    mp = pytest.importorskip("mpmath")
    # u = 1 - 0.7 makes 1 - u a float too, so F + S = 1 holds exactly and
    # the kernel, not the rounding of S, is what is measured
    us = (1e-300, 1e-30, 1.0 - 0.7, 0.5)
    worst = []
    with mp.workdps(40):
        for name, P in _oracle_matrices():
            n = P.shape[1]
            coeff = [n * mp.binomial(n - 1, r) for r in range(n)]
            rows = range(n) if n <= 8 else sorted({0, 1, n // 3, n // 2, n - 1})
            log_weight = judged_log_weight(P[list(rows)])
            for u in us:
                small, big = mp.mpf(u), 1 - mp.mpf(u)
                for F, S, mF, mS in ((u, 1.0 - u, small, big), (1.0 - u, u, big, small)):
                    got = log_weight(np.array([F]), np.array([S]))[:, 0]
                    assert np.all(np.isfinite(got)), (name, F)  # u-space KL reads an unweighted log w
                    for i, v in zip(rows, got):
                        terms = (mp.mpf(p) * c * mF**r * mS ** (n - 1 - r) for r, (p, c) in enumerate(zip(P[i], coeff)))
                        ref = mp.log(mp.fsum(terms))
                        worst.append((float(abs(v - ref) / max(1, abs(ref))), name, i, F))
    err, *case = max(worst)
    assert err < 1e-13, case


def test_coefficient_tables_stay_under_the_memo_bound():
    for n in range(1, 301):
        closed_form.d_n(n)
    assert order_stats._log_coeffs.cache_info().currsize <= re.MEMO_SIZE
    # 4097 and 5000 pass the memo's byte bound and are built on every call
    for n in (1, 2, 50, 4096, 4097, 5000):
        table = order_stats._log_coeffs(n)
        # the exact referee takes C(n - 1, r) up to the middle and mirrors it: C(N, r) = C(N, N - r)
        head = [math.log(n * math.comb(n - 1, r)).hex() for r in range((n - 1) // 2 + 1)]
        assert [v.hex() for v in table.tolist()] == head + head[: n - len(head)][::-1], n
        assert not table.flags.writeable
