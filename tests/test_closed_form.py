import hashlib
import math

import numpy as np
import pytest

from rssinfo import closed_form as cf
from rssinfo import ranking_error as re
from rssinfo.distributions import Exponential, Normal, Uniform, Weibull
from rssinfo.errors import InputError
from rssinfo.order_stats import log_order_coeff
from rssinfo.quadrature import integrate

# Reference values of the distribution-free Shannon gap k(n), n = 2..10.
K_TABLE = {
    2: -0.386,
    3: -0.989,
    4: -1.742,
    5: -2.611,
    6: -3.574,
    7: -4.616,
    8: -5.727,
    9: -6.897,
    10: -8.121,
}


def test_k_matches_reference_table():
    for n, expected in K_TABLE.items():
        assert abs(cf.k_direct(n) - expected) <= 1e-3, n


def test_k_direct_equals_recursive_far_beyond_table():
    for n in range(1, 51):
        assert abs(cf.k_direct(n) - cf.k_recursive(n)) < 1e-9, n


def test_k_equals_sum_of_uniform_order_entropies():
    for n in range(2, 12):
        total = sum(cf.h_uniform_order(n, i) for i in range(1, n + 1))
        assert abs(cf.k_direct(n) - total) < 1e-10, n


def test_k_single_draw_is_zero():
    assert cf.k_direct(1) == pytest.approx(0.0)
    assert cf.k_recursive(1) == 0.0


def test_h_uniform_order_symmetry_and_sign():
    for n in range(2, 9):
        for i in range(1, n + 1):
            h = cf.h_uniform_order(n, i)
            assert h < 0.0  # each order statistic is less uncertain than U(0,1)
            assert abs(h - cf.h_uniform_order(n, n - i + 1)) < 1e-12


def test_h_uniform_order_against_quadrature():
    for n, i in [(2, 1), (3, 2), (6, 4)]:
        from rssinfo.order_stats import beta_order_pdf

        def integrand(u, n=n, i=i):
            b = beta_order_pdf(n, i, u)
            with np.errstate(divide="ignore"):
                return np.where(b > 0, -b * np.log(np.where(b > 0, b, 1.0)), 0.0)

        r = integrate(integrand, 0.0, 1.0)
        assert abs(r.value - cf.h_uniform_order(n, i)) < 1e-8


def test_d_n_known_values():
    assert cf.d_n(1) == pytest.approx(0.0)
    assert cf.d_n(2) == pytest.approx(2.0 - 2.0 * math.log(2.0), abs=1e-12)
    assert cf.d_n(3) == pytest.approx(6.0 - math.log(54.0), abs=1e-12)
    assert cf.d_n(3) == pytest.approx(2.0110, abs=5e-5)


def test_d_n_nondecreasing():
    vals = [cf.d_n(n) for n in range(1, 15)]
    assert all(b >= a for a, b in zip(vals, vals[1:]))


def test_psi_known_value_and_range():
    assert cf.psi_bound(2.0, 2) == pytest.approx(-4.0 * math.log(2.0), abs=1e-12)
    for alpha in (1.5, 2.0, 5.0):
        for n in range(2, 11):
            psi = cf.psi_bound(alpha, n)
            lower = n * alpha / (1.0 - alpha) * math.log(n)
            assert lower - 1e-12 <= psi < 0.0, (alpha, n)


def test_psi_nonincreasing_in_n():
    for alpha in (1.5, 2.0, 5.0):
        for n in range(2, 10):
            assert cf.psi_bound(alpha, n + 1) <= cf.psi_bound(alpha, n) + 1e-12


def test_psi_domain_errors():
    with pytest.raises(ValueError):
        cf.psi_bound(1.0, 3)
    with pytest.raises(ValueError):
        cf.psi_bound(0.5, 3)
    with pytest.raises(ValueError):
        cf.psi_bound(2.0, 1)


def test_eta_endpoints_and_symmetry():
    assert cf.eta(0.0) == pytest.approx(0.5, abs=1e-12)
    assert cf.eta(1.0) == pytest.approx(0.5, abs=1e-12)
    assert cf.eta(0.5) == pytest.approx(math.log(2.0), abs=1e-12)
    for a in (0.1, 0.2, 0.35, 0.45):
        assert cf.eta(a) == pytest.approx(cf.eta(1.0 - a), abs=1e-12)


def test_eta_matches_defining_integral():
    # eta(a) = -(2 / (1 - 2a)) * int_a^{1-a} u log u du
    for a in (0.05, 0.25, 0.4):
        raw = integrate(lambda u: u * np.log(u), a, 1.0 - a)
        assert cf.eta(a) == pytest.approx(-2.0 / (1.0 - 2.0 * a) * raw.value, abs=1e-9)


def test_eta_series_branch_is_continuous():
    assert cf.eta(0.5 - 2e-4) == pytest.approx(cf.eta(0.5 - 5e-5), abs=1e-7)
    with pytest.raises(ValueError):
        cf.eta(1.5)


def test_exp_shannon_values():
    for lam in (1.0, 2.0):  # the exact forms: rate scaling shifts each by -2 log(lam)
        assert cf.exp_shannon(re.uniform(2), lam) == 2.0 - 2.0 * math.log(lam)
        assert cf.exp_shannon(re.identity(2), lam) == 3.0 - 2.0 * math.log(2.0 * lam)
        # coin-flip ranking is the uniform matrix, so it takes the SRS form
        assert cf.exp_shannon(re.two_by_two(0.5), lam) == cf.exp_shannon(re.uniform(2), lam)
    # the eta form meets the SRS value at p12 = 1/2 and the perfect-RSS one at swapped ranks, p12 = 1
    assert cf.exp_shannon(re.two_by_two(0.5 - 1e-9), 1.0) == pytest.approx(2.0, abs=1e-12)
    assert cf.exp_shannon(re.two_by_two(1.0), 1.0) == pytest.approx(3.0 - 2.0 * math.log(2.0), abs=1e-12)


def test_exp_shannon_validation():
    with pytest.raises(ValueError):
        cf.exp_shannon(re.uniform(2), -1.0)
    with pytest.raises(InputError, match="dimension 3 does not match n = 2"):
        cf.exp_shannon(re.blend(3, 0.5), 1.0)


def test_exp_renyi_values():
    assert cf.exp_renyi(re.uniform(2), 1.0, 2.0) == pytest.approx(2.0 * math.log(2.0), abs=1e-12)
    assert cf.exp_renyi(re.identity(2), 1.0, 2.0) == pytest.approx(math.log(3.0), abs=1e-12)
    # the alpha = 2 gap is log(3/4)
    gap = cf.exp_renyi(re.identity(2), 1.0, 2.0) - cf.exp_renyi(re.uniform(2), 1.0, 2.0)
    assert gap == pytest.approx(math.log(0.75), abs=1e-12)
    # the 2x2 matrix decides, not how it was spelled: p12 = 1/2 is the uniform matrix, blend 1 the identity
    for lam, alpha in ((0.5, 0.2), (3.0, 10.0)):
        assert cf.exp_renyi(re.two_by_two(0.5), lam, alpha) == cf.exp_renyi(re.uniform(2), lam, alpha)
        assert cf.exp_renyi(re.blend(2, 1.0), lam, alpha) == cf.exp_renyi(re.identity(2), lam, alpha)


def test_closed_forms_decline_where_their_float_evaluation_overflows():
    # a log Gamma at alpha near 1e306, or the Beta sum near 1e305, leaves the float range
    assert cf.exp_renyi(re.identity(2), 1.0, 1e308) is None
    assert cf.rss_renyi(2, 1e308, 1.0) is None
    assert cf.rss_renyi(3, 1e305, 1.0) is None
    assert Weibull(2.0).renyi_entropy(1e306) is None
    assert cf.exp_renyi(re.uniform(2), 1.0, 1e308) == pytest.approx(0.0, abs=1e-300)


def test_exp_renyi_validation():
    with pytest.raises(ValueError):
        cf.exp_renyi(re.uniform(2), 1.0, 1.0)
    with pytest.raises(ValueError):
        cf.exp_renyi(re.uniform(2), 1.0, -0.5)
    # only SRS and perfect RSS have a printed form, and only at set size 2
    for P in (re.two_by_two(0.2), re.blend(2, 0.75), re.identity(3)):
        with pytest.raises(InputError):
            cf.exp_renyi(P, 1.0, 2.0)


def test_closed_forms_match_a_40_digit_oracle():
    mp = pytest.importorskip("mpmath")
    worst = []

    def check(got, ref, case):
        err = abs(mp.mpf(got) - ref) / max(1, abs(ref))
        worst.append((float(err), case))

    with mp.workdps(40):

        def h(n, i):
            dn = mp.digamma(n + 1)
            return (
                mp.log(mp.beta(i, n - i + 1))
                - (i - 1) * (mp.digamma(i) - dn)
                - (n - i) * (mp.digamma(n - i + 1) - dn)
            )

        def log_mode_density(n, i):  # the log Beta(i, n-i+1) density at its mode
            u = mp.mpf(i - 1) / (n - 1)
            return (
                -mp.log(mp.beta(i, n - i + 1))
                + ((i - 1) * mp.log(u) if i > 1 else 0)
                + ((n - i) * mp.log(1 - u) if i < n else 0)
            )

        for n in range(1, 51):
            hs = [h(n, i) for i in range(1, n + 1)]
            k = mp.fsum(hs)  # k(n) is the sum of the uniform order-statistic entropies
            check(cf.k_direct(n), k, ("k_direct", n))
            check(cf.k_recursive(n), k, ("k_recursive", n))
            check(cf.d_n(n), n * (n - 1) - mp.fsum(mp.log(i * mp.binomial(n, i)) for i in range(1, n + 1)), ("d_n", n))
            for i in range(1, n + 1):
                check(cf.h_uniform_order(n, i), hs[i - 1], ("h_uniform_order", n, i))
                check(log_order_coeff(n, i), -mp.log(mp.beta(i, n - i + 1)), ("log_order_coeff", n, i))
            for alpha in (1.5, 2, 5, 10) if n > 1 else ():
                a = mp.mpf(alpha)
                check(cf.psi_bound(alpha, n), a / (1 - a) * mp.fsum(log_mode_density(n, i) for i in range(1, n + 1)),
                      ("psi_bound", alpha, n))

        for alpha in (0.2, 0.5, 1.1, 2, 10):
            a, om = mp.mpf(alpha), 1 - mp.mpf(alpha)
            for lam in (0.5, 1, 3):
                log_lam = mp.log(lam)
                order1 = -log_lam - mp.log(2) - mp.log(a) / om
                order2 = -log_lam + a / om * mp.log(2) + (mp.loggamma(a + 1) + mp.loggamma(a) - mp.loggamma(2 * a + 1)) / om
                refs = {"srs": (re.uniform(2), -2 * log_lam - 2 / om * mp.log(a)), "rss": (re.identity(2), order1 + order2)}
                for kind, (P, ref) in refs.items():
                    check(cf.exp_renyi(P, lam, alpha), ref, ("exp_renyi", kind, lam, alpha))

        def u2_log_u(u):
            return u * u * mp.log(u) if u > 0 else 0

        # near a = 1/2, where the closed form cancels, and on both sides of the series branch
        for a in (0.0, 1e-3, 0.1, 0.2499999, 0.25, 0.2500001, 0.3, 0.4998, 0.4999, 0.499949995, 0.5, 0.75, 1.0):
            b = mp.mpf(a)
            ref = mp.log(2) if a == 0.5 else mp.mpf(1) / 2 + (u2_log_u(b) - u2_log_u(1 - b)) / (1 - 2 * b)
            check(cf.eta(a), ref, ("eta", a))

        # the parent's Renyi entropy, log(int f^alpha) / (1 - alpha), at unit scale
        for alpha in (0.2, 0.5, 2, 10):
            a = mp.mpf(alpha)
            refs = [(Uniform(), 0), (Exponential(1.0), -mp.log(a) / (1 - a)),
                    (Normal(), mp.log(2 * mp.pi) / 2 - mp.log(a) / (2 * (1 - a)))]
            for k in (0.6, 2, 3.68):
                s = (a * (k - 1) + 1) / k  # int f^alpha = k^(alpha-1) Gamma(s) alpha^-s
                ref = ((a - 1) * mp.log(k) + mp.loggamma(s) - s * mp.log(a)) / (1 - a) if s > 0 else None
                refs.append((Weibull(k, 1.0), ref))
            for dist, ref in refs:
                if ref is None:
                    assert dist.renyi_entropy(alpha) is None, (dist, alpha)
                else:
                    check(dist.renyi_entropy(alpha), ref, ("renyi_entropy", dist.spec_string(), alpha))
            # perfect RSS on the uniform (tail 1) and exponential (tail alpha) parents
            for n in (2, 3, 5, 8, 20, 50):
                for tail in (1, alpha):
                    terms = (a * mp.log(n * mp.binomial(n - 1, i)) + mp.log(mp.beta(a * i + 1, a * (n - 1 - i) + tail))
                             for i in range(n))
                    ref = mp.fsum(terms) / (1 - a)
                    check(cf.rss_renyi(n, alpha, tail), ref, ("rss_renyi", n, alpha, tail))

        # K(SRS || P) of a 2x2 P, -2 [log 2 + int_0^1 log(p + (1-2p) u) du], two equal rows
        def u_log_u(u):
            return u * mp.log(u) if u > 0 else 0

        for p in (0.0, 0.25, 0.2499999, 0.3, 0.45, 0.5, 0.55, 0.7500001, 1.0):
            b = mp.mpf(p)
            mean_log = -mp.log(2) if p == 0.5 else (u_log_u(1 - b) - u_log_u(b)) / (1 - 2 * b) - 1
            check(2 * cf.kl_row_2x2(p), -2 * (mp.log(2) + mean_log), ("kl_row_2x2", p))

    assert all(math.isfinite(err) for err, _ in worst)
    err, case = max(worst)
    assert err < 5e-14, case
    assert math.isfinite(log_order_coeff(500, 250))


def test_rss_renyi_is_pinned_bit_for_bit():
    # 980 values, recorded when n log Gamma(c) was taken in 34-digit decimals: 24 digits keep every bit
    digest = hashlib.sha256()
    for n in range(2, 51):
        for alpha in (0.2, 0.3633, 0.5, 1.1, 1.5, 2.0, 3.0, 5.0, 6.016, 10.0):
            for tail in (1.0, alpha):
                digest.update(cf.rss_renyi(n, alpha, tail).hex().encode() + b"\n")
    assert digest.hexdigest() == "f3e8c96be7ec5c1c2be37f43faa712b57ad82bedd70fe56e95bd7b6935dc45d8"


def test_xlogy_equals_scipy_bit_for_bit():
    special = pytest.importorskip("scipy.special")
    x, y = np.meshgrid([0.0, 1e-300, 0.5, 1.0], [0.0, 1e-300, 0.5, 1.0, math.inf, math.nan])
    with np.errstate(divide="ignore", invalid="ignore"):
        expected = special.xlogy(x, y)
    got = cf.xlogy(x, y)
    assert got.tobytes() == expected.tobytes()
    for a, b, e in zip(x.ravel(), y.ravel(), expected.ravel()):
        assert np.float64(cf.xlogy(a, b)).tobytes() == e.tobytes(), (a, b)


def test_closed_form_measures_lie_within_their_error_of_a_40_digit_oracle():
    # a closed-form measure states a relative rounding bound, and a scaled one
    # adds the rounding of its n log(scale) shift: both must cover the value's
    # distance to a 40-digit reference, at every scale from 1e-6 to 1e6
    mp = pytest.importorskip("mpmath")
    from rssinfo import measures as M
    from rssinfo.measures import Design

    misses = []

    def check(res, ref, case):
        assert res.method == "closed-form" and res.converged, case
        gap = abs(mp.mpf(res.value) - ref)
        if not gap <= res.error_estimate:
            misses.append((case, float(gap), res.error_estimate))

    def k(n):  # the sum of the uniform order-statistic entropies
        dn = mp.digamma(n + 1)
        return mp.fsum(mp.log(mp.beta(i, n - i + 1)) - (i - 1) * (mp.digamma(i) - dn) - (n - i) * (mp.digamma(n - i + 1) - dn)
                       for i in range(1, n + 1))

    def rss_renyi(n, a, tail):  # perfect RSS on a standard uniform (tail 1) or exponential (tail alpha) parent
        return mp.fsum(a * mp.log(n * mp.binomial(n - 1, i)) + mp.log(mp.beta(a * i + 1, a * (n - 1 - i) + tail))
                       for i in range(n)) / (1 - a)

    def u_log_u(u):
        return u * mp.log(u) if u > 0 else 0

    def sq_log(u):
        return u * u * mp.log(u) if u > 0 else 0

    with mp.workdps(40):
        for lam in (1e-6, 1e-3, 1.0, 1e3, 1e6):
            dist = Exponential(lam)
            log_scale = mp.log(mp.mpf(dist.scale))
            for n in (2, 3, 5):
                check(M.shannon(Design("rss", n), dist), n * (1 + log_scale) + k(n), ("shannon rss", n, lam))
                for alpha in (0.5, 2.0, 3.0):
                    a = mp.mpf(alpha)
                    ref = n * (log_scale - mp.log(a) / (1 - a))
                    check(M.renyi(Design("srs", n), dist, alpha), ref, ("renyi srs", n, alpha, lam))
        for n in (8, 20, 50):
            for alpha in (0.5, 2.0):
                a = mp.mpf(alpha)
                check(M.renyi(Design("rss", n), Uniform(), alpha), rss_renyi(n, a, 1), ("renyi rss unif", n, alpha))
                check(M.renyi(Design("rss", n), Exponential(1.0), alpha), rss_renyi(n, a, a), ("renyi rss exp", n, alpha))
        for p12 in (0.0, 0.1, 0.25, 0.3, 0.45, 0.5, 0.7, 1.0):
            P = re.two_by_two(p12)
            b = mp.mpf(float(P.entries[0, 0]))
            eta = mp.log(2) if 2 * b == 1 else mp.mpf(1) / 2 + (sq_log(b) - sq_log(1 - b)) / (1 - 2 * b)
            mean_log = -mp.log(2) if 2 * b == 1 else (u_log_u(b) - u_log_u(1 - b)) / (2 * b - 1) - 1
            design = Design("irss", 2, P)
            check(M.shannon(design, Exponential(1.0)), 2 - (2 * mp.log(2) - 2 * eta), ("shannon 2x2", p12))
            check(M.kl_srs_vs_design(design), -2 * (mp.log(2) + mean_log), ("kl 2x2", p12))
    assert not misses, misses
