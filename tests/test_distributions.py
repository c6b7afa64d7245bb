import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rssinfo import ranking_error as re
from rssinfo.distributions import (
    Distribution,
    DistributionParseError,
    Exponential,
    Normal,
    Support,
    Uniform,
    Weibull,
    parse_distribution,
)
from rssinfo.errors import InputError
from rssinfo.order_stats import judged_pdf, order_stat_pdf
from rssinfo.quadrature import entropy_integral, integrate_support


def test_support_ends_pick_the_map(families):
    # the families' supports are a finite interval, a half-line and the real
    # line, so test_density_normalization integrates through each map
    ends = {(math.isfinite(d.support.lower), math.isfinite(d.support.upper)) for d in families}
    assert ends == {(True, True), (True, False), (False, False)}
    # any other ends raise, rather than integrate over some other set
    laplace = lambda x: np.exp(-np.abs(x))  # integrates to 2 over the real line
    for f, lower, upper in (
        (laplace, 1.0, -math.inf),
        (laplace, 0.0, math.nan),
        (laplace, math.inf, math.inf),
        (laplace, math.nan, math.nan),
        (np.ones_like, 1.0, 0.0),
    ):
        with pytest.raises(InputError):
            integrate_support(f, Support(lower, upper))


def test_quantile_cdf_round_trip(members, interior_u):
    for dist in members:
        x = dist.quantile(interior_u)
        np.testing.assert_allclose(dist.cdf(x), interior_u, rtol=0, atol=1e-10)


def test_standard_quantile_skips_the_affine_map(families, interior_u):
    # at location 0 and scale 1 the quantile is the family's own, with the values 0 + 1 * q gives:
    # the only sign it may change is the Normal's zero at F = S = 1/2, where -(+0) is -0
    for dist in families:
        for S in (None, 1.0 - interior_u):
            got, want = dist.quantile(interior_u, S), 0.0 + 1.0 * dist._quantile(interior_u, S)
            assert np.array_equal(got, want)
            flipped = np.signbit(got) != np.signbit(want)
            assert not flipped.any() or (isinstance(dist, Normal) and S is not None and np.all(got[flipped] == 0.0))
            assert not any(np.shares_memory(got, level) for level in (interior_u, S) if level is not None)
            scalar = dist.quantile(interior_u[3], None if S is None else S[3])
            assert type(scalar) is np.float64 and scalar == want[3]


def test_pdf_matches_cdf_derivative(members):
    # central differences at interior points, relative error <= 1e-6; the
    # step follows the law's spread, and the quotient takes the step made
    for dist in members:
        x = dist.quantile(np.linspace(0.05, 0.95, 19))
        h = 1e-6 * (dist.quantile(0.75) - dist.quantile(0.25))
        lo, hi = x - h, x + h
        approx = (dist.cdf(hi) - dist.cdf(lo)) / (hi - lo)
        np.testing.assert_allclose(dist.pdf(x), approx, rtol=1e-6)


def test_pdf_at_quantile_matches_composition(members, interior_u):
    for dist in members:
        composed = dist.pdf(dist.quantile(interior_u))
        # off the origin x rounds to ulp(loc), which moves log f by up to
        # |z| ulp(loc) / scale, |z| < 8 on this grid
        rtol = 1e-12 + 8.0 * np.finfo(float).eps * abs(dist.loc) / dist.scale
        np.testing.assert_allclose(
            np.exp(dist.log_pdf_at_quantile(interior_u)), composed, rtol=rtol, atol=1e-300
        )


def test_upper_tail_is_read_from_the_survival(members):
    # F = 1 - S rounds to 1; the quantile and the log density there come from S
    for dist in members:
        for S in (1e-20, 1e-300):
            x = dist.quantile(1.0 - S, S)
            log_f = dist.log_pdf_at_quantile(1.0 - S, S)
            if isinstance(dist, Uniform):  # x = 1 - S itself rounds to 1
                assert (x, log_f) == (1.0, 0.0)
                continue
            assert dist.survival(x) == pytest.approx(S, rel=1e-9), dist
            assert np.isfinite(log_f) and log_f == pytest.approx(dist.log_pdf(x), rel=1e-12), dist


def test_log_pdf_consistent_with_pdf(members, interior_u):
    for dist in members:
        x = dist.quantile(interior_u)
        np.testing.assert_allclose(
            np.exp(dist.log_pdf(x)), dist.pdf(x), rtol=1e-12, atol=1e-300
        )


def test_survival_complements_cdf(members, interior_u):
    for dist in members:
        x = dist.quantile(np.linspace(0.05, 0.95, 19))
        np.testing.assert_allclose(dist.cdf(x) + dist.survival(x), 1.0, atol=1e-12)


def test_density_normalization(families):
    for dist in families:
        r = integrate_support(dist.pdf, dist.support)
        assert abs(r.value - 1.0) < 1e-9, dist.spec_string()


def test_entropy_closed_forms_against_quadrature(families):
    for dist in families:
        r = entropy_integral(dist.pdf, dist.support)
        assert abs(r.value - dist.entropy()) < 1e-8, dist.spec_string()


def test_known_entropy_values():
    assert Uniform().entropy() == 0.0
    assert abs(Exponential(1.0).entropy() - 1.0) < 1e-15
    assert abs(Exponential(2.0).entropy() - (1.0 - math.log(2.0))) < 1e-15
    assert abs(Normal(0, 1).entropy() - 0.5 * math.log(2 * math.pi * math.e)) < 1e-15


def test_standard_keeps_the_shape():
    for dist, spec in [
        (Exponential(1e-6), "exp:1"),
        (Normal(-1e4, 3.0), "norm:0,1"),
        (Weibull(0.5, 1e6), "weibull:0.5,1"),
        (Uniform(), "unif"),
    ]:
        std = dist.standard()
        assert (std.loc, std.scale, std.spec_string()) == (0.0, 1.0, spec)
        assert dist.entropy() == pytest.approx(std.entropy() + math.log(dist.scale), rel=1e-15)
    assert Weibull(0.5, 1e6).spec_string() == "weibull:0.5,1e+06"


def test_standard_is_the_law_itself_only_when_standard():
    for dist in (Uniform(), Exponential(1.0), Normal(0.0, 1.0), Weibull(2.0)):
        assert dist.standard() is dist
    for dist in (Exponential(2.0), Normal(1.0, 1.0), Normal(0.0, 3.0), Weibull(2.0, 5.0)):
        before = (dist.loc, dist.scale, dist.spec_string())
        std = dist.standard()
        assert std is not dist and (std.loc, std.scale) == (0.0, 1.0)
        assert (dist.loc, dist.scale, dist.spec_string()) == before  # the caller's law is untouched


def test_laws_compare_and_hash_by_family_and_fields():
    assert Normal(-0.0, 1.0) == Normal() and hash(Normal(-0.0, 1.0)) == hash(Normal())
    assert Normal(0.0, 3.0).standard() == Normal() and Weibull(2.0, 5.0).standard() == Weibull(2.0)
    assert len({Normal(), Normal(-0.0, 1.0), Normal(0.0, 1.0)}) == 1
    # the same law in another family, or another member of the family, is another key
    assert Exponential(1.0) != Weibull(1.0) and Normal() != Uniform() and Normal() != Normal(0.0, 2.0)
    assert Normal() != "norm:0,1"
    # a standard copy holds its family's fields only: no location on a family without one
    for dist, std in ((Exponential(3.0), Exponential(1.0)), (Weibull(2.0, 5.0), Weibull(2.0))):
        assert vars(dist.standard()) == vars(std) and hash(dist.standard()) == hash(std)


def test_a_law_and_its_standard_copy_share_one_parent_memo_entry():
    from rssinfo import measures as M
    from rssinfo import quadrature as Q

    F, S = Q._fold(Q._nodes((0.0, *Q._BREAKS, Q._T))[1])[:2]
    M._log_pdf_at_quantile.cache_clear()
    for law in (Exponential(3.0).standard(), Exponential(1.0)):
        M._log_pdf_at_quantile(law, F, S)
    assert M._log_pdf_at_quantile.cache_info()[:2] == (1, 1)  # hits, misses


def test_quantile_rejects_boundary(families):
    for dist in families:
        with pytest.raises(ValueError):
            dist.quantile(0.0)
        with pytest.raises(ValueError):
            dist.quantile(1.0)


def test_quantile_check_rejects_points_outside_the_open_interval(families):
    bad = [0.0, 1.0, -0.5, 1.5, np.nan, np.inf, np.array([0.5, 0.0]), np.array([0.5, 1.0]),
           np.array([0.2, np.nan]), np.array([[0.5], [-1e-300]])]
    for dist in families:
        for f in (dist.quantile, dist.log_pdf_at_quantile):
            for u in bad:
                with pytest.raises(ValueError):
                    f(u)
            assert f(np.array([])).shape == (0,)
            assert np.all(np.isfinite(f(np.array([5e-324, 0.5, 1.0 - 2.0**-53]))))


def test_outside_support_density_is_zero():
    for dist in [Exponential(1.0), Weibull(2.0, 1.0)]:
        assert dist.pdf(-1.0) == 0.0
        assert dist.log_pdf(-1.0) == -np.inf
        assert dist.cdf(-1.0) == 0.0
        assert dist.survival(-1.0) == 1.0


EDGES = np.array([-np.inf, -1e303, -1e155, 0.0, 1e155, 1e303, np.inf])


def test_edges_give_the_limits_and_nan_gives_nan(members):
    # the suite turns a RuntimeWarning into a failure: an overflow on the way
    # to a right limit (z = x / 1e-6, a normal's z * z, a Weibull's z**k) is silent
    far = np.abs(EDGES) > 1e100
    P = re.blend(3, 0.5)
    for dist in members:
        log_f, f, F, S = dist.log_pdf(EDGES), dist.pdf(EDGES), dist.cdf(EDGES), dist.survival(EDGES)
        assert np.all(log_f[far] < -1e100) and np.all(f[far] == 0.0), dist
        assert np.array_equal(F[far], (EDGES[far] > 0.0) * 1.0) and np.array_equal(S[far], 1.0 - F[far]), dist
        assert np.array_equal(f, np.exp(log_f)) and F[3] + S[3] == 1.0, dist
        for fn in (dist.log_pdf, dist.pdf, dist.cdf, dist.survival):
            assert np.isnan(fn(np.nan)), (dist, fn.__name__)
        for i in (1, 2, 3):
            for density in (order_stat_pdf(dist, 3, i, EDGES), judged_pdf(dist, P, i, EDGES)):
                assert np.array_equal(density[far], np.zeros(far.sum())), (dist, i)
            assert np.isnan(order_stat_pdf(dist, 3, i, np.nan)) and np.isnan(judged_pdf(dist, P, i, np.nan))


def test_parse_round_trip():
    specs = ["unif", "exp:1", "exp:2.5", "norm:0,1", "norm:-1.5,3", "weibull:2,1", "weibull:0.7,2"]
    for spec in specs:
        dist = parse_distribution(spec)
        assert dist.spec_string() == spec  # the CLI's JSON ``dist`` field, byte for byte
        again = parse_distribution(dist.spec_string())
        assert type(again) is type(dist) and vars(again) == vars(dist)
        assert repr(dist) == f"{type(dist).__name__}({spec!r})"
    assert {type(parse_distribution(spec)) for spec in specs} == set(Distribution.__subclasses__())
    assert repr(Normal(1, 2)) == "Normal('norm:1,2')"


def test_spec_string_reads_back_as_the_same_law():
    rng = np.random.default_rng(7)
    laws = [Exponential(0.3333333333), Normal(0.123456789, 2.5), Normal(-0.0, 1.0), Weibull(1.0 / 3.0, 1e6 / 7.0)]
    for r, loc in zip(np.exp(rng.uniform(math.log(1e-6), math.log(1e6), 3000)), rng.uniform(-1e6, 1e6, 3000)):
        laws += [Exponential(r), Normal(loc, r), Weibull(r, 1.0 / r)]
    for law in laws:
        assert parse_distribution(law.spec_string()) == law, law.spec_string()
    # a field prints as :g prints it where that reads back, else in full
    assert repr(Exponential(0.3333333333)) == "Exponential('exp:0.3333333333')"
    assert Normal(0.123456789, 2.5).spec_string() == "norm:0.123456789,2.5"
    assert Normal(-0.0, 1.0).spec_string() == "norm:-0,1"


@pytest.mark.parametrize(
    "spec, message",
    [
        ("unif:3", "unif takes no parameters"),
        ("exp:1,2", "exp takes one parameter: rate"),
        ("norm:1", "norm takes two parameters: mu,sigma"),
        ("weibull:1,2,3", r"weibull takes parameters: shape\[,scale\]"),
        ("gamma:1", "unknown distribution family 'gamma' in 'gamma:1'"),
    ],
)
def test_parse_errors_name_the_family_usage(spec, message):
    with pytest.raises(DistributionParseError, match=message):
        parse_distribution(spec)


def test_parse_errors():
    for bad in ["gamma:1", "exp", "exp:a", "exp:1,2", "unif:3", "norm:1", "weibull:", "exp:-1"]:
        with pytest.raises(DistributionParseError):
            parse_distribution(bad)


def test_invalid_parameters():
    for rate in (0.0, 1e-310, math.inf):  # 1e-310 has no finite scale
        with pytest.raises(ValueError):
            Exponential(rate)
    for mu, sigma in [(0.0, -1.0), (math.nan, 1.0), (math.inf, 1.0), (0.0, math.inf)]:
        with pytest.raises(ValueError):
            Normal(mu, sigma)
    for k, theta in [(-2.0, 1.0), (math.inf, 1.0), (2.0, math.inf), (math.nan, 1.0)]:
        with pytest.raises(ValueError):
            Weibull(k, theta)


def test_renyi_entropy_checks_its_order(families):
    # as every other Renyi entry point: once the uniform gave 0.0 at any order,
    # and the others NaN, None, or a bare ZeroDivisionError or ValueError
    for dist in families:
        for alpha in (1.0, 0.0, -1.0, math.nan, math.inf):
            with pytest.raises(InputError, match="alpha"):
                dist.renyi_entropy(alpha)


@settings(max_examples=50, deadline=None)
@given(st.floats(min_value=1e-6, max_value=1.0 - 1e-6))
def test_exponential_round_trip_property(u):
    dist = Exponential(1.7)
    assert abs(dist.cdf(dist.quantile(u)) - u) < 1e-10


@settings(max_examples=50, deadline=None)
@given(
    st.floats(min_value=1e-3, max_value=1.0 - 1e-3),
    st.floats(min_value=0.5, max_value=4.0),
)
def test_weibull_quantile_monotone_property(u, k):
    dist = Weibull(k, 1.0)
    lo, hi = dist.quantile(u * 0.5), dist.quantile(u)
    assert lo < hi
