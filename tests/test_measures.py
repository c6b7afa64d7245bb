import math
import re as re_

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pins
import rssinfo
from rssinfo import closed_form as cf
from rssinfo import mc_oracle as mc
from rssinfo import measures as M
from rssinfo import order_stats
from rssinfo import ranking_error as re
from rssinfo.cli import parse_design
from rssinfo.distributions import Exponential, Normal, Support, Uniform, Weibull, parse_distribution
from rssinfo.errors import InputError
from rssinfo.measures import Design, DivergentIntegralError
from rssinfo.order_stats import beta_order_log_pdf, log_order_coeff
from rssinfo.quadrature import DEFAULT_CONFIG, QuadratureConfig, integrate, integrate_support, integrate_unit
from rssinfo.reports import (
    DEFAULT_SCAN_FAMILIES,
    DEFAULT_SCAN_MATRICES,
    ScanGrid,
    figure_curve,
    run_conjecture_scan,
    run_errata_checks,
)


def test_design_validation():
    # each construction error names its own cause
    cases = [
        (lambda: Design("srs", 0), "set size must be an integer >= 1, got 0"),
        (lambda: Design("bogus", 2), "unknown design kind 'bogus'"),
        (lambda: Design("irss", 2), "imperfect RSS needs a ranking error matrix"),
        (lambda: Design("irss", 3, re.identity(2)), "error matrix dimension 2 does not match n = 3"),
        (lambda: Design("rss", 2, re.identity(2)), "design kind 'rss' takes no error matrix"),
        (lambda: Design("srs", 2, re.uniform(2)), "design kind 'srs' takes no error matrix"),
    ]
    for make, message in cases:
        with pytest.raises(InputError) as info:
            make()
        assert str(info.value) == message
    with pytest.raises(TypeError):
        Design("rss", 2, m=2)  # a design is its matrix alone


def test_a_design_spec_string_reads_its_kind_from_the_matrix():
    assert Design("srs", 3).spec_string() == "srs:3" and Design("rss", 3).spec_string() == "rss:3"
    assert Design("irss", 3, re.uniform(3)).spec_string() == "srs:3"
    assert Design("irss", 3, re.identity(3)).spec_string() == "rss:3"
    assert Design("irss", 3, re.blend(3, 0.5)).spec_string() == "irss:3"


def test_design_matrix():
    # a design is its matrix: Design spells it and returns it
    assert np.array_equal(Design("srs", 3).entries, np.full((3, 3), 1.0 / 3.0))
    assert np.array_equal(Design("rss", 3).entries, np.eye(3))
    assert Design("srs", 3) is re.uniform(3) and Design("rss", 3) is re.identity(3)
    P = re.blend(3, 0.5)
    assert Design("irss", 3, P) is P and type(Design("rss", 65)) is re.RankingErrorMatrix


def test_a_matrix_names_its_class_and_a_design_holds_its_matrix(tmp_path):
    path = tmp_path / "identity.csv"
    np.savetxt(path, np.eye(3), delimiter=",")
    cycle = [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0], [1.0, 0.0, 0.0]]
    named = {
        "uniform": [re.uniform(1), re.uniform(4), re.uniform(65), re.RankingErrorMatrix([[1.0]]), re.two_by_two(0.5)],
        "identity": [re.identity(2), re.identity(65), re.from_csv(path), re.parse_matrix(str(path), 3), re.two_by_two(0.0)],
        "": [re.blend(3, 0.5), re.blend(65, 0.25), re.two_by_two(0.3), re.two_by_two(1.0), re.RankingErrorMatrix(cycle),
             re.RankingErrorMatrix([[0.5, 0.5, 0.0], [0.5, 0.0, 0.5], [0.0, 0.5, 0.5]])],
    }
    for name, matrices in named.items():
        for P in matrices:
            assert P.name == name, P.entries
    for design, name in [(Design("srs", 3), "uniform"), (Design("rss", 3), "identity"), (Design("srs", 65), "uniform"),
                         (Design("rss", 65), "identity"), (Design("irss", 2, re.two_by_two(0.3)), "")]:
        assert design.name == name, design  # above the memo's bound too


def test_designs_compare_and_hash_by_value():
    irss = lambda p12=0.2: Design("irss", 2, re.two_by_two(p12))
    assert irss() == irss() and hash(irss()) == hash(irss())
    assert irss() != irss(0.3) and irss() != Design("srs", 2)
    # a design is its matrix: rss:n and srs:n spell irss:n:identity and irss:n:uniform
    for n in (1, 2, 5):
        for kind, P in (("rss", re.identity(n)), ("srs", re.uniform(n))):
            assert Design(kind, n) == Design("irss", n, P) and hash(Design(kind, n)) == hash(Design("irss", n, P))
    zero = re.RankingErrorMatrix([[-0.0, 1.0], [1.0, -0.0]])
    assert Design("irss", 2, zero) == Design("irss", 2, re.two_by_two(1.0))
    designs = {irss(), irss(), irss(0.3), Design("rss", 2), Design("rss", 2), Design("srs", 2),
               Design("irss", 2, zero), Design("irss", 2, re.two_by_two(1.0))}
    assert len(designs) == 5


def test_shannon_closed_vs_numeric_both_modes():
    dist = Exponential(1.0)
    for design in [
        Design("srs", 2),
        Design("rss", 2),
        Design("irss", 2, re.two_by_two(0.3)),
    ]:
        closed = M.shannon(design, dist)
        assert closed.method == "closed-form"
        for route in (lambda: M.shannon(design, dist, force_numeric=True), lambda: M.shannon_x(design, dist)):
            numeric = route()
            assert numeric.method == "quadrature"
            assert abs(numeric.value - closed.value) < 1e-7, design.spec_string()


def test_shannon_u_and_x_modes_agree_without_closed_form():
    # Weibull(0.52)'s density has an x^-0.48 singularity at 0
    for dist in (Normal(0.0, 1.0), Weibull(0.52, 1.0)):
        for design in [Design("rss", 3), Design("irss", 3, re.blend(3, 0.5)), Design("rss", 8)]:
            u = M.shannon(design, dist, force_numeric=True)
            x = M.shannon_x(design, dist)
            assert abs(u.value - x.value) < 1e-7, (dist.spec_string(), design.spec_string())


def test_shannon_gap_is_distribution_free(families):
    for dist in families:
        for n in (2, 5):
            gap = (
                M.shannon(Design("rss", n), dist, force_numeric=True).value
                - M.shannon(Design("srs", n), dist, force_numeric=True).value
            )
            assert abs(gap - cf.k_direct(n)) < 1e-7, (dist.spec_string(), n)


def test_shannon_imperfect_limits():
    # the identity and uniform matrices run through the same code as RSS and SRS:
    # the same closed D(P) unforced, the same integral forced
    dist = Weibull(2.0, 1.0)
    for n in (2, 5, 8):
        rss, srs = (M.shannon(Design(kind, n), dist) for kind in ("rss", "srs"))
        ident = M.shannon(Design("irss", n, re.identity(n)), dist)
        rand = M.shannon(Design("irss", n, re.uniform(n)), dist)
        rss_f, srs_f = (M.shannon(Design(kind, n), dist, force_numeric=True) for kind in ("rss", "srs"))
        ident_f = M.shannon(Design("irss", n, re.identity(n)), dist, force_numeric=True)
        rand_f = M.shannon(Design("irss", n, re.uniform(n)), dist, force_numeric=True)
        assert ident.value == rss.value
        assert rand.value == srs.value
        assert ident_f.value == rss_f.value
        assert rand_f.value == srs_f.value
        assert ident.method == rand.method == "closed-form"
        assert abs(ident_f.value - ident.value) <= ident_f.error_estimate
        assert abs(rand_f.value - rand.value) <= rand_f.error_estimate
        assert abs(srs_f.value - n * dist.entropy()) < 1e-7


def test_renyi_closed_vs_numeric():
    dist = Exponential(1.0)
    for design, alpha in [(Design("srs", 2), 2.0), (Design("rss", 2), 2.0), (Design("srs", 3), 0.5)]:
        closed = M.renyi(design, dist, alpha)
        numeric = M.renyi(design, dist, alpha, force_numeric=True)
        assert closed.method == "closed-form"
        assert abs(closed.value - numeric.value) < 1e-7


def test_renyi_alpha_near_one_brackets_shannon(families):
    for dist in families:
        design = Design("rss", 2)
        h = M.shannon(design, dist, force_numeric=True).value
        lo = M.renyi(design, dist, 1.001, force_numeric=True).value
        hi = M.renyi(design, dist, 0.999, force_numeric=True).value
        assert lo - 5e-3 <= h <= hi + 5e-3, dist.spec_string()
        assert abs(lo - h) < 5e-3 and abs(hi - h) < 5e-3


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 15: finish divides the integral's error by |1 - alpha|")
def test_renyi_near_alpha_one_meets_its_tolerance():
    # today every case is converged, with errors of 1.4e-7 to 3.3 against a tolerance of 2.0e-8
    for k in (2, 6, 10, 14):
        for alpha in (1.0 + 10.0**-k, 1.0 - 10.0**-k):
            res = M.renyi(Design("rss", 3), EXP1, alpha, force_numeric=True)
            assert res.converged
            assert res.error_estimate <= max(DEFAULT_CONFIG.abs_tol, DEFAULT_CONFIG.rel_tol * abs(res.value)), (alpha, res)


def test_renyi_rejects_bad_alpha():
    with pytest.raises(ValueError):
        M.renyi(Design("srs", 2), Exponential(1.0), 1.0)
    with pytest.raises(ValueError):
        M.renyi(Design("srs", 2), Exponential(1.0), -2.0)


def test_renyi_weibull_unbounded_density():
    # f ~ x^(k-1) at 0: f^2 is an x^-0.8 endpoint singularity for k = 0.6 and
    # an x^-0.99 one for k = 0.505, integrable but out of reach of bisection;
    # for k = 0.3 it diverges and overflows before x reaches 0
    for k, converges in ((0.6, True), (0.505, False)):
        truth = -math.log(k * math.gamma(2.0 - 1.0 / k) / 2.0 ** (2.0 - 1.0 / k))
        res = M.renyi(Design("srs", 1), Weibull(k, 1.0), 2.0, force_numeric=True)
        assert res.converged == converges, k
        assert abs(res.value - truth) <= res.error_estimate, k
    with pytest.raises(DivergentIntegralError):
        M.renyi(Design("srs", 1), Weibull(0.3, 1.0), 2.0)


def test_renyi_overflow_is_not_called_divergent():
    # int f^2 = 1/(2 sqrt(pi) sigma) is finite though f^2 overflows at the mode
    # of N(0, 1e-160); the integral is taken on the standard law
    res = M.renyi(Design("srs", 1), Normal(0.0, 1e-160), 2.0, force_numeric=True)
    truth = math.log(2.0 * math.sqrt(math.pi) * 1e-160)  # -367.148103
    assert res.converged
    assert abs(res.value - truth) <= res.error_estimate
    # f^2 of Weibull(0.3) overflows before x reaches 0 even at unit scale
    with pytest.raises(DivergentIntegralError, match="exceeds the float range"):
        M.renyi(Design("srs", 1), Weibull(0.3, 1.0), 2.0)


# H_a of irss:2:p12=0.001 on exp:1 is sum_i log(2^a int_0^1 (a_i + b_i u)^a (1 - u)^(a - 1) du) / (1 - a),
# with 2 (a_i + b_i u) row i's judged weight: each integral summed in rationals over
# the float matrix's entries, its log taken at 40 digits
LARGE_ALPHA_RENYI = {300.0: 0.030018017795373957, 310.0: 0.029238124615505774}


@pytest.mark.xfail(strict=True, reason="ROADMAP item 3")
@pytest.mark.parametrize("alpha", list(LARGE_ALPHA_RENYI))
def test_large_alpha_renyi_converges_within_its_error_of_the_exact_value(alpha):
    # today alpha = 300 reads 0.0300136780916 +- 1.7e-12, converged, and alpha = 310
    # raises "renyi integral evaluated to a non-positive value"
    res = M.renyi(Design("irss", 2, re.parse_matrix("p12=0.001", 2)), Exponential(1.0), alpha)
    assert res.converged and abs(res.value - LARGE_ALPHA_RENYI[alpha]) <= res.error_estimate


def test_renyi_error_names_x_in_the_callers_coordinates():
    def location(theta):
        with pytest.raises(DivergentIntegralError) as err:
            M.renyi(Design("srs", 1), Weibull(0.3, theta), 2.0)
        return float(re_.search(r"at x = (\S+);", str(err.value)).group(1))

    assert location(1e3) == pytest.approx(1e3 * location(1.0), rel=1e-12)


# The scale defects of the x-space routes before they ran on the standard law:
# (measure, design, law, alpha, truth), the truth being the unit-scale value
# plus n log(scale), to the digits printed.
SCALE_DEFECTS = [
    ("renyi", "rss:3", "weibull:3.68,0.00117096", 2.0, "-21.31835"),
    ("renyi", "irss:3:blend=0.438", "norm:0,1e-4", 0.5, "-22.91378"),
    ("renyi", "irss:4:uniform", "weibull:3.68,0.00117096", 0.2415, "-25.2585"),
    ("renyi", "irss:3:blend=0.438", "exp:8.86e-6", 6.126, "35.97240"),
    ("renyi", "rss:3", "norm:1e4,1", 2.0, "2.796825"),
    ("shannon", "rss:3", "norm:0,1e-4", None, "-24.3631896"),
    ("shannon", "rss:3", "norm:1e4,1", None, "3.2678316"),
    ("shannon", "rss:3", "weibull:3.68,0.00117096", None, "-20.8864256"),
    ("kl", "rss:3", "norm:0,1e-4", None, "2.011016"),
    ("kl", "rss:3", "norm:1e4,1", None, "2.011016"),
    ("kl", "rss:3", "weibull:3.68,0.00117096", None, "2.011016"),
]


@pytest.mark.parametrize("measure, design, law, alpha, truth", SCALE_DEFECTS)
def test_scale_defects_are_right(measure, design, law, alpha, truth):
    design, dist = parse_design(design), parse_distribution(law)
    if measure == "renyi":
        res = M.renyi(design, dist, alpha)
    elif measure == "shannon":
        res = M.shannon_x(design, dist)
    else:
        res = M.kl_srs_vs_design_x(design, dist)
    assert res.converged
    printed = 0.5 * 10.0 ** -len(truth.partition(".")[2])
    assert abs(res.value - float(truth)) <= res.error_estimate + printed


def _member(family: str, scale: float, loc: float, k: float):
    """The family's member at ``scale``, and at ``loc`` for the normal."""
    if family == "exp":
        return Exponential(1.0 / scale)
    if family == "norm":
        return Normal(loc, scale)
    return Weibull(k, scale)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    family=st.sampled_from(["exp", "norm", "weibull"]),
    magnitude=st.floats(-6.0, 6.0).map(lambda e: 10.0**e),
    loc=st.tuples(st.sampled_from([-1.0, 1.0]), st.floats(-6.0, 6.0)).map(lambda t: t[0] * 10.0 ** t[1]),
    k=st.floats(1.0, 4.0),
    n=st.integers(2, 50),
    blend=st.floats(0.05, 1.0),
    alpha=st.floats(0.2, 10.0).filter(lambda a: abs(a - 1.0) > 1e-2),
    route=st.sampled_from(["shannon-u", "shannon-x", "renyi", "kl-x"]),
)
def test_location_scale_equivariance(family, magnitude, loc, k, n, blend, alpha, route):
    # H(aX + b) = H(X) + n log a for Shannon and Renyi; KL is invariant
    design = Design("irss", n, re.blend(n, blend)) if blend < 1.0 else Design("rss", n)
    dist, unit = _member(family, magnitude, loc, k), _member(family, 1.0, 0.0, k)
    measure, _, mode = route.partition("-")

    def run(d):
        if measure == "renyi":
            return M.renyi(design, d, alpha, force_numeric=True)
        if measure == "kl":
            return M.kl_srs_vs_design_x(design, d)
        return M.shannon_x(design, d) if mode == "x" else M.shannon(design, d, force_numeric=True)

    res, ref = run(dist), run(unit)
    expected = ref.value + (0.0 if measure == "kl" else n * math.log(magnitude))
    assert res.converged and ref.converged
    slack = 1e-12 * abs(expected)  # rounding of the shift itself
    assert abs(res.value - expected) <= res.error_estimate + ref.error_estimate + slack


# (X law, Y law) at scale a and location 3e5 where the family has one: K and A_n are invariant
TWO_LAW_PAIRS = {
    "norm-scale": lambda a: (Normal(3e5, a), Normal(3e5, 2.0 * a)),
    "exp-rate": lambda a: (Exponential(1.0 / a), Exponential(0.5 / a)),
    "weibull-shape": lambda a: (Weibull(2.0, a), Weibull(1.5, 2.0 * a)),
    "weibull-exp": lambda a: (Weibull(2.0, a), Exponential(1.0 / a)),
}


@pytest.mark.parametrize("magnitude", [1e-6, 1e6])
@pytest.mark.parametrize("pair", list(TWO_LAW_PAIRS))
@pytest.mark.parametrize("route", ["kl_two_sample", "kld_symmetric", "a_n"])
def test_two_law_routes_are_location_scale_invariant(route, pair, magnitude):
    # read relative to X's law, a pair far from unit scale converges as the unit pair does
    def run(f, g):
        if route == "a_n":
            return M.a_n(f, g, 3)
        return getattr(M, route)(Design("irss", 4, re.blend(4, 0.5)), f, Design("rss", 4), g)

    res, ref = run(*TWO_LAW_PAIRS[pair](magnitude)), run(*TWO_LAW_PAIRS[pair](1.0))
    assert res.converged and ref.converged
    assert res.subdivisions_used <= 64, res
    assert abs(res.value - ref.value) <= res.error_estimate + ref.error_estimate


def test_renyi_far_from_unit_scale():
    # x-space Renyi at large scale: the half-line map squeezes the mass
    # against t = 1, where an unresolved end panel used to pass as converged
    res = M.renyi(Design("rss", 2), Exponential(1e-6), 2.0, force_numeric=True)
    truth = cf.exp_renyi(re.identity(2), 1e-6, 2.0)
    assert res.converged
    assert abs(res.value - truth) <= res.error_estimate + 1e-9 * abs(truth)
    for design in (Design("srs", 3), Design("rss", 3)):
        big = M.renyi(design, Weibull(2.0, 1e5), 2.0, force_numeric=True)
        unit = M.renyi(design, Weibull(2.0, 1.0), 2.0, force_numeric=True)
        assert big.converged
        shifted = unit.value + 3 * math.log(1e5)
        assert abs(big.value - shifted) <= big.error_estimate + unit.error_estimate + 1e-9 * abs(shifted)


def test_renyi_designs_share_one_integral():
    # a law off unit scale; forced, so no leg takes a closed form
    dist = Normal(1.0, 2.0)
    designs = [
        Design("srs", 3),
        Design("rss", 3),
        Design("irss", 3, re.identity(3)),
        Design("irss", 3, re.blend(3, 0.5)),
        Design("irss", 3, re.blend(3, 0.25)),
    ]
    for alpha in (0.5, 3.0):
        shared = M.renyi_designs(designs, dist, alpha, force_numeric=True)
        for design, res in zip(designs, shared):
            own = M.renyi(design, dist, alpha, force_numeric=True)
            assert res.method == own.method == "quadrature"
            assert abs(res.value - own.value) <= res.error_estimate + own.error_estimate, design
            assert own == M.renyi_designs([design], dist, alpha, force_numeric=True)[0]
        assert shared[2] == shared[1]  # irss:identity is the rss leg
        assert len({r.subdivisions_used for r in shared}) == 1


def test_renyi_designs_give_a_repeated_design_its_own_equal_leg():
    # rss:3 on a unit exponential is closed; forced, it shares the integral with the blend
    dist, d, e = Exponential(1.0), Design("rss", 3), Design("irss", 3, re.blend(3, 0.5))

    def bits(r):
        return r.value.hex(), r.error_estimate.hex(), r.method, r.converged, r.subdivisions_used

    for force, method in ((False, "closed-form"), (True, "quadrature")):
        first, again, other = map(bits, M.renyi_designs([d, d, e], dist, 2.0, force_numeric=force))
        assert first == again == bits(M.renyi(d, dist, 2.0, force_numeric=force))
        assert first[2] == method
        assert (first, other) == tuple(map(bits, M.renyi_designs([d, e], dist, 2.0, force_numeric=force)))


def test_renyi_gap_binomial_matches_direct_route():
    for dist in [Uniform(), Exponential(1.0), Normal(0.0, 1.0)]:
        for n, alpha in [(2, 2.0), (3, 1.5), (4, 3.0)]:
            direct = (
                M.renyi(Design("rss", n), dist, alpha, force_numeric=True).value
                - M.renyi(Design("srs", n), dist, alpha, force_numeric=True).value
            )
            binom = M.renyi_gap_binomial(dist, n, alpha)
            assert abs(binom.value - direct) < 1e-6, (dist.spec_string(), n, alpha)


def test_renyi_gap_binomial_error_is_informative():
    # rows of order n^-alpha used to let abs_tol decide: +-1.6e-3 after 1 split
    for dist, n in [(Normal(0.0, 1.0), 5), (Normal(0.0, 1.0), 8), (Exponential(1.0), 8)]:
        gap = M.renyi_gap_binomial(dist, n, 10.0)
        rss = M.renyi(Design("rss", n), dist, 10.0, force_numeric=True)
        srs = M.renyi(Design("srs", n), dist, 10.0, force_numeric=True)
        assert gap.converged and gap.error_estimate < 1e-8
        budget = gap.error_estimate + rss.error_estimate + srs.error_estimate
        assert abs(gap.value - (rss.value - srs.value)) <= budget
    with pytest.raises(M.DivergentIntegralError):
        M.renyi_gap_binomial(Weibull(0.7, 1.0), 3, 10.0)


def test_renyi_gap_binomial_is_a_second_route():
    # its x-space integrals share no integrand with renyi's u-space one: the gaps agree
    # within their joint error, but not bit for bit
    ties = []
    for dist in (Normal(0.0, 1.0), Weibull(2.0, 1.0)):
        for n, alpha in ((3, 2.0), (4, 3.0)):
            gap = M.renyi_gap_binomial(dist, n, alpha)
            rss, srs = M.renyi_designs([Design("rss", n), Design("srs", n)], dist, alpha, force_numeric=True)
            direct = rss.value - srs.value
            assert gap.converged and gap.method == "quadrature"
            assert abs(gap.value - direct) <= gap.error_estimate + rss.error_estimate + srs.error_estimate, (dist, n, alpha)
            ties.append(gap.value == direct)
    assert not all(ties)


def test_renyi_gap_binomial_domain():
    assert M.renyi_gap_binomial(Exponential(1.0), 1, 2.0).value == 0.0
    # the gap is scale-free; f^9 would overflow at scale 1e-40
    tiny = M.renyi_gap_binomial(Weibull(2.0, 1e-40), 5, 10.0)
    assert tiny.value == M.renyi_gap_binomial(Weibull(2.0, 1.0), 5, 10.0).value
    with pytest.raises(ValueError):
        M.renyi_gap_binomial(Exponential(1.0), 3, 0.8)


def test_kl_perfect_is_distribution_free(families):
    for n in (2, 4):
        expected = cf.d_n(n)
        closed = M.kl_srs_vs_design(Design("rss", n))
        assert closed.method == "closed-form"
        assert closed.value == pytest.approx(expected)
        numeric = M.kl_srs_vs_design(Design("rss", n), force_numeric=True)
        assert abs(numeric.value - expected) < 1e-8
        for dist in families:
            x_route = M.kl_srs_vs_design_x(Design("rss", n), dist)
            assert abs(x_route.value - expected) < 1e-6, dist.spec_string()


def test_kl_imperfect_limits():
    for n in (2, 5, 8):
        ident = M.kl_srs_vs_design(Design("irss", n, re.identity(n)), force_numeric=True)
        rand = M.kl_srs_vs_design(Design("irss", n, re.uniform(n)))
        assert ident.value == M.kl_srs_vs_design(Design("rss", n), force_numeric=True).value
        assert abs(ident.value - cf.d_n(n)) <= ident.error_estimate
        assert rand.value == 0.0  # K(SRS, SRS)
        # imperfect ranking never exceeds the perfect-ranking divergence
        mid = M.kl_srs_vs_design(Design("irss", n, re.blend(n, 0.5)))
        assert 0.0 < mid.value < cf.d_n(n)


def test_identity_and_uniform_matrices_are_rss_and_srs(families):
    # closed forms are keyed on the matrix, so irss:n:identity and
    # irss:n:uniform take the very route of rss:n and srs:n, closed or not
    for dist in [*families, Weibull(0.6, 1.0)]:
        for n in (1, 2, 5):
            rss, srs = Design("rss", n), Design("srs", n)
            ident, rand = Design("irss", n, re.identity(n)), Design("irss", n, re.uniform(n))
            assert M.shannon(ident, dist) == M.shannon(rss, dist)
            assert M.shannon(rand, dist) == M.shannon(srs, dist)
            for alpha in (0.5, 2.0):
                assert M.renyi(ident, dist, alpha) == M.renyi(rss, dist, alpha)
                assert M.renyi(rand, dist, alpha) == M.renyi(srs, dist, alpha)
            if n > 1:
                assert M.kl_srs_vs_design(ident) == M.kl_srs_vs_design(rss)
            assert M.kl_srs_vs_design(rand).value == 0.0  # K(SRS, SRS)


def test_closed_forms_agree_with_the_integrals(families):
    # every closed form lies within the error of the integral it replaces
    cases = []
    for dist in [*families, Weibull(0.6, 1.0), Weibull(3.68, 1.0)]:
        for n in (1, 2, 5):
            for alpha in (0.2, 0.5, 2.0, 10.0):
                for design in (Design("srs", n), Design("rss", n)):
                    cases.append(lambda force, d=design, dist=dist, a=alpha: M.renyi(d, dist, a, force_numeric=force))
    for n in (2, 5):
        for P in (re.identity(n), re.uniform(n)):
            cases.append(lambda force, d=Design("irss", n, P): M.kl_srs_vs_design(d, force_numeric=force))
    for p12 in (0.0, 0.3, 0.45, 0.5, 0.55, 0.7, 1.0):
        cases.append(lambda force, d=Design("irss", 2, re.two_by_two(p12)): M.kl_srs_vs_design(d, force_numeric=force))
    closed_forms = 0
    for case in cases:
        try:
            closed = case(False)
        except DivergentIntegralError:  # no closed form where int f^alpha diverges
            continue
        if closed.method != "closed-form":
            continue
        closed_forms += 1
        numeric = case(True)
        assert numeric.method == "quadrature" and numeric.converged
        # a few ulps of slack: a folded integrand's halves can cancel below the rounding floor
        assert abs(closed.value - numeric.value) <= numeric.error_estimate + 1e-15, (closed, numeric)
    assert closed_forms >= 60


def test_rows_singular_at_opposite_ends_share_one_folded_tree():
    # rss:2's rows are singular at u = 0 and u = 1; folded, both sit at s -> 0,
    # so together they take no more splits than one row alone (41 here)
    tight = QuadratureConfig(abs_tol=1e-13, rel_tol=1e-12, max_subdivisions=4000)
    res = M.kl_srs_vs_design(Design("rss", 2), cfg=tight, force_numeric=True)
    assert res.converged and res.subdivisions_used <= 41
    assert abs(res.value - cf.d_n(2)) <= res.error_estimate


def test_kl_large_n_u_space_stays_finite():
    res = M.kl_srs_vs_design(Design("rss", 50), force_numeric=True)
    assert res.converged
    assert abs(res.value - cf.d_n(50)) <= res.error_estimate


def test_kl_srs_of_srs_is_zero_on_every_route():
    # srs:n is the uniform matrix, so K(SRS || srs:n) is K(SRS || irss:n:uniform), exactly 0
    for n in (1, 2, 3, 8):
        for design in (Design("srs", n), Design("irss", n, re.uniform(n))):
            for res in (M.kl_srs_vs_design(design), M.kl_srs_vs_design(design, force_numeric=True),
                        M.kl_srs_vs_design_x(design, Normal(1.0, 2.0))):
                assert res.value == 0.0 and res.converged, (design.spec_string(), res)


_TIGHT = QuadratureConfig(abs_tol=1e-13, rel_tol=1e-12, max_subdivisions=4000)


@pytest.mark.parametrize("law", ["unif", "exp:1", "exp:1e-6", "norm:0,1", "norm:1e6,1e-6", "weibull:2,1", "weibull:0.7,1"])
def test_kl_x_route_meets_d_n_at_tight_tolerance(law):
    # where F or S rounds to 0 at a support end (x = 1 on unif), the rows' log weight is -inf
    # over one ulp of x, and the x route drops that term
    dist = parse_distribution(law)
    for n in (*range(2, 9), 20, 50):
        res = M.kl_srs_vs_design_x(Design("rss", n), dist, _TIGHT)
        assert res.converged and abs(res.value - cf.d_n(n)) <= res.error_estimate, (n, res)


def test_kl_x_route_meets_the_u_route_on_a_zero_entry_design():
    P = re.RankingErrorMatrix([[0.5, 0.0, 0.5], [0.5, 0.0, 0.5], [0.0, 1.0, 0.0]])
    x, u = M.kl_srs_vs_design_x(P, Uniform(), _TIGHT), M.kl_srs_vs_design(P, _TIGHT, force_numeric=True)
    assert x.converged and u.converged
    assert abs(x.value - u.value) <= x.error_estimate + u.error_estimate, (x, u)


def test_kl_two_sample_identical_laws_vanish():
    dist = Exponential(1.0)
    for design in [Design("srs", 2), Design("rss", 2), Design("irss", 2, re.two_by_two(0.2))]:
        r = M.kl_two_sample(design, dist, design, dist)
        assert r.value == 0.0, design.spec_string()  # one law: both sides read the same weights


@pytest.mark.parametrize("law", ["exp:1", "norm:0,1", "unif"])
def test_kl_two_sample_near_zero_stops_before_its_budget(law):
    # one law: both sides' weights cancel exactly, so the first call's 5 splits decide even at rel_tol 1e-15
    dist = parse_distribution(law)
    assert M.kl_two_sample(Design("rss", 2), dist, Design("rss", 2), dist).subdivisions_used == 5
    r = M.kl_two_sample(Design("rss", 2), dist, Design("rss", 2), dist, QuadratureConfig(1e-300, 1e-15, 200))
    assert r.subdivisions_used < 200, r


@pytest.mark.parametrize("rel_tol", [1e-12, 1e-13, 1e-14, 1e-15, 1e-16])
def test_kl_two_sample_on_a_uniform_parent_reads_one_u_space(rel_tol):
    # K(irss:3:blend=0.5 || rss:3) on unif is finite: read through x = F^-1(u) the Y side's
    # survival rounded to 0 near u = 1 and raised; the reference is 25-digit mpmath
    unif, cfg = Uniform(), QuadratureConfig(1e-300, rel_tol, 4000)
    r = M.kl_two_sample(Design("irss", 3, re.blend(3, 0.5)), unif, Design("rss", 3), unif, cfg)
    assert abs(r.value - 0.7302010191496433873014005) <= r.error_estimate, r
    assert r.converged or rel_tol < 1e-12, r


def test_kl_two_sample_reduces_to_srs_vs_design():
    dist = Exponential(1.0)
    r = M.kl_two_sample(Design("srs", 2), dist, Design("rss", 2), dist)
    assert abs(r.value - cf.d_n(2)) < 1e-8


def test_kl_two_sample_srs_srs_is_n_times_marginal():
    f, g = Exponential(1.0), Exponential(2.0)
    # K(Exp(l1), Exp(l2)) = log(l1/l2) + l2/l1 - 1
    marginal = math.log(0.5) + 2.0 - 1.0
    for n in (2, 3):
        r = M.kl_two_sample(Design("srs", n), f, Design("srs", n), g)
        assert abs(r.value - n * marginal) < 1e-8


def test_kl_convexity_ordering_srs_vs_rss_target():
    # mixing the target components can only increase the divergence
    f, g = Exponential(1.0), Exponential(2.0)
    for n in (2, 3):
        srs = M.kl_two_sample(Design("srs", n), f, Design("srs", n), g)
        rss = M.kl_two_sample(Design("srs", n), f, Design("rss", n), g)
        assert srs.value <= rss.value + 1e-9


def test_kl_two_sample_support_mismatch_diverges():
    # a Y law moved relative to X's that needs a location or scale its family lacks has another support
    for f, g in [(Normal(0.0, 1.0), Exponential(1.0)), (Normal(5.0, 1.0), Exponential(1.0)), (Exponential(0.5), Uniform())]:
        with pytest.raises(DivergentIntegralError):
            M.kl_two_sample(Design("srs", 2), f, Design("srs", 2), g)
        with pytest.raises(DivergentIntegralError):
            M.a_n(f, g, 3)


# K(RSS_F || RSS_G) and A_2 for F = exp:1 against G = weibull:2,1, both finite: at 40 digits,
# with log G taken as log(-expm1(-x^2)), A_2 = -1 - 2 int_0^inf [F log G - S x^2] e^-x dx,
# and K = 2 K(f || g) + A_2 with K(f || g) = E_f[x^2 - x - log 2x] = 1 + gamma - log 2;
# the definition, sum_i int f_i log(f_i / g_i), agrees to 1e-16, and mc_kl at 2e5 draws
# reads 1.953 +- 0.012
FAR_TAIL_PAIR = {
    "kl_two_sample": (lambda f, g: M.kl_two_sample(Design("rss", 2), f, Design("rss", 2), g), 1.9537697215610763),
    "a_n": (lambda f, g: M.a_n(f, g, 2), 0.18563275287790124),
}


@pytest.mark.xfail(
    strict=True, raises=DivergentIntegralError,
    reason="FOUND: G's survival exp(-x^2) underflows to 0 near x = 27, where X still has mass, "
    "so a judged log weight reading only S_G's power is -inf: 'not integrable at u = 0.9999999999993493'",
)
@pytest.mark.parametrize("measure", list(FAR_TAIL_PAIR))
def test_two_law_routes_read_g_past_its_survival_underflow(measure):
    run, truth = FAR_TAIL_PAIR[measure]
    res = run(Exponential(1.0), Weibull(2.0, 1.0))
    assert res.converged and abs(res.value - truth) <= res.error_estimate


def test_kld_symmetric_known_values():
    dist = Exponential(1.0)
    r2 = M.kld_symmetric(Design("srs", 2), dist, Design("rss", 2), dist)
    assert abs(r2.value - 1.0) < 1e-7
    r3 = M.kld_symmetric(Design("srs", 3), dist, Design("rss", 3), dist)
    assert abs(r3.value - (cf.d_n(3) - cf.k_direct(3))) < 1e-7


def test_a_n_reduced_equals_sum_and_vanishes_at_equal_laws():
    f, g = Exponential(1.0), Exponential(2.0)
    for n in (2, 3, 4):
        reduced = M.a_n(f, g, n)
        rss, srs = (M.kl_two_sample(P, f, P, g) for P in (re.identity(n), re.uniform(n)))
        assert abs(reduced.value - (rss.value - srs.value)) < 1e-8, n
    assert abs(M.a_n(f, f, 3).value) < 1e-9
    assert M.a_n(f, g, 1).value == 0.0


def test_kld_symmetric_is_two_two_sample_kls():
    f, g = Exponential(1.0), Exponential(2.0)
    for cfg in (DEFAULT_CONFIG, QuadratureConfig(max_subdivisions=1)):
        for n in (2, 3, 8):
            x, y = Design("rss", n), Design("irss", n, re.blend(n, 0.5))
            fwd, bwd = M.kl_two_sample(x, f, y, g, cfg), M.kl_two_sample(y, g, x, f, cfg)
            joined = M.kld_symmetric(x, f, y, g, cfg)
            assert joined.value == fwd.value + bwd.value, (cfg, n)
            assert joined.error_estimate == fwd.error_estimate + bwd.error_estimate
            assert joined.converged == (fwd.converged and bwd.converged)
            assert joined.subdivisions_used == fwd.subdivisions_used + bwd.subdivisions_used
    # a starved leg makes the sum not converged
    x, y = Design("rss", 3), Design("srs", 3)
    assert not M.kl_two_sample(x, f, y, g, QuadratureConfig(max_subdivisions=1)).converged
    assert not M.kld_symmetric(x, f, y, g, QuadratureConfig(max_subdivisions=1)).converged


def test_a_n_decomposes_rss_vs_rss():
    f, g = Exponential(1.0), Exponential(2.0)
    n = 3
    rss = M.kl_two_sample(Design("rss", n), f, Design("rss", n), g)
    srs = M.kl_two_sample(Design("srs", n), f, Design("srs", n), g)
    assert abs((rss.value - srs.value) - M.a_n(f, g, n).value) < 1e-6


def test_mode_means_the_same_in_every_measure():
    # the x-space routes integrate even where a closed form exists, as force_numeric does
    exp1 = Exponential(1.0)
    for spec in ("srs:3", "rss:2"):
        assert M.shannon_x(parse_design(spec), exp1).method == "quadrature", spec
        assert M.kl_srs_vs_design_x(parse_design(spec), exp1).method == "quadrature", spec


EXP1 = Exponential(1.0)
# integrands for integrate_unit whose last axis does not hold its u points: a scalar, a list, (2, 1), (7,)
_WRONG_SHAPES = (lambda F, S: 1.0, lambda F, S: [1.0, 2.0], lambda F, S: np.ones((2, 1)), lambda F, S: np.ones(7))


@pytest.mark.parametrize(
    "call",
    [
        lambda: M.a_n(EXP1, EXP1, 0),
        lambda: M.kl_two_sample(Design("rss", 2), EXP1, Design("rss", 3), EXP1),
        lambda: M.renyi_gap_binomial(EXP1, 3, 0.8),
        lambda: M.renyi_gap_binomial(EXP1, 0, 2.0),
        lambda: mc.mc_kl(Design("srs", 2), EXP1, Design("rss", 3), EXP1),
        lambda: M.renyi_designs([Design("srs", 2), Design("rss", 3)], EXP1, 2.0),
        *(lambda a=a: mc.mc_renyi(Design("rss", 2), EXP1, a) for a in (math.nan, math.inf, 1.0)),
        *(lambda a=a: cf.exp_renyi(re.identity(2), 1.0, a) for a in (math.nan, math.inf)),
        lambda: cf.h_uniform_order(3, 4),
        lambda: cf.k_direct(0),
        lambda: cf.k_recursive(0),
        lambda: cf.d_n(0),
        lambda: cf.eta(1.5),
        lambda: cf.exp_shannon(re.uniform(2), 0.0),
        lambda: cf.exp_shannon(re.blend(3, 0.5), 1.0),
        lambda: cf.exp_renyi(re.uniform(2), -1.0, 2.0),
        lambda: cf.exp_renyi(re.two_by_two(0.2), 1.0, 2.0),
        lambda: log_order_coeff(0, 1),
        lambda: log_order_coeff(3, 0),
        lambda: re.identity(0),
        lambda: re.uniform(0),
        lambda: re.blend(3, 1.5),
        lambda: re.blend(3, -0.5),
        lambda: re.blend(0, 0.5),
        lambda: re.two_by_two(2.0),
        lambda: re.two_by_two(-0.1),
        lambda: re.identity(2).row(0),
        lambda: re.identity(2).row(3),
        lambda: integrate(np.exp, 1.0, 0.0),
        lambda: integrate(np.exp, 0.0, math.inf),
        lambda: integrate(np.exp, -math.inf, 0.0),
        lambda: integrate(np.exp, 0.0, 1.0, breaks=(0.5, 0.25)),
        lambda: integrate(np.exp, 0.0, 1.0, breaks=(1.0,)),
        lambda: mc.vasicek_entropy(np.arange(10.0), 0),
        lambda: mc.vasicek_entropy([1.0, 2.0, 3.0], 5),
        lambda: mc.vasicek_entropy(np.arange(10.0), 2.5),
        *(lambda v=v: mc.vasicek_entropy(np.r_[np.arange(10.0), v], 1) for v in (math.nan, math.inf, -math.inf)),
        lambda: mc.SimConfig(replications=1000.5),
        lambda: mc.sample_judged(EXP1, re.identity(2), 1, np.random.default_rng(0), size=-1),
        lambda: integrate_support(np.exp, Support(-math.inf, 0.0)),
        lambda: figure_curve("3", 5),
        lambda: M.a_n(EXP1, Exponential(2.0), 2.5),
        lambda: Design("srs", 2.5),
        lambda: QuadratureConfig(max_subdivisions=10.5),
        lambda: cf.d_n(2.5),
        lambda: cf.psi_bound(2.0, 2.5),
        lambda: ScanGrid(ns=(2.5,)),
        lambda: mc.SimConfig(seed=-1),
        lambda: M.renyi_gap_binomial(EXP1, 2.5, 2.0),
        lambda: cf.k_direct(2.5),
        lambda: re.blend(2.5, 0.5),
        lambda: figure_curve("1", 2.5),
        lambda: cf.h_uniform_order(3, 1.5),
        lambda: log_order_coeff(3, 2.5),
        lambda: beta_order_log_pdf(3, 1.5, 0.5),
        lambda: re.identity(3).row(1.5),
        lambda: mc.sample_judged(EXP1, re.identity(3), 1.5, np.random.default_rng(0)),
        lambda: mc.sample_order_stat(EXP1, 3, 1.5, np.random.default_rng(0)),
        *(lambda lam=lam: cf.exp_shannon(re.uniform(2), lam) for lam in (math.inf, math.nan, 0.0, -1.0)),
        *(lambda lam=lam: cf.exp_renyi(re.uniform(2), lam, 2.0) for lam in (math.inf, math.nan, 0.0, -1.0)),
        lambda: ScanGrid(alphas=(math.nan,)),
        lambda: cf.psi_bound(math.nan, 3),
        lambda: ScanGrid(ns=()),
        lambda: Design("rss", True),
        lambda: QuadratureConfig(max_subdivisions=True),
        lambda: mc.SimConfig(seed=True),
        *(lambda g=g: integrate_unit(g, DEFAULT_CONFIG, "g") for g in _WRONG_SHAPES),
    ],
    ids=[
        "a_n-n0", "kl2-n",
        "gap-alpha", "gap-n0", "mc_kl-n", "renyi_designs-n",
        "mc_renyi-alpha-nan", "mc_renyi-alpha-inf", "mc_renyi-alpha-1",
        "exp_renyi-alpha-nan", "exp_renyi-alpha-inf",
        "h_uniform_order-rank", "k_direct-n0", "k_recursive-n0", "d_n-n0", "eta-range",
        "exp_shannon-rate", "exp_shannon-size", "exp_renyi-rate",
        "exp_renyi-matrix", "order_coeff-n0", "order_coeff-rank",
        "identity-n0", "uniform-n0", "blend-w-high", "blend-w-low", "blend-n0",
        "two_by_two-high", "two_by_two-low", "row-low", "row-high",
        "integrate-reversed", "integrate-inf-upper", "integrate-inf-lower",
        "integrate-breaks-unordered", "integrate-break-at-b",
        "vasicek-window0", "vasicek-few-samples", "vasicek-window-float",
        "vasicek-nan", "vasicek-inf", "vasicek-minus-inf", "sim-replications-float", "sample_judged-size",
        "integrate_support-lower-half-line", "figure-id",
        "a_n-n-float", "design-n-float", "quad-budget-float", "d_n-n-float",
        "psi-n-float", "scan-n-float", "sim-seed-negative", "gap-n-float",
        "k_direct-n-float", "blend-n-float", "figure-points-float",
        "h_uniform_order-rank-float", "order_coeff-rank-float", "beta_order-rank-float", "row-float",
        "sample_judged-rank-float", "sample_order_stat-rank-float",
        "exp_shannon-rate-inf", "exp_shannon-rate-nan", "exp_shannon-rate-zero", "exp_shannon-rate-negative",
        "exp_renyi-rate-inf", "exp_renyi-rate-nan", "exp_renyi-rate-zero", "exp_renyi-rate-negative",
        "scan-alpha-nan", "psi-alpha-nan", "scan-empty-ns",
        "design-n-bool", "quad-budget-bool", "sim-seed-bool",
        "unit-scalar", "unit-list", "unit-2x1", "unit-7",
    ],
)
def test_measure_input_rules_raise_input_error(call):
    with pytest.raises(InputError):
        call()


def test_quantile_spacing_and_jobs_rules_raise_input_error():
    calls = [
        lambda: EXP1.quantile(1.5),
        lambda: mc.vasicek_entropy(np.zeros(10), 1),
        lambda: run_conjecture_scan(ScanGrid(), QuadratureConfig(), jobs=2),
    ]
    for call in calls:
        with pytest.raises(ValueError) as info:
            call()
        assert isinstance(info.value, InputError), repr(info.value)


def test_a_n_printed_form_fails_equal_law_oracle():
    (row,) = (row for row in run_errata_checks() if row["check"] == "a_n_missing_log")
    assert abs(row["printed"]) > 0.1
    assert row["corrected"] == 0.0


_NORM = Normal(0.0, 1.0)
_BLEND3 = Design("irss", 3, re.blend(3, 0.5))
_CLOSED_DIVERGENCE = ("rss:3", "irss:3:uniform", "irss:3:identity", "irss:2:p12=0.3")


@pytest.mark.parametrize(
    "call, integrals",
    [
        *((lambda d=d: M.shannon(parse_design(d), _NORM), 0) for d in ("srs:3", *_CLOSED_DIVERGENCE)),
        *((lambda d=d: M.kl_srs_vs_design(parse_design(d)), 0) for d in _CLOSED_DIVERGENCE),
        *((lambda d=d: M.renyi(parse_design(d), Weibull(2.0), 2.5), 0) for d in ("srs:3", "irss:3:uniform")),
        *((lambda f=f: M.renyi(Design("rss", 4), f, 0.4), 0) for f in (Uniform(), EXP1)),
        (lambda: M.renyi_designs([Design("srs", 3), Design("rss", 3), Design("irss", 3, re.uniform(3))], EXP1, 3.0), 0),
        (lambda: M.shannon(Design("rss", 3), _NORM, force_numeric=True), 1),
        (lambda: M.kl_srs_vs_design(Design("irss", 2, re.two_by_two(0.3)), force_numeric=True), 1),
        (lambda: M.renyi(Design("srs", 3), EXP1, 2.0, force_numeric=True), 1),
        (lambda: M.shannon(_BLEND3, _NORM), 1),
        (lambda: M.kl_srs_vs_design(_BLEND3), 1),
        (lambda: M.renyi(_BLEND3, EXP1, 2.0), 1),
        (lambda: M.renyi(Design("rss", 3), _NORM, 2.0), 1),  # the identity is closed only on unif and exp
        (lambda: M.renyi_designs([Design("srs", 3), Design("rss", 3), _BLEND3, _BLEND3], _NORM, 2.0), 1),
        (lambda: M.renyi_designs([Design("srs", 3), _BLEND3, Design("irss", 3, re.blend(3, 0.25))], EXP1, 2.0), 1),
    ],
)
def test_closed_forms_are_fast_paths_on_one_integral(monkeypatch, call, integrals):
    # every unforced closed-form matrix skips the integrator; everything else,
    # however many designs, makes exactly one integral
    calls = []
    integrate_unit = M.integrate_unit

    def counted(*args, **kwargs):
        calls.append(args)
        return integrate_unit(*args, **kwargs)

    monkeypatch.setattr(M, "integrate_unit", counted)
    results = call()
    assert len(calls) == integrals
    methods = {r.method for r in (results if isinstance(results, list) else [results])}
    assert methods <= ({"closed-form"} if integrals == 0 else {"closed-form", "quadrature"})


def test_result_record_shape():
    dist = Exponential(1.0)
    res = M.renyi(Design("srs", 2), dist, 2.0)
    rec = M.result_record("renyi", "srs:2", "exp:1", res, alpha=2.0)
    assert rec["measure"] == "renyi"
    assert rec["design"] == "srs:2"
    assert rec["converged"] is True
    assert rec["dist"] == "exp:1"
    assert rec["alpha"] == 2.0
    assert math.isfinite(rec["value"]) and rec["error"] >= 0.0


def test_measures_and_integrals_return_the_one_result_type():
    closed = M.shannon(Design("rss", 3), EXP1)
    forced = M.shannon(Design("rss", 3), EXP1, force_numeric=True)
    r = integrate(np.exp, 0.0, 1.0)
    for res, method in ((closed, "closed-form"), (forced, "quadrature"), (r, "quadrature")):
        assert type(res) is rssinfo.QuadratureResult
        assert res.method == method
    moved = r.scaled(1.0)
    # the error gains one ulp each of the shift and of the moved value
    moved_error = r.error_estimate + math.ulp(1.0) + math.ulp(r.value + 1.0)
    assert (moved.value, moved.error_estimate) == (r.value + 1.0, moved_error)
    assert (moved.subdivisions_used, moved.converged, moved.method) == (r.subdivisions_used, r.converged, "quadrature")


def test_quadrature_results_report_convergence_diagnostics():
    res = M.shannon(Design("rss", 3), Normal(), force_numeric=True)
    assert res.method == "quadrature"
    assert res.converged
    assert res.subdivisions_used > 0
    assert res.error_estimate >= 0.0


@pytest.mark.parametrize("family", DEFAULT_SCAN_FAMILIES)
def test_scan_legs_lie_within_their_error_of_tight_values(family):
    # the error a default-tolerance leg reports must cover its distance to
    # the same leg integrated at a far tighter tolerance
    tight = QuadratureConfig(abs_tol=1e-13, rel_tol=1e-12, max_subdivisions=4000)
    dist = parse_distribution(family)
    for n in (2, 8):
        designs = [Design("irss", n, re.parse_matrix(s, n)) for s in ("uniform", "identity", *DEFAULT_SCAN_MATRICES)]
        for alpha in (1.1, 10.0):
            for d, t in zip(M.renyi_designs(designs, dist, alpha), M.renyi_designs(designs, dist, alpha, tight)):
                assert d.converged and t.converged
                assert abs(d.value - t.value) <= d.error_estimate, (n, alpha, d, t)


def test_the_set_size_finding_at_n_50():
    # the north star's n = 50: every record converged and no ordering violation
    report = run_conjecture_scan(ScanGrid(ns=(50,), alphas=(1.1, 10.0)), DEFAULT_CONFIG)
    assert len(report.records) == 40 and all(r["converged"] for r in report.records)
    assert not report.violations

    def margin(n):
        grid = ScanGrid(families=("exp:1",), ns=(n,), alphas=(10.0,), matrices=("blend=0.5",))
        (rec,) = run_conjecture_scan(grid, DEFAULT_CONFIG).records
        return rec["margin_irss_srs"], rec["error_budget"]

    # on exp:1 at alpha = 10 the upper ordering fails at n = 4 (-0.0195) and holds from n = 5 (+0.100) to 50 (+30.9)
    low, budget = margin(4)
    assert low < -budget
    for n in (5, 50):
        high, budget = margin(n)
        assert high > budget, n


def test_the_lower_alpha_above_one_ordering_fails_off_the_blend_path():
    # H_a(RSS) <= H_a(IRSS) holds on the default scan's blends but not for every doubly stochastic P:
    # at n = 3 on exp:1 this P gives H_a(IRSS) - H_a(RSS) < 0 at a = 5 and 10.  The exact margins are
    # rational integrals of Bernstein polynomials (f_i^a of the standard exponential is a polynomial
    # in u = F(x) times exp(-a x)), evaluated exactly in sympy and printed to 20 digits
    P = re.RankingErrorMatrix([[0.5, 0.0, 0.5], [0.5, 0.0, 0.5], [0.0, 1.0, 0.0]])
    for alpha, exact in ((5.0, -0.028584024586705228821), (10.0, -0.25662614444368857723)):
        rss, irss = M.renyi_designs([Design("rss", 3), P], EXP1, alpha)
        margin, error = irss.value - rss.value, irss.error_estimate + rss.error_estimate
        assert rss.converged and irss.converged
        assert abs(margin - exact) <= error and margin < -error, (alpha, margin, error)
    # n = 5, rows (e3, (e1 + e5)/2, (e1 + e5)/2, e2, e4), which confuse the smallest unit with the
    # largest: the lower margin on exp:1, by the same method, as exact Fraction integrals of
    # w_i(u)^a (1 - u)^(a - 1) over [0, 1] whose logs are taken in mpmath at 40 digits
    e = np.eye(5)
    P5 = re.RankingErrorMatrix([e[2], (e[0] + e[4]) / 2, (e[0] + e[4]) / 2, e[1], e[3]])
    for alpha, exact in ((3.0, -0.1908620604017957084), (5.0, -0.5851911116533523463)):
        rss, irss = M.renyi_designs([Design("rss", 5), P5], EXP1, alpha)
        margin, error = irss.value - rss.value, irss.error_estimate + rss.error_estimate
        assert rss.converged and irss.converged
        assert abs(margin - exact) <= error and margin < -error, (alpha, margin, error)
    # the n = 3 matrix breaks the upper ordering H_a(IRSS) <= H_a(SRS) on norm:0,1: H_a(SRS) - H_a(IRSS)
    # from 35-digit mpmath.quad of (w_i(Phi(x)) phi(x))^a over x, split at (-3, -1, 0, 1, 3) and at
    # (-4, -2, -0.5, 0.5, 2, 4), which agree to 22 digits, against the closed n H_a(phi)
    for alpha, exact in ((10.0, -0.0352850322353773953), (20.0, -0.0750509767835581879)):
        srs, irss = M.renyi_designs([Design("srs", 3), P], Normal(0.0, 1.0), alpha)
        margin, error = srs.value - irss.value, irss.error_estimate + srs.error_estimate
        assert srs.converged and irss.converged
        assert abs(margin - exact) <= error and margin < -error, (alpha, margin, error)


def test_memoized_matrices_rows_and_counts_are_read_only():
    matrices = [
        re.identity(3), re.uniform(3), re.blend(3, 0.5), re.two_by_two(0.3),
        Design("srs", 3), Design("rss", 3), re.parse_matrix("blend=0.25", 3), re.parse_matrix("p12=0.2", 2),
    ]
    assert re.blend(3, 0.5) is re.blend(3, 0.5) and Design("rss", 3) is re.identity(3)
    rows, counts = M._distinct_rows(re.blend(3, 0.5).entries, re.identity(3).entries)
    assert M._distinct_rows(re.blend(3, 0.5).entries, re.identity(3).entries)[0] is rows
    for arr in [P.entries for P in matrices] + [rows, counts]:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0, 0] = 0.5


def test_each_kernel_is_built_once_per_scan_and_figure():
    # the kernel and the distinct rows read neither the parent nor alpha: the default scan's
    # numeric matrices at each n are the three blends, with or without the identity
    # (closed on unif and exp only), so 7 n x 2 row sets serve all 168 cells; a kernel is
    # fetched once per integral and built once per row set
    order_stats._kernel.cache_clear()
    M._log_weights.cache_clear()
    M._distinct_rows.cache_clear()
    report = run_conjecture_scan(ScanGrid(), DEFAULT_CONFIG)
    assert len(report.records) == 840
    assert order_stats._kernel.cache_info().misses == 14
    assert M._distinct_rows.cache_info().misses == 14
    # figure 2a: one kernel over the three 2x2 misrankings (p11 = 1 is the identity, closed) at every
    # alpha, fetched once per integral, 48 of them
    order_stats._kernel.cache_clear()
    M._log_weights.cache_clear()
    rows = figure_curve("2a", 48)
    assert len(rows) == 48 and order_stats._kernel.cache_info()[:2] == (47, 1)  # hits, misses


def test_alpha_free_values_are_computed_once_per_panel_set():
    # the default scan's 168 integrals make 187 integrand calls (168 first calls on one
    # shared panel set, 19 splits on 3 more), each reading the kernel values and the
    # parent's once: 187 lookups of 11 (family, panel set) pairs (4 first, 7 split), and
    # of (row set, panel set) pairs.  On the first panel set's 180 points four row sets
    # pass over MEMO_BYTES and are computed anew, not kept: 4n rows for n = 6, 7, 8 on
    # norm and weibull (4n x 180 x 8 B > 32 KiB from n = 6) and 3n rows for n = 8 on unif
    # and exp, whose identity leg is closed, in 48 lookups.  The other 139 lookups read 21
    # pairs (10 row sets on the first panel set, 11 on split ones)
    M._log_weights.cache_clear()
    M._log_pdf_at_quantile.cache_clear()
    run_conjecture_scan(ScanGrid(), DEFAULT_CONFIG)
    assert M._log_weights.cache_info()[:2] == (187 - 48 - 21, 21)  # hits, misses
    assert M._log_pdf_at_quantile.cache_info()[:2] == (187 - 11, 11)
    # figure 2a: one row set and one law over 48 integrals, 96 calls on 23 panel sets
    M._log_weights.cache_clear()
    M._log_pdf_at_quantile.cache_clear()
    figure_curve("2a", 48)
    assert M._log_weights.cache_info()[:2] == M._log_pdf_at_quantile.cache_info()[:2] == (96 - 23, 23)


def _fold_tables():
    from rssinfo import quadrature as Q

    edges = (0.0, *Q._BREAKS, Q._T)
    return Q._fold(Q._nodes(edges)[1])[:2]


def test_memoized_alpha_free_values_are_read_only_and_shared():
    F, S = _fold_tables()
    rows = re.blend(3, 0.5).entries
    log_weight = order_stats.judged_log_weight(rows)
    M._log_weights.cache_clear()
    M._log_pdf_at_quantile.cache_clear()
    first = M._log_weights(log_weight, rows, F, S)
    assert M._log_weights(log_weight, rows, F, S) is first
    assert M._log_weights(order_stats.judged_log_weight(rows.copy()), rows.copy(), F, S) is first
    law = M._log_pdf_at_quantile(Normal(), F, S)
    assert M._log_pdf_at_quantile(Normal(0.0, 1.0), F, S) is law  # a law keys on its fields
    assert M._log_pdf_at_quantile(Normal(0.0, 2.0), F, S) is not law
    assert M._log_weights.cache_info()[:2] == (2, 1)  # hits, misses
    assert M._log_pdf_at_quantile.cache_info()[:2] == (1, 2)
    for arr in (first, law):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr.reshape(-1)[0] = 0.5
    assert first.tobytes() == order_stats.judged_log_weight(rows)(F, S).tobytes()
    assert law.tobytes() == Normal().log_pdf_at_quantile(F, S).tobytes()


def test_writable_or_large_arrays_leave_the_alpha_free_memo_untouched():
    # writable copies of the fold's tables are keyed by value: they reach the tables' entries, so
    # they add none; arrays whose values pass the bound are evaluated anew and not kept
    F, S = _fold_tables()
    rows = re.blend(4, 0.25).entries
    log_weight = order_stats.judged_log_weight(rows)

    def integrand(F, S):
        return M._log_weights(log_weight, rows, F, S)

    M._log_weights.cache_clear()
    M._log_pdf_at_quantile.cache_clear()
    expected = integrand(F, S).tobytes()
    parent = M._log_pdf_at_quantile(Normal(), F, S).tobytes()
    for args in ((F.copy(), S.copy()), (F, S.copy())):
        assert integrand(*args).tobytes() == expected
        assert M._log_pdf_at_quantile(Normal(), *args).tobytes() == parent == Normal().log_pdf_at_quantile(F, S).tobytes()
    assert M._log_weights.cache_info().currsize == M._log_pdf_at_quantile.cache_info().currsize == 1
    M._log_weights.cache_clear()
    M._log_pdf_at_quantile.cache_clear()
    big = np.linspace(0.01, 0.99, 1 << 12)  # 32 KiB each, so 4 rows' values pass the bound
    big.flags.writeable = False
    integrand(big, big[::-1])
    big_rows = re.blend(65, 0.5).entries  # rows above the bound
    M._log_weights(order_stats.judged_log_weight(big_rows), big_rows, F, S)
    M._log_pdf_at_quantile(Normal(), big, big[::-1])
    assert M._log_weights.cache_info().currsize == M._log_pdf_at_quantile.cache_info().currsize == 0


def test_a_cell_recomputed_after_clearing_the_memo_keeps_its_bits():
    designs = [Design("irss", 5, re.parse_matrix(s, 5)) for s in ("uniform", "identity", *DEFAULT_SCAN_MATRICES)]
    for dist in (Normal(), Weibull(2.0, 3.0)):
        def cell():
            return [(r.value.hex(), r.error_estimate.hex(), r.subdivisions_used) for r in M.renyi_designs(designs, dist, 3.0)]

        first, warm = cell(), cell()
        M._log_weights.cache_clear()
        M._log_pdf_at_quantile.cache_clear()
        assert first == warm == cell()


@pytest.mark.parametrize("cell", list(pins.CASES["scan"]))
def test_scan_cells_are_pinned_bit_for_bit(cell):
    assert pins.CASES["scan"][cell]() == pins.stored("scan", cell)


def test_scan_keeps_a_record_for_each_name_of_a_matrix():
    # the scan builds one design per distinct spec, but a matrix named twice still has two records
    matrices = ("blend=0.5", "identity", "blend=0.5", "uniform", "identity")
    grid = ScanGrid(families=("exp:1", "norm:0,1"), ns=(3,), alphas=(2.0, 10.0), matrices=matrices)
    records = run_conjecture_scan(grid, DEFAULT_CONFIG).records
    assert [(r["dist"], r["alpha"], r["matrix"]) for r in records] == [
        (f, a, m) for f in grid.families for a in grid.alphas for m in matrices
    ]
    for cell in range(0, len(records), len(matrices)):
        recs = records[cell : cell + len(matrices)]
        assert recs[0] == recs[2] and recs[1] == recs[4]


def test_memos_pass_over_matrices_above_their_byte_bound():
    # a 64 x 64 matrix is the largest a memo keeps, so n = 65 is built on every call
    big = re.blend(65, 0.5)
    assert big.entries.nbytes > re.MEMO_BYTES >= re.blend(64, 0.5).entries.nbytes
    assert re.blend(65, 0.5) is not big and re.blend(64, 0.5) is re.blend(64, 0.5)
    assert np.array_equal(re.blend(65, 0.5).entries, big.entries)
    order_stats._kernel.cache_clear()
    M._distinct_rows.cache_clear()
    assert order_stats.judged_log_weight(big.entries) is not order_stats.judged_log_weight(big.entries)
    assert M._distinct_rows(big.entries)[0] is not M._distinct_rows(big.entries)[0]
    assert order_stats._kernel.cache_info().currsize == M._distinct_rows.cache_info().currsize == 0


_ONE_INTEGRAL = {
    "shannon": lambda d: M.shannon(d, Normal(), force_numeric=True),
    "renyi": lambda d: M.renyi(d, Normal(), 2.0),
    "kl_srs_vs_design": lambda d: M.kl_srs_vs_design(d, force_numeric=True),
    "kl_two_sample": lambda d: M.kl_two_sample(d, Exponential(1.0), Design("rss", d.n), Exponential(2.0)),
}


@pytest.mark.parametrize("n", [5, 65])
@pytest.mark.parametrize("measure", list(_ONE_INTEGRAL))
def test_rows_above_the_bound_are_analysed_once_per_integral(monkeypatch, measure, n):
    # no memo keeps rows above the bound, and rows below it may miss the log weights memo on
    # every panel set: either way the integral holds their kernel for all its calls
    calls = []

    def counted(rows):
        calls.append(np.shape(rows))
        return order_stats.judged_log_weight(rows)

    monkeypatch.setattr(M, "judged_log_weight", counted)
    M._log_weights.cache_clear()
    r = _ONE_INTEGRAL[measure](Design("irss", n, re.blend(n, 0.5)))
    assert r.converged and calls == [(n, n)]
    assert n < 65 or r.subdivisions_used > 3  # above the bound, each splits past its first panels


def _array_memo_cases():
    """Each memo keyed on ndarray arguments, with a builder of its arguments: fresh
    writable arrays, below or above MEMO_BYTES."""
    from rssinfo import quadrature as Q

    F, S = _fold_tables()
    t = Q._nodes((0.0, *Q._BREAKS, Q._T))[1]
    wide = np.linspace(0.01, 0.99, 1 << 12)
    rows = re.blend(3, 0.5).entries
    log_weight = order_stats.judged_log_weight(rows)
    return {
        "kernel": (order_stats._kernel, lambda big: (re.blend(65 if big else 4, 0.5).entries.copy(),)),
        "distinct_rows": (M._distinct_rows, lambda big: (re.blend(65 if big else 3, 0.5).entries.copy(), re.identity(65 if big else 3).entries.copy())),
        "fold": (Q._fold, lambda big: ((Q._T * wide[::4] if big else t).copy(),)),
        "log_weights": (M._log_weights, lambda big: (log_weight, rows.copy(), *((wide, 1.0 - wide) if big else (F.copy(), S.copy())))),
        "log_pdf_at_quantile": (M._log_pdf_at_quantile, lambda big: (Normal(), *((wide, 1.0 - wide) if big else (F.copy(), S.copy())))),
    }


def _parts(result):
    return result if isinstance(result, tuple) else (result,)


def _bits(result):
    """A memo's result as comparable values: a kernel at three levels, each array as its bytes."""
    if callable(result):
        u = np.array([1e-9, 0.3, 0.7])
        result = result(u, 1.0 - u)
    return [a.tobytes() if isinstance(a, np.ndarray) else a for a in _parts(result)]


@pytest.mark.parametrize("name", list(_array_memo_cases()))
def test_array_keyed_memos_copy_their_keys_freeze_their_values_and_pass_over_large_ones(name):
    memo, make = _array_memo_cases()[name]
    memo.cache_clear()
    args = make(False)
    first = memo(*args)
    for a in args:
        if isinstance(a, np.ndarray):
            a *= 0.5  # the caller's arrays change after the call
    assert memo(*make(False)) is first and memo.cache_info()[:2] == (1, 1)  # hits, misses
    memo(*args)
    assert memo.cache_info()[:2] == (1, 2)  # the changed arrays are another key
    assert _bits(first) == _bits(memo.__wrapped__(*make(False)))  # the entry is what its values build
    memo.cache_clear()
    large = [memo(*make(True)) for _ in range(2)]
    assert memo.cache_info().currsize == 0
    assert large[0] is not large[1] or isinstance(large[0], str)  # built anew on each call
    for a in _parts(first) + _parts(large[0]):
        assert not (isinstance(a, np.ndarray) and a.flags.writeable)
