import math
import re as re_

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from rssinfo.quadrature import DEFAULT_CONFIG, QuadratureConfig, integrate, integrate_support
from rssinfo.reports import (
    DEFAULT_SCAN_FAMILIES,
    DEFAULT_SCAN_MATRICES,
    ScanGrid,
    figure_curve,
    run_conjecture_scan,
    run_errata_checks,
)


def test_design_validation():
    with pytest.raises(ValueError):
        Design("srs", 0)
    with pytest.raises(ValueError):
        Design("bogus", 2)
    with pytest.raises(ValueError):
        Design("irss", 2)  # missing matrix
    with pytest.raises(ValueError):
        Design("irss", 3, re.identity(2))  # dimension mismatch
    with pytest.raises(ValueError):
        Design("rss", 2, re.identity(2))  # matrix on a perfect design
    with pytest.raises(ValueError):
        Design("srs", 2, m=0)


def test_design_matrix():
    assert np.array_equal(Design("srs", 3).matrix.entries, np.full((3, 3), 1.0 / 3.0))
    assert np.array_equal(Design("rss", 3).matrix.entries, np.eye(3))
    P = re.blend(3, 0.5)
    assert Design("irss", 3, P).matrix is P


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
        assert design.matrix is design.matrix and design.matrix.name == name, design  # built once, above the memo's bound too


def test_designs_compare_and_hash_by_value():
    irss = lambda p12=0.2, m=1: Design("irss", 2, re.two_by_two(p12), m)
    assert irss() == irss() and hash(irss()) == hash(irss())
    assert irss() != irss(0.3) and irss() != irss(m=2) and irss() != Design("srs", 2)
    # the kind is part of the design: rss:2 has the identity's matrix but is not irss:2:identity
    assert Design("rss", 2).matrix == re.identity(2) and Design("rss", 2) != Design("irss", 2, re.identity(2))
    zero = re.RankingErrorMatrix([[-0.0, 1.0], [1.0, -0.0]])
    assert Design("irss", 2, zero) == Design("irss", 2, re.two_by_two(1.0))
    designs = {irss(), irss(), irss(0.3), irss(m=2), Design("rss", 2), Design("rss", 2), Design("srs", 2),
               Design("irss", 2, zero), Design("irss", 2, re.two_by_two(1.0))}
    assert len(designs) == 6


def test_shannon_closed_vs_numeric_both_modes():
    dist = Exponential(1.0)
    for design in [
        Design("srs", 2),
        Design("rss", 2),
        Design("irss", 2, re.two_by_two(0.3)),
    ]:
        closed = M.shannon(design, dist)
        assert closed.method == "closed-form"
        for mode in ("u", "x"):
            numeric = M.shannon(design, dist, force_numeric=True, mode=mode)
            assert numeric.method == "quadrature"
            assert abs(numeric.value - closed.value) < 1e-7, (design.kind, mode)


def test_shannon_u_and_x_modes_agree_without_closed_form():
    # Weibull(0.52)'s density has an x^-0.48 singularity at 0
    for dist in (Normal(0.0, 1.0), Weibull(0.52, 1.0)):
        for design in [Design("rss", 3), Design("irss", 3, re.blend(3, 0.5)), Design("rss", 8)]:
            u = M.shannon(design, dist, force_numeric=True, mode="u")
            x = M.shannon(design, dist, force_numeric=True, mode="x")
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
        res = M.shannon(design, dist, force_numeric=True, mode="x")
    else:
        res = M.kl_srs_vs_design(design, dist, force_numeric=True, mode="x")
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
        call = M.shannon if measure == "shannon" else M.kl_srs_vs_design
        return call(design, d, force_numeric=True, mode=mode)

    res, ref = run(dist), run(unit)
    expected = ref.value + (0.0 if measure == "kl" else n * math.log(magnitude))
    assert res.converged and ref.converged
    slack = 1e-12 * abs(expected)  # rounding of the shift itself
    assert abs(res.value - expected) <= res.error_estimate + ref.error_estimate + slack


def test_renyi_far_from_unit_scale():
    # x-space Renyi at large scale: the half-line map squeezes the mass
    # against t = 1, where an unresolved end panel used to pass as converged
    res = M.renyi(Design("rss", 2), Exponential(1e-6), 2.0, force_numeric=True)
    truth = cf.exp_renyi("rss", 1e-6, 2.0)
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
        Design("irss", 3, re.blend(3, 0.25), m=2),
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
            x_mode = M.kl_srs_vs_design(Design("rss", n), dist, mode="x", force_numeric=True)
            assert abs(x_mode.value - expected) < 1e-6, dist.spec_string()


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


def test_kl_srs_design_rejects_srs():
    with pytest.raises(ValueError):
        M.kl_srs_vs_design(Design("srs", 2))


def test_kl_two_sample_identical_laws_vanish():
    dist = Exponential(1.0)
    for design in [Design("srs", 2), Design("rss", 2), Design("irss", 2, re.two_by_two(0.2))]:
        r = M.kl_two_sample(design, dist, design, dist)
        assert abs(r.value) < 1e-9, design.kind


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
    with pytest.raises(DivergentIntegralError):
        M.kl_two_sample(Design("srs", 2), Normal(0.0, 1.0), Design("srs", 2), Exponential(1.0))


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
        summed = M.a_n(f, g, n, mode="sum")
        assert abs(reduced.value - summed.value) < 1e-8, n
    assert abs(M.a_n(f, f, 3).value) < 1e-9
    assert M.a_n(f, g, 1).value == 0.0


def test_a_n_sum_is_two_two_sample_kls():
    f, g = Exponential(1.0), Exponential(2.0)
    for cfg in (DEFAULT_CONFIG, QuadratureConfig(max_subdivisions=1)):
        for n in (2, 3, 8):
            rss, srs = (M.kl_two_sample(Design(kind, n), f, Design(kind, n), g, cfg) for kind in ("rss", "srs"))
            summed = M.a_n(f, g, n, cfg, mode="sum")
            assert summed.value == rss.value - srs.value, (cfg, n)
            assert summed.error_estimate == rss.error_estimate + srs.error_estimate
            assert summed.converged == (rss.converged and srs.converged)
            assert summed.subdivisions_used == rss.subdivisions_used + srs.subdivisions_used
    # a starved leg makes the difference not converged
    assert not M.a_n(f, g, 3, QuadratureConfig(max_subdivisions=1), mode="sum").converged


def test_a_n_decomposes_rss_vs_rss():
    f, g = Exponential(1.0), Exponential(2.0)
    n = 3
    rss = M.kl_two_sample(Design("rss", n), f, Design("rss", n), g)
    srs = M.kl_two_sample(Design("srs", n), f, Design("srs", n), g)
    assert abs((rss.value - srs.value) - M.a_n(f, g, n).value) < 1e-6


def test_mode_means_the_same_in_every_measure():
    # mode="x" runs the x-space route even where a closed form exists, as
    # force_numeric does; an unknown mode is an input error, not u-space
    exp1 = Exponential(1.0)
    for spec in ("srs:3", "rss:2"):
        design = parse_design(spec)
        x = M.shannon(design, exp1, mode="x")
        assert x.method == "quadrature", spec
        assert x == M.shannon(design, exp1, force_numeric=True, mode="x")
    assert M.kl_srs_vs_design(Design("rss", 2), exp1, mode="x").method == "quadrature"
    for call in (
        lambda: M.shannon(Design("rss", 2), exp1, mode="bogus"),
        lambda: M.kl_srs_vs_design(Design("rss", 2), exp1, mode="bogus"),
        lambda: M.a_n(exp1, exp1, 2, mode="bogus"),
        lambda: M.a_n(exp1, exp1, 1, mode="bogus"),
    ):
        with pytest.raises(InputError, match="unknown mode"):
            call()


EXP1 = Exponential(1.0)


@pytest.mark.parametrize(
    "call",
    [
        lambda: M.a_n(EXP1, EXP1, 0),
        lambda: M.kl_srs_vs_design(Design("rss", 2), mode="x"),
        lambda: M.kl_two_sample(Design("rss", 2), EXP1, Design("rss", 3), EXP1),
        lambda: M.kl_two_sample(Design("rss", 2), EXP1, Design("rss", 2, m=2), EXP1),
        lambda: M.renyi_gap_binomial(EXP1, 3, 0.8),
        lambda: M.renyi_gap_binomial(EXP1, 0, 2.0),
        lambda: mc.mc_kl(Design("srs", 2), EXP1, Design("rss", 3), EXP1),
        lambda: mc.mc_kl(Design("srs", 2), EXP1, Design("rss", 2, m=2), EXP1),
        lambda: M.renyi_designs([Design("srs", 2), Design("rss", 3)], EXP1, 2.0),
        *(lambda a=a: mc.mc_renyi(Design("rss", 2), EXP1, a) for a in (math.nan, math.inf, 1.0)),
        *(lambda a=a: cf.exp_renyi("rss", 1.0, a) for a in (math.nan, math.inf)),
        lambda: cf.h_uniform_order(3, 4),
        lambda: cf.k_direct(0),
        lambda: cf.k_recursive(0),
        lambda: cf.d_n(0),
        lambda: cf.eta(1.5),
        lambda: cf.exp_shannon("srs", 0.0),
        lambda: cf.exp_shannon("irss", 1.0),
        lambda: cf.exp_shannon("bogus", 1.0),
        lambda: cf.exp_renyi("srs", -1.0, 2.0),
        lambda: cf.exp_renyi("bogus", 1.0, 2.0),
        lambda: log_order_coeff(0, 1),
        lambda: log_order_coeff(3, 0),
        lambda: mc.sample_judged(EXP1, 3, re.identity(2), 1, np.random.default_rng(0)),
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
        lambda: mc.sample_judged(EXP1, 2, re.identity(2), 1, np.random.default_rng(0), size=-1),
        lambda: integrate_support(np.exp, Support(-math.inf, 0.0)),
        lambda: figure_curve("3", 5),
        lambda: Design("rss", 2, m=1.5),
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
        lambda: mc.sample_judged(EXP1, 3, re.identity(3), 1.5, np.random.default_rng(0)),
        lambda: mc.sample_order_stat(EXP1, 3, 1.5, np.random.default_rng(0)),
        *(lambda lam=lam: cf.exp_shannon("srs", lam) for lam in (math.inf, math.nan, 0.0, -1.0)),
        *(lambda lam=lam: cf.exp_renyi("srs", lam, 2.0) for lam in (math.inf, math.nan, 0.0, -1.0)),
        lambda: ScanGrid(alphas=(math.nan,)),
        lambda: cf.psi_bound(math.nan, 3),
        lambda: ScanGrid(ns=()),
        lambda: Design("rss", True),
        lambda: QuadratureConfig(max_subdivisions=True),
        lambda: mc.SimConfig(seed=True),
    ],
    ids=[
        "a_n-n0", "kl-x-no-law", "kl2-n", "kl2-m",
        "gap-alpha", "gap-n0", "mc_kl-n", "mc_kl-m", "renyi_designs-n",
        "mc_renyi-alpha-nan", "mc_renyi-alpha-inf", "mc_renyi-alpha-1",
        "exp_renyi-alpha-nan", "exp_renyi-alpha-inf",
        "h_uniform_order-rank", "k_direct-n0", "k_recursive-n0", "d_n-n0", "eta-range",
        "exp_shannon-rate", "exp_shannon-no-matrix", "exp_shannon-kind", "exp_renyi-rate",
        "exp_renyi-component", "order_coeff-n0", "order_coeff-rank", "sample_judged-n",
        "identity-n0", "uniform-n0", "blend-w-high", "blend-w-low", "blend-n0",
        "two_by_two-high", "two_by_two-low", "row-low", "row-high",
        "integrate-reversed", "integrate-inf-upper", "integrate-inf-lower",
        "integrate-breaks-unordered", "integrate-break-at-b",
        "vasicek-window0", "vasicek-few-samples", "vasicek-window-float",
        "vasicek-nan", "vasicek-inf", "vasicek-minus-inf", "sim-replications-float", "sample_judged-size",
        "integrate_support-lower-half-line", "figure-id",
        "design-m-float", "a_n-n-float", "design-n-float", "quad-budget-float", "d_n-n-float",
        "psi-n-float", "scan-n-float", "sim-seed-negative", "gap-n-float",
        "k_direct-n-float", "blend-n-float", "figure-points-float",
        "h_uniform_order-rank-float", "order_coeff-rank-float", "beta_order-rank-float", "row-float",
        "sample_judged-rank-float", "sample_order_stat-rank-float",
        "exp_shannon-rate-inf", "exp_shannon-rate-nan", "exp_shannon-rate-zero", "exp_shannon-rate-negative",
        "exp_renyi-rate-inf", "exp_renyi-rate-nan", "exp_renyi-rate-zero", "exp_renyi-rate-negative",
        "scan-alpha-nan", "psi-alpha-nan", "scan-empty-ns",
        "design-n-bool", "quad-budget-bool", "sim-seed-bool",
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


def test_cycle_scaling_is_exact():
    dist = Exponential(1.0)
    base = M.shannon(Design("rss", 2), dist)
    tripled = M.shannon(Design("rss", 2, m=3), dist)
    assert tripled.value == 3.0 * base.value
    r1 = M.renyi(Design("srs", 2), dist, 2.0)
    r3 = M.renyi(Design("srs", 2, m=3), dist, 2.0)
    assert r3.value == 3.0 * r1.value
    k1 = M.kl_srs_vs_design(Design("rss", 2))
    k3 = M.kl_srs_vs_design(Design("rss", 2, m=3))
    assert k3.value == 3.0 * k1.value


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
    assert rssinfo.MeasureResult is rssinfo.QuadratureResult
    closed = M.shannon(Design("rss", 3), EXP1)
    forced = M.shannon(Design("rss", 3), EXP1, force_numeric=True)
    r = integrate(np.exp, 0.0, 1.0)
    for res, method in ((closed, "closed-form"), (forced, "quadrature"), (r, "quadrature")):
        assert type(res) is rssinfo.QuadratureResult
        assert res.method == method
    twice = r.scaled(2, 1.0)
    assert (twice.value, twice.error_estimate) == ((r.value + 1.0) * 2, r.error_estimate * 2)
    assert (twice.subdivisions_used, twice.converged, twice.method) == (r.subdivisions_used, r.converged, "quadrature")


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


def test_memoized_matrices_rows_and_counts_are_read_only():
    matrices = [
        re.identity(3), re.uniform(3), re.blend(3, 0.5), re.two_by_two(0.3),
        Design("srs", 3).matrix, Design("rss", 3).matrix, re.parse_matrix("blend=0.25", 3), re.parse_matrix("p12=0.2", 2),
    ]
    assert re.blend(3, 0.5) is re.blend(3, 0.5) and Design("rss", 3).matrix is re.identity(3)
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
    # fetched only where its row set's log weights miss
    order_stats._kernel.cache_clear()
    M._log_weights.cache_clear()
    M._distinct_rows.cache_clear()
    report = run_conjecture_scan(ScanGrid(), DEFAULT_CONFIG)
    assert len(report.records) == 840
    assert order_stats._kernel.cache_info().misses == 14
    assert M._distinct_rows.cache_info().misses == 14
    # figure 2a: one kernel over the three 2x2 misrankings (p11 = 1 is the identity, closed) at every
    # alpha, fetched once per panel set, 24 of them
    order_stats._kernel.cache_clear()
    M._log_weights.cache_clear()
    rows = figure_curve("2a", 48)
    assert len(rows) == 48 and order_stats._kernel.cache_info()[:2] == (23, 1)  # hits, misses


def test_alpha_free_values_are_computed_once_per_panel_set():
    # the default scan's 168 integrals make 266 integrand calls (168 first calls on one
    # shared panel set, 98 splits on 5 more), each reading the kernel values and the
    # parent's once: 266 lookups each of 49 (row set, panel set) pairs (14 row sets on the
    # first panel set, 35 on split ones) and of 19 (family, panel set) pairs (4 first, 15 split)
    M._log_weights.cache_clear()
    M._log_pdf_at_quantile.cache_clear()
    run_conjecture_scan(ScanGrid(), DEFAULT_CONFIG)
    assert M._log_weights.cache_info()[:2] == (266 - 49, 49)  # hits, misses
    assert M._log_pdf_at_quantile.cache_info()[:2] == (266 - 19, 19)
    # figure 2a: one row set and one law over 48 integrals, 104 calls on 24 panel sets
    M._log_weights.cache_clear()
    M._log_pdf_at_quantile.cache_clear()
    figure_curve("2a", 48)
    assert M._log_weights.cache_info()[:2] == M._log_pdf_at_quantile.cache_info()[:2] == (104 - 24, 24)


def _fold_tables():
    from rssinfo import quadrature as Q

    edges = (0.0, *Q._BREAKS, Q._T)
    return Q._fold(Q._nodes(edges)[1])[:2]


def test_memoized_alpha_free_values_are_read_only_and_shared():
    F, S = _fold_tables()
    rows = re.blend(3, 0.5).entries
    integrand = M._of_log_weight(lambda lw, F, S: lw, rows)
    M._log_weights.cache_clear()
    M._log_pdf_at_quantile.cache_clear()
    first = integrand(F, S)
    assert integrand(F, S) is first and M._of_log_weight(lambda lw, F, S: lw, rows.copy())(F, S) is first
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
    integrand = M._of_log_weight(lambda lw, F, S: lw, rows)
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
    M._of_log_weight(lambda lw, F, S: lw, re.blend(65, 0.5).entries)(F, S)  # rows above the bound
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


# (family, n, alpha): renyi_srs, renyi_rss, then renyi_irss and error_budget in DEFAULT_SCAN_MATRICES
# order, as float.hex, recorded when each cell built a design per named spec; every record converged
SCAN_PINS = {
    ("unif", 2, 1.1): (
        "0x0.0p+0", "-0x1.a457c5e89f314p-2",
        ("-0x1.a457c5e89f314p-2", "-0x1.bc5b953769580p-3", "-0x1.7f326eb8f5c41p-4", "-0x1.794a58fe99fbfp-6", "0x0.0p+0"),
        ("0x0.0p+0", "0x1.fdd2be13401e3p-39", "0x1.75ec2ac102253p-42", "0x1.f3ffffffffff8p-43", "0x0.0p+0"),
    ),
    ("unif", 2, 10.0): (
        "0x0.0p+0", "-0x1.01e8fe632d275p+0",
        ("-0x1.01e8fe632d275p+0", "-0x1.7d6e1d40acdb6p-1", "-0x1.d544bf26e2279p-2", "-0x1.539a2eae9460ep-3", "0x0.0p+0"),
        ("0x0.0p+0", "0x1.1f251cadd69d1p-35", "0x1.26cddaf8583e3p-37", "0x1.dbb51e4088b3ep-42", "0x0.0p+0"),
    ),
    ("unif", 5, 1.1): (
        "0x0.0p+0", "-0x1.5b438c20ee335p+1",
        ("-0x1.5b438c20ee335p+1", "-0x1.7070db2fbd1a2p+0", "-0x1.483bb716df7dep-1", "-0x1.530a3250e7392p-3", "0x0.0p+0"),
        ("0x0.0p+0", "0x1.dfe03e70d7b0ap-30", "0x1.3ba283535017bp-34", "0x1.81fe928a1b102p-34", "0x0.0p+0"),
    ),
    ("unif", 5, 10.0): (
        "0x0.0p+0", "-0x1.2201998fc6b5dp+2",
        ("-0x1.2201998fc6b5dp+2", "-0x1.d032cce149cfap+1", "-0x1.44d9893e6a276p+1", "-0x1.2f32b91aa86b1p+0", "0x0.0p+0"),
        ("0x0.0p+0", "0x1.e2a44353ae0ddp-33", "0x1.d14e53cf91b0dp-35", "0x1.a8a51848c241ep-38", "0x0.0p+0"),
    ),
    ("unif", 8, 1.1): (
        "0x0.0p+0", "-0x1.79ddacaf44eddp+2",
        ("-0x1.79ddacaf44eddp+2", "-0x1.94afcc1b8e750p+1", "-0x1.6eb903a9470eap+0", "-0x1.841d439b0519ap-2", "0x0.0p+0"),
        ("0x0.0p+0", "0x1.97c57cb99c256p-26", "0x1.267685882b963p-27", "0x1.de706322505e6p-29", "0x0.0p+0"),
    ),
    ("unif", 8, 10.0): (
        "0x0.0p+0", "-0x1.1af7f80dacf54p+3",
        ("-0x1.1af7f80dacf54p+3", "-0x1.cdf64eb1c6d6fp+2", "-0x1.4e00f9d9a93a4p+2", "-0x1.4feb8ec775d3ep+1", "0x0.0p+0"),
        ("0x0.0p+0", "0x1.d4ace5c838190p-30", "0x1.622a3060858d2p-31", "0x1.80b533b9fa11ep-34", "0x0.0p+0"),
    ),
    ("exp:1", 2, 1.1): (
        "0x1.e7fcf578b5877p+0", "0x1.88a2971953e68p+0",
        ("0x1.88a2971953e68p+0", "0x1.b5d94f60e2b8fp+0", "0x1.d2709345910abp+0", "0x1.e2b1a3351b8e7p+0", "0x1.e7fcf578b5877p+0"),
        ("0x0.0p+0", "0x1.8ae6ab9e98ee8p-26", "0x1.7f0bca9753f5ep-26", "0x1.78251e1a6fec9p-26", "0x0.0p+0"),
    ),
    ("exp:1", 2, 10.0): (
        "0x1.05fba6df68485p-1", "0x1.954b93e9f41fcp-2",
        ("0x1.954b93e9f41fcp-2", "0x1.06749d36aa48ep-1", "0x1.22a34d953bcf3p-1", "0x1.133c1db7e3edcp-1", "0x1.05fba6df68485p-1"),
        ("0x0.0p+0", "0x1.461097cb41781p-31", "0x1.945fa6ed16befp-32", "0x1.545f8404ca5c2p-33", "0x0.0p+0"),
    ),
    ("exp:1", 5, 1.1): (
        "0x1.30fe196b7174ap+2", "0x1.1cbe67217940cp+1",
        ("0x1.1cbe67217940cp+1", "0x1.b7209f24cd6e4p+1", "0x1.0b224bb2beefcp+2", "0x1.273d8b538527cp+2", "0x1.30fe196b7174ap+2"),
        ("0x0.0p+0", "0x1.027587e4a722ep-24", "0x1.f236c60289fd7p-25", "0x1.dc652d300021ep-25", "0x0.0p+0"),
    ),
    ("exp:1", 5, 10.0): (
        "0x1.477a9097425a6p+0", "-0x1.518ea135a3d29p-4",
        ("-0x1.518ea135a3d29p-4", "0x1.548692db23198p-1", "0x1.2dd0a21e9df90p+0", "0x1.41890f7fb784ep+0", "0x1.477a9097425a6p+0"),
        ("0x0.0p+0", "0x1.4ea3d57cf2a3cp-30", "0x1.5e1b08cc98b32p-33", "0x1.019a5049b9e64p-37", "0x0.0p+0"),
    ),
    ("exp:1", 8, 1.1): (
        "0x1.e7fcf578b5877p+2", "0x1.040a9ee825d3bp+1",
        ("0x1.040a9ee825d3bp+1", "0x1.2a257d995db44p+2", "0x1.92672e0c3e364p+2", "0x1.d166fbdee9b8ap+2", "0x1.e7fcf578b5877p+2"),
        ("0x0.0p+0", "0x1.e2feb9e22fcc3p-24", "0x1.79cb10fc67258p-24", "0x1.7d77a9f19601ap-24", "0x0.0p+0"),
    ),
    ("exp:1", 8, 10.0): (
        "0x1.05fba6df68485p+1", "-0x1.627650e59c608p+0",
        ("-0x1.627650e59c608p+0", "0x1.97ffffbac2d30p-4", "0x1.4e1e08c298996p+0", "0x1.ce720bc3ac953p+0", "0x1.05fba6df68485p+1"),
        ("0x0.0p+0", "0x1.8d4354b4af132p-29", "0x1.a762cad4059b5p-31", "0x1.03736256e891ap-33", "0x0.0p+0"),
    ),
    ("norm:0,1", 2, 1.1): (
        "0x1.653ecba153578p+1", "0x1.33af2d0248126p+1",
        ("0x1.33af2d0248126p+1", "0x1.4af731bf1213ap+1", "0x1.59e6d08257e85p+1", "0x1.6273a2dcf9692p+1", "0x1.653ecba153578p+1"),
        ("0x1.e2a81c7d37d37p-24", "0x1.dc57aae37d753p-24", "0x1.d9285ce48b7a6p-24", "0x1.d77382cec105ap-24", "0x1.e2a81c7d37d37p-25"),
    ),
    ("norm:0,1", 2, 10.0): (
        "0x1.0bff031f12febp+1", "0x1.b25d809ba067cp+0",
        ("0x1.b25d809ba067cp+0", "0x1.d6c895f643c0ep+0", "0x1.f7482bcf717b9p+0", "0x1.0784b748fdcccp+1", "0x1.0bff031f12febp+1"),
        ("0x1.8d91a9cef2fcfp-30", "0x1.08ab7b5360edap-30", "0x1.e795ae410159dp-31", "0x1.b224417d5f0f0p-31", "0x1.8d91a9cef2fcfp-31"),
    ),
    ("norm:0,1", 5, 1.1): (
        "0x1.be8e7e89a82d6p+2", "0x1.173364a3166f7p+2",
        ("0x1.173364a3166f7p+2", "0x1.664d12b72ba1fp+2", "0x1.9780ce8a5eabbp+2", "0x1.b48bf15f2c5eep+2", "0x1.be8e7e89a82d6p+2"),
        ("0x1.44ac40819ec1ap-22", "0x1.3abbb0ce551cap-22", "0x1.375c694425d6ap-22", "0x1.337ff53af84c1p-22", "0x1.44ac40819ec1ap-23"),
    ),
    ("norm:0,1", 5, 10.0): (
        "0x1.4efec3e6d7be6p+2", "0x1.4ad63186d00d2p+1",
        ("0x1.4ad63186d00d2p+1", "0x1.add99771716f6p+1", "0x1.0d0be3b8a6564p+2", "0x1.3defa1dd0cb6bp+2", "0x1.4efec3e6d7be6p+2"),
        ("0x1.86f5d1d4265fap-31", "0x1.3e7f03bae8920p-31", "0x1.f1746fb236cf9p-32", "0x1.95fa2f2c99a18p-32", "0x1.86f5d1d4265fap-32"),
    ),
    ("norm:0,1", 8, 1.1): (
        "0x1.653ecba153578p+3", "0x1.5b9e2e9e393f8p+2",
        ("0x1.5b9e2e9e393f8p+2", "0x1.03bd3d3f8cb76p+3", "0x1.396a77388ca62p+3", "0x1.59c212afde577p+3", "0x1.653ecba153578p+3"),
        ("0x1.9d575c4d0376ap-26", "0x1.92bc5f024de93p-26", "0x1.892358a17a5d8p-26", "0x1.815bbfc698e92p-26", "0x1.9d575c4d0376ap-27"),
    ),
    ("norm:0,1", 8, 10.0): (
        "0x1.0bff031f12febp+3", "0x1.4b7934f2c614cp+1",
        ("0x1.4b7934f2c614cp+1", "0x1.060a0b80e6da5p+2", "0x1.76dca9f165ba3p+2", "0x1.eb840b73de1bdp+2", "0x1.0bff031f12febp+3"),
        ("0x1.69a014161ed9ep-28", "0x1.11313dcedc542p-28", "0x1.8ac67596ca6a1p-29", "0x1.6ece68a410d98p-29", "0x1.69a014161ed9ep-29"),
    ),
    ("weibull:2,1", 2, 1.1): (
        "0x1.26fbe0f631221p+0", "0x1.86bcdd99a02e1p-1",
        ("0x1.86bcdd99a02e1p-1", "0x1.e473d7a87dbf0p-1", "0x1.103924ce98a97p+0", "0x1.216155178d8dfp+0", "0x1.26fbe0f631221p+0"),
        ("0x1.dc8e0f4a232b4p-24", "0x1.d65c3453f0e92p-24", "0x1.d33ed63bd8a6ap-24", "0x1.d19409458550ap-24", "0x1.dc8e0f4a232b4p-25"),
    ),
    ("weibull:2,1", 2, 10.0): (
        "0x1.18d00601a6bcbp-1", "0x1.fc73017a20aacp-4",
        ("0x1.fc73017a20aacp-4", "0x1.1a188d1cdcb5ap-2", "0x1.a56460947e3a2p-2", "0x1.05af55b50e38dp-1", "0x1.18d00601a6bcbp-1"),
        ("0x1.aa98a03d0f686p-32", "0x1.40f22434eef56p-32", "0x1.00916f870ab00p-32", "0x1.d12c1a2fbc56bp-33", "0x1.aa98a03d0f686p-33"),
    ),
    ("weibull:2,1", 5, 1.1): (
        "0x1.70bad933bd6a9p+1", "0x1.05735e18f4b57p-2",
        ("0x1.05735e18f4b57p-2", "0x1.7ec866306f455p+0", "0x1.222ad39a5b6f8p+1", "0x1.5c90198d5603dp+1", "0x1.70bad933bd6a9p+1"),
        ("0x1.3e2bae8200c33p-22", "0x1.34e065639682ap-22", "0x1.31e8a35a534dcp-22", "0x1.2e61f3e89ec3ep-22", "0x1.3e2bae8200c33p-23"),
    ),
    ("weibull:2,1", 5, 10.0): (
        "0x1.5f040782106bep+0", "-0x1.6b19f06e2622dp+0",
        ("-0x1.6b19f06e2622dp+0", "-0x1.408eb301fef68p-1", "0x1.008bc62d5f56bp-2", "0x1.0e7988be146e8p+0", "0x1.5f040782106bep+0"),
        ("0x1.b0c511999744cp-31", "0x1.553744bfbfd5ap-31", "0x1.0fe08e34db2b0p-31", "0x1.c1a19ae19f994p-32", "0x1.b0c511999744cp-32"),
    ),
    ("weibull:2,1", 8, 1.1): (
        "0x1.26fbe0f631221p+2", "-0x1.24ca6cd6f4c36p+0",
        ("-0x1.24ca6cd6f4c36p+0", "0x1.8c4087aea8be3p+0", "0x1.9d9381cd205c2p+1", "0x1.0fd30f318f649p+2", "0x1.26fbe0f631221p+2"),
        ("0x1.ae7c088e530d4p-26", "0x1.a4ac21640ec1ap-26", "0x1.9ba51e1e75b63p-26", "0x1.942b8b30abdb0p-26", "0x1.ae7c088e530d4p-27"),
    ),
    ("weibull:2,1", 8, 10.0): (
        "0x1.18d00601a6bcbp+1", "-0x1.ee06147dfaca7p+1",
        ("-0x1.ee06147dfaca7p+1", "-0x1.2ad0565a63ec6p+1", "-0x1.113d19bb57e7dp-1", "0x1.57d02ee658184p+0", "0x1.18d00601a6bcbp+1"),
        ("0x1.bd72a23df3ff4p-32", "0x1.6f894e4d38d2ep-32", "0x1.17da67f4d6b3ep-32", "0x1.d163e5bd33a46p-33", "0x1.bd72a23df3ff4p-33"),
    ),
}


@pytest.mark.parametrize("cell", list(SCAN_PINS), ids=str)
def test_scan_cells_are_pinned_bit_for_bit(cell):
    family, n, alpha = cell
    srs, rss, irss, budget = SCAN_PINS[cell]
    report = run_conjecture_scan(ScanGrid(families=(family,), ns=(n,), alphas=(alpha,)), DEFAULT_CONFIG)
    got = [(r["matrix"], r["renyi_srs"].hex(), r["renyi_rss"].hex(), r["renyi_irss"].hex(), r["error_budget"].hex(), r["converged"])
           for r in report.records]
    assert got == [(m, srs, rss, i, b, True) for m, i, b in zip(DEFAULT_SCAN_MATRICES, irss, budget)]


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


def test_rows_above_the_bound_are_analysed_once_per_integral(monkeypatch):
    # no memo keeps them, so the integrand holds their kernel for all its calls
    calls = []

    def counted(rows):
        calls.append(np.shape(rows))
        return order_stats.judged_log_weight(rows)

    monkeypatch.setattr(M, "judged_log_weight", counted)
    r = M.renyi(Design("irss", 65, re.blend(65, 0.5)), Normal(), 2.0)
    assert r.converged and r.subdivisions_used > 3 and calls == [(65, 65)]


def _array_memo_cases():
    """Each memo keyed on ndarray arguments, with a builder of its arguments: fresh
    writable arrays, below or above MEMO_BYTES."""
    from rssinfo import quadrature as Q

    F, S = _fold_tables()
    t = Q._nodes((0.0, *Q._BREAKS, Q._T))[1]
    wide = np.linspace(0.01, 0.99, 1 << 12)
    return {
        "kernel": (order_stats._kernel, lambda big: (re.blend(65 if big else 4, 0.5).entries.copy(),)),
        "distinct_rows": (M._distinct_rows, lambda big: (re.blend(65 if big else 3, 0.5).entries.copy(), re.identity(65 if big else 3).entries.copy())),
        "fold": (Q._fold, lambda big: ((Q._T * wide[::4] if big else t).copy(),)),
        "log_weights": (M._log_weights, lambda big: (re.blend(3, 0.5).entries.copy(), *((wide, 1.0 - wide) if big else (F.copy(), S.copy())))),
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
