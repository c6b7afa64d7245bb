import math
import re as re_

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rssinfo import closed_form as cf
from rssinfo import measures as M
from rssinfo import ranking_error as re
from rssinfo.cli import parse_design
from rssinfo.distributions import Exponential, Normal, Uniform, Weibull, parse_distribution
from rssinfo.measures import Design, DivergentIntegralError


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
    dist = Normal(0.0, 1.0)
    for design in [Design("rss", 3), Design("irss", 3, re.blend(3, 0.5))]:
        u = M.shannon(design, dist, force_numeric=True, mode="u")
        x = M.shannon(design, dist, force_numeric=True, mode="x")
        assert abs(u.value - x.value) < 1e-7


def test_shannon_gap_is_distribution_free(families):
    for dist in families:
        for n in (2, 5):
            gap = (
                M.shannon(Design("rss", n), dist, force_numeric=True).value
                - M.shannon(Design("srs", n), dist, force_numeric=True).value
            )
            assert abs(gap - cf.k_direct(n)) < 1e-7, (dist.spec_string(), n)


def test_shannon_imperfect_limits():
    # the identity and uniform matrices run through the same code as RSS and SRS
    dist = Weibull(2.0, 1.0)
    for n in (2, 5, 8):
        rss = M.shannon(Design("rss", n), dist, force_numeric=True).value
        srs = M.shannon(Design("srs", n), dist, force_numeric=True).value
        ident = M.shannon(Design("irss", n, re.identity(n)), dist).value
        rand = M.shannon(Design("irss", n, re.uniform(n)), dist).value
        assert ident == rss
        assert rand == srs
        assert abs(srs - n * dist.entropy()) < 1e-7


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
        res = M.renyi(Design("srs", 1), Weibull(k, 1.0), 2.0)
        assert res.diagnostics["converged"] == converges, k
        assert abs(res.value - truth) <= res.error_estimate, k
    with pytest.raises(DivergentIntegralError):
        M.renyi(Design("srs", 1), Weibull(0.3, 1.0), 2.0)


def test_renyi_overflow_is_not_called_divergent():
    # int f^2 = 1/(2 sqrt(pi) sigma) is finite though f^2 overflows at the mode
    # of N(0, 1e-160); the integral is taken on the standard law
    res = M.renyi(Design("srs", 1), Normal(0.0, 1e-160), 2.0, force_numeric=True)
    truth = math.log(2.0 * math.sqrt(math.pi) * 1e-160)  # -367.148103
    assert res.diagnostics["converged"]
    assert abs(res.value - truth) <= res.error_estimate
    # f^2 of Weibull(0.3) overflows before x reaches 0 even at unit scale
    with pytest.raises(DivergentIntegralError, match="exceeds the float range"):
        M.renyi(Design("srs", 1), Weibull(0.3, 1.0), 2.0)


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
    assert res.diagnostics["converged"]
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
    assert res.diagnostics["converged"] and ref.diagnostics["converged"]
    slack = 1e-12 * abs(expected)  # rounding of the shift itself
    assert abs(res.value - expected) <= res.error_estimate + ref.error_estimate + slack


def test_renyi_far_from_unit_scale():
    # x-space Renyi at large scale: the half-line map squeezes the mass
    # against t = 1, where an unresolved end panel used to pass as converged
    res = M.renyi(Design("rss", 2), Exponential(1e-6), 2.0, force_numeric=True)
    truth = cf.exp_renyi("rss", 1e-6, 2.0)
    assert res.diagnostics["converged"]
    assert abs(res.value - truth) <= res.error_estimate + 1e-9 * abs(truth)
    for design in (Design("srs", 3), Design("rss", 3)):
        big = M.renyi(design, Weibull(2.0, 1e5), 2.0, force_numeric=True)
        unit = M.renyi(design, Weibull(2.0, 1.0), 2.0, force_numeric=True)
        assert big.diagnostics["converged"]
        shifted = unit.value + 3 * math.log(1e5)
        assert abs(big.value - shifted) <= big.error_estimate + unit.error_estimate + 1e-9 * abs(shifted)


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
        assert gap.diagnostics["converged"] and gap.error_estimate < 1e-8
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
        ident = M.kl_srs_vs_design(Design("irss", n, re.identity(n)))
        rand = M.kl_srs_vs_design(Design("irss", n, re.uniform(n)))
        assert ident.value == M.kl_srs_vs_design(Design("rss", n), force_numeric=True).value
        assert abs(ident.value - cf.d_n(n)) <= ident.error_estimate
        assert rand.value == 0.0  # K(SRS, SRS)
        # imperfect ranking never exceeds the perfect-ranking divergence
        mid = M.kl_srs_vs_design(Design("irss", n, re.blend(n, 0.5)))
        assert 0.0 < mid.value < cf.d_n(n)


def test_kl_large_n_u_space_stays_finite():
    res = M.kl_srs_vs_design(Design("rss", 50), force_numeric=True)
    assert res.diagnostics["converged"]
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


def test_a_n_decomposes_rss_vs_rss():
    f, g = Exponential(1.0), Exponential(2.0)
    n = 3
    rss = M.kl_two_sample(Design("rss", n), f, Design("rss", n), g)
    srs = M.kl_two_sample(Design("srs", n), f, Design("srs", n), g)
    assert abs((rss.value - srs.value) - M.a_n(f, g, n).value) < 1e-6


def test_a_n_printed_form_fails_equal_law_oracle():
    f = Exponential(1.0)
    assert abs(M.a_n_printed_reduced(f, f, 2).value) > 0.1


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
    rec = M.result_record("renyi", Design("srs", 2), dist, res, alpha=2.0)
    assert rec["measure"] == "renyi"
    assert rec["design"] == "srs:2"
    assert rec["dist"] == "exp:1"
    assert rec["alpha"] == 2.0
    assert math.isfinite(rec["value"]) and rec["error"] >= 0.0


def test_quadrature_results_report_convergence_diagnostics():
    res = M.shannon(Design("rss", 3), Normal(), force_numeric=True)
    assert res.method == "quadrature"
    assert res.diagnostics["converged"]
    assert res.diagnostics["subdivisions"] > 0
    assert res.error_estimate >= 0.0
