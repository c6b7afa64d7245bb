import math
import sys

import numpy as np
import pytest

from rssinfo import quadrature as Q
from rssinfo.closed_form import d_n, k_direct
from rssinfo.distributions import Exponential, Support
from rssinfo.errors import DivergentIntegralError, InputError
from rssinfo import ranking_error as re
from rssinfo.measures import Design, kl_srs_vs_design, renyi, shannon
from rssinfo.quadrature import (
    DEFAULT_CONFIG,
    QuadratureConfig,
    QuadratureResult,
    entropy_integral,
    integrate,
    integrate_full_line,
    integrate_half_line,
    integrate_support,
    integrate_unit,
)

# Fixed accuracy battery: (label, integrand, domain, truth), the domain a
# finite interval, "half" for (0, inf) or "full" for the real line.  Known
# antiderivatives only.
BATTERY = [
    ("u log u", lambda u: u * np.log(u), (0.0, 1.0), -0.25),
    ("u^2", lambda u: u * u, (0.0, 1.0), 1.0 / 3.0),
    ("log u", np.log, (0.0, 1.0), -1.0),
    ("log(1-u)", lambda u: np.log1p(-u), (0.0, 1.0), -1.0),
    ("(log u)^2", lambda u: np.log(u) ** 2, (0.0, 1.0), 2.0),
    ("u^3 log u", lambda u: u**3 * np.log(u), (0.0, 1.0), -1.0 / 16.0),
    ("beta(3,4) kernel", lambda u: u**2 * (1 - u) ** 3, (0.0, 1.0), 1.0 / 60.0),
    ("exp(-x) on [0,2]", lambda x: np.exp(-x), (0.0, 2.0), 1.0 - math.exp(-2.0)),
    ("exp(-x) half line", lambda x: np.exp(-x), "half", 1.0),
    ("x exp(-x) half line", lambda x: x * np.exp(-x), "half", 1.0),
    ("normal pdf full line", lambda x: np.exp(-0.5 * x * x) / math.sqrt(2 * math.pi), "full", 1.0),
    (
        "x^2 normal pdf full line",
        lambda x: x * x * np.exp(-0.5 * x * x) / math.sqrt(2 * math.pi),
        "full",
        1.0,
    ),
]


def _run(f, domain):
    if domain == "half":
        return integrate_half_line(f, 0.0)
    if domain == "full":
        return integrate_full_line(f)
    return integrate(f, *domain)


def test_battery_accuracy():
    bound = 10.0 * max(DEFAULT_CONFIG.abs_tol, DEFAULT_CONFIG.rel_tol)
    for label, f, domain, truth in BATTERY:
        r = _run(f, domain)
        assert r.converged, label
        assert abs(r.value - truth) <= 10.0 * max(
            DEFAULT_CONFIG.abs_tol, DEFAULT_CONFIG.rel_tol * abs(truth)
        ), f"{label}: {r.value} vs {truth}"
        assert abs(r.value - truth) <= bound, label


def test_battery_error_honesty():
    # reported error_estimate must dominate the actual error in >= 95% of cases
    results = [(_run(f, domain), truth) for _, f, domain, truth in BATTERY]
    honest = sum(abs(r.value - truth) <= r.error_estimate for r, truth in results)
    assert honest / len(BATTERY) >= 0.95


def test_stacked_battery_components_converge_within_their_errors():
    # the finite-interval integrands, each mapped onto (0, 1), as one (k, m)
    # integrand on shared panels
    finite = [(f, domain, truth) for _, f, domain, truth in BATTERY if isinstance(domain, tuple)]

    def stacked(t):
        return np.stack([(b - a) * f(a + (b - a) * t) for f, (a, b), _ in finite])

    r = integrate(stacked, 0.0, 1.0)
    assert r.converged
    assert r.value.shape == r.error_estimate.shape == (len(finite),)
    for value, error, (_, _, truth) in zip(r.value, r.error_estimate, finite):
        assert abs(value - truth) <= error, (value, truth, error)
        assert error <= max(DEFAULT_CONFIG.abs_tol, DEFAULT_CONFIG.rel_tol * abs(value))


def test_rule_is_qk15_at_full_precision():
    # each half of QUADPACK's symmetric rule is written once, at its printed
    # precision, and mirrored: the weights sum to 2 and the rules are exact
    # on the polynomials they integrate, to the rounding of the sum
    assert math.fsum(Q._WK) == 2.0 == math.fsum(Q._WG)
    gauss = Q._XK[1::2]
    for k in range(23):
        truth = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert abs(math.fsum(Q._WK * Q._XK**k) - truth) <= 3e-16, k
        if k <= 13:
            assert abs(math.fsum(Q._WG * gauss**k) - truth) <= 3e-16, k
    np.testing.assert_array_equal(Q._XK, -Q._XK[::-1])
    assert Q._XK[7] == 0.0 and math.copysign(1.0, Q._XK[7]) == 1.0
    assert integrate(lambda x: np.ones_like(x), 0.0, 3.0).value == 3.0


def test_result_shape_follows_the_integrand():
    scalar = integrate(lambda u: u * u, 0.0, 1.0)
    assert type(scalar.value) is float and type(scalar.error_estimate) is float
    assert type(scalar.converged) is bool and type(scalar.subdivisions_used) is int
    vector = integrate(lambda u: np.stack([u, u * u]), 0.0, 1.0)
    np.testing.assert_allclose(vector.value, [0.5, 1.0 / 3.0], rtol=1e-12)
    assert type(vector.converged) is bool and type(vector.subdivisions_used) is int


def test_constant_integrand_is_broadcast_over_the_nodes():
    scalar = integrate(lambda u: 2.0, 0.0, 1.0)
    assert scalar.converged and abs(scalar.value - 2.0) <= scalar.error_estimate
    vector = integrate(lambda u: np.array([[1.0], [2.0]]), 0.0, 1.0)
    assert vector.converged
    np.testing.assert_allclose(vector.value, [1.0, 2.0], rtol=1e-14)


@pytest.mark.parametrize("shape", [(2,), (2, 3), (2, 1, 1)])
def test_integrand_of_no_accepted_shape_raises_input_error(shape):
    with pytest.raises(InputError, match=r"\(m,\), \(k, m\), a constant scalar or \(k, 1\)"):
        integrate(lambda u: np.ones(shape), 0.0, 1.0)


def test_infinite_panel_error_does_not_stall_the_loop():
    # The first panel's fitted endpoint power law has p >= 1, so its error is
    # infinite; once that panel is split, the running error must not stay NaN.
    c = 1e-4
    truth = 2.0 * (c**-0.5 - (1.0 + c) ** -0.5)

    def spike(u):
        return (u + c) ** -1.5

    alone = integrate(spike, 0.0, 1.0)
    stacked = integrate(lambda u: np.stack([spike(u), np.log(u)]), 0.0, 1.0)
    cases = [
        (alone, alone.value, alone.error_estimate),
        (stacked, stacked.value[0], stacked.error_estimate[0]),
    ]
    for r, value, error in cases:
        assert r.converged and r.subdivisions_used < 100, r
        assert abs(value - truth) <= error, (value, truth, error)
    assert abs(stacked.value[1] + 1.0) <= stacked.error_estimate[1]
    # the same in a measure: the first panel of the 50 Renyi components has an
    # infinite error, and the integral must not then spend its whole budget
    res = renyi(Design("rss", 50), Exponential(1.0), 3.0, force_numeric=True)
    assert res.diagnostics["converged"] and res.diagnostics["subdivisions"] < 100


def test_determinism_is_bitwise():
    def f(u):
        return np.exp(-u) * np.log(u + 0.1)

    a = integrate(f, 0.0, 3.0)
    b = integrate(f, 0.0, 3.0)
    assert a.value == b.value
    assert a.error_estimate == b.error_estimate
    assert a.subdivisions_used == b.subdivisions_used


def test_non_finite_integrand_raises_with_location():
    def f(x):
        with np.errstate(divide="ignore"):
            return 1.0 / (x - 0.5)

    with pytest.raises(DivergentIntegralError) as err:
        integrate(f, 0.0, 1.0)
    assert 0.0 < err.value.x < 1.0
    # on a mapped line the location is the x of the failing node, not its t
    for run in (lambda g: integrate_half_line(g, 0.0), integrate_full_line):
        with pytest.raises(DivergentIntegralError) as err:
            run(lambda x: np.where(x < 5.0, np.exp(-x * x), np.nan))
        assert err.value.x >= 5.0
    with pytest.raises(DivergentIntegralError) as err:
        integrate_support(lambda x: np.where(x < 2.5, x, np.nan), Support(2.0, 3.0))
    assert 2.0 < err.value.x < 3.0


def test_smallest_folded_node_keeps_s_a_normal_float():
    # the narrowest panel at 0 the engine splits is _MIN_SPLIT_ULPS ulps of
    # _MIN_SPLIT_SCALE wide; its children are not split, so the smallest
    # K15 node in (0, T) is the first one of the lower child
    width = 0.5 * Q._MIN_SPLIT_ULPS * math.ulp(Q._MIN_SPLIT_SCALE)
    t = 0.5 * width * (1.0 + Q._XK[0])
    assert 0.0 < t < width < Q._T
    assert 0.5 * (t / Q._T) ** 4 >= sys.float_info.min


def test_quartic_fold_resolves_an_alpha_below_one_end_quickly():
    # at alpha = 0.2 the exponential's upper tail is an s^-0.8 end: the square
    # map left t^-0.6 and took 57 splits, the quartic map leaves t^-0.2
    res = renyi(Design("rss", 5), Exponential(1.0), 0.2, force_numeric=True)
    assert res.diagnostics["converged"] and res.diagnostics["subdivisions"] <= 30, res.diagnostics


def test_unreachable_tolerance_stops_at_float_resolution():
    # Bisection toward the log singularities reaches float resolution; it must
    # stop there, not converged, without evaluating at u = 0.0 or u = 1.0.
    cfg = QuadratureConfig(abs_tol=1e-30, rel_tol=1e-30, max_subdivisions=1000)
    cases = [
        (integrate(lambda u: np.log1p(-u), 0.0, 1.0, cfg), -1.0),
        (kl_srs_vs_design(Design("rss", 3), cfg=cfg, force_numeric=True), d_n(3)),
        (shannon(Design("rss", 3), Exponential(1.0), cfg, force_numeric=True), 3.0 + k_direct(3)),
    ]
    for r, truth in cases:
        converged = r.converged if isinstance(r, QuadratureResult) else r.diagnostics["converged"]
        assert not converged
        assert math.isfinite(r.value)
        assert abs(r.value - truth) <= r.error_estimate, (r, truth)


def test_unreachable_tolerance_stops_near_the_rounding_floor():
    # No split takes a total error below the sum of its panels' floors, 50 eps
    # times the integral of |f|; a tolerance under twice that sum is reported
    # as not converged within a few splits, not after the whole budget.
    mp = pytest.importorskip("mpmath")
    cfg = QuadratureConfig(abs_tol=1e-30, rel_tol=1e-16)
    P5, P4 = re.blend(5, 0.5), re.blend(4, 0.5)

    def rows(P, h):  # sum over the rows of P of int_0^1 h(u, w(u)) du
        coeff = [P.n * mp.binomial(P.n - 1, r) for r in range(P.n)]

        def term(p):
            def w(u):
                return mp.fsum(mp.mpf(pr) * c * u**r * (1 - u) ** (P.n - 1 - r) for r, (pr, c) in enumerate(zip(p, coeff)))

            return mp.quad(lambda u: h(u, w(u)), [0, 0.5, 1])

        return [term(p) for p in P.entries]

    with mp.workdps(30):
        a = mp.mpf(0.5)  # the standard exponential's density at its u-quantile is 1 - u
        h_renyi = mp.fsum(mp.log(v) for v in rows(P5, lambda u, w: w**a * (1 - u) ** (a - 1))) / (1 - a)
        h_shannon = 5 - mp.fsum(rows(P5, lambda u, w: w * mp.log(w)))  # n H(exp) - D(P)
        kl = -mp.fsum(rows(P4, lambda u, w: mp.log(w)))
    cases = [
        (renyi(Design("irss", 5, P5), Exponential(1.0), 0.5, cfg), h_renyi),
        (shannon(Design("irss", 5, P5), Exponential(1.0), cfg), h_shannon),
        (kl_srs_vs_design(Design("irss", 4, P4), cfg=cfg), kl),
    ]
    for r, truth in cases:
        assert not r.diagnostics["converged"] and r.diagnostics["subdivisions"] <= 50, r
        assert abs(r.value - float(truth)) <= r.error_estimate, (r, truth)


def _first_call(cfg):
    """Size of the first call of a folded integrand, and the result."""
    sizes = []

    def g(F, S):
        sizes.append(F.size)
        return np.stack([np.log(F) * np.log(S), F * S])

    return sizes, integrate_unit(g, cfg, "test")


def test_folded_first_call_evaluates_four_panels():
    # the panels between 0, T/2, 3T/4, 7T/8 and T, 15 nodes each, every node
    # a u in both fold halves; each later call splits one panel
    sizes, r = _first_call(DEFAULT_CONFIG)
    assert sizes[0] == 4 * 15 * 2 and set(sizes[1:]) <= {2 * 15 * 2}
    assert r.subdivisions_used == 3 + len(sizes) - 1  # leaves - 1
    # the breaks are a prefix capped by the budget, each one a subdivision
    for budget, panels in ((1, 2), (2, 3), (3, 4)):
        sizes, r = _first_call(QuadratureConfig(max_subdivisions=budget))
        assert sizes == [panels * 15 * 2] and r.subdivisions_used == budget, (budget, sizes)
    # a direct call starts from the one panel (a, b)
    seen = []
    integrate(lambda u: seen.append(u.size) or np.log(u), 0.0, 1.0)
    assert seen[0] == 15 and set(seen[1:]) == {30}


def test_endpoint_power_singularity_error_is_honest():
    # |K15 - G7| under-reports the error of an x^-p endpoint panel for p
    # above about 0.6; near u = 1 the nodes also run out of float resolution,
    # and at p = 0.99 bisection cannot reach the tolerance at either end.
    # Converged or not, the reported error must cover the truth.
    cfg = QuadratureConfig(abs_tol=1e-8, rel_tol=1e-8)
    for p in (0.6, 0.7, 0.8, 0.9, 0.95, 0.99):
        for r in (
            integrate(lambda x: x**-p, 0.0, 1.0, cfg),
            integrate(lambda u: (1.0 - u) ** -p, 0.0, 1.0, cfg),
        ):
            assert abs(r.value - 1.0 / (1.0 - p)) <= r.error_estimate, (p, r)
    assert not integrate(lambda x: x**-0.99, 0.0, 1.0, cfg).converged


def test_interval_of_a_few_ulps():
    # nodes of so narrow a panel round onto each other and onto its ends
    for ulps in (1, 2, 4):
        r = integrate(lambda x: np.exp(-1e17 * (x - 1.0)), 1.0, 1.0 + ulps * 2.0**-52)
        assert math.isfinite(r.value) and math.isfinite(r.error_estimate), ulps


def test_subdivision_budget_marks_non_convergence():
    cfg = QuadratureConfig(abs_tol=1e-14, rel_tol=1e-14, max_subdivisions=2)
    r = integrate(lambda u: np.log(u), 0.0, 1.0, cfg)
    assert not r.converged
    assert r.subdivisions_used <= 2


def test_integrate_support_dispatch():
    finite = integrate_support(lambda u: 2 * u, Support(0.0, 1.0))
    half = integrate_support(lambda x: np.exp(-x), Support(0.0, math.inf))
    full = integrate_support(
        lambda x: np.exp(-0.5 * x * x) / math.sqrt(2 * math.pi),
        Support(-math.inf, math.inf),
    )
    assert abs(finite.value - 1.0) < 1e-9
    assert abs(half.value - 1.0) < 1e-9
    assert abs(full.value - 1.0) < 1e-9


def test_entropy_integral_zero_log_zero_convention():
    # density vanishing on half the domain must not produce NaN
    def density(u):
        u = np.asarray(u)
        return np.where(u < 0.5, 2.0, 0.0)

    r = entropy_integral(density, Support(0.0, 1.0))
    assert abs(r.value - (-math.log(2.0))) < 1e-6


def test_invalid_interval_rejected():
    with pytest.raises(ValueError):
        integrate(lambda u: u, 1.0, 0.0)
    with pytest.raises(ValueError):
        integrate(lambda u: u, 0.0, math.inf)


def test_config_validation():
    with pytest.raises(ValueError):
        QuadratureConfig(abs_tol=0.0)
    with pytest.raises(ValueError):
        QuadratureConfig(max_subdivisions=0)
