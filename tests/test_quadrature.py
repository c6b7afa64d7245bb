import math
import sys
from unittest import mock

import numpy as np
import pytest

import pins
from rssinfo import measures as M
from rssinfo import quadrature as Q
from rssinfo.closed_form import d_n, h_uniform_order, k_direct
from rssinfo.distributions import Exponential, Normal, Support, Uniform
from rssinfo.errors import DivergentIntegralError, InputError
from rssinfo import ranking_error as re
from rssinfo.measures import Design, kl_srs_vs_design, renyi, shannon
from rssinfo.order_stats import beta_order_pdf
from rssinfo.quadrature import (
    DEFAULT_CONFIG,
    QuadratureConfig,
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


# None stands for m, the number of points; a constant, scalar or (k, 1), is
# no accepted shape, and a (2, 2, m) output was once read as its first component
@pytest.mark.parametrize("shape", [(2,), (2, 3), (2, 1, 1), (), (2, 1), (2, 2, None)])
def test_integrand_of_no_accepted_shape_raises_input_error(shape):
    def ones(points):
        return np.ones([points.size if s is None else s for s in shape])

    with pytest.raises(InputError, match=r"is not \(m,\) or \(k, m\)$"):
        integrate(ones, 0.0, 1.0)
    with pytest.raises(InputError, match=r"is not \(m,\) or \(k, m\)$"):
        integrate_unit(lambda F, S: ones(F), DEFAULT_CONFIG, "w")


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
    assert res.converged and res.subdivisions_used < 100


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


def test_folded_non_finite_g_is_located_without_a_warning():
    # the engine's one finiteness test finds the folded sum; the error names g's
    # first non-finite value, by component then u, and no RuntimeWarning is raised
    def opposite_ends(F, S):
        return np.where(F < 1e-3, -np.inf, np.where(S < 1e-3, np.inf, F * S))

    with pytest.raises(DivergentIntegralError, match=r"^w at u = ") as err:
        integrate_unit(lambda F, S: np.stack([F * S, opposite_ends(F, S)]), DEFAULT_CONFIG, "w")
    assert (err.value.x, err.value.component) == (None, 1)
    with pytest.raises(DivergentIntegralError, match=r"^w at x = ") as err:
        integrate_unit(lambda F, S: np.exp(800.0 * F), DEFAULT_CONFIG, "w", at=lambda F, S: F / S)
    assert err.value.x > 1e10 and err.value.component is None
    # finite halves whose sum overflows are named at their u below 1/2, not at the engine's t
    with pytest.raises(DivergentIntegralError, match=r"^w at u = ") as err:
        integrate_unit(lambda F, S: np.full(F.shape, 1.5e308), DEFAULT_CONFIG, "w")
    assert (err.value.x, err.value.component) == (None, None)


# near the float maximum, (k, m) with a tame first row, and each on a mapped support
_HUGE = {
    "scalar": lambda c: lambda x: np.full(np.shape(x), c),
    "stacked": lambda c: lambda x: np.stack([np.exp(-np.asarray(x)), np.full(np.shape(x), c)]),
}


@pytest.mark.parametrize("shape", list(_HUGE))
def test_an_integral_near_the_float_maximum_is_exact_or_raises(shape):
    # a panel's sums at half weight keep 1e308 on (0, 1) finite, as its 15 nodes' full-weight sum is not
    r = integrate(_HUGE[shape](1e308), 0.0, 1.0)
    assert r.converged and np.all(np.atleast_1d(r.value)[-1] == 1e308)
    # a total, or one panel, beyond the float range raises on the caller's interval
    for breaks in ((1.0,), ()):
        with pytest.raises(DivergentIntegralError, match=r"^integral on \(0\.0, 1\.9\) exceeds the float range"):
            integrate(_HUGE[shape](1.7e308), 0.0, 1.9, breaks=breaks)
    # a representable integral whose folded halves overflow is named at the caller's x
    with pytest.raises(DivergentIntegralError, match="^integrand is not finite at x = ") as err:
        integrate_support(_HUGE[shape](1e308), Support(3.0, 4.0))
    assert 3.0 < err.value.x < 3.5 and err.value.component == (1 if shape == "stacked" else None)


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
    assert res.converged and res.subdivisions_used <= 30, res


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
        assert not r.converged
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
        assert not r.converged and r.subdivisions_used <= 50, r
        assert abs(r.value - float(truth)) <= r.error_estimate, (r, truth)


def _first_call(cfg):
    """Size of the first call of a folded integrand, and the result."""
    sizes = []

    def g(F, S):
        sizes.append(F.size)
        return np.stack([np.log(F) * np.log(S), F * S])

    return sizes, integrate_unit(g, cfg, "test")


def test_folded_first_call_evaluates_six_panels():
    # the panels between 0, T/4, T/2, 5T/8, 3T/4, 7T/8 and T, 15 nodes each, every
    # node a u in both fold halves (180 u points); each later call splits one panel
    sizes, r = _first_call(DEFAULT_CONFIG)
    assert sizes[0] == 6 * 15 * 2 and set(sizes[1:]) <= {2 * 15 * 2}
    assert r.subdivisions_used == 5 + len(sizes) - 1  # leaves - 1
    # the breaks are a prefix capped by the budget, each one a subdivision
    for budget, panels in ((1, 2), (2, 3), (3, 4), (4, 5), (5, 6)):
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


@pytest.mark.parametrize("case", list(pins.CASES["first_call"]))
def test_first_call_that_decides_is_pinned_bit_for_bit(case):
    assert pins.CASES["first_call"][case]() == pins.stored("first_call", case)


@pytest.mark.parametrize("case", list(pins.CASES["engine"]))
def test_engine_cases_are_pinned_bit_for_bit(case):
    assert pins.CASES["engine"][case]() == pins.stored("engine", case)


def test_tight_order_stat_entropies_take_one_integrand_call():
    # the first call's six panels hold the splits bisection makes first, so every
    # term H(U(i:n)) of k(n), n = 2..8, meets the TIGHT tolerance on that call alone
    tight = QuadratureConfig(abs_tol=1e-13, rel_tol=1e-12, max_subdivisions=4000)
    for n in range(2, 9):
        for i in range(1, n + 1):
            calls = []
            r = entropy_integral(lambda u: calls.append(u.size) or beta_order_pdf(n, i, u), Uniform.support, tight)
            assert len(calls) == 1 and r.converged, (n, i, calls, r)
            assert abs(r.value - h_uniform_order(n, i)) <= r.error_estimate, (n, i, r)
    # forced u-space d_2 splits at most four panels after the first call
    calls = []
    unit = M.integrate_unit
    with mock.patch.object(M, "integrate_unit", lambda g, *a, **k: unit(lambda F, S: calls.append(F.size) or g(F, S), *a, **k)):
        r = kl_srs_vs_design(Design("rss", 2), cfg=tight, force_numeric=True)
    assert r.converged and 1 <= len(calls) <= 5 and r.subdivisions_used == 5 + len(calls) - 1, (calls, r)
    assert abs(r.value - d_n(2)) <= r.error_estimate, r


def test_smooth_unit_integral_calls_g_once_and_builds_its_tables_once():
    calls = []

    def g(F, S):
        calls.append(F.size)
        return F * S * (1.0 + F)

    first = integrate_unit(g, DEFAULT_CONFIG, "test")
    assert calls == [180] and first.subdivisions_used == 5 and first.converged
    nodes, fold = Q._nodes.cache_info(), Q._fold.cache_info()
    again = integrate_unit(g, DEFAULT_CONFIG, "test")
    assert calls == [180, 180] and again == first
    for before, after in ((nodes, Q._nodes.cache_info()), (fold, Q._fold.cache_info())):
        assert after.misses == before.misses and after.hits > before.hits


def test_shared_tables_are_read_only_and_bounded():
    def g(F, S):
        return np.log(F) * np.log(S)

    before = integrate_unit(g, DEFAULT_CONFIG, "test")
    for write in (lambda F, S: F.__setitem__(0, 0.5), lambda F, S: S.__imul__(2.0)):
        with pytest.raises(ValueError, match="read-only"):
            integrate_unit(lambda F, S: write(F, S) or g(F, S), DEFAULT_CONFIG, "test")
    assert integrate_unit(g, DEFAULT_CONFIG, "test") == before
    with pytest.raises(ValueError, match="read-only"):
        integrate(lambda x: x.__setitem__(0, 0.5) or x, 0.0, 1.0)
    # an entry keeps at most MEMO_BYTES: 2000 breaks' 240 KB of nodes are built anew and not kept
    assert Q._nodes.cache_info().maxsize == Q._fold.cache_info().maxsize == re.MEMO_SIZE
    kept = Q._nodes.cache_info()
    r = integrate(np.cos, 0.0, 1.0, breaks=np.linspace(0.0, 1.0, 2002)[1:-1])
    assert r.subdivisions_used == 2000 and Q._nodes.cache_info() == kept


def test_integrals_on_other_intervals_never_share_nodes():
    seen = {}

    def on(b):
        def f(x):
            seen.setdefault(b, []).append(x.copy())
            return np.exp(-x) * np.log(x)

        return f

    Q._nodes.cache_clear()
    wide = integrate(on(2.0), 0.0, 2.0)
    narrow = integrate(on(1.0), 0.0, 1.0)
    assert integrate(on(2.0), 0.0, 2.0) == wide != narrow
    # halving is exact, so the (0, 2) nodes are twice the (0, 1) ones, and none is shared
    assert np.array_equal(seen[2.0][0], 2.0 * seen[1.0][0])
    assert all(0.0 < x.min() and x.max() < b for b, calls in seen.items() for x in calls)
    # equal edges of another float type give the float64 nodes
    assert integrate(on(1.0), 0.0, 1.0, breaks=np.array([0.5], dtype=np.float32)) == integrate(on(1.0), 0.0, 1.0, breaks=(0.5,))


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


def test_half_line_reads_its_end_as_integrate_support_does():
    # from -inf the half line is the real line (it once returned 0.0 +- 0.0,
    # converged); an end of +inf or NaN is no support
    def f(x):
        return np.exp(-np.abs(x))

    half, full = integrate_half_line(f, -math.inf), integrate_full_line(f)
    assert half == full and full.converged
    assert abs(full.value - 2.0) <= full.error_estimate
    for a in (math.inf, math.nan):
        with pytest.raises(InputError, match="unsupported support"):
            integrate_half_line(f, a)


def test_entropy_integral_zero_log_zero_convention():
    # density vanishing on half the domain must not produce NaN
    def density(u):
        u = np.asarray(u)
        return np.where(u < 0.5, 2.0, 0.0)

    r = entropy_integral(density, Support(0.0, 1.0))
    assert abs(r.value - (-math.log(2.0))) < 1e-6


def test_entropy_integral_raises_on_a_nan_or_negative_density():
    # counted as 0, either once gave 0.0 +- 0.0, converged, after 3 subdivisions
    cases = [
        (lambda x: np.full(np.shape(x), np.nan), Normal().support),
        (lambda u: np.where(np.asarray(u) < 0.5, -1.0, 1.0), Uniform.support),
    ]
    for density, support in cases:
        with pytest.raises(DivergentIntegralError, match="^integrand is not finite at x = ") as err:
            entropy_integral(density, support)
        assert err.value.x is not None and math.isfinite(err.value.x)


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
    # any value meets an infinite tolerance, so a result judged against one would be "converged" unchecked
    for field in ("abs_tol", "rel_tol"):
        for tolerance in (math.inf, math.nan, -math.inf, 0.0, -1e-8):
            with pytest.raises(InputError, match="finite and positive"):
                QuadratureConfig(**{field: tolerance})
