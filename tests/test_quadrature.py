import math

import numpy as np
import pytest

from rssinfo.closed_form import d_n, k_direct
from rssinfo.distributions import Exponential, Support
from rssinfo.measures import Design, kl_srs_vs_design, shannon
from rssinfo.quadrature import (
    DEFAULT_CONFIG,
    NonFiniteIntegrandError,
    QuadratureConfig,
    QuadratureResult,
    entropy_integral,
    integrate,
    integrate_full_line,
    integrate_half_line,
    integrate_support,
)

# Fixed accuracy battery: (label, runner, truth).  Known antiderivatives only.
BATTERY = [
    ("u log u", lambda: integrate(lambda u: u * np.log(u), 0.0, 1.0), -0.25),
    ("u^2", lambda: integrate(lambda u: u * u, 0.0, 1.0), 1.0 / 3.0),
    ("log u", lambda: integrate(np.log, 0.0, 1.0), -1.0),
    ("log(1-u)", lambda: integrate(lambda u: np.log1p(-u), 0.0, 1.0), -1.0),
    ("(log u)^2", lambda: integrate(lambda u: np.log(u) ** 2, 0.0, 1.0), 2.0),
    ("u^3 log u", lambda: integrate(lambda u: u**3 * np.log(u), 0.0, 1.0), -1.0 / 16.0),
    ("beta(3,4) kernel", lambda: integrate(lambda u: u**2 * (1 - u) ** 3, 0.0, 1.0), 1.0 / 60.0),
    ("exp(-x) on [0,2]", lambda: integrate(lambda x: np.exp(-x), 0.0, 2.0), 1.0 - math.exp(-2.0)),
    ("exp(-x) half line", lambda: integrate_half_line(lambda x: np.exp(-x), 0.0), 1.0),
    ("x exp(-x) half line", lambda: integrate_half_line(lambda x: x * np.exp(-x), 0.0), 1.0),
    (
        "normal pdf full line",
        lambda: integrate_full_line(
            lambda x: np.exp(-0.5 * x * x) / math.sqrt(2 * math.pi)
        ),
        1.0,
    ),
    (
        "x^2 normal pdf full line",
        lambda: integrate_full_line(
            lambda x: x * x * np.exp(-0.5 * x * x) / math.sqrt(2 * math.pi)
        ),
        1.0,
    ),
]


def test_battery_accuracy():
    bound = 10.0 * max(DEFAULT_CONFIG.abs_tol, DEFAULT_CONFIG.rel_tol)
    for label, run, truth in BATTERY:
        r = run()
        assert r.converged, label
        assert abs(r.value - truth) <= 10.0 * max(
            DEFAULT_CONFIG.abs_tol, DEFAULT_CONFIG.rel_tol * abs(truth)
        ), f"{label}: {r.value} vs {truth}"
        assert abs(r.value - truth) <= bound, label


def test_battery_error_honesty():
    # reported error_estimate must dominate the actual error in >= 95% of cases
    honest = sum(abs(run().value - truth) <= run().error_estimate for _, run, truth in BATTERY)
    assert honest / len(BATTERY) >= 0.95


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

    with pytest.raises(NonFiniteIntegrandError) as err:
        integrate(f, 0.0, 1.0)
    assert 0.0 < err.value.x < 1.0


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


def test_result_addition_combines_fields():
    a = QuadratureResult(1.0, 1e-10, 3, True)
    b = QuadratureResult(2.0, 2e-10, 4, False)
    c = a + b
    assert c.value == 3.0
    assert c.error_estimate == pytest.approx(3e-10)
    assert c.subdivisions_used == 7
    assert not c.converged


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
