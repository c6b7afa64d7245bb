"""Acceptance criteria, one test per criterion, each emitting one summary line.

Criterion 5 asserts zero ordering violations on the default scan grid.  The
scan genuinely finds violations of the upper Renyi ordering (exponential
parent, large alpha, moderate misranking), confirmed by three independent
routes, so that assertion is expected to fail; the scan and its exit code
report the finding honestly.
"""

import csv
import math

import numpy as np
import pytest

import pins
from rssinfo import cli
from rssinfo import closed_form as cf
from rssinfo import measures as M
from rssinfo import mc_oracle as mc
from rssinfo import ranking_error as re
from rssinfo.distributions import Exponential, Normal, Uniform, Weibull
from rssinfo.measures import Design
from rssinfo.order_stats import beta_order_pdf
from rssinfo.quadrature import QuadratureConfig, entropy_integral

GRID_FAMILIES = [Uniform(), Exponential(1.0), Normal(0.0, 1.0), Weibull(2.0, 1.0)]
GRID_NS = range(2, 9)
GRID_MATRICES = [
    ("identity", re.identity),
    ("blend=0.75", lambda n: re.blend(n, 0.75)),
    ("blend=0.5", lambda n: re.blend(n, 0.5)),
    ("blend=0.25", lambda n: re.blend(n, 0.25)),
    ("uniform", re.uniform),
]

K_TABLE = [-0.386, -0.989, -1.742, -2.611, -3.574, -4.616, -5.727, -6.897, -8.121]

TIGHT = QuadratureConfig(abs_tol=1e-13, rel_tol=1e-12, max_subdivisions=4000)


@pytest.fixture
def report(capsys):
    def _emit(num, ok, detail):
        with capsys.disabled():
            print(f"criterion {num:2d}: {'PASS' if ok else 'FAIL'} — {detail}")

    return _emit


def test_criterion_01_shannon_gap_table(report):
    worst_table = worst_paths = 0.0
    integrals = []
    for n, expected in zip(range(2, 11), K_TABLE):
        direct = cf.k_direct(n)
        recursive = cf.k_recursive(n)
        parts = [
            entropy_integral(lambda u, n=n, i=i: beta_order_pdf(n, i, u), Uniform.support, TIGHT)
            for i in range(1, n + 1)
        ]
        integrals += parts
        from_quad = math.fsum(r.value for r in parts)
        worst_table = max(worst_table, abs(direct - expected))
        worst_paths = max(worst_paths, abs(direct - recursive), abs(direct - from_quad))
    unconverged = sum(not r.converged for r in integrals)
    ok = worst_table <= 1e-3 and worst_paths <= 1e-8 and not unconverged
    report(1, ok, f"k(2..10) vs table |Δ|≤{worst_table:.1e} (tol 1e-3); "
                  f"direct/recursive/quadrature spread ≤{worst_paths:.1e} (tol 1e-8); "
                  f"unconverged integrals: {unconverged}/{len(integrals)}")
    assert worst_table <= 1e-3
    assert worst_paths <= 1e-8
    assert not unconverged


def test_criterion_02_exponential_set_size_two(report):
    dist = Exponential(1.0)
    h_srs = M.shannon(Design("srs", 2), dist)
    h_rss = M.shannon(Design("rss", 2), dist)
    closed_err = max(
        abs(h_srs.value - 2.0),
        abs(h_rss.value - (3.0 - 2.0 * math.log(2.0))),
        abs((h_rss.value - h_srs.value) - (1.0 - 2.0 * math.log(2.0))),
    )
    q_srs = M.shannon(Design("srs", 2), dist, force_numeric=True)
    q_rss = M.shannon(Design("rss", 2), dist, force_numeric=True)
    quad_err = max(
        abs(q_srs.value - 2.0),
        abs(q_rss.value - (3.0 - 2.0 * math.log(2.0))),
        abs((q_rss.value - q_srs.value) - (1.0 - 2.0 * math.log(2.0))),
    )
    ok = closed_err <= 1e-9 and quad_err <= 1e-7
    report(2, ok, f"closed-form |Δ|≤{closed_err:.1e} (tol 1e-9); quadrature |Δ|≤{quad_err:.1e} (tol 1e-7)")
    assert closed_err <= 1e-9
    assert quad_err <= 1e-7


def test_criterion_03_shannon_ordering_grid(report):
    violations = []
    worst_free = 0.0
    for dist in GRID_FAMILIES:
        for n in GRID_NS:
            h_srs = M.shannon(Design("srs", n), dist, force_numeric=True)
            h_rss = M.shannon(Design("rss", n), dist, force_numeric=True)
            worst_free = max(worst_free, abs((h_srs.value - h_rss.value) - (-cf.k_direct(n))))
            for name, make in GRID_MATRICES:
                h_irss = M.shannon(Design("irss", n, make(n)), dist)
                slack = (
                    h_srs.error_estimate + h_rss.error_estimate + h_irss.error_estimate + 1e-9
                )
                if not (
                    h_rss.value <= h_irss.value + slack
                    and h_irss.value <= h_srs.value + slack
                ):
                    violations.append((dist.spec_string(), n, name))
    ok = not violations and worst_free <= 1e-7
    report(3, ok, f"ordering violations: {len(violations)}/140 grid points; "
                  f"distribution-freeness |Δ|≤{worst_free:.1e} (tol 1e-7)")
    assert not violations, violations
    assert worst_free <= 1e-7


def test_criterion_04_renyi_lemma_suites(report):
    violations = []
    for dist in GRID_FAMILIES:
        for n in GRID_NS:
            for alpha in (0.2, 0.5, 0.8):
                r_srs = M.renyi(Design("srs", n), dist, alpha, force_numeric=True)
                r_rss = M.renyi(Design("rss", n), dist, alpha, force_numeric=True)
                for name, make in GRID_MATRICES:
                    r_irss = M.renyi(Design("irss", n, make(n)), dist, alpha)
                    slack = (
                        r_srs.error_estimate
                        + r_rss.error_estimate
                        + r_irss.error_estimate
                        + 1e-9
                    )
                    if not (
                        r_rss.value <= r_irss.value + slack
                        and r_irss.value <= r_srs.value + slack
                    ):
                        violations.append((dist.spec_string(), n, alpha, name))
    bound_failures = []
    for dist in GRID_FAMILIES:
        for n in range(2, 11):
            for alpha in (1.5, 2.0, 5.0):
                gap = (
                    M.renyi(Design("rss", n), dist, alpha).value
                    - M.renyi(Design("srs", n), dist, alpha).value
                )
                psi = cf.psi_bound(alpha, n)
                lower = n * alpha / (1.0 - alpha) * math.log(n)
                if not (gap >= psi - 1e-7 and lower - 1e-12 <= psi < 0.0):
                    bound_failures.append((dist.spec_string(), n, alpha))
    mono_ok = all(
        cf.psi_bound(alpha, n + 1) <= cf.psi_bound(alpha, n) + 1e-12
        for alpha in (1.5, 2.0, 5.0)
        for n in range(2, 10)
    )
    ok = not violations and not bound_failures and mono_ok
    report(4, ok, f"0<α<1 ordering violations: {len(violations)}/420; "
                  f"α>1 bound failures: {len(bound_failures)}/108; Ψ monotone: {mono_ok}")
    assert not violations, violations
    assert not bound_failures, bound_failures
    assert mono_ok


def test_criterion_05_conjecture_scan_default_grid(report):
    worst_cross = 0.0
    for dist in GRID_FAMILIES:
        for n in range(2, 7):
            for alpha in (1.5, 2.0, 3.0):
                direct = (
                    M.renyi(Design("rss", n), dist, alpha, force_numeric=True).value
                    - M.renyi(Design("srs", n), dist, alpha, force_numeric=True).value
                )
                binom = M.renyi_gap_binomial(dist, n, alpha).value
                worst_cross = max(worst_cross, abs(binom - direct))
    cross_ok = worst_cross <= 1e-6

    scan = cli.run_conjecture_scan(cli.ScanGrid(), QuadratureConfig())
    n_viol = len(scan.violations)
    ok = cross_ok and n_viol == 0
    worst = min(scan.violations, key=lambda v: v["margin"]) if scan.violations else None
    report(
        5,
        ok,
        f"binomial-route gap |Δ|≤{worst_cross:.1e} (tol 1e-6); "
        f"default-grid ordering violations: {n_viol}/{len(scan.records)}"
        + (
            f" (worst: {worst['dist']}, n={worst['n']}, α={worst['alpha']}, "
            f"{worst['matrix']}, margin {worst['margin']:.4f} — the scan's "
            "evidence contradicts the conjectured upper ordering at large α)"
            if worst
            else " (supports, but does not prove, the conjectured ordering)"
        ),
    )
    assert cross_ok
    assert n_viol == 0, scan.violations


def test_criterion_06_kl_suite(report):
    failures = []
    calls = []

    def track(fn, *args, **kwargs):
        res = fn(*args, **kwargs)
        calls.append(res)
        return res

    # u-space quadrature vs the closed constant
    for n in GRID_NS:
        v = track(M.kl_srs_vs_design, Design("rss", n), cfg=TIGHT, force_numeric=True)
        if abs(v.value - cf.d_n(n)) > 1e-8:
            failures.append(("u-space", n))
    # x-space distribution-freeness
    for dist in [Exponential(1.0), Normal(0.0, 1.0), Uniform()]:
        for n in range(2, 7):
            v = track(M.kl_srs_vs_design_x, Design("rss", n), dist)
            if abs(v.value - cf.d_n(n)) > 1e-6:
                failures.append(("x-space", dist.spec_string(), n))
    dn = [cf.d_n(n) for n in range(1, 12)]
    if abs(dn[0]) > 1e-12 or any(b < a for a, b in zip(dn, dn[1:])):
        failures.append(("d_n monotonicity",))
    # K(RSS, SRS) = -k(n)
    dist = Exponential(1.0)
    for n in range(2, 6):
        v = track(M.kl_two_sample, Design("rss", n), dist, Design("srs", n), dist)
        if abs(v.value - (-cf.k_direct(n))) > 1e-7:
            failures.append(("K(RSS,SRS)", n))
    # symmetric divergence: d_n - k(n), exactly 1 at n = 2
    sym2 = track(M.kld_symmetric, Design("srs", 2), dist, Design("rss", 2), dist)
    if abs(sym2.value - 1.0) > 1e-7:
        failures.append(("KLD n=2",))
    for n in (3, 4):
        sym = track(M.kld_symmetric, Design("srs", n), dist, Design("rss", n), dist)
        if abs(sym.value - (cf.d_n(n) - cf.k_direct(n))) > 1e-7:
            failures.append(("KLD identity", n))
    # convexity ordering: K(SRS,SRS) <= K(SRS,RSS) for unequal exponentials
    f, g = Exponential(1.0), Exponential(2.0)
    for n in (2, 3):
        lo = track(M.kl_two_sample, Design("srs", n), f, Design("srs", n), g)
        hi = track(M.kl_two_sample, Design("srs", n), f, Design("rss", n), g)
        if lo.value > hi.value + 1e-9:
            failures.append(("convexity ordering", n))
    # perfect ranking dominates imperfect ranking, and the matrix limits hold
    for n in GRID_NS:
        perfect = cf.d_n(n)
        for name, make in GRID_MATRICES:
            v = track(M.kl_srs_vs_design, Design("irss", n, make(n)))
            if v.value > perfect + v.error_estimate + 1e-9:
                failures.append(("imperfect dominance", n, name))
        ident = track(M.kl_srs_vs_design, Design("irss", n, re.identity(n)), cfg=TIGHT)
        rand = track(M.kl_srs_vs_design, Design("irss", n, re.uniform(n)), cfg=TIGHT)
        if abs(ident.value - perfect) > 1e-8 or abs(rand.value) > 1e-9:
            failures.append(("matrix limits", n))
    unconverged = sum(not r.converged for r in calls)
    if unconverged:
        failures.append(("not converged", unconverged, len(calls)))
    ok = not failures
    report(6, ok, f"KL suite failures: {len(failures)}" + (f" {failures[:3]}" if failures else ""))
    assert not failures, failures


def test_criterion_07_a_n_decomposition(report):
    worst = 0.0
    for lam1, lam2 in [(1.0, 1.0), (1.0, 2.0), (2.0, 1.0)]:
        f, g = Exponential(lam1), Exponential(lam2)
        n = 3
        rss = M.kl_two_sample(Design("rss", n), f, Design("rss", n), g)
        srs = M.kl_two_sample(Design("srs", n), f, Design("srs", n), g)
        worst = max(worst, abs((rss.value - srs.value) - M.a_n(f, g, n).value))
    equal_law = abs(M.a_n(Exponential(1.0), Exponential(1.0), 3).value)
    ok = worst <= 1e-6 and equal_law <= 1e-9
    report(7, ok, f"decomposition |Δ|≤{worst:.1e} (tol 1e-6); A_n(F,F)={equal_law:.1e} (tol 1e-9)")
    assert worst <= 1e-6
    assert equal_law <= 1e-9


def test_criterion_08_monte_carlo_consistency(report):
    sim = mc.SimConfig(replications=1_000_000, seed=20240817)
    b5 = lambda n: re.blend(n, 0.5)
    points = [
        ("shannon", Design("srs", 2), Exponential(1.0), None),
        ("shannon", Design("rss", 2), Exponential(1.0), None),
        ("shannon", Design("irss", 2, b5(2)), Exponential(1.0), None),
        ("shannon", Design("rss", 3), Normal(0.0, 1.0), None),
        ("shannon", Design("irss", 3, re.uniform(3)), Normal(0.0, 1.0), None),
        ("shannon", Design("rss", 4), Uniform(), None),
        ("shannon", Design("srs", 2), Weibull(2.0, 1.0), None),
        ("shannon", Design("rss", 3), Weibull(2.0, 1.0), None),
        ("shannon", Design("irss", 3, re.blend(3, 0.75)), Exponential(1.0), None),
        ("shannon", Design("rss", 2), Normal(0.0, 1.0), None),
        ("renyi", Design("srs", 2), Exponential(1.0), 2.0),
        ("renyi", Design("rss", 2), Exponential(1.0), 2.0),
        ("renyi", Design("irss", 2, b5(2)), Exponential(1.0), 5.0),
        ("renyi", Design("rss", 3), Normal(0.0, 1.0), 0.5),
        ("renyi", Design("rss", 3), Uniform(), 2.0),
        ("renyi", Design("irss", 2, re.blend(2, 0.25)), Weibull(2.0, 1.0), 1.5),
        ("kl", Design("rss", 2), Exponential(1.0), None),
        ("kl", Design("irss", 2, b5(2)), Exponential(1.0), None),
        ("kl", Design("rss", 3), Normal(0.0, 1.0), None),
        ("kl", Design("irss", 3, re.blend(3, 0.25)), Exponential(1.0), None),
    ]
    assert len(points) == 20
    misses = []
    for kind, design, dist, alpha in points:
        if kind == "shannon":
            quad = M.shannon(design, dist, force_numeric=True)
            est = mc.mc_entropy(design, dist, sim)
        elif kind == "renyi":
            quad = M.renyi(design, dist, alpha, force_numeric=True)
            est = mc.mc_renyi(design, dist, alpha, sim)
        else:
            quad = M.kl_srs_vs_design(design, force_numeric=True)
            est = mc.mc_kl(Design("srs", design.n), dist, design, dist, sim)
        if abs(quad.value - est.estimate) > 4.0 * est.std_error:
            misses.append((kind, design.spec_string(), dist.spec_string(), alpha))

    m = 100_000
    window = int(math.sqrt(m))
    rng = np.random.default_rng(20240817)
    battery = [
        (rng.random(m), 0.0),
        (rng.exponential(size=m), 1.0),
        (mc.sample_order_stat(Exponential(1.0), 2, 1, rng, size=m), 1.0 - math.log(2.0)),
    ]
    vas_misses = [
        truth for sample, truth in battery if abs(mc.vasicek_entropy(sample, window) - truth) > 0.02
    ]
    ok = not misses and not vas_misses
    report(8, ok, f"quadrature-vs-MC misses: {len(misses)}/20 at 4·std_error (M=10^6); "
                  f"Vasicek battery misses: {len(vas_misses)}/3 at ±0.02")
    assert not misses, misses
    assert not vas_misses, vas_misses


def test_criterion_09_figure_reproduction(report, tmp_path, capsys):
    fig1 = tmp_path / "fig1.csv"
    assert cli.main(["figure", "--id", "1", "--points", "101", "--out", str(fig1)]) == 0
    rows = list(csv.DictReader(fig1.open()))
    capsys.readouterr()
    start = rows[0]
    mid = rows[50]
    fig1_err = max(
        abs(float(start["rss_minus_irss"])),  # p12 = 0: imperfect meets perfect
        abs(float(mid["irss_minus_srs"])),  # p12 = 0.5: imperfect meets SRS
        abs(abs(float(mid["rss_minus_irss"])) - (2.0 * math.log(2.0) - 1.0)),
    )
    assert float(mid["p12"]) == 0.5

    fig2 = tmp_path / "fig2a.csv"
    assert (
        cli.main(
            ["figure", "--id", "2a", "--points", "9", "--alpha-min", "0.2",
             "--alpha-max", "5", "--out", str(fig2)]
        )
        == 0
    )
    rows2 = list(csv.DictReader(fig2.open()))
    capsys.readouterr()
    fig2_err = 0.0
    for row in rows2:
        alpha = float(row["alpha"])
        gap = (
            M.renyi(Design("rss", 2), Exponential(1.0), alpha).value
            - M.renyi(Design("srs", 2), Exponential(1.0), alpha).value
        )
        fig2_err = max(fig2_err, abs(float(row["p11_1"]) - gap))
    ok = fig1_err <= 1e-6 and fig2_err <= 1e-6
    report(9, ok, f"curve-1 endpoint/extremum |Δ|≤{fig1_err:.1e}; "
                  f"curve-2a perfect-column |Δ|≤{fig2_err:.1e} (tol 1e-6)")
    assert fig1_err <= 1e-6
    assert fig2_err <= 1e-6


def test_criterion_10_errata_flag_pattern(report):
    rows = {row["check"]: row for row in cli.run_errata_checks()}
    expected = {
        "eta_sign",
        "renyi_gap_display",
        "kl_minus_n_prefactor",
        "a_n_missing_log",
        "psi_alpha_2_display",
    }
    pattern_ok = set(rows) == expected and all(
        row["printed_ok"] == "False" and row["corrected_ok"] == "True"
        for row in rows.values()
    )
    report(10, pattern_ok, "all 5 printed forms flagged against their oracles; "
                           "all corrected forms pass" if pattern_ok else "flag pattern mismatch")
    assert pattern_ok, rows


def test_errata_rows_keep_their_bits():
    assert pins.CASES["errata"]["rows"]() == pins.stored("errata", "rows")
