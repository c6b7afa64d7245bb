"""Reports built on the measures, as plain records (dicts) for the CLI to
format: the alpha > 1 conjecture scan, the errata checks of the paper's
printed formulas, and the curves of its figures."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import closed_form, measures, ranking_error
from .distributions import Exponential, parse_distribution
from .errors import InputError, check_alpha, check_count
from .quadrature import DEFAULT_CONFIG, QuadratureConfig, integrate, integrate_unit

DEFAULT_SCAN_FAMILIES = ("unif", "exp:1", "norm:0,1", "weibull:2,1")
DEFAULT_SCAN_NS = tuple(range(2, 9))
DEFAULT_SCAN_ALPHAS = (1.1, 1.5, 2.0, 3.0, 5.0, 10.0)
DEFAULT_SCAN_MATRICES = ("identity", "blend=0.75", "blend=0.5", "blend=0.25", "uniform")

_SLACK = 1e-9


@dataclass(frozen=True)
class ScanGrid:
    families: tuple[str, ...] = DEFAULT_SCAN_FAMILIES
    ns: tuple[int, ...] = DEFAULT_SCAN_NS
    alphas: tuple[float, ...] = DEFAULT_SCAN_ALPHAS
    matrices: tuple[str, ...] = DEFAULT_SCAN_MATRICES

    def __post_init__(self):
        if not (self.families and self.ns and self.alphas and self.matrices):
            raise InputError("scan grid axes must be non-empty")
        for n in self.ns:
            check_count("scan set size", n, 1)
        for alpha in self.alphas:
            check_alpha(alpha, 1)  # the scan covers alpha > 1 only: alpha <= 1 is proved


@dataclass
class ScanReport:
    records: list[dict] = field(default_factory=list)
    violations: list[dict] = field(default_factory=list)


def run_conjecture_scan(grid: ScanGrid, cfg: QuadratureConfig, jobs: int = 1) -> ScanReport:
    """Evaluate the three Renyi quantities over the grid and record ordering
    margins and whether all three converged; a violation needs a margin below
    minus (combined error + slack).

    A design is its ranking-error matrix, so SRS is the ``uniform`` leg and
    perfect RSS the ``identity`` leg; each (family, n, alpha) cell is one
    integral over the distinct rows of its designs, one per distinct spec, and
    each record reads its leg by spec.  The scan is serial: ``jobs`` must be 1.
    """
    if jobs != 1:
        raise InputError(f"the conjecture scan runs serially; jobs must be 1, got {jobs}")
    dists = [parse_distribution(f) for f in grid.families]
    specs = tuple(dict.fromkeys(("uniform", "identity", *grid.matrices)))
    report = ScanReport()
    for family, dist in zip(grid.families, dists):
        for n in grid.ns:
            designs = [ranking_error.parse_matrix(spec, n) for spec in specs]
            for alpha in grid.alphas:
                leg = dict(zip(specs, measures.renyi_designs(designs, dist, alpha, cfg)))
                srs, rss = leg["uniform"], leg["identity"]
                budget = srs.error_estimate + rss.error_estimate  # each record adds its own leg's
                converged = srs.converged and rss.converged
                for matrix in grid.matrices:
                    irss = leg[matrix]
                    rec = {
                        "dist": family,
                        "n": n,
                        "alpha": alpha,
                        "matrix": matrix,
                        "renyi_srs": srs.value,
                        "renyi_rss": rss.value,
                        "renyi_irss": irss.value,
                        "margin_rss_irss": irss.value - rss.value,  # conjecture: >= 0
                        "margin_irss_srs": srs.value - irss.value,  # conjecture: >= 0
                        "error_budget": budget + irss.error_estimate,
                        "converged": converged and irss.converged,
                    }
                    report.records.append(rec)
                    for name in ("margin_rss_irss", "margin_irss_srs"):
                        if rec[name] < -(rec["error_budget"] + _SLACK):
                            violation = {k: rec[k] for k in ("dist", "n", "alpha", "matrix")}
                            report.violations.append(
                                {"inequality": name, **violation, "margin": rec[name], "error_budget": rec["error_budget"]}
                            )
    return report


def run_errata_checks(cfg: QuadratureConfig = DEFAULT_CONFIG) -> list[dict]:
    """Compare each suspect printed formula, computed here, against its
    corrected form and an oracle value; one row per check with ok flags."""
    rows = []
    tol = 1e-6

    # 1. eta sign: the printed bracket vs the sign-corrected closed form,
    #    against quadrature of the defining integral (sign fixed by eta(0)=1/2).
    a = 0.25
    printed = 0.5 + ((1 - a) ** 2 * math.log(1 - a) - a * a * math.log(a)) / (1 - 2 * a)
    corrected = closed_form.eta(a)
    raw = integrate(lambda u: u * np.log(u), a, 1 - a, cfg)
    oracle = -2.0 / (1.0 - 2.0 * a) * raw.value
    rows.append(_errata_row("eta_sign", printed, corrected, oracle, tol))

    # 2. combined Renyi gap display vs the sum of its own components,
    #    against the force-numeric quadrature gap (exponential, n=2, alpha=2).
    alpha, lam = 2.0, 1.0
    printed = alpha / (1 - alpha) * (1 - math.log(2)) + (
        math.lgamma(alpha + 1) + math.lgamma(alpha) - math.lgamma(2 * alpha + 1)
    ) / (1 - alpha)
    rss, srs = (closed_form.exp_renyi(P, lam, alpha) for P in (ranking_error.identity(2), ranking_error.uniform(2)))
    corrected = rss - srs
    oracle = measures.renyi_gap_binomial(Exponential(lam), 2, alpha, cfg).value
    rows.append(_errata_row("renyi_gap_display", printed, corrected, oracle, tol))

    # 3. imperfect-KL prefactor: with the printed leading -n the P=identity
    #    limit misses d_n; without it the limit is exact.  The identity's
    #    closed form is d_n itself, so the limit is integrated.
    n = 3
    base = measures.kl_srs_vs_design(ranking_error.identity(n), cfg=cfg, force_numeric=True).value
    rows.append(_errata_row("kl_minus_n_prefactor", n * base, base, closed_form.d_n(n), tol))

    # 4. A_n reduced form at n = 2: the printed -1 - 2 int_0^1 [u log G +
    #    (1-u) Gbar] du, G and Gbar at F^-1(u), with a bare survival term (no
    #    log), must vanish at F = G but does not; the corrected form does.
    f = Exponential(1.0)

    def printed_integrand(F, S):
        x = f.quantile(F, S)
        return closed_form.xlogy(F, f.cdf(x)) + S * f.survival(x)

    printed = -1.0 - 2.0 * integrate_unit(printed_integrand, cfg, "printed A_n integrand is not finite").value
    corrected = measures.a_n(f, f, 2, cfg).value
    rows.append(_errata_row("a_n_missing_log", printed, corrected, 0.0, tol))

    # 5. Psi(alpha, 2) display: the printed 2a/(1-a) omits the log 2 factor
    #    carried by the definition (oracle: direct evaluation of the sum).
    alpha = 2.0
    printed = 2 * alpha / (1 - alpha)
    corrected = closed_form.psi_bound(alpha, 2)
    oracle = alpha / (1 - alpha) * 2 * math.log(2)
    rows.append(_errata_row("psi_alpha_2_display", printed, corrected, oracle, tol))
    return rows


def _errata_row(check, printed, corrected, oracle, tol) -> dict:
    return {
        "check": check,
        "printed": printed,
        "corrected": corrected,
        "oracle": oracle,
        "printed_ok": str(abs(printed - oracle) <= tol),
        "corrected_ok": str(abs(corrected - oracle) <= tol),
    }


def figure_curve(
    figure_id: str,
    points: int,
    alpha_min: float = 0.2,
    alpha_max: float = 5.0,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> list[dict]:
    """Curve data for figure 1 (Shannon gaps against the 2x2 misranking
    p12) or figure 2a / 2b (the 2x2 imperfect Renyi value less the SRS /
    perfect-RSS one, against alpha, one column per p11), exponential parent.
    Every column is a difference of two set-size-2 values, in which the
    exponential's rate cancels, so the parent has rate 1."""
    check_count("points", points, 1)
    if figure_id == "1":
        rows = []
        h_srs = closed_form.exp_shannon(ranking_error.uniform(2), 1.0)
        h_rss = closed_form.exp_shannon(ranking_error.identity(2), 1.0)
        for p12 in np.linspace(0.0, 1.0, points):
            p12 = float(p12)
            h_irss = closed_form.exp_shannon(ranking_error.two_by_two(p12), 1.0)
            rows.append(
                {
                    "p12": p12,
                    "irss_minus_srs": h_irss - h_srs,
                    "rss_minus_srs": h_rss - h_srs,
                    "rss_minus_irss": h_rss - h_irss,
                }
            )
        return rows
    if figure_id not in ("2a", "2b"):
        raise InputError(f"unknown figure id {figure_id!r}")
    dist = Exponential(1.0)
    reference = (ranking_error.uniform if figure_id == "2a" else ranking_error.identity)(2)  # a closed form
    p11s = (0.8, 0.9, 0.95, 1.0)
    designs = [reference, *(ranking_error.two_by_two(1.0 - p11) for p11 in p11s)]
    rows = []
    for alpha in np.linspace(alpha_min, alpha_max, points):
        alpha = float(alpha)
        if abs(alpha - 1.0) <= 1e-9:
            continue
        ref, *legs = measures.renyi_designs(designs, dist, alpha, cfg)
        rows.append({"alpha": alpha, **{f"p11_{p11:g}": leg.value - ref.value for p11, leg in zip(p11s, legs)}})
    if not rows:
        raise InputError(f"figure {figure_id}'s alpha grid holds no alpha other than 1")
    return rows
