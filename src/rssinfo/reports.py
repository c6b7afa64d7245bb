"""Reports built on the measures, as plain records (dicts) for the CLI to
format: the alpha > 1 conjecture scan, the errata checks of the paper's
printed formulas, and the curves of its figures."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import closed_form, measures, ranking_error
from .distributions import Exponential, parse_distribution
from .measures import Design
from .quadrature import DEFAULT_CONFIG, QuadratureConfig, integrate

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
            raise ValueError("scan grid axes must be non-empty")
        if min(self.ns) < 1:
            raise ValueError(f"scan set sizes must be >= 1, got {list(self.ns)}")
        bad = [a for a in self.alphas if a <= 1.0]
        if bad:
            raise ValueError(
                f"conjecture scan covers alpha > 1 only (alpha <= 1 is proved); got {bad}"
            )


@dataclass
class ScanReport:
    records: list[dict] = field(default_factory=list)
    violations: list[dict] = field(default_factory=list)


def run_conjecture_scan(grid: ScanGrid, cfg: QuadratureConfig, jobs: int = 1) -> ScanReport:
    """Evaluate the three Renyi quantities over the grid and record ordering
    margins and whether all three converged; a violation needs a margin below
    minus (combined error + slack).

    A design is its ranking-error matrix, so SRS is the ``uniform`` leg and
    perfect RSS the ``identity`` leg; each (family, n, alpha) cell integrates
    every distinct matrix once.  The scan is serial: ``jobs`` must be 1.
    """
    if jobs != 1:
        raise ValueError(f"the conjecture scan runs serially; jobs must be 1, got {jobs}")
    dists = [parse_distribution(f) for f in grid.families]
    specs = tuple(dict.fromkeys(("uniform", "identity", *grid.matrices)))
    report = ScanReport()
    for family, dist in zip(grid.families, dists):
        for n in grid.ns:
            for alpha in grid.alphas:
                legs = {
                    spec: measures.renyi(Design("irss", n, ranking_error.parse_matrix(spec, n)), dist, alpha, cfg)
                    for spec in specs
                }
                srs, rss = legs["uniform"], legs["identity"]
                for matrix in grid.matrices:
                    irss = legs[matrix]
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
                        "error_budget": srs.error_estimate + rss.error_estimate + irss.error_estimate,
                        "converged": all(r.diagnostics.get("converged", True) for r in (srs, rss, irss)),
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
    """Compare each suspect printed formula against its corrected form and an
    oracle value; returns one row per check with ok flags."""
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
        float(closed_form.log_gamma(alpha + 1) + closed_form.log_gamma(alpha) - closed_form.log_gamma(2 * alpha + 1))
    ) / (1 - alpha)
    corrected = closed_form.exp_renyi("rss", lam, alpha) - closed_form.exp_renyi("srs", lam, alpha)
    dist = Exponential(lam)
    oracle = (
        measures.renyi(Design("rss", 2), dist, alpha, cfg, force_numeric=True).value
        - measures.renyi(Design("srs", 2), dist, alpha, cfg, force_numeric=True).value
    )
    rows.append(_errata_row("renyi_gap_display", printed, corrected, oracle, tol))

    # 3. imperfect-KL prefactor: with the printed leading -n the P=identity
    #    limit misses d_n; without it the limit is exact.
    n = 3
    design = Design("irss", n, ranking_error.identity(n))
    base = measures.kl_srs_vs_design(design, cfg=cfg).value
    rows.append(_errata_row("kl_minus_n_prefactor", n * base, base, closed_form.d_n(n), tol))

    # 4. A_n reduced form: the printed version (bare survival term, no log)
    #    must vanish at F = G but does not; the corrected form does.
    f = Exponential(1.0)
    printed = measures.a_n_printed_reduced(f, f, 2, cfg).value
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
    rate: float = 1.0,
    alpha_min: float = 0.2,
    alpha_max: float = 5.0,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> list[dict]:
    """Curve data for figure 1 (Shannon gaps against the 2x2 misranking
    p12) or figure 2a / 2b (the 2x2 imperfect Renyi value less the SRS /
    perfect-RSS one, against alpha, one column per p11), exponential parent."""
    if figure_id == "1":
        rows = []
        h_srs = closed_form.exp_shannon("srs", rate)
        h_rss = closed_form.exp_shannon("rss", rate)
        for p12 in np.linspace(0.0, 1.0, points):
            p12 = float(p12)
            h_irss = closed_form.exp_shannon("irss", rate, ranking_error.two_by_two(p12))
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
        raise ValueError(f"unknown figure id {figure_id!r}")
    dist = Exponential(rate)
    reference = Design("srs" if figure_id == "2a" else "rss", 2)
    rows = []
    for alpha in np.linspace(alpha_min, alpha_max, points):
        alpha = float(alpha)
        if abs(alpha - 1.0) <= 1e-9:
            continue
        ref = measures.renyi(reference, dist, alpha, cfg).value
        row = {"alpha": alpha}
        for p11 in (0.8, 0.9, 0.95, 1.0):
            design = Design("irss", 2, ranking_error.two_by_two(1.0 - p11))
            row[f"p11_{p11:g}"] = measures.renyi(design, dist, alpha, cfg).value - ref
        rows.append(row)
    return rows
