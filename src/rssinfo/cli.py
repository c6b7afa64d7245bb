"""Command-line surface.

Subcommands: table-k, dn, psi, measure, figure, conjecture-scan, errata.
Outputs CSV (default) or JSON to stdout or ``--out``.  Exit codes: 0 success,
2 parse error, 3 quadrature non-convergence, 4 inequality violation found.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import closed_form, measures, mc_oracle, ranking_error
from .distributions import Distribution, DistributionParseError, Exponential, parse_distribution
from .measures import Design, MeasureResult
from .quadrature import QuadratureConfig

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_NO_CONVERGENCE = 3
EXIT_VIOLATION = 4

_SLACK = 1e-9


class CliParseError(ValueError):
    pass


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def parse_design(spec: str, matrix_path: str | None = None) -> Design:
    """Parse ``srs:N | rss:N | irss:N[:matrix]`` design specs.

    The irss matrix segment is a builtin (identity, uniform, blend=W, p12=V)
    or a CSV path; ``--error-matrix`` supplies it when the segment is absent.
    """
    parts = spec.strip().split(":")
    kind = parts[0]
    if kind not in ("srs", "rss", "irss"):
        raise CliParseError(f"unknown design kind {parts[0]!r} in {spec!r}")
    if len(parts) < 2:
        raise CliParseError(f"design spec {spec!r} is missing the set size")
    try:
        n = int(parts[1])
    except ValueError:
        raise CliParseError(f"bad set size {parts[1]!r} in design spec {spec!r}")
    if n < 1:
        raise CliParseError(f"set size must be >= 1 in design spec {spec!r}")
    if kind == "srs":
        return Design("srs", n)
    if kind == "rss":
        return Design("rss", n)
    matrix_spec = ":".join(parts[2:]) if len(parts) > 2 else None
    if matrix_spec is None:
        if matrix_path is None:
            raise CliParseError(
                f"imperfect design {spec!r} needs a matrix segment or --error-matrix"
            )
        P = _load_matrix(matrix_path)
    else:
        P = parse_matrix(matrix_spec, n)
    if P.n != n:
        raise CliParseError(f"error matrix dimension {P.n} does not match n = {n}")
    return Design("irss", n, P)


def parse_matrix(spec: str, n: int) -> ranking_error.RankingErrorMatrix:
    spec = spec.strip()
    try:
        if spec == "identity":
            return ranking_error.identity(n)
        if spec == "uniform":
            return ranking_error.uniform(n)
        if spec.startswith("blend="):
            return ranking_error.blend(n, float(spec[len("blend=") :]))
        if spec.startswith("p12="):
            if n != 2:
                raise CliParseError("p12=... matrices are 2x2 only")
            return ranking_error.two_by_two(float(spec[len("p12=") :]))
    except ValueError as exc:
        raise CliParseError(f"bad matrix spec {spec!r}: {exc}") from exc
    return _load_matrix(spec)


def _load_matrix(path: str) -> ranking_error.RankingErrorMatrix:
    try:
        return ranking_error.from_csv(path)
    except OSError as exc:
        raise CliParseError(f"cannot read matrix file {path!r}: {exc}") from exc
    except ValueError as exc:
        raise CliParseError(f"bad matrix file {path!r}: {exc}") from exc


_CONFIG_KEYS = {
    "quad.abs_tol": ("abs_tol", float),
    "quad.rel_tol": ("rel_tol", float),
    "quad.max_subdiv": ("max_subdiv", int),
}


def _quad_config(args) -> QuadratureConfig:
    cfg = {"abs_tol": 1e-10, "rel_tol": 1e-8, "max_subdiv": 2000}
    path = getattr(args, "config", None)
    if path:
        try:
            with open(path) as fh:
                lines = fh.readlines()
        except OSError as exc:
            raise CliParseError(f"cannot read config file {path!r}: {exc}") from exc
        for lineno, line in enumerate(lines, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise CliParseError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in _CONFIG_KEYS:
                raise CliParseError(f"{path}:{lineno}: unknown config key {key!r}")
            name, convert = _CONFIG_KEYS[key]
            try:
                cfg[name] = convert(value)
            except ValueError as exc:
                raise CliParseError(f"{path}:{lineno}: bad value for {key!r}: {exc}") from exc
    if getattr(args, "quad_abs_tol", None) is not None:
        cfg["abs_tol"] = args.quad_abs_tol
    if getattr(args, "quad_rel_tol", None) is not None:
        cfg["rel_tol"] = args.quad_rel_tol
    if getattr(args, "quad_max_subdiv", None) is not None:
        cfg["max_subdiv"] = args.quad_max_subdiv
    try:
        return QuadratureConfig(
            abs_tol=cfg["abs_tol"], rel_tol=cfg["rel_tol"], max_subdivisions=cfg["max_subdiv"]
        )
    except ValueError as exc:
        raise CliParseError(f"bad quadrature settings: {exc}") from exc


def _emit(rows: list[dict], args) -> None:
    out = sys.stdout if getattr(args, "out", None) in (None, "-") else open(args.out, "w")
    try:
        if getattr(args, "format", "csv") == "json":
            json.dump(rows, out, indent=2)
            out.write("\n")
        else:
            if rows:
                cols = list(rows[0].keys())
                writer = csv.writer(out, lineterminator="\n")
                writer.writerow(cols)
                for row in rows:
                    writer.writerow(
                        [
                            _fmt(v) if isinstance(v, float) else str(v)
                            for v in (row[c] for c in cols)
                        ]
                    )
    finally:
        if out is not sys.stdout:
            out.close()


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_table_k(args) -> int:
    if args.n_max < 2:
        raise CliParseError("--n-max must be >= 2")
    rows = []
    for n in range(2, args.n_max + 1):
        direct = closed_form.k_direct(n)
        recursive = closed_form.k_recursive(n)
        if abs(direct - recursive) > 1e-9:
            print(
                f"k({n}): direct and recursive paths disagree "
                f"({direct!r} vs {recursive!r})",
                file=sys.stderr,
            )
            return EXIT_NO_CONVERGENCE
        rows.append({"n": n, "k": direct})
    _emit(rows, args)
    return EXIT_OK


def cmd_dn(args) -> int:
    if args.n_max < 1:
        raise CliParseError("--n-max must be >= 1")
    rows = [{"n": n, "d_n": closed_form.d_n(n)} for n in range(1, args.n_max + 1)]
    _emit(rows, args)
    return EXIT_OK


def cmd_psi(args) -> int:
    alphas = _parse_float_list(args.alphas)
    if any(a <= 1.0 for a in alphas):
        raise CliParseError("psi requires every alpha > 1")
    if args.n_max < 2:
        raise CliParseError("--n-max must be >= 2")
    rows = [
        {"alpha": a, "n": n, "psi": closed_form.psi_bound(a, n)}
        for a in alphas
        for n in range(2, args.n_max + 1)
    ]
    _emit(rows, args)
    return EXIT_OK


def cmd_measure(args) -> int:
    cfg = _quad_config(args)
    design = parse_design(args.design, args.error_matrix)
    dist = parse_distribution(args.dist)
    if args.measure == "renyi":
        if args.alpha is None:
            raise CliParseError("renyi needs --alpha")
        if not args.alpha > 0 or args.alpha == 1.0:
            raise CliParseError(f"--alpha must be positive and != 1 (1 is shannon), got {args.alpha}")
    if args.measure == "kl" and args.design.strip().startswith("srs:"):
        raise CliParseError("kl compares SRS against an rss or irss design, got --design srs")
    try:
        sim = mc_oracle.SimConfig(replications=args.replications, seed=args.seed) if args.oracle else None
    except ValueError as exc:
        raise CliParseError(f"bad --replications: {exc}") from exc
    if args.measure == "shannon":
        res = measures.shannon(design, dist, cfg, force_numeric=args.force_numeric)
    elif args.measure == "renyi":
        res = measures.renyi(design, dist, args.alpha, cfg, force_numeric=args.force_numeric)
    elif args.measure == "kl":
        res = measures.kl_srs_vs_design(design, dist, cfg, force_numeric=args.force_numeric)
    else:
        raise CliParseError(f"unknown measure {args.measure!r}")
    rec = measures.result_record(args.measure, design, dist, res, args.alpha)
    if args.oracle:
        if args.measure == "shannon":
            est = mc_oracle.mc_entropy(design, dist, sim)
        elif args.measure == "renyi":
            est = mc_oracle.mc_renyi(design, dist, args.alpha, sim)
        else:
            est = mc_oracle.mc_kl(Design("srs", design.n, m=design.m), dist, design, dist, sim)
        rec["oracle"] = est.estimate
        rec["oracle_std_error"] = est.std_error
    _emit([rec], args)
    if res.method == "quadrature" and not res.diagnostics.get("converged", True):
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def cmd_figure(args) -> int:
    cfg = _quad_config(args)
    if not args.rate > 0:
        raise CliParseError(f"--rate must be positive, got {args.rate}")
    if args.points < 1:
        raise CliParseError(f"--points must be >= 1, got {args.points}")
    lam = args.rate
    if args.figure_id == "1":
        rows = []
        for p12 in np.linspace(0.0, 1.0, args.points):
            p12 = float(p12)
            h_srs = closed_form.exp_shannon("srs", lam)
            h_rss = closed_form.exp_shannon("rss", lam)
            h_irss = closed_form.exp_shannon("irss", lam, ranking_error.two_by_two(p12))
            rows.append(
                {
                    "p12": p12,
                    "irss_minus_srs": h_irss - h_srs,
                    "rss_minus_srs": h_rss - h_srs,
                    "rss_minus_irss": h_rss - h_irss,
                }
            )
        _emit(rows, args)
        return EXIT_OK
    if args.figure_id not in ("2a", "2b"):
        raise CliParseError(f"unknown figure id {args.figure_id!r}")
    dist = Exponential(lam)
    p11s = [0.8, 0.9, 0.95, 1.0]
    alphas = [
        float(a)
        for a in np.linspace(args.alpha_min, args.alpha_max, args.points)
        if abs(a - 1.0) > 1e-9
    ]
    rows = []
    for alpha in alphas:
        row = {"alpha": alpha}
        if args.figure_id == "2a":
            ref = measures.renyi(Design("srs", 2), dist, alpha, cfg).value
        else:
            ref = measures.renyi(Design("rss", 2), dist, alpha, cfg).value
        for p11 in p11s:
            design = Design("irss", 2, ranking_error.two_by_two(1.0 - p11))
            val = measures.renyi(design, dist, alpha, cfg).value
            row[f"p11_{p11:g}"] = val - ref
        rows.append(row)
    _emit(rows, args)
    return EXIT_OK


# ---------------------------------------------------------------------------
# conjecture scan
# ---------------------------------------------------------------------------

DEFAULT_SCAN_FAMILIES = ("unif", "exp:1", "norm:0,1", "weibull:2,1")
DEFAULT_SCAN_NS = tuple(range(2, 9))
DEFAULT_SCAN_ALPHAS = (1.1, 1.5, 2.0, 3.0, 5.0, 10.0)
DEFAULT_SCAN_MATRICES = ("identity", "blend=0.75", "blend=0.5", "blend=0.25", "uniform")


@dataclass(frozen=True)
class ScanGrid:
    families: tuple[str, ...] = DEFAULT_SCAN_FAMILIES
    ns: tuple[int, ...] = DEFAULT_SCAN_NS
    alphas: tuple[float, ...] = DEFAULT_SCAN_ALPHAS
    matrices: tuple[str, ...] = DEFAULT_SCAN_MATRICES

    def __post_init__(self):
        if not (self.families and self.ns and self.alphas and self.matrices):
            raise CliParseError("scan grid axes must be non-empty")
        if min(self.ns) < 1:
            raise CliParseError(f"scan set sizes must be >= 1, got {list(self.ns)}")
        bad = [a for a in self.alphas if a <= 1.0]
        if bad:
            raise CliParseError(
                f"conjecture scan covers alpha > 1 only (alpha <= 1 is proved); got {bad}"
            )


@dataclass
class ScanReport:
    records: list[dict] = field(default_factory=list)
    violations: list[dict] = field(default_factory=list)


def run_conjecture_scan(grid: ScanGrid, cfg: QuadratureConfig, jobs: int = 1) -> ScanReport:
    """Evaluate the three Renyi quantities over the grid and record ordering
    margins and whether all three converged; a violation needs a margin below
    minus (combined error + slack)."""
    dists = [parse_distribution(f) for f in grid.families]
    points = [
        (fi, n, alpha, mi)
        for fi in range(len(dists))
        for n in grid.ns
        for alpha in grid.alphas
        for mi in range(len(grid.matrices))
    ]
    base_cache: dict[tuple[int, int, float], tuple[MeasureResult, MeasureResult]] = {}

    def base(fi: int, n: int, alpha: float):
        key = (fi, n, alpha)
        if key not in base_cache:
            srs = measures.renyi(Design("srs", n), dists[fi], alpha, cfg, force_numeric=True)
            rss = measures.renyi(Design("rss", n), dists[fi], alpha, cfg, force_numeric=True)
            base_cache[key] = (srs, rss)
        return base_cache[key]

    def evaluate(point):
        fi, n, alpha, mi = point
        srs, rss = base(fi, n, alpha)
        P = parse_matrix(grid.matrices[mi], n)
        irss = measures.renyi(Design("irss", n, P), dists[fi], alpha, cfg)
        margin_lower = irss.value - rss.value  # conjecture: >= 0
        margin_upper = srs.value - irss.value  # conjecture: >= 0
        return {
            "dist": grid.families[fi],
            "n": n,
            "alpha": alpha,
            "matrix": grid.matrices[mi],
            "renyi_srs": srs.value,
            "renyi_rss": rss.value,
            "renyi_irss": irss.value,
            "margin_rss_irss": margin_lower,
            "margin_irss_srs": margin_upper,
            "error_budget": srs.error_estimate + rss.error_estimate + irss.error_estimate,
            "converged": all(r.diagnostics.get("converged", True) for r in (srs, rss, irss)),
        }

    # warm the SRS/RSS cache serially so worker threads only do the irss leg
    for fi, n, alpha, _ in points:
        base(fi, n, alpha)
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            records = list(pool.map(evaluate, points))
    else:
        records = [evaluate(p) for p in points]

    report = ScanReport(records=records)
    for rec in records:
        slack = rec["error_budget"] + _SLACK
        for name in ("margin_rss_irss", "margin_irss_srs"):
            if rec[name] < -slack:
                report.violations.append(
                    {
                        "inequality": name,
                        "dist": rec["dist"],
                        "n": rec["n"],
                        "alpha": rec["alpha"],
                        "matrix": rec["matrix"],
                        "margin": rec[name],
                        "error_budget": rec["error_budget"],
                    }
                )
    return report


def cmd_conjecture_scan(args) -> int:
    cfg = _quad_config(args)
    grid = ScanGrid(
        families=tuple(args.family) if args.family else DEFAULT_SCAN_FAMILIES,
        ns=tuple(_parse_int_list(args.n_values)) if args.n_values else DEFAULT_SCAN_NS,
        alphas=tuple(_parse_float_list(args.alphas)) if args.alphas else DEFAULT_SCAN_ALPHAS,
        matrices=tuple(args.matrix) if args.matrix else DEFAULT_SCAN_MATRICES,
    )
    report = run_conjecture_scan(grid, cfg, jobs=args.jobs)
    _emit(report.records, args)
    if report.violations:
        print(
            f"{len(report.violations)} ordering violation(s) beyond numerical slack:",
            file=sys.stderr,
        )
        for v in report.violations:
            print(f"  {v}", file=sys.stderr)
        return EXIT_VIOLATION
    print(
        f"conjecture scan: no violations at {len(report.records)} grid points "
        "(this supports, but does not prove, the alpha > 1 ordering)",
        file=sys.stderr,
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# errata report
# ---------------------------------------------------------------------------


def run_errata_checks(cfg: QuadratureConfig | None = None) -> list[dict]:
    """Compare each suspect printed formula against its corrected form and an
    oracle value; returns one row per check with ok flags."""
    from .quadrature import DEFAULT_CONFIG, integrate

    cfg = cfg or DEFAULT_CONFIG
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


def cmd_errata(args) -> int:
    rows = run_errata_checks(_quad_config(args))
    _emit(rows, args)
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------


def _parse_float_list(text: str) -> list[float]:
    try:
        return [float(t) for t in text.split(",") if t.strip()]
    except ValueError:
        raise CliParseError(f"bad number list {text!r}")


def _parse_int_list(text: str) -> list[int]:
    out: list[int] = []
    for t in text.split(","):
        t = t.strip()
        if not t:
            continue
        if "-" in t[1:]:
            lo, _, hi = t.partition("-")
            try:
                out.extend(range(int(lo), int(hi) + 1))
            except ValueError:
                raise CliParseError(f"bad integer range {t!r}")
        else:
            try:
                out.append(int(t))
            except ValueError:
                raise CliParseError(f"bad integer {t!r}")
    return out


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--out", help="write output to this path instead of stdout")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--config", help="key=value config file (quad.* keys)")
    p.add_argument("--quad-abs-tol", type=float, dest="quad_abs_tol")
    p.add_argument("--quad-rel-tol", type=float, dest="quad_rel_tol")
    p.add_argument("--quad-max-subdiv", type=int, dest="quad_max_subdiv")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rssinfo",
        description=(
            "Shannon, Renyi and Kullback-Leibler information measures of "
            "ranked set samples vs simple random samples"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table-k", help="distribution-free Shannon gap k(n)")
    p.add_argument("--n-max", type=int, default=10)
    _add_common(p)
    p.set_defaults(func=cmd_table_k)

    p = sub.add_parser("dn", help="distribution-free KL constant d_n")
    p.add_argument("--n-max", type=int, default=10)
    _add_common(p)
    p.set_defaults(func=cmd_dn)

    p = sub.add_parser("psi", help="alpha > 1 Renyi gap lower bound")
    p.add_argument("--alphas", default="1.5,2,5")
    p.add_argument("--n-max", type=int, default=10)
    _add_common(p)
    p.set_defaults(func=cmd_psi)

    p = sub.add_parser("measure", help="compute one measure for a design/dist pair")
    p.add_argument("measure", choices=("shannon", "renyi", "kl"))
    p.add_argument("--design", required=True, help="srs:N | rss:N | irss:N:<matrix>")
    p.add_argument("--dist", required=True, help="e.g. exp:1, unif, norm:0,1, weibull:2,1")
    p.add_argument("--alpha", type=float)
    p.add_argument("--error-matrix", help="CSV matrix file for irss designs")
    p.add_argument("--force-numeric", action="store_true")
    p.add_argument("--oracle", action="store_true", help="add a Monte Carlo column")
    p.add_argument("--seed", type=int, default=20240817)
    p.add_argument("--replications", type=int, default=1_000_000)
    _add_common(p)
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("figure", help="emit curve data for the entropy/Renyi figures")
    p.add_argument("--id", dest="figure_id", required=True, choices=("1", "2a", "2b"))
    p.add_argument("--points", type=int, default=101)
    p.add_argument("--rate", type=float, default=1.0, help="exponential rate lambda")
    p.add_argument("--alpha-min", type=float, default=0.2)
    p.add_argument("--alpha-max", type=float, default=5.0)
    _add_common(p)
    p.set_defaults(func=cmd_figure)

    p = sub.add_parser("conjecture-scan", help="scan the alpha > 1 Renyi ordering")
    p.add_argument("--family", action="append", help="repeatable distribution spec")
    p.add_argument("--n-values", help="comma list / ranges, e.g. 2-8")
    p.add_argument("--alphas", help="comma list of alpha > 1 values")
    p.add_argument("--matrix", action="append", help="repeatable matrix spec")
    p.add_argument("--jobs", type=int, default=1)
    _add_common(p)
    p.set_defaults(func=cmd_conjecture_scan)

    p = sub.add_parser("errata", help="oracle checks of the suspect printed formulas")
    _add_common(p)
    p.set_defaults(func=cmd_errata)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (CliParseError, DistributionParseError, ranking_error.MatrixValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except measures.DivergentIntegralError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE


if __name__ == "__main__":
    sys.exit(main())
