"""Command-line surface.

Subcommands: table-k, dn, psi, measure, figure, conjecture-scan, errata.
Outputs CSV (default) or JSON to stdout or ``--out``.  Exit codes: 0 success,
2 parse error, 3 quadrature non-convergence, 4 inequality violation found.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

from . import closed_form, measures, mc_oracle, ranking_error
from .distributions import DistributionParseError, parse_distribution
from .measures import Design
from .quadrature import QuadratureConfig
from .ranking_error import parse_matrix
from .reports import DEFAULT_SCAN_ALPHAS, DEFAULT_SCAN_FAMILIES, DEFAULT_SCAN_MATRICES, DEFAULT_SCAN_NS
from .reports import ScanGrid, figure_curve, run_conjecture_scan, run_errata_checks

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_NO_CONVERGENCE = 3
EXIT_VIOLATION = 4


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
    if kind != "irss":
        return Design(kind, n)
    if len(parts) > 2:
        P = parse_matrix(":".join(parts[2:]), n)
    elif matrix_path is not None:
        P = ranking_error.from_csv(matrix_path)
    else:
        raise CliParseError(f"imperfect design {spec!r} needs a matrix segment or --error-matrix")
    if P.n != n:
        raise CliParseError(f"error matrix dimension {P.n} does not match n = {n}")
    return Design("irss", n, P)


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
    for name in cfg:  # each --quad-* flag overrides the file
        if getattr(args, "quad_" + name, None) is not None:
            cfg[name] = getattr(args, "quad_" + name)
    try:
        return QuadratureConfig(
            abs_tol=cfg["abs_tol"], rel_tol=cfg["rel_tol"], max_subdivisions=cfg["max_subdiv"]
        )
    except ValueError as exc:
        raise CliParseError(f"bad quadrature settings: {exc}") from exc


def _emit(rows: list[dict], args) -> None:
    path = getattr(args, "out", None)
    try:
        out = sys.stdout if path in (None, "-") else open(path, "w")
    except OSError as exc:
        raise CliParseError(f"cannot write output file {path!r}: {exc}") from exc
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
    else:
        res = measures.kl_srs_vs_design(design, dist, cfg, force_numeric=args.force_numeric)
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
    if args.figure_id != "1" and not (args.alpha_min > 0 and args.alpha_max > 0):
        raise CliParseError(
            f"--alpha-min and --alpha-max must be positive, got {args.alpha_min} and {args.alpha_max}"
        )
    rows = figure_curve(args.figure_id, args.points, args.rate, args.alpha_min, args.alpha_max, cfg)
    _emit(rows, args)
    return EXIT_OK


def cmd_conjecture_scan(args) -> int:
    cfg = _quad_config(args)
    try:
        grid = ScanGrid(
            families=tuple(args.family) if args.family else DEFAULT_SCAN_FAMILIES,
            ns=tuple(_parse_int_list(args.n_values)) if args.n_values else DEFAULT_SCAN_NS,
            alphas=tuple(_parse_float_list(args.alphas)) if args.alphas else DEFAULT_SCAN_ALPHAS,
            matrices=tuple(args.matrix) if args.matrix else DEFAULT_SCAN_MATRICES,
        )
    except ValueError as exc:
        raise CliParseError(str(exc)) from exc
    report = run_conjecture_scan(grid, cfg)
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
