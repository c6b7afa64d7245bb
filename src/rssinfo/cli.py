"""Command-line surface.

Subcommands: table-k, dn, psi, measure, figure, conjecture-scan, errata.
Outputs CSV (default) or JSON to stdout or ``--out``.  Exit codes, the same for
every subcommand: 0 success, 2 bad input (``InputError``), 3 a value that cannot
be trusted (``DivergentIntegralError``, or a written row with ``converged``
false), 4 inequality violation found.
Every input has one spelling: a design spec alone carries its matrix, a CSV
path among them, and the ``--quad-*`` flags alone set tolerances.  Every
subcommand takes ``--out`` and ``--format``; only the four that integrate take
the ``--quad-*`` flags, which the others reject as unknown.
The argument parser is built once per process and shared by every ``main``
call, which dispatches subcommand ``x-y`` to the module's ``cmd_x_y``: each
returns (rows, exit code), and ``main`` alone writes the rows and turns the
result into the exit code.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys

from . import closed_form, measures, mc_oracle, ranking_error
from .distributions import parse_distribution
from .errors import DivergentIntegralError, InputError, check_count
from .quadrature import QuadratureConfig
from .ranking_error import RankingErrorMatrix, parse_matrix
from .reports import DEFAULT_SCAN_ALPHAS, DEFAULT_SCAN_FAMILIES, DEFAULT_SCAN_MATRICES, DEFAULT_SCAN_NS  # noqa: F401  (perfbench reads cli.DEFAULT_SCAN_*)
from .reports import ScanGrid, figure_curve, run_conjecture_scan, run_errata_checks

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_NO_CONVERGENCE = 3
EXIT_VIOLATION = 4


class _Parser(argparse.ArgumentParser):
    """Parse errors lead with ``error:``, like every other exit-2 message."""

    def error(self, message):
        self.exit(EXIT_PARSE, f"error: {message}\n{self.format_usage()}")


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def parse_design(spec: str) -> RankingErrorMatrix:
    """The ranking-error matrix of a ``kind:N[:matrix]`` design spec, e.g.
    ``rss:3``, ``irss:2:p12=0.25`` or ``irss:2:P.csv``.

    The matrix segment is a builtin (identity, uniform, blend=W, p12=V) or a
    headerless CSV path, the one way to give a matrix from a file.
    ``measures.Design`` decides which kinds take a matrix: irss needs one,
    srs and rss take none.
    """
    kind, *parts = spec.strip().split(":", 2)
    if not parts:
        raise InputError(f"design spec {spec!r} is missing the set size")
    try:
        n = int(parts[0])
    except ValueError:
        raise InputError(f"bad set size {parts[0]!r} in design spec {spec!r}")
    return measures.Design(kind, n, parse_matrix(parts[1], n) if len(parts) > 1 else None)


# each --quad-* flag's dest, and the QuadratureConfig field it sets
_QUAD_FIELDS = {"quad_abs_tol": "abs_tol", "quad_rel_tol": "rel_tol", "quad_max_subdiv": "max_subdivisions"}


def _quad_config(args) -> QuadratureConfig:
    """The QuadratureConfig of the --quad-* flags given; its defaults hold for the others."""
    return QuadratureConfig(**{_QUAD_FIELDS[dest]: v for dest, v in _given(args, *_QUAD_FIELDS).items()})


def _given(args, *dests: str) -> dict:
    """The options of ``dests`` given: argparse leaves the others None, so the library's defaults hold."""
    return {dest: getattr(args, dest) for dest in dests if getattr(args, dest) is not None}


def _reject(args, why: str, *dests: str) -> None:
    """Raise, naming each option of ``dests`` given: every dest is its flag's spelling."""
    if given := _given(args, *dests):
        raise InputError(" and ".join("--" + d.replace("_", "-") for d in given) + f" would be ignored {why}")


def _emit(rows: list[dict], args) -> None:
    path = args.out
    try:
        out = sys.stdout if path in (None, "-") else open(path, "w")
        try:
            if args.format == "json":  # RFC 8259 has no Infinity or NaN: a non-finite float is null
                finite = [{c: None if isinstance(v, float) and not math.isfinite(v) else v for c, v in row.items()} for row in rows]
                json.dump(finite, out, indent=2)
                out.write("\n")
            elif rows:
                writer = csv.DictWriter(out, list(rows[0]), lineterminator="\n")
                writer.writeheader()
                for row in rows:
                    writer.writerow({c: _fmt(v) if isinstance(v, float) else str(v) for c, v in row.items()})
        finally:
            if out is not sys.stdout:
                out.close()
    except OSError as exc:  # from the open, a write or the close's flush
        raise InputError(f"cannot write output file {path!r}: {exc}") from exc


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_table_k(args) -> tuple[list[dict], int]:
    check_count("--n-max", args.n_max, 2)
    rows = []
    for n in range(2, args.n_max + 1):
        direct = closed_form.k_direct(n)
        recursive = closed_form.k_recursive(n)
        if abs(direct - recursive) > 1e-9 * max(1.0, abs(direct)):
            raise DivergentIntegralError(f"k({n}): direct and recursive paths disagree ({direct!r} vs {recursive!r})")
        rows.append({"n": n, "k": direct})
    return rows, EXIT_OK


def cmd_dn(args) -> tuple[list[dict], int]:
    check_count("--n-max", args.n_max, 1)
    return [{"n": n, "d_n": closed_form.d_n(n)} for n in range(1, args.n_max + 1)], EXIT_OK


def cmd_psi(args) -> tuple[list[dict], int]:
    check_count("--n-max", args.n_max, 2)
    rows = [
        {"alpha": a, "n": n, "psi": closed_form.psi_bound(a, n)}
        for a in args.alphas
        for n in range(2, args.n_max + 1)
    ]
    return rows, EXIT_OK


def cmd_measure(args) -> tuple[list[dict], int]:
    cfg = _quad_config(args)
    design = parse_design(args.design)
    dist = parse_distribution(args.dist)
    if args.measure != "renyi":
        _reject(args, f"by {args.measure}", "alpha")
    elif args.alpha is None:
        raise InputError("renyi needs --alpha")
    if args.oracle:
        sim = mc_oracle.SimConfig(**_given(args, "replications", "seed"))
    else:
        _reject(args, "without --oracle", "seed", "replications")
    if args.measure == "shannon":
        res = measures.shannon(design, dist, cfg, force_numeric=args.force_numeric)
        oracle = functools.partial(mc_oracle.mc_entropy, design, dist)
    elif args.measure == "renyi":
        res = measures.renyi(design, dist, args.alpha, cfg, force_numeric=args.force_numeric)
        oracle = functools.partial(mc_oracle.mc_renyi, design, dist, args.alpha)
    else:
        res = measures.kl_srs_vs_design(design, cfg, force_numeric=args.force_numeric)
        oracle = functools.partial(mc_oracle.mc_kl, ranking_error.uniform(design.n), dist, design, dist)
    rec = measures.result_record(args.measure, args.design, args.dist, res, args.alpha)
    if args.oracle:
        est = oracle(sim)
        rec["oracle"] = est.estimate
        rec["oracle_std_error"] = est.std_error
    return [rec], EXIT_OK


def cmd_figure(args) -> tuple[list[dict], int]:
    cfg = _quad_config(args)
    if args.figure_id == "1":
        _reject(args, "by figure 1", "alpha_min", "alpha_max", *_QUAD_FIELDS)
    return figure_curve(args.figure_id, args.points, cfg=cfg, **_given(args, "alpha_min", "alpha_max")), EXIT_OK


def cmd_conjecture_scan(args) -> tuple[list[dict], int]:
    cfg = _quad_config(args)
    axes = _given(args, "families", "ns", "alphas", "matrices")
    grid = ScanGrid(**{axis: tuple(v) for axis, v in axes.items()})
    report = run_conjecture_scan(grid, cfg)
    if report.violations:
        print(
            f"{len(report.violations)} ordering violation(s) beyond numerical slack:",
            file=sys.stderr,
        )
        for v in report.violations:
            print(f"  {v}", file=sys.stderr)
        return report.records, EXIT_VIOLATION
    unconverged = sum(not rec["converged"] for rec in report.records)
    why = f", but {unconverged} did not converge" if unconverged else " (this supports, but does not prove, the alpha > 1 ordering)"
    print(f"conjecture scan: no violations at {len(report.records)} grid points{why}", file=sys.stderr)
    return report.records, EXIT_OK


def cmd_errata(args) -> tuple[list[dict], int]:
    return run_errata_checks(_quad_config(args)), EXIT_OK


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------


# argparse type= converters; a ValueError becomes its "invalid <name> value" error
def float_list(text: str) -> tuple[float, ...]:
    """A comma list of numbers, e.g. ``1.5,2``; an empty entry is an error."""
    return tuple(float(t) for t in text.split(","))


def int_list(text: str) -> tuple[int, ...]:
    """A comma list of integers and inclusive ranges, e.g. ``2,4-8``; a leading
    minus is a sign, not a range; an empty entry or an inverted range is an error."""
    out: list[int] = []
    for t in map(str.strip, text.split(",")):
        lo, _, hi = t.partition("-") if "-" in t[1:] else (t, "", t)
        if int(hi) < int(lo):
            raise ValueError(f"inverted range {t!r}")
        out.extend(range(int(lo), int(hi) + 1))
    return tuple(out)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call; later calls return the same
    object, so callers must not mutate it."""
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--out", help="write output to this path instead of stdout")
    shared.add_argument("--format", choices=("csv", "json"), default="csv")
    quad = argparse.ArgumentParser(add_help=False)  # for the subcommands that integrate
    quad.add_argument("--quad-abs-tol", type=float)
    quad.add_argument("--quad-rel-tol", type=float)
    quad.add_argument("--quad-max-subdiv", type=int)
    parser = _Parser(
        prog="rssinfo",
        description=(
            "Shannon, Renyi and Kullback-Leibler information measures of "
            "ranked set samples vs simple random samples"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    add = functools.partial(sub.add_parser, parents=[shared])
    add_quad = functools.partial(sub.add_parser, parents=[shared, quad])

    p = add("table-k", help="distribution-free Shannon gap k(n)")
    p.add_argument("--n-max", type=int, default=10)

    p = add("dn", help="distribution-free KL constant d_n")
    p.add_argument("--n-max", type=int, default=10)

    p = add("psi", help="alpha > 1 Renyi gap lower bound")
    p.add_argument("--alphas", type=float_list, default="1.5,2,5", help="comma list, e.g. 1.5,2")
    p.add_argument("--n-max", type=int, default=10)

    p = add_quad("measure", help="compute one measure for a design/dist pair")
    p.add_argument("measure", choices=("shannon", "renyi", "kl"))
    p.add_argument("--design", required=True, help="srs:N | rss:N | irss:N:<matrix or CSV path>")
    p.add_argument("--dist", required=True, help="e.g. exp:1, unif, norm:0,1, weibull:2,1")
    p.add_argument("--alpha", type=float, help="renyi only")
    p.add_argument("--force-numeric", action="store_true")
    p.add_argument("--oracle", action="store_true", help="add a Monte Carlo column")
    p.add_argument("--seed", type=int, help="--oracle only")
    p.add_argument("--replications", type=int, help="--oracle only")

    p = add_quad("figure", help="emit curve data for the entropy/Renyi figures")
    p.add_argument("--id", dest="figure_id", required=True, choices=("1", "2a", "2b"))
    p.add_argument("--points", type=int, default=101)
    p.add_argument("--alpha-min", type=float, help="figures 2a and 2b only")
    p.add_argument("--alpha-max", type=float, help="figures 2a and 2b only")

    p = add_quad("conjecture-scan", help="scan the alpha > 1 Renyi ordering")
    p.add_argument("--family", action="append", dest="families", help="repeatable distribution spec")
    p.add_argument("--n-values", type=int_list, dest="ns", help="comma list / ranges, e.g. 2-8")
    p.add_argument("--alphas", type=float_list, help="comma list of alpha > 1 values")
    p.add_argument("--matrix", action="append", dest="matrices", help="repeatable matrix spec")

    add_quad("errata", help="oracle checks of the suspect printed formulas")

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code not in (0, None) else 0
    try:
        # looked up per call, so a rebound cmd_* (a tracer's wrapper) runs
        rows, code = globals()["cmd_" + args.command.replace("-", "_")](args)
        _emit(rows, args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except DivergentIntegralError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    # a value that did not converge cannot be trusted, whichever subcommand wrote it
    return EXIT_NO_CONVERGENCE if code == EXIT_OK and not all(row.get("converged", True) for row in rows) else code


if __name__ == "__main__":
    sys.exit(main())
