import csv
import io
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from rssinfo import cli, measures, ranking_error
from rssinfo import closed_form as cf
from rssinfo.distributions import Normal, Weibull
from rssinfo.errors import DivergentIntegralError
from rssinfo.quadrature import QuadratureConfig


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def rows_of(text):
    return list(csv.DictReader(io.StringIO(text)))


def run_python(*argv):
    """A fresh interpreter on ``argv``, with this checkout's ``src`` first on its path."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True, timeout=60)


def readme_commands():
    """The ``sh`` block under "Command line" in README.md: each line's argv
    after ``rssinfo``, and the exit code its comment documents (0 if none)."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        program, *argv = shlex.split(command)
        assert program == "rssinfo", line
        documented = re.search(r"exits (\d)", comment)
        yield pytest.param(argv, int(documented[1]) if documented else 0, id=" ".join(argv))


@pytest.mark.parametrize("argv, code", list(readme_commands()))
def test_readme_commands_exit_as_documented(capsys, argv, code):
    assert run(capsys, *argv)[0] == code


def test_table_k_values_and_cross_check(capsys):
    code, out, _ = run(capsys, "table-k", "--n-max", "10")
    assert code == cli.EXIT_OK
    rows = rows_of(out)
    assert [int(r["n"]) for r in rows] == list(range(2, 11))
    assert abs(float(rows[0]["k"]) - (-0.386)) < 1e-3
    assert abs(float(rows[-1]["k"]) - (-8.121)) < 1e-3


def test_table_k_cross_check_is_relative(capsys, monkeypatch):
    k_recursive = cf.k_recursive
    # a rounding-level gap passes where |k(n)| is large: 1e-12 of |k(600)| ~ 1700 is above 1e-9
    monkeypatch.setattr(cf, "k_recursive", lambda n: k_recursive(n) * (1.0 + 1e-12))
    assert run(capsys, "table-k", "--n-max", "600")[0] == cli.EXIT_OK
    # a real disagreement still fails, also where |k(n)| < 1
    monkeypatch.setattr(cf, "k_recursive", lambda n: k_recursive(n) + 1e-6)
    code, _, err = run(capsys, "table-k", "--n-max", "3")
    assert code == cli.EXIT_NO_CONVERGENCE
    assert "disagree" in err


def test_table_k_single_row(capsys):
    code, out, _ = run(capsys, "table-k", "--n-max", "2")
    assert code == cli.EXIT_OK
    assert len(rows_of(out)) == 1


def test_csv_output_is_byte_stable(capsys):
    _, first, _ = run(capsys, "dn", "--n-max", "8")
    _, second, _ = run(capsys, "dn", "--n-max", "8")
    assert first == second


def test_dn_and_psi_values(capsys):
    code, out, _ = run(capsys, "dn", "--n-max", "3")
    assert code == cli.EXIT_OK
    rows = rows_of(out)
    assert abs(float(rows[0]["d_n"])) < 1e-12  # d_1 = 0
    assert abs(float(rows[2]["d_n"]) - cf.d_n(3)) < 1e-9

    code, out, _ = run(capsys, "psi", "--alphas", "2", "--n-max", "3")
    assert code == cli.EXIT_OK
    rows = rows_of(out)
    assert abs(float(rows[0]["psi"]) - (-4.0 * math.log(2.0))) < 1e-9


def test_psi_rejects_alpha_at_most_one(capsys):
    code, _, err = run(capsys, "psi", "--alphas", "0.5,2")
    assert code == cli.EXIT_PARSE
    assert "alpha" in err


def test_measure_shannon_rss_example(capsys):
    code, out, _ = run(capsys, "measure", "shannon", "--design", "rss:2", "--dist", "exp:1")
    assert code == cli.EXIT_OK
    row = rows_of(out)[0]
    assert abs(float(row["value"]) - 1.6137) < 1e-3
    assert row["method"] == "closed-form"


def test_measure_kl_distribution_free(capsys):
    code, out, _ = run(capsys, "measure", "kl", "--design", "rss:3", "--dist", "norm:0,1")
    assert code == cli.EXIT_OK
    assert abs(float(rows_of(out)[0]["value"]) - 2.0110) < 5e-4


def test_measure_kl_of_srs_is_zero(capsys):
    # srs:3 is the uniform matrix: K(SRS || srs:3) is closed at 0, as for irss:3:uniform
    code, out, _ = run(capsys, "measure", "kl", "--design", "srs:3", "--dist", "exp:1")
    assert code == cli.EXIT_OK
    row = rows_of(out)[0]
    assert (float(row["value"]), row["method"]) == (0.0, "closed-form")


def test_measure_renyi_srs(capsys):
    code, out, _ = run(
        capsys, "measure", "renyi", "--alpha", "2", "--design", "srs:2", "--dist", "exp:1"
    )
    assert code == cli.EXIT_OK
    assert abs(float(rows_of(out)[0]["value"]) - 1.3863) < 1e-3


def test_measure_irss_matrix_grammar(capsys):
    code, out, _ = run(
        capsys, "measure", "kl", "--design", "irss:3:uniform", "--dist", "exp:1"
    )
    assert code == cli.EXIT_OK
    assert abs(float(rows_of(out)[0]["value"])) < 1e-9


def test_measure_error_matrix_file(capsys, tmp_path):
    # a CSV path is the design spec's matrix segment: the record names the spec as typed
    path = tmp_path / "P.csv"
    path.write_text("0.8,0.2\n0.2,0.8\n")
    code, out, _ = run(capsys, "measure", "shannon", "--design", f"irss:2:{path}", "--dist", "exp:1")
    assert code == cli.EXIT_OK
    (row,) = rows_of(out)
    assert row["design"] == f"irss:2:{path}"
    builtin = rows_of(run(capsys, "measure", "shannon", "--design", "irss:2:p12=0.2", "--dist", "exp:1")[1])
    assert row["value"] == builtin[0]["value"]


def test_measure_record_names_its_matrix(capsys):
    designs = set()
    for spec in ("irss:3:blend=0.5", "irss:3:blend=0.75"):
        code, out, _ = run(capsys, "measure", "shannon", "--design", spec, "--dist", "exp:1")
        assert code == cli.EXIT_OK
        designs.add(rows_of(out)[0]["design"])
    assert designs == {"irss:3:blend=0.5", "irss:3:blend=0.75"}


def test_measure_record_names_its_law_as_given(capsys):
    # six significant digits would name another law: norm:0.123457,2.5, and exp:0.333333
    for spec in ("norm:0.123456789,2.5", "exp:0.3333333333", "exp:1", "norm:0,1", "weibull:2,1", "unif"):
        code, out, _ = run(capsys, "measure", "kl", "--design", "rss:3", "--dist", spec, "--format", "json")
        assert code == cli.EXIT_OK
        assert json.loads(out)[0]["dist"] == spec


def test_measure_record_says_it_did_not_converge(capsys):
    code, out, _ = run(
        capsys, "measure", "shannon", "--design", "rss:3", "--dist", "exp:1",
        "--quad-max-subdiv", "1", "--force-numeric", "--format", "json",
    )
    assert code == cli.EXIT_NO_CONVERGENCE
    (rec,) = json.loads(out)
    assert rec["converged"] is False and rec["design"] == "rss:3"


def test_json_writes_a_non_finite_value_as_null(capsys):
    # RFC 8259 has no Infinity or NaN; CSV keeps inf
    argv = ("measure", "renyi", "--design", "irss:2:p12=0.3", "--dist", "exp:1", "--alpha", "1e-300")
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == cli.EXIT_NO_CONVERGENCE

    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    (rec,) = json.loads(out, parse_constant=refuse)
    assert rec["error"] is None and rec["converged"] is False and math.isfinite(rec["value"])
    code, out, _ = run(capsys, *argv)
    assert code == cli.EXIT_NO_CONVERGENCE and rows_of(out)[0]["error"] == "inf"


def test_measure_oracle_column_includes_std_error(capsys):
    code, out, _ = run(
        capsys, "measure", "shannon", "--design", "rss:2", "--dist", "exp:1",
        "--oracle", "--replications", "100000", "--seed", "5",
    )
    assert code == cli.EXIT_OK
    row = rows_of(out)[0]
    assert float(row["oracle_std_error"]) > 0.0
    assert abs(float(row["oracle"]) - float(row["value"])) < 4.0 * float(row["oracle_std_error"])


def test_measure_kl_oracle_agrees_with_d2(capsys):
    code, out, _ = run(
        capsys, "measure", "kl", "--design", "rss:2", "--dist", "exp:1",
        "--oracle", "--replications", "20000",
    )
    assert code == cli.EXIT_OK
    row = rows_of(out)[0]
    assert abs(float(row["oracle"]) - cf.d_n(2)) < 4.0 * float(row["oracle_std_error"])


def test_divergent_integral_exits_three_without_traceback(capsys):
    cases = [
        # int f^5 of weibull(0.3) diverges at 0: s = (alpha (k - 1) + 1) / k < 0
        ("measure renyi --design rss:3 --dist weibull:0.3 --alpha 5", "integrand exceeds the float range"),
        # lgamma overflows at these alphas, so the closed forms decline and the integral decides
        ("measure renyi --design rss:2 --dist unif --alpha 1e308", "integrand exceeds the float range"),
        ("measure renyi --design rss:2 --dist exp:1 --alpha 1e308", "integrand exceeds the float range"),
        ("measure renyi --design srs:2 --dist weibull:2 --alpha 1e306", "integral evaluated to a non-positive value"),
        ("conjecture-scan --family unif --n-values 2 --alphas 1e308", "integrand exceeds the float range"),
    ]
    for argv, message in cases:
        code, _, err = run(capsys, *argv.split())
        assert code == cli.EXIT_NO_CONVERGENCE, argv
        assert err.startswith(f"error: renyi {message}"), (argv, err)
        assert "Traceback" not in err


def test_both_renyi_routes_raise_the_one_non_positive_error():
    # the case above, and the binomial gap on the normal at alpha = 1e4, whose int f^alpha
    # underflows to 0: both routes finish through one rule, so both raise its one error
    calls = [
        lambda: measures.renyi(measures.Design("srs", 2), Weibull(2.0), 1e306),
        lambda: measures.renyi_gap_binomial(Normal(), 2, 1e4),
    ]
    for call in calls:
        with pytest.raises(DivergentIntegralError, match="^renyi integral evaluated to a non-positive value$"):
            call()


def test_measure_oracle_runs_below_one_default_batch(capsys):
    code, out, _ = run(
        capsys, "measure", "shannon", "--design", "rss:2", "--dist", "exp:1",
        "--oracle", "--replications", "1000", "--seed", "5",
    )
    assert code == cli.EXIT_OK
    assert float(rows_of(out)[0]["oracle_std_error"]) > 0.0


def test_parse_errors_exit_two(capsys):
    cases = [
        ("measure", "shannon", "--design", "xyz:2", "--dist", "exp:1"),
        ("measure", "shannon", "--design", "rss:two", "--dist", "exp:1"),
        ("measure", "shannon", "--design", "rss:2", "--dist", "gamma:1"),
        ("measure", "renyi", "--design", "rss:2", "--dist", "exp:1"),  # missing alpha
        ("measure", "shannon", "--design", "irss:2", "--dist", "exp:1"),  # missing matrix
        ("measure", "shannon", "--design", "irss:2:blend=7", "--dist", "exp:1"),
        ("measure", "shannon", "--design", "irss:3:p12=0.2", "--dist", "exp:1"),
    ] + [
        ("measure", "shannon", "--design", "rss:2", "--dist", spec)
        for spec in ("norm:nan,1", "norm:inf,1", "norm:0,inf", "weibull:2,inf", "weibull:inf")
    ]
    for argv in cases:
        code, _, err = run(capsys, *argv)
        assert code == cli.EXIT_PARSE, argv
        assert err.startswith("error:"), argv


INPUT_ERRORS = [
    ("measure", "shannon", "--design", "irss:2:{missing}", "--dist", "exp:1"),
    ("measure", "shannon", "--design", "irss:2:{malformed}", "--dist", "exp:1"),
    ("measure", "renyi", "--alpha", "1", "--design", "rss:2", "--dist", "exp:1"),
    ("measure", "renyi", "--alpha", "-1", "--design", "rss:2", "--dist", "exp:1"),
    ("measure", "shannon", "--design", "rss:0", "--dist", "exp:1"),
    ("measure", "shannon", "--design", "rss:2", "--dist", "exp:1", "--quad-abs-tol", "-1"),
    ("conjecture-scan", "--family", "exp:1", "--n-values", "0", "--alphas", "2"),
    ("measure", "shannon", "--design", "rss:2", "--dist", "exp:1", "--oracle", "--replications", "10"),
    ("figure", "--id", "2a", "--rate", "-1"),  # no such flag: argparse rejects it
    ("figure", "--id", "1", "--points", "-3"),
    ("figure", "--id", "2a", "--alpha-min", "0"),
    ("dn", "--out", "{missing_dir}"),
    ("conjecture-scan", "--family", "exp:1", "--n-values", "2", "--alphas", "2", "--matrix", "{identity3}"),
    ("measure", "renyi", "--alpha", "inf", "--design", "rss:2", "--dist", "exp:1"),
    ("psi", "--alphas", "inf"),
    ("measure", "shannon", "--design", "rss:2", "--dist", "exp:1", "--oracle", "--seed", "-1"),
    ("measure", "shannon", "--design", "rss:3:blend=0.5", "--dist", "exp:1"),
    ("measure", "shannon", "--design", "srs:2:identity", "--dist", "exp:1"),
    ("measure", "shannon", "--design", "rss:2", "--dist", "exp:1", "--error-matrix", "{two_by_two}"),  # no such flag
    ("conjecture-scan", "--n-values", "2-x"),
    ("psi", "--alphas", "1,x"),
    ("psi", "--alphas", ","),
    ("conjecture-scan", "--n-values", ""),
    ("measure", "shannon", "--design", "rss", "--dist", "exp:1"),
    ("measure", "shannon", "--design", "rss:2", "--dist", "exp:1", "--alpha", "2"),
    ("measure", "kl", "--design", "rss:2", "--dist", "exp:1", "--alpha", "2"),
    ("measure", "shannon", "--design", "rss:2", "--dist", "exp:1", "--seed", "5"),
    ("measure", "kl", "--design", "rss:2", "--dist", "exp:1", "--replications", "1000"),
    ("figure", "--id", "1", "--alpha-min", "0.5"),
    ("figure", "--id", "1", "--alpha-max", "3"),
    ("figure", "--id", "2a", "--points", "1", "--alpha-min", "1", "--alpha-max", "1"),
    ("measure", "shannon", "--design", "rss:3", "--dist", "exp:1", "--force-numeric",
     "--quad-abs-tol", "inf", "--quad-rel-tol", "inf"),
    ("conjecture-scan", "--family", "unif", "--n-values", "2,5-3", "--alphas", "2"),
    ("dn", "--quad-abs-tol", "1e-3"),  # tolerances only where something integrates
    ("psi", "--config", "{missing}"),  # no such flag
    ("table-k", "--quad-max-subdiv", "5"),
    ("figure", "--id", "1", "--points", "2", "--quad-abs-tol", "1e-3"),  # a closed form reads no tolerance
]


@pytest.mark.parametrize(
    "argv",
    INPUT_ERRORS,
    ids=[
        "matrix-missing", "matrix-malformed", "alpha-one",
        "alpha-negative", "set-size-zero", "negative-tolerance", "scan-set-size-zero",
        "oracle-few-replications", "figure-negative-rate", "figure-negative-points",
        "figure-alpha-min-zero", "out-missing-dir", "scan-matrix-wrong-size", "alpha-inf",
        "psi-alpha-inf", "oracle-negative-seed", "rss-matrix-segment", "srs-matrix-segment",
        "rss-error-matrix", "scan-bad-range", "psi-bad-alpha-list",
        "psi-empty-alphas", "scan-empty-n-values", "design-missing-set-size",
        "shannon-alpha", "kl-alpha", "seed-without-oracle", "replications-without-oracle",
        "figure-1-alpha-min", "figure-1-alpha-max", "figure-alpha-grid-only-one", "infinite-tolerance",
        "scan-inverted-n-range", "dn-tolerance", "psi-config", "table-k-max-subdiv",
        "figure-1-tolerance",
    ],
)
def test_input_errors_exit_two_without_traceback(capsys, tmp_path, argv):
    code, _, err = run(capsys, *with_paths(argv, tmp_path))
    assert code == cli.EXIT_PARSE
    assert err.startswith("error:")


def test_a_flag_that_would_be_ignored_is_named_as_typed(capsys, tmp_path):
    # every flag an ignored-flag message names is an option string of the subcommand given
    named = set()
    for argv in INPUT_ERRORS:
        err = run(capsys, *with_paths(argv, tmp_path))[2]
        if "would be ignored" in err:
            flags = set(re.findall(r"--[a-z][a-z-]*", err.partition("would be ignored")[0]))
            options = set(re.findall(r"--[a-z][a-z-]*", run(capsys, argv[0], "--help")[1]))
            assert flags and flags <= options, (argv, err)
            named |= flags
    assert named == {"--alpha", "--seed", "--replications", "--alpha-min", "--alpha-max", "--quad-abs-tol"}


def with_paths(argv, tmp_path):
    """``argv`` with each ``{name}`` field filled by a file of that kind under ``tmp_path``."""
    malformed = tmp_path / "malformed.csv"
    malformed.write_text("0.8,zero\n0.2,0.8\n")
    identity3 = tmp_path / "identity3.csv"
    identity3.write_text("1,0,0\n0,1,0\n0,0,1\n")
    two_by_two = tmp_path / "two_by_two.csv"
    two_by_two.write_text("0.8,0.2\n0.2,0.8\n")
    paths = {
        "identity3": str(identity3),
        "two_by_two": str(two_by_two),
        "missing": str(tmp_path / "absent.csv"),
        "malformed": str(malformed),
        "missing_dir": str(tmp_path / "absent" / "out.csv"),
    }
    return [a.format(**paths) for a in argv]


def test_shared_parser_leaks_no_state_between_calls(capsys):
    assert cli.build_parser() is cli.build_parser()
    scan = ("--n-values", "2", "--alphas", "2", "--matrix", "blend=0.5", "--format", "json")
    assert run(capsys, "conjecture-scan", "--family", "exp:1", *scan)[0] == cli.EXIT_OK
    code, out, _ = run(capsys, "conjecture-scan", "--family", "unif", *scan)
    assert code == cli.EXIT_OK
    records = json.loads(out)  # append-lists start empty on every call
    assert [(r["dist"], r["matrix"]) for r in records] == [("unif", "blend=0.5")]
    # a call that fails to parse leaves nothing behind for the next one
    assert run(capsys, "measure", "shannon", "--design", "rss:2")[0] == cli.EXIT_PARSE
    code, out, _ = run(capsys, "measure", "shannon", "--design", "rss:2", "--dist", "exp:1")
    assert code == cli.EXIT_OK
    assert float(rows_of(out)[0]["value"]) == pytest.approx(3.0 - 2.0 * math.log(2.0), rel=1e-12)


# each subcommand once, on minimal arguments: the four that integrate, and the
# three that read closed forms alone
MINIMAL_ARGV = {
    "table-k": ("--n-max", "2"),
    "dn": ("--n-max", "1"),
    "psi": ("--alphas", "2", "--n-max", "2"),
    "measure": ("shannon", "--design", "rss:2", "--dist", "exp:1"),
    "figure": ("--id", "1", "--points", "2"),
    "conjecture-scan": ("--family", "unif", "--n-values", "2", "--alphas", "2", "--matrix", "identity"),
    "errata": (),
}
INTEGRATING = ("measure", "figure", "conjecture-scan", "errata")


@pytest.mark.parametrize("command", list(MINIMAL_ARGV))
def test_every_subcommand_takes_the_shared_options(capsys, command):
    code, out, _ = run(capsys, command, "--help")
    assert code == cli.EXIT_OK
    for flag in ("--out", "--format"):
        assert flag in out, flag
    for flag in ("--quad-abs-tol", "--quad-rel-tol", "--quad-max-subdiv"):
        assert (flag in out) == (command in INTEGRATING), flag
    for flag in ("--config", "--error-matrix"):  # one spelling each: the --quad-* flags, the design spec
        assert flag not in out, flag
        assert run(capsys, command, *MINIMAL_ARGV[command], flag, "x")[0] == cli.EXIT_PARSE, flag


def test_a_subcommand_takes_tolerances_only_if_it_reads_them(capsys, monkeypatch):
    # the subcommands that build a QuadratureConfig are exactly those whose
    # --help lists --quad-abs-tol: none takes a tolerance it never reads
    commands = {name[4:].replace("_", "-") for name in vars(cli) if name.startswith("cmd_")}
    assert commands == set(MINIMAL_ARGV)
    read, real = set(), cli._quad_config

    def counted(args):
        read.add(args.command)
        return real(args)

    monkeypatch.setattr(cli, "_quad_config", counted)
    listed = set()
    for command, argv in MINIMAL_ARGV.items():
        assert run(capsys, command, *argv)[0] == cli.EXIT_OK, command
        if "--quad-abs-tol" in run(capsys, command, "--help")[1]:
            listed.add(command)
    assert read == listed == set(INTEGRATING)


def test_options_not_given_parse_to_none_so_the_library_defaults_hold():
    parse = cli.build_parser().parse_args
    args = parse(["measure", "shannon", "--design", "rss:2", "--dist", "exp:1"])
    assert (args.seed, args.replications) == (None, None)
    args = parse(["figure", "--id", "2a"])
    assert (args.alpha_min, args.alpha_max) == (None, None)


def test_unknown_flag_exits_two(capsys):
    assert run(capsys, "table-k", "--bogus")[0] == cli.EXIT_PARSE


def test_non_convergence_exits_three(capsys):
    code, _, _ = run(
        capsys, "measure", "shannon", "--design", "rss:3", "--dist", "norm:0,1",
        "--force-numeric", "--quad-max-subdiv", "1", "--quad-abs-tol", "1e-14",
        "--quad-rel-tol", "1e-14",
    )
    assert code == cli.EXIT_NO_CONVERGENCE


def test_out_file_and_json_format(capsys, tmp_path):
    target = tmp_path / "out.csv"
    code, out, _ = run(capsys, "table-k", "--n-max", "4", "--out", str(target))
    assert code == cli.EXIT_OK and out == ""
    assert len(rows_of(target.read_text())) == 3

    code, out, _ = run(capsys, "table-k", "--n-max", "4", "--format", "json")
    assert code == cli.EXIT_OK
    data = json.loads(out)
    assert len(data) == 3 and abs(data[0]["k"] - cf.k_direct(2)) < 1e-12


def test_figure_one_endpoint_identities(capsys):
    code, out, _ = run(capsys, "figure", "--id", "1", "--points", "5")
    assert code == cli.EXIT_OK
    rows = rows_of(out)
    first, mid = rows[0], rows[2]
    assert float(first["p12"]) == 0.0
    assert abs(float(first["rss_minus_irss"])) < 1e-12  # perfect ranking limit
    assert float(mid["p12"]) == 0.5
    assert abs(float(mid["irss_minus_srs"])) < 1e-12  # random-ranking limit
    assert abs(abs(float(mid["rss_minus_irss"])) - (2.0 * math.log(2.0) - 1.0)) < 1e-9


def test_figure_two_a_perfect_column_matches_gap(capsys):
    code, out, _ = run(
        capsys, "figure", "--id", "2a", "--points", "4", "--alpha-min", "1.5",
        "--alpha-max", "3",
    )
    assert code == cli.EXIT_OK
    for row in rows_of(out):
        alpha = float(row["alpha"])
        gap = cf.exp_renyi(ranking_error.identity(2), 1.0, alpha) - cf.exp_renyi(ranking_error.uniform(2), 1.0, alpha)
        assert abs(float(row["p11_1"]) - gap) < 1e-6


def test_figure_two_a_drops_the_alpha_one_row(capsys):
    code, out, _ = run(capsys, "figure", "--id", "2a", "--points", "25")  # alpha steps by 0.2 from 0.2
    assert code == cli.EXIT_OK
    alphas = [float(row["alpha"]) for row in rows_of(out)]
    assert len(alphas) == 24
    assert all(abs(alpha - 1.0) > 1e-9 for alpha in alphas)


def test_figure_bad_id(capsys):
    assert run(capsys, "figure", "--id", "3")[0] == cli.EXIT_PARSE


def test_conjecture_scan_clean_grid_exits_zero(capsys):
    code, out, err = run(
        capsys, "conjecture-scan", "--family", "exp:1", "--n-values", "2",
        "--alphas", "1.5,2", "--matrix", "identity", "--matrix", "uniform",
    )
    assert code == cli.EXIT_OK
    assert len(rows_of(out)) == 4
    assert all(r["converged"] == "True" for r in rows_of(out))
    assert "supports" in err and "prove" in err


def test_conjecture_scan_records_flag_a_leg_that_did_not_converge(capsys):
    _, out, _ = run(
        capsys, "conjecture-scan", "--family", "norm:0,1", "--n-values", "3",
        "--alphas", "2", "--matrix", "blend=0.5", "--quad-max-subdiv", "1",
    )
    assert rows_of(out)[0]["converged"] == "False"


def test_conjecture_scan_reports_found_violation(capsys):
    # exponential parent, alpha = 5, moderate misranking: the upper ordering
    # genuinely fails, and the scan must say so with exit code 4
    code, out, err = run(
        capsys, "conjecture-scan", "--family", "exp:1", "--n-values", "2",
        "--alphas", "5", "--matrix", "blend=0.5",
    )
    assert code == cli.EXIT_VIOLATION
    assert "margin_irss_srs" in err
    row = rows_of(out)[0]
    assert float(row["margin_irss_srs"]) < -1e-3
    assert float(row["margin_rss_irss"]) > 0.0  # the lower ordering still holds


def test_conjecture_scan_rejects_alpha_at_most_one(capsys):
    code, _, _ = run(
        capsys, "conjecture-scan", "--family", "exp:1", "--n-values", "2",
        "--alphas", "0.5", "--matrix", "identity",
    )
    assert code == cli.EXIT_PARSE


def test_conjecture_scan_n1_margins_are_zero(capsys):
    code, out, _ = run(
        capsys, "conjecture-scan", "--family", "exp:1", "--n-values", "1",
        "--alphas", "2", "--matrix", "identity",
    )
    assert code == cli.EXIT_OK
    row = rows_of(out)[0]
    assert abs(float(row["margin_rss_irss"])) < 1e-9
    assert abs(float(row["margin_irss_srs"])) < 1e-9


def test_conjecture_scan_integrates_each_distinct_matrix_once(capsys, monkeypatch):
    calls = []
    integrate_unit = measures.integrate_unit

    def counted(*args, **kwargs):
        calls.append(args)
        return integrate_unit(*args, **kwargs)

    monkeypatch.setattr(measures, "integrate_unit", counted)
    grid = cli.ScanGrid(families=("exp:1",), ns=(3,), alphas=(5.0,))  # the default matrices
    report = cli.run_conjecture_scan(grid, QuadratureConfig())
    assert len(calls) == 1  # one integral over the rows of all five matrices of the cell
    for rec in report.records:
        if rec["matrix"] == "identity":
            assert rec["renyi_irss"] == rec["renyi_rss"]
        if rec["matrix"] == "uniform":
            assert rec["renyi_irss"] == rec["renyi_srs"]
    with pytest.raises(ValueError):  # the scan is serial
        cli.run_conjecture_scan(grid, QuadratureConfig(), jobs=2)

    argv = (
        "conjecture-scan", "--family", "exp:1", "--family", "unif", "--n-values",
        "2,3", "--alphas", "1.5", "--matrix", "identity", "--matrix", "blend=0.75",
    )
    assert run(capsys, *argv)[1] == run(capsys, *argv)[1]
    assert run(capsys, *argv, "--jobs", "2")[0] == cli.EXIT_PARSE


def test_errata_flag_pattern(capsys):
    code, out, _ = run(capsys, "errata")
    assert code == cli.EXIT_OK
    rows = {r["check"]: r for r in rows_of(out)}
    expected = {
        "eta_sign",
        "renyi_gap_display",
        "kl_minus_n_prefactor",
        "a_n_missing_log",
        "psi_alpha_2_display",
    }
    assert set(rows) == expected
    for name, row in rows.items():
        assert row["printed_ok"] == "False", name
        assert row["corrected_ok"] == "True", name


# One-shot call in a fresh interpreter: the measure's records, and which scipy modules it loaded.
ONE_SHOT = (
    "import contextlib, io, json, sys\n"
    "from rssinfo import cli\n"
    "out = io.StringIO()\n"
    "with contextlib.redirect_stdout(out):\n"
    "    code = cli.main(['measure', *sys.argv[1:], '--format', 'json'])\n"
    "scipy = [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
    "print(json.dumps({'code': code, 'records': json.loads(out.getvalue()), 'scipy': scipy}))\n"
)


@pytest.mark.parametrize(
    "dist, value, needs_scipy, call",
    [
        # Shannon is n H(f) - D(P): rss:2's D is a closed form for every family
        ("exp:1", 1.6137056388801094, False, "shannon --design rss:2"),
        ("norm:0,1", 2.4515827052894545, False, "shannon --design rss:2"),
        # and no Shannon integrand reads the parent; 3 H(norm) - D(blend(3, 0.5)) from 30-digit mpmath
        ("norm:0,1", 4.0376305339001004544, False, "shannon --design irss:3:blend=0.5 --force-numeric"),
        # a normal Renyi integrand reads the quantile, ndtri; -2 log(4 int phi^2 Phi^2) from mpmath
        ("norm:0,1", 2.1393202087175163927, True, "renyi --design rss:2 --alpha 2"),
    ],
)
def test_one_shot_measure_imports_scipy_only_for_the_normal_family(dist, value, needs_scipy, call):
    proc = run_python("-c", ONE_SHOT, *call.split(), "--dist", dist)
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout)
    assert res["code"] == cli.EXIT_OK
    (rec,) = res["records"]
    assert abs(rec["value"] - value) <= rec["error"]  # a Shannon closed form's error is the rounding of n H(f) - D
    assert bool(res["scipy"]) == needs_scipy, res["scipy"]


def test_import_loads_neither_decimal_nor_scipy():
    # decimal serves only the perfect-RSS Renyi closed form, scipy only the normal family: both on first use
    probe = "import sys, rssinfo, rssinfo.cli; print(sorted(m for m in sys.modules if m.split('.')[0] in ('decimal', 'scipy')))"
    proc = run_python("-c", probe)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_module_entry_point_runs_as_documented():
    proc = run_python("-m", "rssinfo.cli", "table-k", "--n-max", "3")
    assert proc.returncode == cli.EXIT_OK, proc.stderr
    rows = rows_of(proc.stdout)
    assert [row["n"] for row in rows] == ["2", "3"]
    for row in rows:
        assert float(row["k"]) == pytest.approx(cf.k_direct(int(row["n"])), rel=1e-11)
