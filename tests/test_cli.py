import csv
import io
import json
import math

import pytest

from rssinfo import cli, measures
from rssinfo import closed_form as cf
from rssinfo.quadrature import QuadratureConfig


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def rows_of(text):
    return list(csv.DictReader(io.StringIO(text)))


def test_table_k_values_and_cross_check(capsys):
    code, out, _ = run(capsys, "table-k", "--n-max", "10")
    assert code == cli.EXIT_OK
    rows = rows_of(out)
    assert [int(r["n"]) for r in rows] == list(range(2, 11))
    assert abs(float(rows[0]["k"]) - (-0.386)) < 1e-3
    assert abs(float(rows[-1]["k"]) - (-8.121)) < 1e-3


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
    path = tmp_path / "P.csv"
    path.write_text("0.8,0.2\n0.2,0.8\n")
    code, out, _ = run(
        capsys, "measure", "shannon", "--design", "irss:2", "--dist", "exp:1",
        "--error-matrix", str(path),
    )
    assert code == cli.EXIT_OK
    assert rows_of(out)[0]["design"] == "irss:2"


def test_measure_oracle_column_includes_std_error(capsys):
    code, out, _ = run(
        capsys, "measure", "shannon", "--design", "rss:2", "--dist", "exp:1",
        "--oracle", "--replications", "100000", "--seed", "5",
    )
    assert code == cli.EXIT_OK
    row = rows_of(out)[0]
    assert float(row["oracle_std_error"]) > 0.0
    assert abs(float(row["oracle"]) - float(row["value"])) < 4.0 * float(row["oracle_std_error"])


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


@pytest.mark.parametrize(
    "argv",
    [
        ("measure", "kl", "--design", "rss:2", "--dist", "exp:1", "--config", "{missing}"),
        ("measure", "shannon", "--design", "irss:2", "--dist", "exp:1", "--error-matrix", "{missing}"),
        ("measure", "shannon", "--design", "irss:2", "--dist", "exp:1", "--error-matrix", "{malformed}"),
        ("measure", "kl", "--design", "srs:2", "--dist", "exp:1"),
        ("measure", "renyi", "--alpha", "1", "--design", "rss:2", "--dist", "exp:1"),
        ("measure", "renyi", "--alpha", "-1", "--design", "rss:2", "--dist", "exp:1"),
        ("measure", "shannon", "--design", "rss:0", "--dist", "exp:1"),
        ("measure", "shannon", "--design", "rss:2", "--dist", "exp:1", "--quad-abs-tol", "-1"),
        ("conjecture-scan", "--family", "exp:1", "--n-values", "0", "--alphas", "2"),
        ("measure", "shannon", "--design", "rss:2", "--dist", "exp:1", "--oracle", "--replications", "10"),
        ("figure", "--id", "2a", "--rate", "-1"),
        ("figure", "--id", "1", "--points", "-3"),
        ("figure", "--id", "2a", "--alpha-min", "0"),
        ("dn", "--out", "{missing_dir}"),
        ("conjecture-scan", "--family", "exp:1", "--n-values", "2", "--alphas", "2", "--matrix", "{identity3}"),
    ],
    ids=[
        "config-missing", "matrix-missing", "matrix-malformed", "kl-srs", "alpha-one",
        "alpha-negative", "set-size-zero", "negative-tolerance", "scan-set-size-zero",
        "oracle-few-replications", "figure-negative-rate", "figure-negative-points",
        "figure-alpha-min-zero", "out-missing-dir", "scan-matrix-wrong-size",
    ],
)
def test_input_errors_exit_two_without_traceback(capsys, tmp_path, argv):
    malformed = tmp_path / "malformed.csv"
    malformed.write_text("0.8,zero\n0.2,0.8\n")
    identity3 = tmp_path / "identity3.csv"
    identity3.write_text("1,0,0\n0,1,0\n0,0,1\n")
    paths = {
        "identity3": str(identity3),
        "missing": str(tmp_path / "absent.csv"),
        "malformed": str(malformed),
        "missing_dir": str(tmp_path / "absent" / "out.csv"),
    }
    code, _, err = run(capsys, *(a.format(**paths) for a in argv))
    assert code == cli.EXIT_PARSE
    assert err.startswith("error:")


def test_unknown_flag_exits_two(capsys):
    assert run(capsys, "table-k", "--bogus")[0] == cli.EXIT_PARSE


def test_non_convergence_exits_three(capsys):
    code, _, _ = run(
        capsys, "measure", "shannon", "--design", "rss:3", "--dist", "norm:0,1",
        "--force-numeric", "--quad-max-subdiv", "1", "--quad-abs-tol", "1e-14",
        "--quad-rel-tol", "1e-14",
    )
    assert code == cli.EXIT_NO_CONVERGENCE


def test_config_file_and_flag_override(capsys, tmp_path):
    path = tmp_path / "quad.cfg"
    path.write_text("# scan manifest\nquad.abs_tol = 1e-9\nquad.rel_tol = 1e-7\nquad.max_subdiv = 500\n")
    code, out, _ = run(
        capsys, "measure", "kl", "--design", "rss:2", "--dist", "exp:1",
        "--force-numeric", "--config", str(path),
    )
    assert code == cli.EXIT_OK
    assert abs(float(rows_of(out)[0]["value"]) - cf.d_n(2)) < 1e-6

    bad = tmp_path / "bad.cfg"
    bad.write_text("quad.unknown = 3\n")
    measure_argv = ("measure", "kl", "--design", "rss:2", "--dist", "exp:1")
    assert run(capsys, *measure_argv, "--config", str(bad))[0] == cli.EXIT_PARSE
    malformed = tmp_path / "malformed.cfg"
    malformed.write_text("quad.abs_tol\n")
    assert run(capsys, *measure_argv, "--config", str(malformed))[0] == cli.EXIT_PARSE


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
        gap = cf.exp_renyi("rss", 1.0, alpha) - cf.exp_renyi("srs", 1.0, alpha)
        assert abs(float(row["p11_1"]) - gap) < 1e-6


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
    renyi = measures.renyi

    def counted(*args, **kwargs):
        calls.append(args)
        return renyi(*args, **kwargs)

    monkeypatch.setattr(measures, "renyi", counted)
    grid = cli.ScanGrid(families=("exp:1",), ns=(3,), alphas=(5.0,))  # the default matrices
    report = cli.run_conjecture_scan(grid, QuadratureConfig())
    assert len(calls) == 5  # SRS and RSS are the uniform and identity legs
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
