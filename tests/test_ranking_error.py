import numpy as np
import pytest

from rssinfo import ranking_error as re


def test_identity_and_uniform():
    np.testing.assert_array_equal(re.identity(3).entries, np.eye(3))
    np.testing.assert_allclose(re.uniform(4).entries, 0.25)


def test_builtin_matrices_are_doubly_stochastic():
    for P in [re.identity(5), re.uniform(5), re.two_by_two(0.3), re.blend(4, 0.6)]:
        np.testing.assert_allclose(P.entries.sum(axis=0), 1.0, atol=1e-12)
        np.testing.assert_allclose(P.entries.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(P.entries >= 0.0)


def test_blend_endpoints():
    np.testing.assert_allclose(re.blend(3, 1.0).entries, np.eye(3))
    np.testing.assert_allclose(re.blend(3, 0.0).entries, re.uniform(3).entries)


def test_row_access_is_one_based():
    P = re.two_by_two(0.2)
    np.testing.assert_allclose(P.row(1), [0.8, 0.2])
    np.testing.assert_allclose(P.row(2), [0.2, 0.8])
    with pytest.raises(ValueError):
        P.row(0)
    with pytest.raises(ValueError):
        P.row(3)


def test_matrices_compare_and_hash_by_their_entries():
    a, b = re.two_by_two(0.2), re.two_by_two(0.2)
    assert a is not b and a == b and hash(a) == hash(b) and not a != b
    assert a != re.two_by_two(0.3) and a != re.identity(2) and re.uniform(2) != re.uniform(3)
    assert re.RankingErrorMatrix(np.eye(3)) == re.identity(3) and a != "p12=0.2"
    # a -0.0 entry is 0.0
    zero = re.RankingErrorMatrix([[-0.0, 1.0], [1.0, -0.0]])
    assert zero == re.two_by_two(1.0) and hash(zero) == hash(re.two_by_two(1.0))
    assert len({a, b, re.two_by_two(0.3), zero, re.two_by_two(1.0)}) == 3


def test_entries_are_read_only():
    P = re.identity(2)
    with pytest.raises(ValueError):
        P.entries[0, 0] = 0.5


@pytest.mark.parametrize("build", [re.validate, re.RankingErrorMatrix], ids=["validate", "RankingErrorMatrix"])
def test_the_callers_array_stays_writable(build):
    a = np.array([[0.75, 0.25], [0.25, 0.75]])
    P = build(a)
    a[0, 0] = 0.6  # the matrix froze its own copy, not the caller's array
    assert P.entries[0, 0] == 0.75
    with pytest.raises(ValueError):
        P.entries[0, 0] = 0.5


def test_validate_rejects_bad_matrices():
    for build in (re.validate, re.RankingErrorMatrix):  # the constructor checks too: there is no unchecked path
        with pytest.raises(re.MatrixValidationError):
            build([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0]])  # not square
        with pytest.raises(re.MatrixValidationError):
            build([[1.2, -0.2], [-0.2, 1.2]])  # negative entry
        with pytest.raises(re.MatrixValidationError):
            build([[0.7, 0.2], [0.3, 0.8]])  # row sums off
        with pytest.raises(re.MatrixValidationError):
            build([[0.7, 0.3], [0.7, 0.3]])  # column sums off
        with pytest.raises(re.MatrixValidationError):
            build([[0.7, 0.7], [0.3, 0.3]])  # rows sum to 1.4 and 0.6; the 2x2 closed forms read only the diagonal
        with pytest.raises(re.MatrixValidationError):
            build([[np.nan, 0.0], [0.0, 1.0]])  # NaN entry
        with pytest.raises(re.MatrixValidationError):
            build(np.zeros((0, 0)))  # empty


def test_from_csv_round_trip(tmp_path):
    path = tmp_path / "mat.csv"
    path.write_text("0.75,0.25\n0.25,0.75\n")
    P = re.from_csv(path)
    np.testing.assert_allclose(P.entries, re.two_by_two(0.25).entries)


def test_parameter_validation():
    with pytest.raises(ValueError):
        re.two_by_two(1.5)
    with pytest.raises(ValueError):
        re.blend(3, -0.1)
    with pytest.raises(ValueError):
        re.identity(0)
