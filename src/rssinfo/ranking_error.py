"""Misranking probability matrices.

Rows index the judged rank i, columns the true rank r; entry p[i, r] is the
probability that the unit judged to have rank i is truly the r-th order
statistic.  Valid matrices are doubly stochastic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_TOL = 1e-12


class MatrixValidationError(ValueError):
    """Raised when a matrix spec, file or raw matrix is not a valid
    ranking-error matrix."""


@dataclass(frozen=True)
class RankingErrorMatrix:
    entries: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.entries, dtype=float)
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def row(self, i: int) -> np.ndarray:
        """Mixture weights for judged rank i (1-based)."""
        if not 1 <= i <= self.n:
            raise ValueError(f"rank {i} out of range 1..{self.n}")
        return self.entries[i - 1]

    def is_identity(self) -> bool:
        return bool(np.array_equal(self.entries, np.eye(self.n)))


def validate(raw, renormalize: bool = False) -> RankingErrorMatrix:
    """Check (or lightly repair) a raw square matrix.

    With ``renormalize=True`` rows and columns are alternately rescaled
    (a few Sinkhorn sweeps) before checking, to absorb CSV rounding noise.
    """
    arr = np.asarray(raw, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise MatrixValidationError(f"matrix must be square, got shape {arr.shape}")
    neg = np.argwhere(arr < 0.0)
    if neg.size:
        i, r = neg[0]
        raise MatrixValidationError(f"negative entry at ({i + 1}, {r + 1})")
    if np.any(arr > 1.0 + _TOL):
        raise MatrixValidationError("entries must lie in [0, 1]")
    if renormalize:
        for _ in range(50):
            arr = arr / arr.sum(axis=1, keepdims=True)
            arr = arr / arr.sum(axis=0, keepdims=True)
    rows = arr.sum(axis=1)
    cols = arr.sum(axis=0)
    bad_row = np.argwhere(np.abs(rows - 1.0) > _TOL)
    if bad_row.size:
        i = int(bad_row[0][0])
        raise MatrixValidationError(f"row {i + 1} sums to {rows[i]!r}, expected 1")
    bad_col = np.argwhere(np.abs(cols - 1.0) > _TOL)
    if bad_col.size:
        r = int(bad_col[0][0])
        raise MatrixValidationError(f"column {r + 1} sums to {cols[r]!r}, expected 1")
    return RankingErrorMatrix(arr)


def identity(n: int) -> RankingErrorMatrix:
    """Perfect ranking."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return RankingErrorMatrix(np.eye(n))


def uniform(n: int) -> RankingErrorMatrix:
    """Completely random ranking: every entry 1/n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return RankingErrorMatrix(np.full((n, n), 1.0 / n))


def two_by_two(p12: float) -> RankingErrorMatrix:
    """2x2 matrix with off-diagonal p12 (double stochasticity forces symmetry)."""
    if not 0.0 <= p12 <= 1.0:
        raise ValueError(f"p12 must lie in [0, 1], got {p12}")
    return RankingErrorMatrix(
        np.array([[1.0 - p12, p12], [p12, 1.0 - p12]])
    )


def blend(n: int, w: float) -> RankingErrorMatrix:
    """Convex combination w * identity + (1 - w) * uniform; doubly stochastic."""
    if not 0.0 <= w <= 1.0:
        raise ValueError(f"blend weight must lie in [0, 1], got {w}")
    if n < 1:
        raise ValueError("n must be >= 1")
    return RankingErrorMatrix(w * np.eye(n) + (1.0 - w) * np.full((n, n), 1.0 / n))


def from_csv(path, renormalize: bool = False) -> RankingErrorMatrix:
    """Load an n x n matrix from a headerless CSV file."""
    try:
        arr = np.loadtxt(path, delimiter=",", ndmin=2)
        return validate(arr, renormalize=renormalize)
    except OSError as exc:
        raise MatrixValidationError(f"cannot read matrix file {path!r}: {exc}") from exc
    except ValueError as exc:
        raise MatrixValidationError(f"bad matrix file {path!r}: {exc}") from exc


def parse_matrix(spec: str, n: int) -> RankingErrorMatrix:
    """An n x n matrix from a spec: ``identity``, ``uniform``, ``blend=W``,
    ``p12=V`` (2 x 2 only) or a CSV path."""
    spec = spec.strip()
    try:
        if spec == "identity":
            return identity(n)
        if spec == "uniform":
            return uniform(n)
        if spec.startswith("blend="):
            return blend(n, float(spec[len("blend=") :]))
        if spec.startswith("p12="):
            if n != 2:
                raise MatrixValidationError("p12=... matrices are 2x2 only")
            return two_by_two(float(spec[len("p12=") :]))
    except ValueError as exc:
        raise MatrixValidationError(f"bad matrix spec {spec!r}: {exc}") from exc
    P = from_csv(spec)
    if P.n != n:
        raise MatrixValidationError(f"error matrix dimension {P.n} does not match n = {n}")
    return P
