"""Misranking probability matrices.

Rows index the judged rank i, columns the true rank r; entry p[i, r] is the
probability that the unit judged to have rank i is truly the r-th order
statistic.  Every matrix is doubly stochastic: construction checks it, so
each builder here hands out a checked matrix.

``blend`` (so ``identity`` and ``uniform``) is memoized on (n, w) for n <= 64, under
MEMO_BYTES; ``two_by_two`` and ``from_csv`` are not.  Entries are read-only and shared.
``identity_row`` is row i of the identity without the matrix, so at any n.

``memo`` is the one rule of every memo, of a matrix's alpha-free work here and in
``order_stats`` and ``measures``, of ``quadrature``'s panel tables and of the alpha-free
integrand values on them: keyed by value, read-only values, the last MEMO_SIZE entries,
each of at most MEMO_BYTES of data, so at most 8 MiB a memo.  The default scan fills 35
blends, 14 row sets, 14 kernels, 6 panel sets and, on them, 49 row sets' log weights and
19 parent laws' log densities.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import InputError, check_count, check_rank, check_unit

_TOL = 1e-12
MEMO_SIZE = 256  # entries a memo keeps; the default scan needs at most 49, its log weights
MEMO_BYTES = 1 << 15  # the most data an entry keeps: a 64 x 64 matrix or 256 panels' nodes; larger ones are built anew


def memo(nbytes=None):
    """Decorate a builder with an LRU memo of MEMO_SIZE entries, keyed by value.
    An ndarray argument is keyed on its dtype, shape and bytes, and the builder
    gets a read-only copy of it, so a later write to the caller's array never
    reaches an entry; every array the builder returns, alone or in a tuple, is
    read-only.  Arguments whose data, ``nbytes(*args)`` or by default the bytes
    of their arrays, exceed MEMO_BYTES are built anew from them and not kept."""

    def wrap(build):
        @functools.lru_cache(maxsize=MEMO_SIZE)
        def memoized(*key):
            return _read_only(build(*map(_from_key, key)))

        ndarray = np.ndarray  # a local name: lookups sit on their callers' hot paths

        @functools.wraps(build)
        def call(*args):
            key, size = [], 0
            for a in args:
                if type(a) is ndarray:
                    size += a.nbytes
                    a = (a.dtype, a.shape, a.tobytes())
                key.append(a)
            if (nbytes(*args) if nbytes else size) > MEMO_BYTES:
                return _read_only(build(*args))
            return memoized(*key)

        call.cache_info, call.cache_clear = memoized.cache_info, memoized.cache_clear
        return call

    return wrap


def _from_key(k):
    """An argument from its key: an ndarray's (dtype, shape, bytes) gives a read-only copy."""
    return np.frombuffer(k[2], k[0]).reshape(k[1]) if type(k) is tuple and k and isinstance(k[0], np.dtype) else k


def _read_only(value):
    for a in value if type(value) is tuple else (value,):
        if isinstance(a, np.ndarray):
            a.flags.writeable = False
    return value


class MatrixValidationError(InputError):
    """Raised when a matrix spec, file or raw matrix is not a valid
    ranking-error matrix."""


@dataclass(frozen=True)
class RankingErrorMatrix:
    """A non-empty square matrix with entries in [0, 1], every row and column
    summing to 1; construction checks the copy it freezes and names it, as
    ``parse_matrix`` spells the two every measure has closed forms for:
    "uniform" (1 x 1 included), "identity" or "".  It compares and hashes by
    its entries' shape and values."""

    entries: np.ndarray
    name: str = field(init=False, repr=False)

    def __post_init__(self):
        arr = np.array(self.entries, dtype=float)  # a copy: freezing must not reach the caller's array
        if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or not arr.size:
            raise MatrixValidationError(f"matrix must be square and non-empty, got shape {arr.shape}")
        outside = np.argwhere(~((arr >= 0.0) & (arr <= 1.0 + _TOL)))  # NaN included
        if outside.size:
            i, r = outside[0]
            raise MatrixValidationError(f"entry ({i + 1}, {r + 1}) is {float(arr[i, r])}, outside [0, 1]")
        for what, sums in (("row", arr.sum(axis=1)), ("column", arr.sum(axis=0))):
            bad = np.flatnonzero(np.abs(sums - 1.0) > _TOL)
            if bad.size:
                raise MatrixValidationError(f"{what} {bad[0] + 1} sums to {float(sums[bad[0]])}, expected 1")
        arr.setflags(write=False)
        object.__setattr__(self, "entries", arr)
        name = "uniform" if (arr == arr[0, 0]).all() else "identity" if (arr == np.eye(len(arr))).all() else ""
        object.__setattr__(self, "name", name)

    def __eq__(self, other):
        return isinstance(other, RankingErrorMatrix) and np.array_equal(self.entries, other.entries)

    def __hash__(self):
        return hash((self.entries.shape, (self.entries + 0.0).tobytes()))  # + 0.0 makes -0.0 into 0.0

    @property
    def n(self) -> int:
        return self.entries.shape[0]

    def row(self, i: int) -> np.ndarray:
        """Mixture weights for judged rank i (1-based)."""
        check_rank(self.n, i)
        return self.entries[i - 1]


validate = RankingErrorMatrix  # the constructor is the check, under the name that says so


def identity(n: int) -> RankingErrorMatrix:
    """Perfect ranking: the blend of weight 1, exactly the identity."""
    return blend(n, 1.0)


def identity_row(n: int, i: int) -> np.ndarray:
    """Row i of ``identity(n)``, one-hot, with its checks and bytes but no n x n matrix."""
    check_count("n", n, 1)
    check_rank(n, i)
    row = np.zeros(n)
    row[i - 1] = 1.0
    return row


def uniform(n: int) -> RankingErrorMatrix:
    """Completely random ranking, the blend of weight 0: every entry 1/n."""
    return blend(n, 0.0)


def two_by_two(p12: float) -> RankingErrorMatrix:
    """2x2 matrix with off-diagonal p12 (double stochasticity forces symmetry)."""
    check_unit("p12", p12)
    return RankingErrorMatrix(
        np.array([[1.0 - p12, p12], [p12, 1.0 - p12]])
    )


def blend(n: int, w: float) -> RankingErrorMatrix:
    """Convex combination w * identity + (1 - w) * uniform; doubly stochastic."""
    check_unit("blend weight", w)
    check_count("n", n, 1)
    return _blend(n, w)


@memo(lambda n, w: 8 * n * n)
def _blend(n: int, w: float) -> RankingErrorMatrix:
    return RankingErrorMatrix(w * np.eye(n) + (1.0 - w) * np.full((n, n), 1.0 / n))


def from_csv(path) -> RankingErrorMatrix:
    """Load an n x n matrix from a headerless CSV file."""
    try:
        arr = np.loadtxt(path, delimiter=",", ndmin=2)
        return validate(arr)
    except OSError as exc:
        raise MatrixValidationError(f"cannot read matrix file {path!r}: {exc}") from exc
    except ValueError as exc:
        raise MatrixValidationError(f"bad matrix file {path!r}: {exc}") from exc


def parse_matrix(spec: str, n: int) -> RankingErrorMatrix:
    """An n x n matrix from a spec: ``identity``, ``uniform``, ``blend=W``,
    ``p12=V`` (2 x 2), or a CSV path; ``Design`` checks its size."""
    spec = spec.strip()
    try:
        if spec == "identity":
            return identity(n)
        if spec == "uniform":
            return uniform(n)
        if spec.startswith("blend="):
            return blend(n, float(spec[len("blend=") :]))
        if spec.startswith("p12="):
            return two_by_two(float(spec[len("p12=") :]))
    except ValueError as exc:
        raise MatrixValidationError(f"bad matrix spec {spec!r}: {exc}") from exc
    return from_csv(spec)
