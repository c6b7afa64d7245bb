"""The library's two kinds of failure, the only exception classes it defines, and the
input rules shared by several modules: ``InputError``, a bad argument, spec, file or
matrix (the CLI's exit 2), and ``DivergentIntegralError``, a value that cannot be
trusted (exit 3): a divergent or unrepresentable integral, a divergent Monte Carlo
estimate, or two exact paths that disagree."""

import math
import numbers


class InputError(ValueError):
    """An argument breaks a rule: a size, parameter, tolerance, order or spec out of range."""


class DivergentIntegralError(ValueError):
    """A value cannot be trusted.  For an integrand that is NaN or +/-inf, ``x`` and the row
    ``component`` of a (k, m) one say where when known: the integral diverges (e.g. support
    mismatch) or is not representable in floats."""

    def __init__(self, message: str, x: float | None = None, component: int | None = None):
        super().__init__(message)
        self.x, self.component = x, component


def check_alpha(alpha: float, above: int = 0) -> None:
    """A Renyi order must be finite, above ``above`` (0, or 1 where only alpha > 1
    is meant) and not 1, the Shannon case."""
    if not above < alpha < math.inf:
        raise InputError(f"alpha must be finite and above {above}, got {alpha}")
    if alpha == 1.0:
        raise InputError("alpha = 1 is the Shannon case; use shannon()")


def check_unit(what: str, x: float) -> None:
    """A weight or probability lies in [0, 1]."""
    if not 0.0 <= x <= 1.0:
        raise InputError(f"{what} must lie in [0, 1], got {x}")


def check_count(what: str, value, least: int) -> None:
    """A count (size, budget, seed, window) is an integer >= ``least``, not a bool; an int skips the slow ABC test."""
    if not (type(value) is int or isinstance(value, numbers.Integral) and not isinstance(value, bool)) or value < least:
        raise InputError(f"{what} must be an integer >= {least}, got {value!r}")


def check_rank(n: int, i) -> None:
    """A rank i is an integer in 1..n."""
    check_count("rank", i, 1)
    if i > n:
        raise InputError(f"rank {i} out of range 1..{n}")


def check_dimension(dim: int, n: int) -> None:
    """The error matrix of a set-size-n design is n x n."""
    if dim != n:
        raise InputError(f"error matrix dimension {dim} does not match n = {n}")


def check_shared(matrices) -> None:
    """Ranking-error matrices measured together share the set size n."""
    if len({P.n for P in matrices}) > 1:
        raise InputError("designs must share the set size n")
