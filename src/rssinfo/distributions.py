"""Continuous parametric families exposing the primitives every measure
integral consumes: density, log-density, cdf, survival, quantile, and
density-at-quantile.

Each family is a standard shape moved by a location and stretched by a
scale, and only ``Distribution`` applies that affine map; ``standard()``
gives the same shape at location 0 and scale 1, the law every measure
integrates.  All operations accept scalars or numpy arrays and are pure;
instances are immutable after construction.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np
from scipy import special


class DistributionParseError(ValueError):
    """Raised when a textual distribution spec cannot be parsed."""


@dataclass(frozen=True)
class Support:
    """Support interval; lower/upper may be -inf/+inf."""

    lower: float
    upper: float

    @property
    def is_finite(self) -> bool:
        return math.isfinite(self.lower) and math.isfinite(self.upper)

    @property
    def is_half_line(self) -> bool:
        return math.isfinite(self.lower) and not math.isfinite(self.upper)

    @property
    def is_full_line(self) -> bool:
        return not math.isfinite(self.lower) and not math.isfinite(self.upper)


class Distribution:
    """A standard shape moved by ``loc`` and stretched by ``scale``: the law
    of loc + scale * Z, with Z the family's standard law.

    Subclasses set ``name`` and ``support`` and give Z's functions only:
    ``_log_pdf``, ``_cdf``, ``_quantile`` and ``_entropy``, plus
    ``_survival`` and ``_log_pdf_at_quantile`` where a closed form beats
    the default.  This class alone applies the affine map.  ``support`` is
    the same for Z and X, as only a full-line family has a location.
    """

    name: str
    support: Support
    loc = 0.0
    scale = 1.0

    def _z(self, x):
        x = np.asarray(x, dtype=float)
        if self.loc == 0.0 and self.scale == 1.0:  # the law every measure integrates
            return x
        return (x - self.loc) / self.scale

    def _per_x(self, log_f):
        """A log density of Z as one of X: less log(scale)."""
        return log_f if self.scale == 1.0 else log_f - math.log(self.scale)

    def log_pdf(self, x):
        return self._per_x(self._log_pdf(self._z(x)))

    def pdf(self, x):
        return np.exp(self.log_pdf(x))

    def cdf(self, x):
        return self._cdf(self._z(x))

    def survival(self, x):
        return self._survival(self._z(x))

    def quantile(self, u):
        _check_unit_open(u)
        return self.loc + self.scale * self._quantile(np.asarray(u, dtype=float))

    def log_pdf_at_quantile(self, u):
        _check_unit_open(u)
        return self._per_x(self._log_pdf_at_quantile(np.asarray(u, dtype=float)))

    def pdf_at_quantile(self, u):
        return np.exp(self.log_pdf_at_quantile(u))

    def entropy(self) -> float:
        return self._entropy() + math.log(self.scale)

    def standard(self) -> "Distribution":
        """The same shape at location 0 and scale 1."""
        std = copy.copy(self)
        std.loc, std.scale = 0.0, 1.0
        return std

    def _survival(self, z):
        return 1.0 - self._cdf(z)

    def _log_pdf_at_quantile(self, u):
        return self._log_pdf(self._quantile(u))

    def __repr__(self):
        return f"{type(self).__name__}({self.spec_string()!r})"

    def spec_string(self) -> str:
        raise NotImplementedError


def _check_unit_open(u) -> None:
    u = np.asarray(u)
    if np.any(u <= 0.0) or np.any(u >= 1.0):
        raise ValueError("quantile argument must lie strictly inside (0, 1)")


class Uniform(Distribution):
    """Uniform(0, 1)."""

    name = "unif"
    support = Support(0.0, 1.0)

    def _log_pdf(self, z):
        return np.where((z >= 0.0) & (z <= 1.0), 0.0, -np.inf)

    def _cdf(self, z):
        return np.clip(z, 0.0, 1.0)

    def _quantile(self, u):
        return u

    def _entropy(self) -> float:
        return 0.0

    def spec_string(self) -> str:
        return "unif"


class Exponential(Distribution):
    """Exponential with rate ``lam`` (density lam * exp(-lam * x), x > 0):
    scale 1/lam."""

    name = "exp"
    support = Support(0.0, math.inf)

    def __init__(self, lam: float):
        if not (lam > 0 and 0.0 < 1.0 / lam < math.inf):
            raise ValueError(f"exponential rate must be positive with a finite scale 1/rate, got {lam}")
        self.scale = 1.0 / float(lam)

    lam = property(lambda self: 1.0 / self.scale)

    def _log_pdf(self, z):
        return np.where(z >= 0.0, -z, -np.inf)

    def _cdf(self, z):
        return np.where(z >= 0.0, -np.expm1(-z), 0.0)

    def _survival(self, z):
        return np.where(z >= 0.0, np.exp(-z), 1.0)

    def _quantile(self, u):
        return -np.log1p(-u)

    def _log_pdf_at_quantile(self, u):
        return np.log1p(-u)

    def _entropy(self) -> float:
        return 1.0

    def spec_string(self) -> str:
        return f"exp:{self.lam:g}"


class Normal(Distribution):
    """Normal with location ``mu`` and scale ``sigma``."""

    name = "norm"
    support = Support(-math.inf, math.inf)

    def __init__(self, mu: float = 0.0, sigma: float = 1.0):
        if not (math.isfinite(mu) and 0 < sigma < math.inf):
            raise ValueError(f"normal location must be finite and scale positive and finite, got {mu}, {sigma}")
        self.loc = float(mu)
        self.scale = float(sigma)

    mu = property(lambda self: self.loc)
    sigma = property(lambda self: self.scale)

    def _log_pdf(self, z):
        return -0.5 * z * z - 0.5 * math.log(2.0 * math.pi)

    def _cdf(self, z):
        return special.ndtr(z)

    def _survival(self, z):
        return special.ndtr(-z)

    def _quantile(self, u):
        return special.ndtri(u)

    def _entropy(self) -> float:
        return 0.5 * math.log(2.0 * math.pi * math.e)

    def spec_string(self) -> str:
        return f"norm:{self.mu:g},{self.sigma:g}"


class Weibull(Distribution):
    """Weibull with shape ``k`` and scale ``theta``."""

    name = "weibull"
    support = Support(0.0, math.inf)

    def __init__(self, k: float, theta: float = 1.0):
        if not (0 < k < math.inf and 0 < theta < math.inf):
            raise ValueError(f"weibull shape and scale must be positive and finite, got {k}, {theta}")
        self.k = float(k)
        self.scale = float(theta)

    theta = property(lambda self: self.scale)

    def _log_pdf(self, z):
        with np.errstate(divide="ignore", invalid="ignore"):
            y = np.where(z > 0.0, z, 1.0)
            val = math.log(self.k) + (self.k - 1.0) * np.log(y) - y**self.k
        return np.where(z > 0.0, val, -np.inf)

    def _cdf(self, z):
        return np.where(z > 0.0, -np.expm1(-(np.maximum(z, 0.0) ** self.k)), 0.0)

    def _survival(self, z):
        return np.where(z > 0.0, np.exp(-(np.maximum(z, 0.0) ** self.k)), 1.0)

    def _quantile(self, u):
        return (-np.log1p(-u)) ** (1.0 / self.k)

    def _log_pdf_at_quantile(self, u):
        y = -np.log1p(-u)
        return math.log(self.k) + (1.0 - 1.0 / self.k) * np.log(y) + np.log1p(-u)

    def _entropy(self) -> float:
        return np.euler_gamma * (1.0 - 1.0 / self.k) - math.log(self.k) + 1.0

    def spec_string(self) -> str:
        return f"weibull:{self.k:g},{self.theta:g}"


def parse_distribution(spec: str) -> Distribution:
    """Parse a textual spec: ``exp:1.0``, ``unif``, ``norm:0,1``, ``weibull:2,1``."""
    spec = spec.strip()
    name, _, rest = spec.partition(":")
    params: list[float] = []
    if rest:
        try:
            params = [float(p) for p in rest.split(",")]
        except ValueError as exc:
            raise DistributionParseError(
                f"bad parameter list {rest!r} in distribution spec {spec!r}"
            ) from exc
    try:
        if name == "unif":
            if params:
                raise DistributionParseError("unif takes no parameters")
            return Uniform()
        if name == "exp":
            if len(params) != 1:
                raise DistributionParseError("exp takes one parameter: rate")
            return Exponential(params[0])
        if name == "norm":
            if len(params) not in (0, 2):
                raise DistributionParseError("norm takes two parameters: mu,sigma")
            return Normal(*params)
        if name == "weibull":
            if len(params) not in (1, 2):
                raise DistributionParseError(
                    "weibull takes parameters: shape[,scale]"
                )
            return Weibull(*params)
    except ValueError as exc:
        raise DistributionParseError(str(exc)) from exc
    raise DistributionParseError(f"unknown distribution family {name!r} in {spec!r}")
