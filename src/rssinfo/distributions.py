"""Continuous parametric families exposing the primitives every measure
integral consumes: density, log-density, cdf, survival, quantile, and
density-at-quantile.

Each family is a standard shape moved by a location and stretched by a
scale, and only ``Distribution`` applies that affine map; ``moved(loc, scale)``
gives the same shape at another location and scale, and ``standard()`` the one
at location 0 and scale 1, the law every measure integrates.  All operations
accept scalars or numpy arrays and are pure; instances are immutable after
construction.  ``log_pdf``, ``pdf``, ``cdf`` and
``survival`` give NaN at a NaN x, and their limit, without a warning, at +-inf
and where z = x / scale, a normal's z * z or a Weibull's z**k overflows.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass

import numpy as np

from .errors import InputError, check_alpha


class DistributionParseError(InputError):
    """Raised when a textual distribution spec cannot be parsed."""


@dataclass(frozen=True)
class Support:
    """Support interval; lower/upper may be -inf/+inf."""

    lower: float
    upper: float


class Distribution:
    """A standard shape moved by ``loc`` and stretched by ``scale``: the law
    of loc + scale * Z, with Z the family's standard law.

    Subclasses set ``support`` and give Z's functions only:
    ``_log_pdf``, ``_cdf``, ``_quantile``, ``_entropy`` and
    ``_renyi_entropy``, plus ``_survival`` and ``_log_pdf_at_quantile`` where
    a closed form beats the default.  This class alone applies the affine
    map, and the standard law, the one every measure integrates, skips it in
    ``_z``, ``_per_x`` and ``quantile``.  ``support`` is the same for Z and X,
    as only a full-line family has a location.

    ``quantile`` and ``log_pdf_at_quantile`` take the cdf level F and maybe
    the survival S = 1 - F; given S, a family reads the smaller tail, so F
    may round to 1, and without S it reads F alone.
    """

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
        with np.errstate(over="ignore"):
            return self._per_x(self._log_pdf(self._z(x)))

    def pdf(self, x):
        return np.exp(self.log_pdf(x))

    def cdf(self, x):
        with np.errstate(over="ignore"):
            return self._cdf(self._z(x))

    def survival(self, x):
        with np.errstate(over="ignore"):
            return self._survival(self._z(x))

    def quantile(self, F, S=None):
        q = self._quantile(*_levels(F, S))
        if self.loc == 0.0 and self.scale == 1.0:  # the law every measure integrates
            return q[()]  # a 0-d result as a scalar, as the map gives it
        return self.loc + self.scale * q

    def log_pdf_at_quantile(self, F, S=None):
        return self._per_x(self._log_pdf_at_quantile(*_levels(F, S)))

    def entropy(self) -> float:
        return self._entropy() + math.log(self.scale)

    def renyi_entropy(self, alpha: float) -> float | None:
        """Renyi entropy of an order ``check_alpha`` takes, or None where int f^alpha diverges or overflows a float."""
        check_alpha(alpha)
        try:
            h = self._renyi_entropy(alpha)
        except OverflowError:
            return None
        return None if h is None else h + math.log(self.scale)

    def standard(self) -> "Distribution":
        """The same shape at location 0 and scale 1, equal to the standard member."""
        return self.moved(0.0, 1.0)

    def moved(self, loc: float, scale: float) -> "Distribution | None":
        """The same shape at ``loc`` and ``scale``: the law itself if already there
        (instances are immutable), else a copy with the same other fields; None where
        that needs a location or scale the family lacks (``unif`` has neither)."""
        if self.loc == loc and self.scale == scale:
            return self
        law = copy.copy(self)
        for field, value in (("loc", loc), ("scale", scale)):
            if field in vars(law):
                setattr(law, field, value)
            elif value != getattr(law, field):
                return None
        return law

    def __eq__(self, other):
        """One law: the same family and fields (a location of -0.0 is 0.0)."""
        return type(self) is type(other) and vars(self) == vars(other)

    def __hash__(self):
        return hash((type(self), frozenset(vars(self).items())))

    def _survival(self, z):
        return 1.0 - self._cdf(z)

    def _log_pdf_at_quantile(self, F, S):
        return self._log_pdf(self._quantile(F, S))

    def __repr__(self):
        return f"{type(self).__name__}({self.spec_string()!r})"

    def spec_string(self) -> str:
        """The spec ``parse_distribution`` reads as this law: the family's prefix, then its
        parameters, each as ``:g`` prints it where that reads back as the same float, else
        in full (an exponential's rate reads back as the same scale, 1 / rate)."""
        prefix, fields = _SPECS[type(self)]
        values = (getattr(self, f) for f in fields)
        params = ",".join(f"{v:g}" if float(f"{v:g}") == v else repr(v) for v in values)
        return f"{prefix}:{params}" if params else prefix


def _levels(F, S):
    """F and S as arrays, once checked to name a point inside (0, 1): 0 < F < 1,
    or, with S given, F > 0 and S > 0."""
    F = np.asarray(F, dtype=float)
    S = None if S is None else np.asarray(S, dtype=float)
    # a NaN fails every comparison, so it is rejected too
    if F.size and not (F.min() > 0.0 and (F.max() < 1.0 if S is None else S.min() > 0.0)):
        raise InputError("quantile argument must lie strictly inside (0, 1)")
    return F, S


def _log_survival(F, S):
    """log S from whichever of F and S is the smaller tail; log1p(-F) without S."""
    if S is None:
        return np.log1p(-F)
    with np.errstate(divide="ignore"):  # log1p(-1) where F rounds to 1 is not the branch taken
        return np.where(F < S, np.log1p(-F), np.log(S))


class Uniform(Distribution):
    """Uniform(0, 1)."""

    support = Support(0.0, 1.0)

    def _log_pdf(self, z):
        return np.where((z < 0.0) | (z > 1.0), -np.inf, np.where(np.isnan(z), z, 0.0))

    def _cdf(self, z):
        return np.clip(z, 0.0, 1.0)

    def _quantile(self, F, S):
        return np.positive(F)  # a new array, as every family's quantile is

    def _entropy(self) -> float:
        return 0.0

    def _renyi_entropy(self, alpha: float) -> float:
        return 0.0


class Exponential(Distribution):
    """Exponential with rate ``lam`` (density lam * exp(-lam * x), x > 0):
    scale 1/lam."""

    support = Support(0.0, math.inf)

    def __init__(self, lam: float):
        if not (lam > 0 and 0.0 < 1.0 / lam < math.inf):
            raise InputError(f"exponential rate must be positive with a finite scale 1/rate, got {lam}")
        self.scale = 1.0 / float(lam)

    lam = property(lambda self: 1.0 / self.scale)

    def _log_pdf(self, z):
        return np.where(z < 0.0, -np.inf, -z)

    def _cdf(self, z):
        return -np.expm1(-np.maximum(z, 0.0))

    def _survival(self, z):
        return np.exp(-np.maximum(z, 0.0))

    def _quantile(self, F, S):
        return -_log_survival(F, S)

    def _entropy(self) -> float:
        return 1.0

    def _renyi_entropy(self, alpha: float) -> float:
        return -math.log(alpha) / (1.0 - alpha)


class Normal(Distribution):
    """Normal with location ``mu`` and scale ``sigma``."""

    support = Support(-math.inf, math.inf)

    def __init__(self, mu: float = 0.0, sigma: float = 1.0):
        if not (math.isfinite(mu) and 0 < sigma < math.inf):
            raise InputError(f"normal location must be finite and scale positive and finite, got {mu}, {sigma}")
        self.loc = float(mu)
        self.scale = float(sigma)

    mu = property(lambda self: self.loc)
    sigma = property(lambda self: self.scale)

    def _log_pdf(self, z):
        return -0.5 * z * z - 0.5 * math.log(2.0 * math.pi)

    # scipy.special is imported on first use: no other family needs it, and
    # importing it costs more than the rest of the package together
    def _cdf(self, z):
        from scipy.special import ndtr
        return ndtr(z)

    def _survival(self, z):
        from scipy.special import ndtr
        return ndtr(-z)

    def _quantile(self, F, S):
        from scipy.special import ndtri
        if S is None:
            return ndtri(F)
        z = ndtri(np.minimum(F, S))
        return np.where(F < S, z, -z)

    def _entropy(self) -> float:
        return 0.5 * math.log(2.0 * math.pi * math.e)

    def _renyi_entropy(self, alpha: float) -> float:
        return 0.5 * math.log(2.0 * math.pi) - math.log(alpha) / (2.0 * (1.0 - alpha))


class Weibull(Distribution):
    """Weibull with shape ``k`` and scale ``theta``."""

    support = Support(0.0, math.inf)

    def __init__(self, k: float, theta: float = 1.0):
        if not (0 < k < math.inf and 0 < theta < math.inf):
            raise InputError(f"weibull shape and scale must be positive and finite, got {k}, {theta}")
        self.k = float(k)
        self.scale = float(theta)

    theta = property(lambda self: self.scale)

    def _log_pdf(self, z):
        outside = (z <= 0.0) | (z == np.inf)  # the formula holds on 0 < z < inf, and takes a NaN
        y = np.where(outside, 1.0, z)
        return np.where(outside, -np.inf, math.log(self.k) + (self.k - 1.0) * np.log(y) - y**self.k)

    def _cdf(self, z):
        return -np.expm1(-(np.maximum(z, 0.0) ** self.k))

    def _survival(self, z):
        return np.exp(-(np.maximum(z, 0.0) ** self.k))

    def _quantile(self, F, S):
        return (-_log_survival(F, S)) ** (1.0 / self.k)

    def _log_pdf_at_quantile(self, F, S):
        y = -_log_survival(F, S)
        return math.log(self.k) + (1.0 - 1.0 / self.k) * np.log(y) - y

    def _entropy(self) -> float:
        return np.euler_gamma * (1.0 - 1.0 / self.k) - math.log(self.k) + 1.0

    def _renyi_entropy(self, alpha: float) -> float | None:
        # int f^alpha = k^(alpha-1) Gamma(s) alpha^-s, finite only for s > 0
        s = (alpha * (self.k - 1.0) + 1.0) / self.k
        if s <= 0.0:
            return None
        return ((alpha - 1.0) * math.log(self.k) + math.lgamma(s) - s * math.log(alpha)) / (1.0 - alpha)


# prefix: the family, the parameters its spec string names, the counts a spec may give, and their usage
_FAMILIES = {
    "unif": (Uniform, (), (0,), "no parameters"),
    "exp": (Exponential, ("lam",), (1,), "one parameter: rate"),
    "norm": (Normal, ("mu", "sigma"), (0, 2), "two parameters: mu,sigma"),
    "weibull": (Weibull, ("k", "theta"), (1, 2), "parameters: shape[,scale]"),
}
_SPECS = {family: (prefix, fields) for prefix, (family, fields, _, _) in _FAMILIES.items()}


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
    if name not in _FAMILIES:
        raise DistributionParseError(f"unknown distribution family {name!r} in {spec!r}")
    family, _, counts, usage = _FAMILIES[name]
    if len(params) not in counts:
        raise DistributionParseError(f"{name} takes {usage}")
    try:
        return family(*params)
    except ValueError as exc:
        raise DistributionParseError(str(exc)) from exc
