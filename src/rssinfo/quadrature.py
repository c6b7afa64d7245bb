"""Adaptive numerical integration used by every measure integral.

The engine is a deterministic adaptive Gauss-Kronrod (G7/K15) scheme:
each panel is scored by the embedded-rule discrepancy, the worst panel is
bisected until the global error estimate meets tolerance.  No randomness
anywhere; identical inputs give bit-identical results (final sums are
accumulated with math.fsum over panels ordered by left endpoint).

Endpoint singularities need no inset: nodes lie strictly inside their panel,
and a panel narrower than _MIN_SPLIT_ULPS ulps (of its endpoints, or of
_MIN_SPLIT_SCALE near 0) is not split, so f is never evaluated at a or b, no
node is rounded far from its place and none is subnormal; if the worst panel
is that narrow, the loop stops, not converged.  A panel's error is
|K15 - G7|, which under-reports x^-p endpoint singularities for p > 0.6.  So
a panel at a or b whose |K15 - G7| exceeds a tenth of resasc (the K15
integral of |f - mean|) is also charged the rule's error on the power law
c*d^-p through its two nodes nearest that end (infinite for p >= 1), twice
over, as the fit is exact only for a pure power law.
No panel's error is below QUADPACK's rounding floor 50 eps * integral of |f|
(Piessens et al., QUADPACK, 1983).
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .distributions import Support

# 15-point Kronrod nodes on [-1, 1] and weights, with the embedded 7-point
# Gauss weights on the shared nodes (standard QUADPACK constants).
_XK = np.array(
    [
        -0.991455371120813,
        -0.949107912342759,
        -0.864864423359769,
        -0.741531185599394,
        -0.586087235467691,
        -0.405845151377397,
        -0.207784955007898,
        0.0,
        0.207784955007898,
        0.405845151377397,
        0.586087235467691,
        0.741531185599394,
        0.864864423359769,
        0.949107912342759,
        0.991455371120813,
    ]
)
_WK = np.array(
    [
        0.022935322010529,
        0.063092092629979,
        0.104790010322250,
        0.140653259715525,
        0.169004726639267,
        0.190350578064785,
        0.204432940075298,
        0.209482141084728,
        0.204432940075298,
        0.190350578064785,
        0.169004726639267,
        0.140653259715525,
        0.104790010322250,
        0.063092092629979,
        0.022935322010529,
    ]
)
_WG = np.array(
    [
        0.129484966168870,
        0.279705391489277,
        0.381830050505119,
        0.417959183673469,
        0.381830050505119,
        0.279705391489277,
        0.129484966168870,
    ]
)
_GAUSS_IDX = np.arange(1, 15, 2)  # Gauss nodes sit at the odd Kronrod slots


class NonFiniteIntegrandError(ValueError):
    """Integrand returned NaN or +/-inf at an interior evaluation point."""

    def __init__(self, x: float):
        self.x = x
        super().__init__(f"integrand is not finite at x = {x!r}")


@dataclass(frozen=True)
class QuadratureConfig:
    abs_tol: float = 1e-10
    rel_tol: float = 1e-8
    max_subdivisions: int = 2000

    def __post_init__(self):
        if not (self.abs_tol > 0 and self.rel_tol > 0):
            raise ValueError("tolerances must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")


DEFAULT_CONFIG = QuadratureConfig()


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error_estimate: float
    subdivisions_used: int
    converged: bool

    def __add__(self, other: "QuadratureResult") -> "QuadratureResult":
        return QuadratureResult(
            value=self.value + other.value,
            error_estimate=self.error_estimate + other.error_estimate,
            subdivisions_used=self.subdivisions_used + other.subdivisions_used,
            converged=self.converged and other.converged,
        )


_ROUNDING_FLOOR = 50.0 * np.finfo(float).eps
_MIN_SPLIT_ULPS = 4096  # children's outermost nodes stay >= 8 ulps inside
_MIN_SPLIT_SCALE = 2.0**-970  # 4096 ulps of it keep every node a normal float


def _power_law_error(d, fd, width: float) -> float:
    """Rule error on c*d^-p fitted through the two nodes nearest a panel end.

    d holds the nodes' distances from that end, nearest first, and fd the
    integrand there.  Only a growing end (0 < p) is modelled; a fitted p >= 1
    is not integrable, so the error is infinite.
    """
    if fd[0] == 0.0 or fd[1] == 0.0 or not 0.0 < d[0] < d[1]:
        return 0.0  # no power law to fit: a zero, or nodes merged by rounding
    p = math.log(abs(fd[0] / fd[1])) / math.log(d[1] / d[0])
    if p <= 0.0:
        return 0.0
    if p >= 1.0:
        return math.inf
    exact = d[0] * (width / d[0]) ** (1.0 - p) / (1.0 - p)
    rule = 0.5 * width * float(np.dot(_WK, (d / d[0]) ** -p))
    return abs(fd[0]) * abs(exact - rule)


def _panel(f, a: float, b: float, lo: float, hi: float):
    """Evaluate one G7/K15 panel of the integral over (lo, hi); returns (k15, error)."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    x = mid + half * _XK
    fx = np.asarray(f(x), dtype=float)
    if fx.shape != x.shape:
        fx = np.broadcast_to(fx, x.shape)
    if not np.all(np.isfinite(fx)):
        bad = x[~np.isfinite(fx)][0]
        raise NonFiniteIntegrandError(float(bad))
    mean = 0.5 * float(np.dot(_WK, fx))
    k15 = 2.0 * half * mean
    err = abs(k15 - half * float(np.dot(_WG, fx[_GAUSS_IDX])))
    resasc = half * float(np.dot(_WK, np.abs(fx - mean)))
    if 10.0 * err > resasc:  # unresolved panel: an endpoint power law may hide
        if a == lo:
            err = max(err, 2.0 * _power_law_error(x - a, fx, b - a))
        if b == hi:
            err = max(err, 2.0 * _power_law_error(b - x[::-1], fx[::-1], b - a))
    return k15, max(err, _ROUNDING_FLOOR * half * float(np.dot(_WK, np.abs(fx))))


def integrate(f, a: float, b: float, cfg: QuadratureConfig = DEFAULT_CONFIG) -> QuadratureResult:
    """Adaptive integral of ``f`` over the finite interval (a, b).

    ``f`` must accept a numpy array of evaluation points and return an array.
    """
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise ValueError(f"need finite a < b, got ({a}, {b})")

    k15, err = _panel(f, a, b, a, b)
    # heap of (-err, seq, a, b, value, err); seq breaks ties deterministically
    heap = [(-err, 0, a, b, k15, err)]
    seq = 1
    nsub = 0
    while nsub < cfg.max_subdivisions:
        total = math.fsum(p[4] for p in heap)
        total_err = math.fsum(p[5] for p in heap)
        if total_err <= max(cfg.abs_tol, cfg.rel_tol * abs(total)):
            break
        pa, pb = heap[0][2:4]
        if pb - pa < _MIN_SPLIT_ULPS * math.ulp(max(abs(pa), abs(pb), _MIN_SPLIT_SCALE)):
            break  # the worst panel is at float resolution: tolerance out of reach
        pm = 0.5 * (pa + pb)
        kl, el = _panel(f, pa, pm, a, b)
        kr, er = _panel(f, pm, pb, a, b)
        heapq.heapreplace(heap, (-el, seq, pa, pm, kl, el))
        heapq.heappush(heap, (-er, seq + 1, pm, pb, kr, er))
        seq += 2
        nsub += 1

    panels = sorted(heap, key=lambda p: p[2])
    value = math.fsum(p[4] for p in panels)
    error = math.fsum(p[5] for p in panels)
    converged = error <= max(cfg.abs_tol, cfg.rel_tol * abs(value))
    return QuadratureResult(value, error, nsub, converged)


def integrate_half_line(f, a: float, cfg: QuadratureConfig = DEFAULT_CONFIG) -> QuadratureResult:
    """Integral of ``f`` over (a, inf) via the substitution x = a + t/(1-t)."""

    def g(t):
        t = np.asarray(t, dtype=float)
        omt = 1.0 - t
        x = a + t / omt
        return np.asarray(f(x), dtype=float) / (omt * omt)

    return integrate(g, 0.0, 1.0, cfg)


def integrate_full_line(f, cfg: QuadratureConfig = DEFAULT_CONFIG) -> QuadratureResult:
    """Integral of ``f`` over the real line via x = t/(1-t^2) on (-1, 1)."""

    def g(t):
        t = np.asarray(t, dtype=float)
        omt2 = 1.0 - t * t
        x = t / omt2
        return np.asarray(f(x), dtype=float) * (1.0 + t * t) / (omt2 * omt2)

    return integrate(g, -1.0, 1.0, cfg)


def integrate_support(f, support: Support, cfg: QuadratureConfig = DEFAULT_CONFIG) -> QuadratureResult:
    """Dispatch on the support descriptor."""
    if support.is_finite:
        return integrate(f, support.lower, support.upper, cfg)
    if support.is_half_line:
        return integrate_half_line(f, support.lower, cfg)
    if support.is_full_line:
        return integrate_full_line(f, cfg)
    raise ValueError(f"unsupported support {support}")


def entropy_integral(density, support: Support, cfg: QuadratureConfig = DEFAULT_CONFIG) -> QuadratureResult:
    """-integral of g log g over the support, with the 0*log(0) = 0 convention."""

    def integrand(x):
        g = np.asarray(density(x), dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            v = np.where(g > 0.0, -g * np.log(np.where(g > 0.0, g, 1.0)), 0.0)
        return v

    return integrate_support(integrand, support, cfg)
