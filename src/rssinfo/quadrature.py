"""Adaptive numerical integration used by every measure integral.

The engine is a deterministic adaptive Gauss-Kronrod (G7/K15) scheme, and it
is vector-valued: an integrand may return k components, which share one tree
of panels.  Each panel is scored per component by the embedded-rule
discrepancy; the panel whose largest error relative to its component's
tolerance max(abs_tol, rel_tol |I_c|) is largest is bisected, both children
in one call of the integrand, until every component meets its tolerance.
The first call may evaluate a fixed partition instead of one panel: the
``breaks`` of ``integrate``, capped at the subdivision budget, each counted as
one subdivision.  Per-component running totals drive the stop test; it is
confirmed with math.fsum over the panels, whose fsum is always the result,
and a panel leaving with an infinite error resets the totals the same way.
No randomness anywhere; identical inputs give bit-identical results.

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
(Piessens et al., QUADPACK, 1983), so the loop stops once every component's
error is within twice its floor sum; ``converged`` is still judged against
the tolerance asked for.

Every mapped integral is folded: ``integrate_unit`` takes int_0^1 g(F, S) du,
F = u, S = 1 - u, onto (0, 1/2) as g(s, 1-s) + g(1-s, s), both ends at s -> 0
where floats are dense, through s = (t/T)^4 / 2, which turns s^-p into
t^(3-4p), bounded for p <= 3/4.  It puts u in (0.158, 1/2), the bulk of
every law, in t > 3T/4, so its first call evaluates the six panels split at
T (1/4, 1/2, 5/8, 3/4, 7/8), 180 u points: the four split at T (1/2, 3/4, 7/8)
and the splits of (0, T/2) and (T/2, 3T/4) that bisection makes first.  Only
``integrate_support`` maps a support onto u, as x = a S + b F for a finite (a, b),
a + F/S for (a, inf) and (F - S) / (4 F S) for the real line; near an end other
than 0, x rounds onto that end and f is evaluated there.
"""

from __future__ import annotations

import heapq
import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .distributions import Support
from .errors import DivergentIntegralError, InputError, check_count
from .ranking_error import memo

# QUADPACK's qk15 (Piessens et al., 1983), each half of the symmetric rule
# written once: the 15-point Kronrod nodes on [-1, 1] from the end in to 0,
# their weights, and the 7-point Gauss weights on the odd nodes
_HALF_XK = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.0,
)
_HALF_WK = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)
_HALF_WG = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
)
_XK = np.array([-x for x in _HALF_XK[:-1]] + list(_HALF_XK[::-1]))  # the centre node is +0.0
_WK = np.array(_HALF_WK + _HALF_WK[-2::-1])
_WG = np.array(_HALF_WG + _HALF_WG[-2::-1])
# Gauss nodes sit at the odd Kronrod slots; one matmul with _KG gives half a panel's
# K15 sum and half its K15 - G7 sum, as K15's weights sum to 2: finite up to the float maximum
_KG = 0.5 * np.stack([_WK, _WK], axis=1)
_KG[1::2, 1] -= 0.5 * _WG


@dataclass(frozen=True)
class QuadratureConfig:
    abs_tol: float = 1e-10
    rel_tol: float = 1e-8
    max_subdivisions: int = 2000

    def __post_init__(self):
        if not (0 < self.abs_tol < math.inf and 0 < self.rel_tol < math.inf):
            raise InputError(f"tolerances must be finite and positive, got {self.abs_tol} and {self.rel_tol}")
        check_count("max_subdivisions", self.max_subdivisions, 1)


DEFAULT_CONFIG = QuadratureConfig()


@dataclass(frozen=True)
class QuadratureResult:
    """The one result of an integral and of every measure; ``method`` is
    "quadrature", or "closed-form" with 0 subdivisions and converged."""

    value: float | np.ndarray
    error_estimate: float | np.ndarray
    subdivisions_used: int
    converged: bool
    method: str = "quadrature"

    def scaled(self, shift: float) -> "QuadratureResult":
        """This result moved by ``shift``: the n log(scale) a Shannon or Renyi
        value of the standard law lacks.  The error gains one ulp each of the
        shift and of the moved value."""
        if shift == 0.0:
            return self
        value = self.value + shift
        return replace(self, value=value, error_estimate=self.error_estimate + math.ulp(shift) + math.ulp(value))


_WK_FLOOR = 50.0 * np.finfo(float).eps * _WK  # rounding floor: 50 eps * K15 integral of |f|
_MIN_SPLIT_ULPS = 4096  # children's outermost nodes stay >= 8 ulps inside
_MIN_SPLIT_SCALE = 2.0**-970  # 4096 ulps of it keep every node a normal float


def _power_law_error(x, fx, end: float, width: float) -> float:
    """Rule error on c*d^-p fitted through a panel's two nodes nearest
    ``end``, one of its ends; x are the nodes, fx the integrand there.

    Only a growing end (0 < p) is modelled; a fitted p >= 1 is not
    integrable, so the error is infinite.
    """
    d = np.abs(x - end)
    if end > x[0]:  # nearest first
        d, fx = d[::-1], fx[::-1]
    if fx[0] == 0.0 or fx[1] == 0.0 or not 0.0 < d[0] < d[1]:
        return 0.0  # no power law to fit: a zero, or nodes merged by rounding
    p = math.log(abs(fx[0] / fx[1])) / math.log(d[1] / d[0])
    if p <= 0.0:
        return 0.0
    if p >= 1.0:
        return math.inf
    exact = d[0] * (width / d[0]) ** (1.0 - p) / (1.0 - p)
    rule = 0.5 * width * float(np.dot(_WK, (d / d[0]) ** -p))
    return abs(fx[0]) * abs(exact - rule)


@memo(lambda edges: 128 * (len(edges) - 1))
def _nodes(edges):
    """The (panels, 15) nodes between consecutive ``edges``, their flat view and
    the half widths, read-only: built once per distinct edges, as bisection repeats them."""
    pairs = list(zip(edges, edges[1:]))
    half = np.array([0.5 * (q - p) for p, q in pairs])
    x = np.array([[0.5 * (p + q)] for p, q in pairs]) + half[:, None] * _XK
    return x, x.reshape(-1), half


def _panels(f, edges, lo: float, hi: float):
    """G7/K15 on the panels between consecutive ``edges`` of (lo, hi), all
    nodes in one call of ``f``.  Returns (panels, vector): per panel, the
    per-component lists (k15, err, rounding floor); vector is True when f's
    output is (k, m)."""
    x, nodes, half = _nodes(edges)
    with np.errstate(all="ignore"):  # a non-finite value or panel is raised, not warned of
        fx = np.asarray(f(nodes), dtype=float)
        if fx.ndim not in (1, 2) or fx.shape[-1] != x.size:
            raise InputError(f"integrand shape {fx.shape} at {x.size} points is not (m,) or (k, m)")
        vector = fx.ndim == 2
        fx = fx.reshape(-1, *x.shape)
        if not np.isfinite(fx).all():
            c, p, j = np.argwhere(~np.isfinite(fx))[0]
            at, c = float(x[p, j]), int(c) if vector else None
            where = "" if c is None else f" (component {c})"
            raise DivergentIntegralError(f"integrand is not finite at x = {at!r}{where}", at, c)
        s = fx @ _KG  # the panels' means and half their K15 - G7
        s_width = s * (2.0 * half)[:, None]
        k15, err = s_width[..., 0], np.abs(s_width[..., 1])
        if not np.isfinite(k15).all():
            raise DivergentIntegralError(f"integral on ({lo!r}, {hi!r}) exceeds the float range")
        ends = [(j, end) for j, end in ((0, lo), (-1, hi)) if edges[j] == end]
        if ends:
            # a panel at a or b with K15 - G7 above a tenth of resasc may hide an
            # endpoint power law; only those panels are tested, as a slice of one or both
            at = slice(0 if edges[0] == lo else -1, None if edges[-1] == hi else 1, max(len(half) - 1, 1))
            unresolved = 10.0 * err[:, at] > (np.abs(fx[:, at] - s[:, at, :1]) @ _WK) * half[at]
            for j, end in ends:
                for c in unresolved[:, j].nonzero()[0]:
                    err[c, j] = max(err[c, j], 2.0 * _power_law_error(x[j], fx[c, j], end, 2.0 * half[j]))
        floor = (np.abs(fx) @ _WK_FLOOR) * half
    return list(zip(k15.T.tolist(), np.maximum(err, floor).T.tolist(), floor.T.tolist())), vector


def _sums(panels, a: float, b: float):
    """Per-component math.fsum of the panels' values, errors and floors on (a, b); one beyond the float range raises."""
    try:
        return [[math.fsum(c) for c in zip(*column)] for column in zip(*panels)]
    except OverflowError:
        raise DivergentIntegralError(f"integral on ({a!r}, {b!r}) exceeds the float range") from None


def _tolerance(total, cfg: QuadratureConfig, floor=()):
    """max(abs_tol, rel_tol |I_c|), raised to twice the floor sum if given:
    no split brings a total error below the sum of its panels' floors."""
    floor = floor or [0.0] * len(total)
    return [max(cfg.abs_tol, cfg.rel_tol * abs(t), 2.0 * f) for t, f in zip(total, floor)]


def _within(err, tol) -> bool:
    return all(e <= t for e, t in zip(err, tol))


def _key(err, tol) -> float:
    """Heap key of a panel: minus its largest error relative to tolerance."""
    return -max(e / t for e, t in zip(err, tol))


def integrate(f, a: float, b: float, cfg: QuadratureConfig = DEFAULT_CONFIG, *, breaks=()) -> QuadratureResult:
    """Adaptive integral of ``f`` over the finite interval (a, b).

    ``f`` takes a read-only 1-D array of m points, shared by every call on
    the same panels, and returns shape (m,), or (k, m) for k integrands on
    shared panels; any other shape, a constant's included, raises
    InputError.  ``value`` and ``error_estimate`` are floats for
    an (m,) output and (k,) arrays for a (k, m) one; ``converged`` holds only
    if every component meets max(abs_tol, rel_tol * |I_c|).
    The first call of ``f`` evaluates the panels between a, the increasing
    interior ``breaks`` (at most max_subdivisions of them, a prefix) and b;
    each break counts as one subdivision.  The panel split next is the one
    whose largest error relative to its component's tolerance, taken when
    the panel was pushed, is largest.  A component's tolerance is raised to
    twice the sum of its panels' rounding floors, so a tolerance out of reach
    stops the loop near that floor, not converged.  A first call that meets
    the tolerance or spends the budget is the result, and builds no heap.
    Each split updates running sums; a stop they pass is confirmed on math.fsum
    over the heap's panels, and the result is the fsum of the final heap.
    f runs with warnings off; a non-finite value, panel or total raises DivergentIntegralError.
    """
    edges = tuple(map(float, (a, *breaks[: cfg.max_subdivisions], b)))  # the nodes' memo key
    if not (math.isfinite(a) and math.isfinite(b) and all(p < q for p, q in zip(edges, edges[1:]))):
        raise InputError(f"need finite a < b, with increasing breaks between them, got {edges}")

    panels, vector = _panels(f, edges, a, b)
    sums = _sums(panels, a, b)  # per-component values, errors and floors
    tol = _tolerance(sums[0], cfg, sums[2])
    nsub = len(edges) - 2
    # a first call that meets the tolerance or spends the budget is the result: no heap is built
    if nsub < cfg.max_subdivisions and not _within(sums[1], tol):
        seq = itertools.count()  # heap of (key, seq, a, b, panel); seq breaks ties deterministically
        heap = [(_key(s[1], tol), next(seq), pa, pb, s) for pa, pb, s in zip(edges, edges[1:], panels)]
        heapq.heapify(heap)
        while True:
            key, _, pa, pb, old = heap[0]
            # the budget spent, or the worst panel at float resolution (tolerance out of reach)
            if nsub >= cfg.max_subdivisions or pb - pa < _MIN_SPLIT_ULPS * math.ulp(max(abs(pa), abs(pb), _MIN_SPLIT_SCALE)):
                sums = _sums([p[4] for p in heap], a, b)
                break
            pm = 0.5 * (pa + pb)
            (left, right), _ = _panels(f, (pa, pm, pb), a, b)
            sums = [[t + (l + r - p) for t, l, r, p in zip(*c)] for c in zip(sums, left, right, old)]
            tol = _tolerance(sums[0], cfg, sums[2])
            heapq.heapreplace(heap, (_key(left[1], tol), next(seq), pa, pm, left))
            heapq.heappush(heap, (_key(right[1], tol), next(seq), pm, pb, right))
            nsub += 1
            # a stop on running sums is confirmed on the heap's fsums, which also reset
            # the running error an infinite one leaves NaN
            if key == -math.inf or _within(sums[1], tol):
                sums = _sums([p[4] for p in heap], a, b)
                tol = _tolerance(sums[0], cfg, sums[2])
                if _within(sums[1], tol):
                    break

    value, error, _ = sums
    converged = _within(error, _tolerance(value, cfg))
    if vector:
        return QuadratureResult(np.array(value), np.array(error), nsub, converged)
    return QuadratureResult(value[0], error[0], nsub, converged)


# T = 2^-764 keeps s = (t/T)^4 / 2 a normal float at the engine's smallest t, near 2^-1018.87
_T = 2.0**-764
_BREAKS = (0.25 * _T, 0.5 * _T, 0.625 * _T, 0.75 * _T, 0.875 * _T)  # where bisection from (0, T) splits first


@memo(lambda t: 5 * t.nbytes)
def _fold(t):
    """Read-only F, S and Jacobian 2 (t/T)^3 at the folded nodes t, built once per panel set: the memo keys t's values."""
    r = t / _T
    s = 0.5 * r**4
    return np.concatenate([s, 1.0 - s]), np.concatenate([1.0 - s, s]), 2.0 * r**3


def integrate_unit(g, cfg: QuadratureConfig, what: str, at=None) -> QuadratureResult:
    """int_0^1 g(F, S) du, folded; g takes both halves in one call and
    returns (m,) or (k, m), and any other shape raises InputError.  The first
    call evaluates the six panels of (0, T) split at T (1/4, 1/2, 5/8, 3/4, 7/8),
    180 u points; a subdivision budget below 5 keeps a prefix of those splits,
    and each split counts as a subdivision.
    F and S are read-only arrays shared by every integral on the same panels.

    The engine integrates against 2 (t/T)^3 = T ds/dt, which cannot overflow:
    it sees T times the integral and takes abs_tol times T, both exactly.
    g runs with warnings off.  A non-finite folded value raises DivergentIntegralError:
    ``what`` at the u of g's first non-finite value, or else of the first fold whose
    finite halves overflow (its u below 1/2), or at x = ``at(F, S)`` there.
    """

    def integrand(t):
        F, S, jacobian = _fold(t)
        v = np.asarray(g(F, S), dtype=float)
        if v.ndim not in (1, 2) or v.shape[-1] != F.size:
            raise InputError(f"integrand shape {v.shape} at {F.size} points is not (m,) or (k, m)")
        folded = (v[..., : t.size] + v[..., t.size :]) * jacobian
        if not np.isfinite(folded).all():  # at g's first non-finite value, or else the first fold that overflows
            *row, j = np.argwhere(~np.isfinite(folded) if np.isfinite(v).all() else ~np.isfinite(v))[0]
            x = None if at is None else float(at(F[j], S[j]))
            msg = f"{what} at {f'u = {F[j]}' if x is None else f'x = {x}'}; the integral may be divergent or out of range"
            raise DivergentIntegralError(msg, x, *map(int, row))
        return folded

    # an abs_tol below 2^-310 has no float at this scale: the rel_tol alone decides
    scaled = QuadratureConfig(max(cfg.abs_tol * _T, math.ulp(0.0)), cfg.rel_tol, cfg.max_subdivisions)
    r = integrate(integrand, 0.0, _T, scaled, breaks=_BREAKS)
    return QuadratureResult(r.value / _T, r.error_estimate / _T, r.subdivisions_used, r.converged)


def integrate_half_line(f, a: float, cfg: QuadratureConfig = DEFAULT_CONFIG) -> QuadratureResult:
    """Integral of ``f`` over (a, inf): ``integrate_support`` on that support."""
    return integrate_support(f, Support(a, math.inf), cfg)


def integrate_full_line(f, cfg: QuadratureConfig = DEFAULT_CONFIG) -> QuadratureResult:
    """Integral of ``f`` over the real line: ``integrate_support`` on that support."""
    return integrate_support(f, Support(-math.inf, math.inf), cfg)


def integrate_support(f, support: Support, cfg: QuadratureConfig = DEFAULT_CONFIG) -> QuadratureResult:
    """Integral of ``f`` over the support, folded as f(x(F, S)) dx/dF, x the map its ends pick;
    other ends, NaN ones included, raise.  Where f is 0 so is that, even where dx/dF overflows."""
    a, b = support.lower, support.upper
    if -math.inf < a < b < math.inf:
        x, dx_dF = (lambda F, S: a * S + b * F), (lambda F, S: b - a)
    elif -math.inf < a < b == math.inf:
        x, dx_dF = (lambda F, S: a + F / S), (lambda F, S: 1.0 / (S * S))
    elif a == -math.inf and b == math.inf:
        x, dx_dF = (lambda F, S: (F - S) / (4 * F * S)), (lambda F, S: (F * F + S * S) / (2 * F * S) ** 2)
    else:
        raise InputError(f"unsupported support {support}: not a finite (a, b), an (a, inf) or the real line")

    def g(F, S):
        fx = np.asarray(f(x(F, S)), dtype=float)
        return np.where(fx == 0.0, 0.0, fx * dx_dF(F, S))

    return integrate_unit(g, cfg, "integrand is not finite", at=x)


def entropy_integral(density, support: Support, cfg: QuadratureConfig = DEFAULT_CONFIG) -> QuadratureResult:
    """-integral of g log g over the support, 0 log 0 = 0; a NaN or negative g raises at its x."""

    def integrand(x):
        g = np.asarray(density(x), dtype=float)
        return np.where(g == 0.0, 0.0, -g * np.log(g))

    return integrate_support(integrand, support, cfg)
