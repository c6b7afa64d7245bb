"""Shannon, Renyi and Kullback-Leibler measures for (distribution, design)
pairs.

A design is its ranking-error matrix (Dell & Clutter 1972): SRS is the
uniform matrix, perfect RSS the identity.  Every numeric path makes one
vector-valued integral over the distinct rows of the matrices it is given
(one design's, or several in ``renyi_designs``), through the ``order_stats``
kernel, and weights each row by its count in each matrix; the designs share
``diagnostics["subdivisions"]``, the panel splits of that one integral.

Every route, closed form or numeric, computes on the standard law
``dist.standard()`` (location 0, scale 1).  Location and scale enter only in
``MeasureResult.scaled``, which adds n log(scale) per cycle to a Shannon or
Renyi value, as H(aX + b) = H(X) + n log a; KL is invariant and gets nothing.

Every closed form is keyed on the matrix, never on the design's kind.
Shannon is n H(f) - D(P), with D(P) = K(design || SRS) an integral of the
judged weights alone: closed for the uniform matrix, the identity and every
2 x 2, integrated otherwise, so no Shannon integrand reads the parent.  KL
K(SRS || design) is closed for the same three classes.  Renyi is closed for
the uniform matrix, n H_a(f), wherever int f^alpha is finite, and for the
identity on a uniform or exponential parent, a sum of Beta integrals at every
real alpha.  ``force_numeric`` bypasses every closed form so the two paths can
be compared.

Every default numeric route integrates over u = F(x), with the kernel's
(F, S) pair, through ``quadrature.integrate_unit``, which folds (0, 1) onto
(0, 1/2) so that both ends sit at 0.  Only the ``mode="x"`` Shannon and KL
verification routes integrate over x, through the same fold.

All values are in nats and scale additively with the cycle count m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import closed_form, ranking_error
from .distributions import Distribution, Exponential, Uniform
from .errors import DivergentIntegralError, InputError, check_alpha
from .order_stats import judged_log_pdf, judged_log_weight
from .quadrature import (
    DEFAULT_CONFIG,
    QuadratureConfig,
    QuadratureResult,
    entropy_integral,
    integrate,  # noqa: F401  (perfbench's tracer and its contract test read measures.integrate)
    integrate_support,
    integrate_unit,
)
from .ranking_error import RankingErrorMatrix


SRS = "srs"
PERFECT_RSS = "rss"
IMPERFECT_RSS = "irss"

_KINDS = (SRS, PERFECT_RSS, IMPERFECT_RSS)


@dataclass(frozen=True)
class Design:
    """Sampling design: SRS(n), perfect RSS(n), or imperfect RSS(n, P).

    ``m`` is the cycle count; measures scale additively in m.
    """

    kind: str
    n: int
    P: RankingErrorMatrix | None = None
    m: int = 1

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise InputError(f"unknown design kind {self.kind!r}")
        if self.n < 1:
            raise InputError(f"set size must be >= 1, got {self.n}")
        if self.m < 1:
            raise InputError("cycle count must be >= 1")
        if self.kind == IMPERFECT_RSS:
            if self.P is None:
                raise InputError("imperfect RSS needs a ranking error matrix")
            if self.P.n != self.n:
                raise InputError(
                    f"error matrix dimension {self.P.n} does not match n = {self.n}"
                )
        elif self.P is not None:
            raise InputError(f"design kind {self.kind!r} takes no error matrix")

    @property
    def matrix(self) -> RankingErrorMatrix:
        """The ranking-error matrix: uniform for SRS, identity for perfect RSS."""
        if self.kind == SRS:
            return ranking_error.uniform(self.n)
        if self.kind == PERFECT_RSS:
            return ranking_error.identity(self.n)
        return self.P

    def spec_string(self) -> str:
        base = f"{self.kind}:{self.n}"
        return base if self.m == 1 else f"{base} (m={self.m})"


@dataclass(frozen=True)
class MeasureResult:
    value: float
    error_estimate: float
    method: str  # closed-form | quadrature | monte-carlo
    diagnostics: dict = field(default_factory=dict)

    def scaled(self, m: int, shift: float = 0.0) -> "MeasureResult":
        """m cycles of this one-cycle result, each moved by ``shift``: the
        n log(scale) a Shannon or Renyi value of the standard law lacks."""
        if m == 1 and shift == 0.0:
            return self
        return MeasureResult(
            (self.value + shift) * m, self.error_estimate * m, self.method, self.diagnostics
        )


def _closed(value: float) -> MeasureResult:
    return MeasureResult(value, 0.0, "closed-form", {"converged": True, "subdivisions": 0})


def _from_quad(value: float, err: float, r: QuadratureResult) -> MeasureResult:
    return MeasureResult(
        value, err, "quadrature", {"converged": r.converged, "subdivisions": r.subdivisions_used}
    )


def _check_mode(mode: str, modes: tuple[str, ...]) -> None:
    if mode not in modes:
        raise InputError(f"unknown mode {mode!r}; expected one of {', '.join(modes)}")


def _distinct_rows(*matrices):
    """The distinct rows of the matrices' entries, first seen first, and a
    (matrices, rows) array of how many times each matrix holds each row.
    Ranks with equal rows have equal components."""
    index: dict[bytes, int] = {}
    ids = [[index.setdefault(row.tobytes(), len(index)) for row in P] for P in matrices]
    rows = np.array([np.frombuffer(key) for key in index])
    return rows, np.array([np.bincount(i, minlength=len(index)) for i in ids], dtype=float)


def _weighted(values, errors, counts, r: QuadratureResult) -> MeasureResult:
    """Sum per-row component values and errors, each row times its count."""
    return _from_quad(float(counts @ values), float(counts @ errors), r)


def _log_weight_integral(P: np.ndarray, g, cfg: QuadratureConfig, what: str) -> MeasureResult:
    """sum_i int_0^1 g(log w_i) du over the rows of P, each distinct row integrated once."""
    rows, (counts,) = _distinct_rows(P)
    log_weight = judged_log_weight(rows)
    r = integrate_unit(lambda F, S: g(log_weight(F, S)), cfg, what)
    return _weighted(r.value, r.error_estimate, counts, r)


# ---------------------------------------------------------------------------
# Shannon entropy
# ---------------------------------------------------------------------------


def shannon(
    design: Design,
    dist: Distribution,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
    force_numeric: bool = False,
    mode: str = "u",
) -> MeasureResult:
    """Shannon entropy of the full sample under the given design.

    ``mode='u'`` (default) is n H(f) - D(P).  The columns of a doubly
    stochastic P sum to 1, so the judged weights w_i sum to n at every u and
    sum_i int w_i log f(F^-1(u)) du = -n H(f); what is left,
    D(P) = sum_i int_0^1 w_i log w_i du = K(design || SRS) >= 0, reads the
    matrix alone, and its error is the value's.  ``mode='x'`` integrates the
    component densities directly in x-space as a cross-check, never a closed
    form.
    """
    _check_mode(mode, ("u", "x"))
    std = dist.standard()
    if mode == "x":
        res = _shannon_x_space(design, std, cfg)
    else:
        P = design.matrix.entries
        d = None if force_numeric else _divergence_closed_form(P)
        if d is None:
            d = _log_weight_integral(P, lambda lw: np.exp(lw) * lw, cfg, "shannon integrand is not finite")
        res = replace(d, value=design.n * std.entropy() - d.value)
    return res.scaled(design.m, design.n * math.log(dist.scale))


def _matrix_class(P: np.ndarray) -> str:
    """'uniform', 'identity' or '': the matrices with closed forms in every
    measure.  A first entry rules most matrices out before the full test."""
    if P[0, 0] == P[0, -1] and (P == P[0, 0]).all():
        return "uniform"
    if P[0, 0] == 1.0 and (P == np.eye(len(P))).all():
        return "identity"
    return ""


def _divergence_closed_form(P: np.ndarray) -> MeasureResult | None:
    """D(P) of the uniform matrix (0), the identity (-k(n)) and every 2x2
    (2 log 2 - eta(p11) - eta(p22)); None for any other matrix."""
    kind = _matrix_class(P)
    if kind == "uniform":
        return _closed(0.0)
    if kind == "identity":
        return _closed(-closed_form.k_direct(len(P)))
    if len(P) == 2:
        return _closed(2.0 * math.log(2.0) - closed_form.eta(P[0, 0]) - closed_form.eta(P[1, 1]))
    return None


def _shannon_x_space(design: Design, dist: Distribution, cfg: QuadratureConfig) -> MeasureResult:
    rows, (counts,) = _distinct_rows(design.matrix.entries)
    log_pdf = judged_log_pdf(dist, rows)
    r = entropy_integral(lambda x: np.exp(log_pdf(x)), dist.support, cfg)
    return _weighted(r.value, r.error_estimate, counts, r)


# ---------------------------------------------------------------------------
# Renyi information
# ---------------------------------------------------------------------------


def renyi(
    design: Design,
    dist: Distribution,
    alpha: float,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
    force_numeric: bool = False,
) -> MeasureResult:
    """Renyi information of order alpha (finite, > 0, != 1) of the full sample."""
    return renyi_designs([design], dist, alpha, cfg, force_numeric)[0]


def renyi_designs(
    designs: list[Design],
    dist: Distribution,
    alpha: float,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
    force_numeric: bool = False,
) -> list[MeasureResult]:
    """``renyi`` of each design, all of one set size n: those without a closed
    form share one integral over the distinct rows of their matrices."""
    check_alpha(alpha)
    if len({d.n for d in designs}) > 1:
        raise InputError("designs must share the set size n")
    std, matrices = dist.standard(), [d.matrix.entries for d in designs]
    # one closed form per distinct matrix: with n shared, its bytes name it
    distinct = {} if force_numeric else {P.tobytes(): P for P in matrices}
    closed = {key: _renyi_closed_form(P, std, alpha) for key, P in distinct.items()}
    results = [closed.get(P.tobytes()) for P in matrices]
    numeric = [P for P, res in zip(matrices, results) if res is None]
    if numeric:
        legs = iter(_renyi_numeric(numeric, dist, alpha, cfg))
        results = [next(legs) if res is None else res for res in results]
    return [res.scaled(d.m, d.n * math.log(dist.scale)) for d, res in zip(designs, results)]


def _renyi_closed_form(P: np.ndarray, std: Distribution, alpha: float) -> MeasureResult | None:
    """n H_a(f) for the uniform matrix where int f^alpha is finite, and the
    Beta sum of ``closed_form.rss_renyi`` for the identity on a uniform or
    exponential parent; None otherwise."""
    kind = _matrix_class(P)
    if kind == "uniform":
        h = std.renyi_entropy(alpha)
        return None if h is None else _closed(len(P) * h)
    if kind == "identity" and isinstance(std, (Uniform, Exponential)):
        # the standard exponential's f(F^-1(u))^(alpha-1) is (1-u)^(alpha-1)
        return _closed(closed_form.rss_renyi(len(P), alpha, alpha if isinstance(std, Exponential) else 1.0))
    return None


def _renyi_numeric(matrices, dist: Distribution, alpha: float, cfg: QuadratureConfig) -> list[MeasureResult]:
    """The standard law's value for each matrix, from one integral over their
    distinct rows; an error names x in ``dist``'s coordinates."""
    om = 1.0 - alpha
    rows, counts = _distinct_rows(*matrices)
    log_weight = judged_log_weight(rows)
    log_fq = dist.standard().log_pdf_at_quantile

    def integrand(F, S):
        # f_i^alpha dx = w_i^alpha f(F^-1(u))^(alpha-1) du
        return np.exp(alpha * log_weight(F, S) - om * log_fq(F, S))

    r = integrate_unit(integrand, cfg, "renyi integrand exceeds the float range", at=dist.quantile)
    if np.any(r.value <= 0):
        raise DivergentIntegralError("renyi integral evaluated to a non-positive value")
    values, errors = np.log(r.value) / om, r.error_estimate / (abs(om) * r.value)
    return [_weighted(values, errors, c, r) for c in counts]


def renyi_gap_binomial(
    dist: Distribution,
    n: int,
    alpha: float,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> MeasureResult:
    """H_a(RSS) - H_a(SRS) for alpha > 1 in the binomial representation
    1/(1-a) sum_i log E[b_i(F(W))^alpha], with b_i the Beta(i, n-i+1) density
    (n times the Binomial(n-1, F(W)) pmf at i-1) and W distributed as
    f^alpha / int f^alpha.  Its integrals are the identity and uniform rows
    of ``renyi``'s, so this is the same route, not a second one; Monte Carlo
    is Renyi's independent check."""
    if alpha <= 1.0:
        raise InputError(f"binomial-representation gap requires alpha > 1, got {alpha}")
    if n < 1:
        raise InputError("n must be >= 1")
    if n == 1:
        return _closed(0.0)
    # the gap is scale-free
    rss, srs = renyi_designs([Design(PERFECT_RSS, n), Design(SRS, n)], dist.standard(), alpha, cfg, True)
    return MeasureResult(rss.value - srs.value, rss.error_estimate + srs.error_estimate, rss.method, rss.diagnostics)


# ---------------------------------------------------------------------------
# Kullback-Leibler
# ---------------------------------------------------------------------------


def kl_srs_vs_design(
    design: Design,
    dist: Distribution | None = None,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
    force_numeric: bool = False,
    mode: str = "u",
) -> MeasureResult:
    """K(SRS, design) for an RSS-kind design of the same size and law.

    The value is distribution-free; the default path is closed for the
    uniform matrix, the identity and every 2x2 and otherwise computes it
    entirely in u-space (``dist`` is ignored there).  ``mode='x'`` runs the
    x-space verification integral on ``dist.standard()`` and requires
    ``dist``.
    """
    _check_mode(mode, ("u", "x"))
    if design.kind == SRS:
        raise InputError("K(SRS, design) needs an rss or irss design, got srs")
    if mode == "x":
        if dist is None:
            raise InputError("x-space verification mode needs a distribution")
        res = _kl_srs_x_space(design, dist.standard(), cfg)
    else:
        P = design.matrix.entries
        res = None if force_numeric else _kl_closed_form(P)
        if res is None:
            res = _log_weight_integral(P, np.negative, cfg, "KL integrand is not finite")
    return res.scaled(design.m)


def _kl_closed_form(P: np.ndarray) -> MeasureResult | None:
    """K(SRS || P) of the uniform matrix (0), the identity (d_n) and every
    2x2 (a closed form per row); None for any other matrix."""
    kind = _matrix_class(P)
    if kind == "uniform":
        return _closed(0.0)
    if kind == "identity":
        return _closed(closed_form.d_n(len(P)))
    if len(P) == 2:
        return _closed(closed_form.kl_row_2x2(P[0, 0]) + closed_form.kl_row_2x2(P[1, 1]))
    return None


def _kl_srs_x_space(design: Design, dist: Distribution, cfg: QuadratureConfig) -> MeasureResult:
    rows, (counts,) = _distinct_rows(design.matrix.entries)
    log_weight = judged_log_weight(rows)

    def integrand(x):
        f = dist.pdf(x)
        logw = log_weight(dist.cdf(x), dist.survival(x))
        with np.errstate(invalid="ignore"):
            # below ~1e-300 the density kills any log factor; avoid 0 * inf
            return np.where(f > 1e-300, -f * logw, 0.0)

    r = integrate_support(integrand, dist.support, cfg)
    return _weighted(r.value, r.error_estimate, counts, r)


def kl_two_sample(
    design_x: Design,
    dist_f: Distribution,
    design_y: Design,
    dist_g: Distribution,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> MeasureResult:
    """K between the joint laws of two same-size samples.

    Componentwise: sum_i int px_i log(px_i / py_i), computed in the u-space
    of the X-side law.  Raises DivergentIntegralError on support mismatch.
    """
    if design_x.n != design_y.n:
        raise InputError("designs must share the set size n")
    if design_x.m != design_y.m:
        raise InputError("designs must share the cycle count m")

    rows, (counts,) = _distinct_rows(np.hstack([design_x.matrix.entries, design_y.matrix.entries]))
    rows_x, rows_y = np.hsplit(rows, [design_x.n])
    log_wx = judged_log_weight(rows_x)
    log_py = judged_log_pdf(dist_g, rows_y)

    def integrand(F, S):
        lx = log_wx(F, S)
        wx = np.exp(lx)
        with np.errstate(divide="ignore", invalid="ignore"):
            bracket = lx + dist_f.log_pdf_at_quantile(F, S) - log_py(dist_f.quantile(F, S))
            return np.where(wx > 0.0, wx * bracket, 0.0)

    r = integrate_unit(integrand, cfg, "two-sample KL integrand is not integrable")
    return _weighted(r.value, r.error_estimate, counts, r).scaled(design_x.m)


def kld_symmetric(
    design_x: Design,
    dist_f: Distribution,
    design_y: Design,
    dist_g: Distribution,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> MeasureResult:
    """Symmetrized divergence K(X, Y) + K(Y, X)."""
    fwd = kl_two_sample(design_x, dist_f, design_y, dist_g, cfg)
    bwd = kl_two_sample(design_y, dist_g, design_x, dist_f, cfg)
    diagnostics = {
        "converged": fwd.diagnostics["converged"] and bwd.diagnostics["converged"],
        "subdivisions": fwd.diagnostics["subdivisions"] + bwd.diagnostics["subdivisions"],
    }
    return MeasureResult(fwd.value + bwd.value, fwd.error_estimate + bwd.error_estimate, "quadrature", diagnostics)


def a_n(
    dist_f: Distribution,
    dist_g: Distribution,
    n: int,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
    mode: str = "reduced",
) -> MeasureResult:
    """Correction term with K(RSS_F, RSS_G) = n K(f, g) + A_n(F, G).

    ``mode='reduced'`` (default) evaluates
    -n(n-1)/2 - n(n-1) int_0^1 [u log G(F^-1(u)) + (1-u) log Gbar(F^-1(u))] du;
    ``mode='sum'`` evaluates the defining sum over beta-weighted components as
    a verification route.  Both vanish at F = G and at n = 1.
    """
    _check_mode(mode, ("reduced", "sum"))
    if n < 1:
        raise InputError("n must be >= 1")
    if n == 1:
        return _closed(0.0)
    if mode == "reduced":
        return _a_n_reduced(dist_f, dist_g, n, cfg, closed_form.xlogy, "A_n integrand is not integrable")
    log_beta = judged_log_weight(np.eye(n))
    below = np.arange(n)[:, None]  # ranks below and above rank i = 1..n
    above = n - 1 - below

    def integrand(F, S):
        w = np.exp(log_beta(F, S))
        x = dist_f.quantile(F, S)
        with np.errstate(divide="ignore", invalid="ignore"):
            lower = np.where(below > 0, below * (np.log(F) - np.log(dist_g.cdf(x))), 0.0)
            upper = np.where(above > 0, above * (np.log(S) - np.log(dist_g.survival(x))), 0.0)
            return np.where(w > 0.0, w * (lower + upper), 0.0)

    r = integrate_unit(integrand, cfg, "A_n integrand is not integrable")
    return _from_quad(float(r.value.sum()), float(r.error_estimate.sum()), r)


def a_n_printed_reduced(
    dist_f: Distribution,
    dist_g: Distribution,
    n: int,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> MeasureResult:
    """The reduced A_n form as printed, with the bare Gbar term (no log).

    Kept only for the errata report; it does not vanish at F = G.
    """
    if n < 1:
        raise InputError("n must be >= 1")
    if n == 1:
        return _closed(0.0)
    return _a_n_reduced(dist_f, dist_g, n, cfg, np.multiply, "printed A_n integrand is not finite")


def _a_n_reduced(dist_f, dist_g, n: int, cfg: QuadratureConfig, survival_term, what: str) -> MeasureResult:
    """-n(n-1)/2 - n(n-1) int_0^1 [u log G + survival_term(1-u, Gbar)] du,
    G and Gbar taken at F^-1(u)."""

    def integrand(F, S):
        x = dist_f.quantile(F, S)
        with np.errstate(divide="ignore", invalid="ignore"):
            return closed_form.xlogy(F, dist_g.cdf(x)) + survival_term(S, dist_g.survival(x))

    r = integrate_unit(integrand, cfg, what)
    c = n * (n - 1)
    return _from_quad(-0.5 * c - c * r.value, c * r.error_estimate, r)


def result_record(
    measure: str,
    design: Design,
    dist: Distribution,
    result: MeasureResult,
    alpha: float | None = None,
) -> dict:
    """JSON-serializable record of a measure evaluation."""
    rec = {
        "measure": measure,
        "design": design.spec_string(),
        "dist": dist.spec_string(),
        "value": result.value,
        "error": result.error_estimate,
        "method": result.method,
    }
    if alpha is not None:
        rec["alpha"] = alpha
    return rec
