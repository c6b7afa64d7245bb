"""Shannon, Renyi and Kullback-Leibler measures for (distribution, design)
pairs.

A design is its ranking-error matrix (Dell & Clutter 1972): SRS is the
uniform matrix, perfect RSS the identity.  Every numeric path makes one
vector-valued integral whose components are the distinct rows of the matrix,
through the ``order_stats`` kernel, and weights each by its count; so
``diagnostics["subdivisions"]`` counts the shared panel splits once per
design, not once per row.

Every route, closed form or numeric, computes on the standard law
``dist.standard()`` (location 0, scale 1).  Location and scale enter only in
``MeasureResult.scaled``, which adds n log(scale) per cycle to a Shannon or
Renyi value, as H(aX + b) = H(X) + n log a; KL is invariant and gets nothing.

Dispatch order: a closed form is used when one exists for the (family,
design, measure) triple, otherwise the quadrature engine; ``force_numeric``
bypasses closed forms so the two paths can be compared.

Default numeric path for Shannon and KL is u-space (quantile substitution),
which keeps every integral on the fixed domain (0, 1) with singularities only
at the known endpoints.  Renyi integrals are done in x-space: for alpha < 1
the u-space weight f(F^-1(u))^(alpha-1) has an endpoint power singularity,
(1-u)^(alpha-1) for the exponential, that bisection cannot resolve.

All values are in nats and scale additively with the cycle count m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import special

from . import closed_form, ranking_error
from .distributions import Distribution, Exponential, Uniform
from .order_stats import judged_log_pdf, judged_log_weight
from .quadrature import (
    DEFAULT_CONFIG,
    NonFiniteIntegrandError,
    QuadratureConfig,
    QuadratureResult,
    entropy_integral,
    integrate,
    integrate_support,
)
from .ranking_error import RankingErrorMatrix


class DivergentIntegralError(ValueError):
    """The integral is not integrable (e.g. support mismatch) or not representable in floats."""


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
            raise ValueError(f"unknown design kind {self.kind!r}")
        if self.n < 1:
            raise ValueError("set size must be >= 1")
        if self.m < 1:
            raise ValueError("cycle count must be >= 1")
        if self.kind == IMPERFECT_RSS:
            if self.P is None:
                raise ValueError("imperfect RSS needs a ranking error matrix")
            if self.P.n != self.n:
                raise ValueError(
                    f"error matrix dimension {self.P.n} does not match n = {self.n}"
                )
        elif self.P is not None:
            raise ValueError(f"design kind {self.kind!r} takes no error matrix")

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
    return MeasureResult(value, 0.0, "closed-form")


def _from_quad(value: float, err: float, r: QuadratureResult) -> MeasureResult:
    return MeasureResult(
        value, err, "quadrature", {"converged": r.converged, "subdivisions": r.subdivisions_used}
    )


def _distinct_rows(*designs: Design):
    """The distinct rank rows of the designs' matrices, in rank order.

    Returns (ranks, stacks, counts): the first rank with each row, one
    (k, n) stack of rows per design, and how many ranks share each row.
    Ranks with equal rows in every matrix have equal components."""
    groups: dict[bytes, list] = {}
    for i, rows in enumerate(zip(*(d.matrix.entries for d in designs)), start=1):
        groups.setdefault(b"".join(row.tobytes() for row in rows), [i, rows, 0])[2] += 1
    ranks, rows, counts = zip(*groups.values())
    return list(ranks), [np.array(stack) for stack in zip(*rows)], np.array(counts, dtype=float)


def _weighted(values, errors, counts, r: QuadratureResult) -> MeasureResult:
    """Sum per-row component values and errors, each row times its count."""
    return _from_quad(float(counts @ values), float(counts @ errors), r)


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

    ``mode='u'`` (default) uses the quantile-substitution decomposition
    H(X_(i)) = H(U_(i)) - E[log f(F^-1(W_i))]; ``mode='x'`` integrates the
    component densities directly in x-space as a cross-check.
    """
    std = dist.standard()
    res = None if force_numeric else _shannon_closed_form(design, std)
    if res is None:
        res = (_shannon_x_space if mode == "x" else _shannon_u_space)(design, std, cfg)
    return res.scaled(design.m, design.n * math.log(dist.scale))


def _shannon_closed_form(design: Design, std: Distribution) -> MeasureResult | None:
    if design.kind == SRS:
        return _closed(design.n * std.entropy())
    if isinstance(std, Exponential) and design.n == 2:  # the standard law has rate 1
        if design.kind == PERFECT_RSS:
            return _closed(closed_form.exp_shannon("rss", 1.0))
        if design.kind == IMPERFECT_RSS:
            return _closed(closed_form.exp_shannon("irss", 1.0, design.P))
    return None


def _shannon_u_space(design: Design, dist: Distribution, cfg: QuadratureConfig) -> MeasureResult:
    _, (rows,), counts = _distinct_rows(design)
    log_weight = judged_log_weight(rows)
    log_fq = dist.log_pdf_at_quantile
    # a true order statistic's uniform entropy -int w log w is known exactly
    nonzero = [np.flatnonzero(row) for row in rows]
    exact = np.array([[r.size == 1] for r in nonzero])
    h = np.array([closed_form.h_uniform_order(design.n, r[0] + 1) if r.size == 1 else 0.0 for r in nonzero])

    def integrand(u):
        lw = log_weight(u, 1.0 - u)
        return -np.exp(lw) * (np.where(exact, 0.0, lw) + log_fq(u))

    r = integrate(integrand, 0.0, 1.0, cfg)
    return _weighted(h + r.value, r.error_estimate, counts, r)


def _shannon_x_space(design: Design, dist: Distribution, cfg: QuadratureConfig) -> MeasureResult:
    _, (rows,), counts = _distinct_rows(design)
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
    """Renyi information of order alpha (> 0, != 1) of the full sample."""
    if alpha <= 0:
        raise ValueError(f"alpha must be positive, got {alpha}")
    if alpha == 1.0:
        raise ValueError("alpha = 1 is the Shannon case; use shannon()")
    std = dist.standard()
    res = None if force_numeric else _renyi_closed_form(design, std, alpha)
    if res is None:
        res = _renyi_numeric(design, dist, alpha, cfg)
    return res.scaled(design.m, design.n * math.log(dist.scale))


def _renyi_closed_form(design: Design, std: Distribution, alpha: float) -> MeasureResult | None:
    # the standard exponential has rate 1
    if design.kind == SRS:
        if isinstance(std, Uniform):
            return _closed(0.0)
        if isinstance(std, Exponential):
            return _closed(design.n * (-math.log(alpha) / (1.0 - alpha)))
    if design.kind == PERFECT_RSS and isinstance(std, Exponential) and design.n == 2:
        return _closed(closed_form.exp_renyi("rss", 1.0, alpha))
    return None


def _renyi_numeric(design: Design, dist: Distribution, alpha: float, cfg: QuadratureConfig) -> MeasureResult:
    """The standard law's value; an error names x in ``dist``'s coordinates."""
    om = 1.0 - alpha
    _, (rows,), counts = _distinct_rows(design)
    log_pdf = judged_log_pdf(dist.standard(), rows)

    def integrand(x):
        lg = log_pdf(x)
        finite = np.isfinite(lg)
        return np.where(finite, np.exp(alpha * np.where(finite, lg, 0.0)), 0.0)

    try:
        with np.errstate(over="ignore"):  # an overflow is raised below
            r = integrate_support(integrand, dist.support, cfg)
    except NonFiniteIntegrandError as exc:
        raise DivergentIntegralError(
            f"renyi integrand exceeds the float range at x = {dist.loc + dist.scale * exc.x}; "
            "the integral may be divergent or out of range"
        ) from exc
    if np.any(r.value <= 0):
        raise DivergentIntegralError("renyi integral evaluated to a non-positive value")
    return _weighted(np.log(r.value) / om, r.error_estimate / (abs(om) * r.value), counts, r)


def renyi_gap_binomial(
    dist: Distribution,
    n: int,
    alpha: float,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> MeasureResult:
    """H_a(RSS) - H_a(SRS) for alpha > 1 via the normalized f^alpha weight.

    Independent of the component route: the gap equals
    a/(1-a) n log n + 1/(1-a) sum_i log E[P_{F(W)}(T = i-1)^alpha] with
    T | W = w ~ Binomial(n-1, F(w)) and W distributed as f^alpha / int f^alpha.
    """
    if alpha <= 1.0:
        raise ValueError(f"binomial-representation gap requires alpha > 1, got {alpha}")
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return _closed(0.0)
    om = 1.0 - alpha
    log_beta = judged_log_weight(np.eye(n))
    log_fq = dist.standard().log_pdf_at_quantile  # the gap is scale-free

    def integrand(u):
        # row 0: f(F^-1(u))^(alpha-1), the du-weight form of f^alpha dx; row i:
        # that times the Binomial(n-1, u) pmf at i-1, the Beta(i, n-i+1)
        # density over n, to the power alpha
        weight = np.exp((alpha - 1.0) * log_fq(u))
        log_pmf = log_beta(u, 1.0 - u) - math.log(n)
        return np.vstack([weight, np.exp(alpha * log_pmf) * weight])

    r = integrate(integrand, 0.0, 1.0, cfg)
    (z, *e), (z_err, *e_err) = r.value.tolist(), r.error_estimate.tolist()
    total = alpha / om * n * math.log(n) + sum(math.log(e_i / z) for e_i in e) / om
    err = sum(e_i_err / e_i + z_err / z for e_i, e_i_err in zip(e, e_err)) / abs(om)
    return _from_quad(total, err, r)


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

    The value is distribution-free; the default path computes it entirely in
    u-space (``dist`` is ignored there).  ``mode='x'`` runs the x-space
    verification integral on ``dist.standard()`` and requires ``dist``.
    """
    if design.kind == SRS:
        raise ValueError("design must be an RSS kind (perfect or imperfect)")
    if design.kind == PERFECT_RSS and not force_numeric and mode == "u":
        return _closed(closed_form.d_n(design.n)).scaled(design.m)

    if mode == "x":
        if dist is None:
            raise ValueError("x-space verification mode needs a distribution")
        res = _kl_srs_x_space(design, dist.standard(), cfg)
    else:
        res = _kl_srs_u_space(design, cfg)
    return res.scaled(design.m)


def _kl_srs_u_space(design: Design, cfg: QuadratureConfig) -> MeasureResult:
    _, (rows,), counts = _distinct_rows(design)
    log_weight = judged_log_weight(rows)
    r = integrate(lambda u: -log_weight(u, 1.0 - u), 0.0, 1.0, cfg)
    return _weighted(r.value, r.error_estimate, counts, r)


def _kl_srs_x_space(design: Design, dist: Distribution, cfg: QuadratureConfig) -> MeasureResult:
    _, (rows,), counts = _distinct_rows(design)
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
        raise ValueError("designs must share the set size n")
    if design_x.m != design_y.m:
        raise ValueError("designs must share the cycle count m")

    ranks, (rows_x, rows_y), counts = _distinct_rows(design_x, design_y)
    log_wx = judged_log_weight(rows_x)
    log_py = judged_log_pdf(dist_g, rows_y)

    def integrand(u):
        lx = log_wx(u, 1.0 - u)
        wx = np.exp(lx)
        with np.errstate(divide="ignore", invalid="ignore"):
            bracket = lx + dist_f.log_pdf_at_quantile(u) - log_py(dist_f.quantile(u))
            return np.where(wx > 0.0, wx * bracket, 0.0)

    try:
        r = integrate(integrand, 0.0, 1.0, cfg)
    except NonFiniteIntegrandError as exc:
        raise DivergentIntegralError(
            f"two-sample KL integrand is not integrable (component {ranks[exc.component]}, u = {exc.x})"
        ) from exc
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
    return MeasureResult(
        fwd.value + bwd.value,
        fwd.error_estimate + bwd.error_estimate,
        "quadrature",
        {
            "converged": fwd.diagnostics.get("converged", True)
            and bwd.diagnostics.get("converged", True),
            "subdivisions": fwd.diagnostics.get("subdivisions", 0)
            + bwd.diagnostics.get("subdivisions", 0),
        },
    )


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
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return _closed(0.0)
    if mode == "reduced":

        def integrand(u):
            x = dist_f.quantile(u)
            gv = dist_g.cdf(x)
            sv = dist_g.survival(x)
            with np.errstate(divide="ignore", invalid="ignore"):
                val = special.xlogy(u, gv) + special.xlogy(1.0 - u, sv)
            if not np.all(np.isfinite(val)):
                raise NonFiniteIntegrandError(float(u[~np.isfinite(val)][0]))
            return val

        try:
            r = integrate(integrand, 0.0, 1.0, cfg)
        except NonFiniteIntegrandError as exc:
            raise DivergentIntegralError(
                f"A_n integrand is not integrable at u = {exc.x}"
            ) from exc
        c = n * (n - 1)
        return _from_quad(-0.5 * c - c * r.value, c * r.error_estimate, r)

    if mode != "sum":
        raise ValueError(f"unknown mode {mode!r}")
    log_beta = judged_log_weight(np.eye(n))
    below = np.arange(n)[:, None]  # ranks below and above rank i = 1..n
    above = n - 1 - below

    def integrand(u):
        w = np.exp(log_beta(u, 1.0 - u))
        x = dist_f.quantile(u)
        with np.errstate(divide="ignore", invalid="ignore"):
            lower = np.where(below > 0, below * (np.log(u) - np.log(dist_g.cdf(x))), 0.0)
            upper = np.where(above > 0, above * (np.log(1.0 - u) - np.log(dist_g.survival(x))), 0.0)
            return np.where(w > 0.0, w * (lower + upper), 0.0)

    try:
        r = integrate(integrand, 0.0, 1.0, cfg)
    except NonFiniteIntegrandError as exc:
        raise DivergentIntegralError(f"A_n integrand is not integrable at u = {exc.x}") from exc
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
    if n < 2:
        return _closed(0.0)

    def integrand(u):
        x = dist_f.quantile(u)
        gv = dist_g.cdf(x)
        sv = dist_g.survival(x)
        with np.errstate(divide="ignore", invalid="ignore"):
            return special.xlogy(u, gv) + (1.0 - u) * sv

    r = integrate(integrand, 0.0, 1.0, cfg)
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
