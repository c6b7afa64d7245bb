"""Shannon, Renyi and Kullback-Leibler measures for (distribution, design)
pairs.

A design is its ranking-error matrix (Dell & Clutter 1972): SRS is the
uniform matrix, perfect RSS the identity.  Every u-space measure hands one
route, ``_route``, its designs' matrices and its own pieces: a closed form
keyed on the matrix's ``name``, never on the design's kind, or None for the
integral (``force_numeric``, to compare the paths); an integrand of the
distinct rows; and a ``finish``.  Each matrix takes its closed form where it
has one; the rest share one ``integrate_unit`` call, and so
``subdivisions_used``, each row weighted by its count.

Shannon is n H(f) - D(P), with D(P) = K(design || SRS) an integral of the
judged weights alone: closed for the uniform matrix, the identity and every
2 x 2, so no Shannon integrand reads the parent.  KL K(SRS || design) is
closed for the same three classes.  Renyi is closed for the uniform matrix,
n H_a(f), wherever int f^alpha is finite, and for the identity on a uniform
or exponential parent, a sum of Beta integrals at every real alpha.
``kl_two_sample`` has no closed form, and its paired rows are no ranking-error
matrix, so it integrates their distinct pairs itself.  The derived measures
keep no integrand of their own: ``a_n(mode="sum")`` is K(RSS_F || RSS_G) less
K(SRS_F || SRS_G), two ``kl_two_sample`` calls, and ``kld_symmetric`` the sum
of two.  The ``mode="x"`` verification routes integrate over x instead:
Shannon is ``entropy_integral`` of the judged densities, KL its own
integrand of the judged log weights.

The one-law measures compute on the standard law ``dist.standard()``
(location 0, scale 1).  Location and scale enter only in
``QuadratureResult.scaled``, which adds n log(scale) per cycle to a Shannon or
Renyi value, as H(aX + b) = H(X) + n log a; KL is invariant and gets nothing.
All values are in nats and scale additively with the cycle count m.

The distinct rows of a set of matrices read neither the parent law nor alpha,
so ``_distinct_rows`` is memoized on the matrices' values by
``ranking_error.memo``, which hands out the rows and their counts read-only.
So are the alpha-free halves of the u-space integrands, ``_log_weights``, the
judged log weights of a row set, and ``_log_pdf_at_quantile``, the parent's
log f(F^-1(u)) keyed on the law, which compares by family and fields.  Each
is evaluated once per panel set of the fold, keyed on the values of the
engine's F and S, so a Renyi cell computes only exp(alpha lw - (1 - alpha) lf)
on them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from . import closed_form, ranking_error
from .distributions import Distribution, Exponential, Uniform
from .errors import DivergentIntegralError, InputError, check_alpha, check_count, check_dimension, check_shared
from .order_stats import judged_log_pdf, judged_log_weight
from .quadrature import DEFAULT_CONFIG, QuadratureConfig, QuadratureResult, entropy_integral, integrate_support, integrate_unit
from .ranking_error import RankingErrorMatrix


SRS = "srs"
PERFECT_RSS = "rss"
IMPERFECT_RSS = "irss"

_KINDS = (SRS, PERFECT_RSS, IMPERFECT_RSS)


@dataclass(frozen=True)
class Design:
    """Sampling design: SRS(n), perfect RSS(n), or imperfect RSS(n, P).

    ``m`` is the cycle count; measures scale additively in m.  ``matrix`` is
    the ranking-error matrix, set once: uniform for SRS, identity for perfect
    RSS, P for imperfect RSS.  Designs compare and hash by kind, n, P and m.
    """

    kind: str
    n: int
    P: RankingErrorMatrix | None = None
    m: int = 1
    matrix: RankingErrorMatrix = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise InputError(f"unknown design kind {self.kind!r}")
        check_count("set size", self.n, 1)
        check_count("cycle count", self.m, 1)
        if self.kind == IMPERFECT_RSS:
            if self.P is None:
                raise InputError("imperfect RSS needs a ranking error matrix")
            check_dimension(self.P.n, self.n)
        elif self.P is not None:
            raise InputError(f"design kind {self.kind!r} takes no error matrix")
        build = ranking_error.uniform if self.kind == SRS else ranking_error.identity
        object.__setattr__(self, "matrix", self.P if self.kind == IMPERFECT_RSS else build(self.n))

    def spec_string(self) -> str:
        base = f"{self.kind}:{self.n}"
        return base if self.m == 1 else f"{base} (m={self.m})"


MeasureResult = QuadratureResult  # the measures' one result type is the engine's


def _closed(value: float) -> QuadratureResult:
    return QuadratureResult(value, 0.0, 0, True, "closed-form")


def _joined(a: QuadratureResult, b: QuadratureResult, sign: float) -> QuadratureResult:
    """a + sign * b of two quadrature results: errors and subdivisions add,
    and it converged only if both did."""
    return QuadratureResult(
        a.value + sign * b.value, a.error_estimate + b.error_estimate,
        a.subdivisions_used + b.subdivisions_used, a.converged and b.converged,
    )


def _check_mode(mode: str, modes: tuple[str, ...]) -> None:
    if mode not in modes:
        raise InputError(f"unknown mode {mode!r}; expected one of {', '.join(modes)}")


@ranking_error.memo()
def _distinct_rows(*matrices):
    """The distinct rows of the matrices' entries, first seen first, and a
    (matrices, rows) array of how many times each matrix holds each row.
    Ranks with equal rows have equal components."""
    index: dict[bytes, int] = {}
    ids = [[index.setdefault(row.tobytes(), len(index)) for row in P] for P in matrices]
    rows = np.array([np.frombuffer(row) for row in index])
    counts = np.array([np.bincount(i, minlength=len(index)) for i in ids], dtype=float)
    return rows, counts


def _weighted(values, errors, counts, r: QuadratureResult) -> QuadratureResult:
    """Sum per-row component values and errors, each row times its count."""
    return QuadratureResult(float(counts @ values), float(counts @ errors), r.subdivisions_used, r.converged)


def _route(matrices, closed, integrand, cfg, what, *, at=None, finish=None) -> list[QuadratureResult]:
    """Each ranking-error matrix's one-cycle value: ``closed(P)``, unless
    ``closed`` is None; the matrices it leaves None share one
    ``integrate_unit`` of ``integrand(rows)`` over their distinct rows, whose
    (value, error) arrays ``finish`` maps before each row is weighted by its
    count in each matrix."""
    results = [None if closed is None else closed(P) for P in matrices]
    numeric = [P.entries for P, res in zip(matrices, results) if res is None]
    if numeric:
        rows, counts = _distinct_rows(*numeric)
        r = integrate_unit(integrand(rows), cfg, what, at)
        values, errors = (r.value, r.error_estimate) if finish is None else finish(r.value, r.error_estimate)
        legs = (_weighted(values, errors, c, r) for c in counts)
        results = [next(legs) if res is None else res for res in results]
    return results


def _of_log_weight(g, rows):
    """(F, S) -> g(log w_i(F, S), F, S) on ``rows``: ``partial(_of_log_weight, g)``
    is the ``_route`` integrand of a term in the judged log weight.  Rows above
    MEMO_BYTES, which no memo keeps, are analysed once here for all its calls."""
    if rows.nbytes > ranking_error.MEMO_BYTES:
        log_weight = judged_log_weight(rows)
        return lambda F, S: g(log_weight(F, S), F, S)
    return lambda F, S: g(_log_weights(rows, F, S), F, S)


# the halves of a u-space integrand that read no alpha, shared by every integral on the
# same panels; a weights entry is bounded by its value, a parent's by its F and S
@ranking_error.memo(lambda rows, F, S: rows.nbytes // rows.shape[-1] * F.size)
def _log_weights(rows, F, S):
    """The judged log weights of ``rows`` at (F, S)."""
    return judged_log_weight(rows)(F, S)


@ranking_error.memo()
def _log_pdf_at_quantile(law: Distribution, F, S):
    """``law.log_pdf_at_quantile(F, S)``."""
    return law.log_pdf_at_quantile(F, S)


# ---------------------------------------------------------------------------
# Shannon entropy
# ---------------------------------------------------------------------------


def shannon(
    design: Design,
    dist: Distribution,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
    force_numeric: bool = False,
    mode: str = "u",
) -> QuadratureResult:
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
        rows, (counts,) = _distinct_rows(design.matrix.entries)
        log_pdf = judged_log_pdf(std, rows)
        r = entropy_integral(lambda x: np.exp(log_pdf(x)), std.support, cfg)
        res = _weighted(r.value, r.error_estimate, counts, r)
    else:
        integrand, what = partial(_of_log_weight, lambda lw, F, S: np.exp(lw) * lw), "shannon integrand is not finite"
        (d,) = _route([design.matrix], None if force_numeric else _shannon_closed_form, integrand, cfg, what)
        res = replace(d, value=design.n * std.entropy() - d.value)
    return res.scaled(design.m, design.n * math.log(dist.scale))


def _divergence_closed_form(identity, two_by_two):
    """The closed form of a divergence between a design and SRS, per matrix:
    0 for the uniform matrix, identity(n) for the identity and
    two_by_two(p11, p22) for every 2x2; None for any other matrix."""

    def closed(P: RankingErrorMatrix) -> QuadratureResult | None:
        if P.name == "uniform":
            return _closed(0.0)
        if P.name == "identity":
            return _closed(identity(P.n))
        return _closed(two_by_two(P.entries[0, 0], P.entries[1, 1])) if P.n == 2 else None

    return closed


# Shannon's D(P) = K(design || SRS), and K(SRS || design)
_shannon_closed_form = _divergence_closed_form(
    lambda n: -closed_form.k_direct(n), lambda a, b: 2.0 * math.log(2.0) - closed_form.eta(a) - closed_form.eta(b)
)
_kl_closed_form = _divergence_closed_form(
    lambda n: closed_form.d_n(n), lambda a, b: closed_form.kl_row_2x2(a) + closed_form.kl_row_2x2(b)
)


# ---------------------------------------------------------------------------
# Renyi information
# ---------------------------------------------------------------------------


def renyi(
    design: Design,
    dist: Distribution,
    alpha: float,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
    force_numeric: bool = False,
) -> QuadratureResult:
    """Renyi information of order alpha (finite, > 0, != 1) of the full sample."""
    return renyi_designs([design], dist, alpha, cfg, force_numeric)[0]


def renyi_designs(
    designs: list[Design],
    dist: Distribution,
    alpha: float,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
    force_numeric: bool = False,
) -> list[QuadratureResult]:
    """``renyi`` of each design, all of one set size n: those without a closed
    form share one integral over the distinct rows of their matrices."""
    check_alpha(alpha)
    check_shared(designs, cycles=False)
    std, om = dist.standard(), 1.0 - alpha
    # f_i^alpha dx = w_i^alpha f(F^-1(u))^(alpha-1) du
    integrand = partial(_of_log_weight, lambda lw, F, S: np.exp(alpha * lw - om * _log_pdf_at_quantile(std, F, S)))

    def finish(value, error):
        if np.any(value <= 0):
            raise DivergentIntegralError("renyi integral evaluated to a non-positive value")
        return np.log(value) / om, error / (abs(om) * value)

    # the standard law's values; an error names x in ``dist``'s coordinates
    results = _route(
        [d.matrix for d in designs], None if force_numeric else lambda P: _renyi_closed_form(P, std, alpha),
        integrand, cfg, "renyi integrand exceeds the float range", at=dist.quantile, finish=finish,
    )
    return [res.scaled(d.m, d.n * math.log(dist.scale)) for d, res in zip(designs, results)]


def _renyi_closed_form(P: RankingErrorMatrix, std: Distribution, alpha: float) -> QuadratureResult | None:
    """n H_a(f) for the uniform matrix where int f^alpha is finite, and the
    Beta sum of ``closed_form.rss_renyi`` for the identity on a uniform or
    exponential parent; None otherwise."""
    if P.name == "uniform":
        h = std.renyi_entropy(alpha)
        return None if h is None else _closed(P.n * h)
    if P.name == "identity" and isinstance(std, (Uniform, Exponential)):
        # the standard exponential's f(F^-1(u))^(alpha-1) is (1-u)^(alpha-1)
        return _closed(closed_form.rss_renyi(P.n, alpha, alpha if isinstance(std, Exponential) else 1.0))
    return None


def renyi_gap_binomial(
    dist: Distribution,
    n: int,
    alpha: float,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> QuadratureResult:
    """H_a(RSS) - H_a(SRS) for alpha > 1 in the binomial representation
    1/(1-a) sum_i log E[b_i(F(W))^alpha], with b_i the Beta(i, n-i+1) density
    (n times the Binomial(n-1, F(W)) pmf at i-1) and W distributed as
    f^alpha / int f^alpha.  Its integrals are the identity and uniform rows
    of ``renyi``'s, so this is the same route, not a second one; Monte Carlo
    is Renyi's independent check."""
    check_alpha(alpha, 1)
    check_count("n", n, 1)
    if n == 1:
        return _closed(0.0)
    # the gap is scale-free
    rss, srs = renyi_designs([Design(PERFECT_RSS, n), Design(SRS, n)], dist.standard(), alpha, cfg, True)
    return replace(rss, value=rss.value - srs.value, error_estimate=rss.error_estimate + srs.error_estimate)


# ---------------------------------------------------------------------------
# Kullback-Leibler
# ---------------------------------------------------------------------------


def kl_srs_vs_design(
    design: Design,
    dist: Distribution | None = None,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
    force_numeric: bool = False,
    mode: str = "u",
) -> QuadratureResult:
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
        std = dist.standard()
        rows, (counts,) = _distinct_rows(design.matrix.entries)
        log_weight = judged_log_weight(rows)

        def integrand(x):
            f = std.pdf(x)  # below ~1e-300 it kills any log factor; avoid 0 * inf
            return np.where(f > 1e-300, -f * log_weight(std.cdf(x), std.survival(x)), 0.0)

        r = integrate_support(integrand, std.support, cfg)
        res = _weighted(r.value, r.error_estimate, counts, r)
    else:
        integrand, what = partial(_of_log_weight, lambda lw, F, S: -lw), "KL integrand is not finite"
        (res,) = _route([design.matrix], None if force_numeric else _kl_closed_form, integrand, cfg, what)
    return res.scaled(design.m)


def kl_two_sample(
    design_x: Design,
    dist_f: Distribution,
    design_y: Design,
    dist_g: Distribution,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> QuadratureResult:
    """K between the joint laws of two same-size samples.

    Componentwise: sum_i int px_i log(px_i / py_i), computed in the u-space
    of the X-side law.  Raises DivergentIntegralError on support mismatch.
    """
    check_shared((design_x, design_y))
    # each distinct pair of rows, the X side's then the Y side's, is one component
    rows, (counts,) = _distinct_rows(np.hstack([design_x.matrix.entries, design_y.matrix.entries]))
    rows_x, rows_y = np.hsplit(rows, [design_x.n])
    log_py = judged_log_pdf(dist_g, rows_y)

    def term(lx, F, S):
        wx = np.exp(lx)
        bracket = lx + _log_pdf_at_quantile(dist_f, F, S) - log_py(dist_f.quantile(F, S))
        return np.where(wx > 0.0, wx * bracket, 0.0)

    r = integrate_unit(_of_log_weight(term, rows_x), cfg, "two-sample KL integrand is not integrable")
    return _weighted(r.value, r.error_estimate, counts, r).scaled(design_x.m)


def kld_symmetric(
    design_x: Design,
    dist_f: Distribution,
    design_y: Design,
    dist_g: Distribution,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> QuadratureResult:
    """Symmetrized divergence K(X, Y) + K(Y, X)."""
    fwd = kl_two_sample(design_x, dist_f, design_y, dist_g, cfg)
    return _joined(fwd, kl_two_sample(design_y, dist_g, design_x, dist_f, cfg), 1.0)


def a_n(
    dist_f: Distribution,
    dist_g: Distribution,
    n: int,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
    mode: str = "reduced",
) -> QuadratureResult:
    """Correction term with K(RSS_F, RSS_G) = n K(f, g) + A_n(F, G).

    ``mode='reduced'`` (default) evaluates
    -n(n-1)/2 - n(n-1) int_0^1 [u log G(F^-1(u)) + (1-u) log Gbar(F^-1(u))] du;
    ``mode='sum'`` evaluates the definition, K(RSS_F, RSS_G) - K(SRS_F, SRS_G),
    by two ``kl_two_sample`` calls as a verification route.  Both vanish at
    F = G and at n = 1.
    """
    _check_mode(mode, ("reduced", "sum"))
    check_count("n", n, 1)
    if n == 1:
        return _closed(0.0)
    if mode == "reduced":
        def integrand(F, S):
            x = dist_f.quantile(F, S)
            return closed_form.xlogy(F, dist_g.cdf(x)) + closed_form.xlogy(S, dist_g.survival(x))

        r = integrate_unit(integrand, cfg, "A_n integrand is not integrable")
        c = n * (n - 1)
        return QuadratureResult(-0.5 * c - c * r.value, c * r.error_estimate, r.subdivisions_used, r.converged)
    rss, srs = (kl_two_sample(Design(kind, n), dist_f, Design(kind, n), dist_g, cfg) for kind in (PERFECT_RSS, SRS))
    return _joined(rss, srs, -1.0)


def result_record(
    measure: str,
    design: str,
    dist: str,
    result: QuadratureResult,
    alpha: float | None = None,
) -> dict:
    """JSON-serializable record of a measure evaluation of ``design`` on
    ``dist``, each the spec as given, so the record names the law computed."""
    rec = {
        "measure": measure,
        "design": design,
        "dist": dist,
        "value": result.value,
        "error": result.error_estimate,
        "method": result.method,
        "converged": result.converged,
    }
    if alpha is not None:
        rec["alpha"] = alpha
    return rec
