"""Shannon, Renyi and Kullback-Leibler measures for (distribution, design)
pairs.

A design is its ranking-error matrix (Dell & Clutter 1972), and every
measure takes the matrix: SRS is the uniform matrix, perfect RSS the
identity, and ``Design`` spells them ``srs:n`` and ``rss:n``.  Every u-space
measure hands one route, ``_route``, its matrices, a closed form keyed on
the matrix's ``name`` or None for the integral (``force_numeric``, to
compare the paths), its term g(log w, F, S) in the judged log weight and a
``finish``: Renyi's, ``_renyi_finish``, also finishes ``renyi_gap_binomial``.
The matrices without a closed form share one integral, and so
``subdivisions_used``, over their distinct rows, each weighted by its count:
``_of_term``, which analyses the rows once per integral.

Shannon is n H(f) - D(P), with D(P) = K(design || SRS) an integral of the
judged weights alone: closed for the uniform matrix, the identity and every
2 x 2, so no Shannon integrand reads the parent.  KL K(SRS || design) is
closed for the same three classes.  Renyi is closed for the uniform matrix,
n H_a(f), wherever int f^alpha is finite, and for the identity on a uniform
or exponential parent, a sum of Beta integrals at every real alpha.
``kl_two_sample`` has no closed form, and its paired rows are no ranking-error
matrix, so it hands ``_of_term`` their X sides itself.  The derived measures
keep no integrand of their own: ``kld_symmetric`` is the sum of two
``kl_two_sample`` calls, and ``a_n`` keeps only its reduced form, whose
definition, K(RSS_F || RSS_G) less K(SRS_F || SRS_G), is two more.  Two second
routes integrate over x instead: ``shannon_x`` is ``entropy_integral`` of the
judged densities, ``kl_srs_vs_design_x`` its own integrand of the judged log
weights, -f log w, read as 0 where log w is -inf: for a doubly stochastic
matrix only where F or S rounded to 0, a log singularity one ulp wide.
Neither takes a closed form.

The one-law measures compute on the standard law ``dist.standard()``
(location 0, scale 1).  Location and scale enter only in
``QuadratureResult.scaled``, which adds n log(scale) to a Shannon or Renyi
value, as H(aX + b) = H(X) + n log a; KL is invariant and gets nothing.  All
values are in nats, for one set of n units; k sets hold k times as much.

The distinct rows of a set of matrices read neither the parent law nor alpha,
so ``_distinct_rows`` is memoized on the matrices' values by
``ranking_error.memo``, which hands out the rows and their counts read-only.
So are the alpha-free halves of the u-space integrands, ``_log_weights``, a
row set's judged log weights keyed on its kernel beside it, and
``_log_pdf_at_quantile``, the parent's log f(F^-1(u)) keyed on the law (by
family and fields), each once per panel set, keyed on the values of the fold's
F and S: a Renyi cell computes only exp(alpha lw - (1 - alpha) lf) on them.
Only the memo knows its byte bound; no entry keeps a large kernel alive.
"""

from __future__ import annotations

import math
from dataclasses import replace

import numpy as np

from . import closed_form, ranking_error
from .distributions import Distribution, Exponential, Uniform
from .errors import DivergentIntegralError, InputError, check_alpha, check_count, check_dimension, check_shared
from .order_stats import judged_log_pdf, judged_log_weight
from .quadrature import DEFAULT_CONFIG, QuadratureConfig, QuadratureResult, entropy_integral, integrate_support, integrate_unit
from .ranking_error import RankingErrorMatrix


def Design(kind: str, n: int, P: RankingErrorMatrix | None = None) -> RankingErrorMatrix:
    """The ranking-error matrix a design spells, which is the design: "srs" the
    uniform matrix, "rss" the identity and "irss" P, which it alone takes and
    needs, of size n.  So ``Design("rss", n)`` is ``ranking_error.identity(n)``."""
    if kind not in ("srs", "rss", "irss"):
        raise InputError(f"unknown design kind {kind!r}")
    check_count("set size", n, 1)
    if (P is None) == (kind == "irss"):
        raise InputError("imperfect RSS needs a ranking error matrix" if P is None else f"design kind {kind!r} takes no error matrix")
    if P is None:
        return (ranking_error.uniform if kind == "srs" else ranking_error.identity)(n)
    check_dimension(P.n, n)
    return P


def _closed(value: float | None) -> QuadratureResult | None:
    """A closed form's value as a result, its error a stated rounding bound,
    1e-13 max(1, |value|), above the 3.1e-14 relative error 40-digit checks
    observe; or None where the closed form declines."""
    return None if value is None else QuadratureResult(value, 1e-13 * max(1.0, abs(value)), 0, True, "closed-form")


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


def _route(matrices, closed, term, cfg, what, *, at=None, finish=None) -> list[QuadratureResult]:
    """Each ranking-error matrix's value: ``closed(P)``, unless ``closed`` is
    None; those it leaves None share one ``_of_term`` integral over their distinct rows,
    whose (value, error) arrays ``finish`` maps before each row is weighted by its count."""
    results = [None if closed is None else closed(P) for P in matrices]
    numeric = [P.entries for P, res in zip(matrices, results) if res is None]
    if numeric:
        rows, counts = _distinct_rows(*numeric)
        r = _of_term(term, rows, cfg, what, at)
        values, errors = (r.value, r.error_estimate) if finish is None else finish(r.value, r.error_estimate)
        legs = (_weighted(values, errors, c, r) for c in counts)
        results = [next(legs) if res is None else res for res in results]
    return results


def _of_term(term, rows, cfg, what, at=None) -> QuadratureResult:
    """``integrate_unit`` of term(log w_i(F, S), F, S) over ``rows``, analysed once for the integral."""
    log_weight = judged_log_weight(rows)
    return integrate_unit(lambda F, S: term(_log_weights(log_weight, rows, F, S), F, S), cfg, what, at)


# alpha-free halves shared by every integral on the same panels: a weights entry is bounded by its rows or value
@ranking_error.memo(lambda log_weight, rows, F, S: max(rows.nbytes, rows.nbytes // rows.shape[-1] * F.size))
def _log_weights(log_weight, rows, F, S):
    """``log_weight(F, S)``, ``rows``' kernel: one rebuilt after an eviction is a new key."""
    return log_weight(F, S)


@ranking_error.memo()  # bounded by its F and S
def _log_pdf_at_quantile(law: Distribution, F, S):
    """``law.log_pdf_at_quantile(F, S)``."""
    return law.log_pdf_at_quantile(F, S)


# ---------------------------------------------------------------------------
# Shannon entropy
# ---------------------------------------------------------------------------


def shannon(
    design: RankingErrorMatrix,
    dist: Distribution,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
    force_numeric: bool = False,
) -> QuadratureResult:
    """Shannon entropy of the full sample under the given design: n H(f) - D(P).

    The columns of a doubly stochastic P sum to 1, so the judged weights w_i
    sum to n at every u and sum_i int w_i log f(F^-1(u)) du = -n H(f); what is
    left, D(P) = sum_i int_0^1 w_i log w_i du = K(design || SRS) >= 0, reads
    the matrix alone; its error, with one ulp each of n H(f) and of the
    difference, is the value's.
    """
    std = dist.standard()
    term, what = lambda lw, F, S: np.exp(lw) * lw, "shannon integrand is not finite"
    (d,) = _route([design], None if force_numeric else _shannon_closed_form, term, cfg, what)
    h = design.n * std.entropy()
    value = h - d.value
    res = replace(d, value=value, error_estimate=d.error_estimate + math.ulp(h) + math.ulp(value))
    return res.scaled(design.n * math.log(dist.scale))


def shannon_x(
    design: RankingErrorMatrix,
    dist: Distribution,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> QuadratureResult:
    """``shannon`` by a second route, never a closed form: the component
    densities' entropies integrated directly in x-space."""
    std = dist.standard()
    rows, (counts,) = _distinct_rows(design.entries)
    log_pdf = judged_log_pdf(std, rows)
    r = entropy_integral(lambda x: np.exp(log_pdf(x)), std.support, cfg)
    return _weighted(r.value, r.error_estimate, counts, r).scaled(design.n * math.log(dist.scale))


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
    design: RankingErrorMatrix,
    dist: Distribution,
    alpha: float,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
    force_numeric: bool = False,
) -> QuadratureResult:
    """Renyi information of order alpha (finite, > 0, != 1) of the full sample."""
    return renyi_designs([design], dist, alpha, cfg, force_numeric)[0]


def renyi_designs(
    designs: list[RankingErrorMatrix],
    dist: Distribution,
    alpha: float,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
    force_numeric: bool = False,
) -> list[QuadratureResult]:
    """``renyi`` of each design, all of one set size n: those without a closed
    form share one integral over the distinct rows of their matrices."""
    check_alpha(alpha)
    check_shared(designs)
    std, om = dist.standard(), 1.0 - alpha
    # f_i^alpha dx = w_i^alpha f(F^-1(u))^(alpha-1) du of the standard law; an error names x in ``dist``'s coordinates
    results = _route(
        designs, None if force_numeric else lambda P: _renyi_closed_form(P, std, alpha),
        lambda lw, F, S: np.exp(alpha * lw - om * _log_pdf_at_quantile(std, F, S)),
        cfg, "renyi integrand exceeds the float range", at=dist.quantile, finish=lambda v, e: _renyi_finish(v, e, alpha),
    )
    return [res.scaled(d.n * math.log(dist.scale)) for d, res in zip(designs, results)]


def _renyi_finish(value, error, alpha: float):
    """Per row, log I / (1 - alpha) of I = int f_i^alpha, and its error err / (|1 - alpha| I); I <= 0 raises."""
    if not np.all(value > 0):
        raise DivergentIntegralError("renyi integral evaluated to a non-positive value")
    return np.log(value) / (1.0 - alpha), error / (abs(1.0 - alpha) * value)


def _renyi_closed_form(P: RankingErrorMatrix, std: Distribution, alpha: float) -> QuadratureResult | None:
    """n H_a(f) for the uniform matrix where int f^alpha is finite, and the
    Beta sum of ``closed_form.rss_renyi`` for the identity on a uniform or
    exponential parent; None otherwise, and where either declines (its float
    evaluation overflows at an extreme alpha): the integral then decides."""
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
    1/(1-a) sum_i log E[b_i(F(W))^alpha], b_i the Beta(i, n-i+1) density and W
    distributed as f^alpha / int f^alpha: sum_i h_i - n h, each h ``renyi``'s finish of
    I_i = int f_i^alpha dx on the n identity rows or I = int f^alpha dx on a uniform row, one x-space integral."""
    check_alpha(alpha, 1)
    check_count("n", n, 1)
    if n == 1:
        return _closed(0.0)
    std = dist.standard()  # the gap is scale-free; a uniform row's judged weight is exactly 1
    log_pdf = judged_log_pdf(std, np.vstack([ranking_error.identity(n).entries, ranking_error.uniform(n).entries[:1]]))
    r = integrate_support(lambda x: np.exp(alpha * log_pdf(x)), std.support, cfg)
    h, e = _renyi_finish(r.value, r.error_estimate, alpha)
    return replace(r, value=float(h[:n].sum() - n * h[n]), error_estimate=float(e[:n].sum() + n * e[n]))


# ---------------------------------------------------------------------------
# Kullback-Leibler
# ---------------------------------------------------------------------------


def kl_srs_vs_design(
    design: RankingErrorMatrix,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
    force_numeric: bool = False,
) -> QuadratureResult:
    """K(SRS, design) for a design of the same size and law: 0 for SRS itself.

    The value is distribution-free, so no law is taken: closed for the
    uniform matrix, the identity and every 2x2, and otherwise computed
    entirely in u-space.
    """
    term, what = lambda lw, F, S: -lw, "KL integrand is not finite"
    (res,) = _route([design], None if force_numeric else _kl_closed_form, term, cfg, what)
    return res


def kl_srs_vs_design_x(
    design: RankingErrorMatrix,
    dist: Distribution,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> QuadratureResult:
    """``kl_srs_vs_design`` by a second route, never a closed form: an
    x-space integral of the judged log weights on ``dist.standard()``."""
    std = dist.standard()
    rows, (counts,) = _distinct_rows(design.entries)
    log_weight = judged_log_weight(rows)

    def integrand(x):
        lw = log_weight(std.cdf(x), std.survival(x))  # -inf only where F or S rounded to 0: a one-ulp log singularity
        return np.where(np.isneginf(lw), 0.0, -std.pdf(x) * lw)

    r = integrate_support(integrand, std.support, cfg)
    return _weighted(r.value, r.error_estimate, counts, r)


def _relative_to(dist_f: Distribution, dist_g: Distribution) -> tuple[Distribution, Distribution]:
    """(F.standard(), G'), with G' the law G moved by F's inverse affine map: location
    (G.loc - F.loc) / F.scale and scale G.scale / F.scale.  K and A_n are invariant
    under a common affine map, so the pair is read where X's law is standard, at
    every magnitude.  A G' that needs a location or scale its family lacks has
    another support than F's, and raises."""
    g = dist_g.moved((dist_g.loc - dist_f.loc) / dist_f.scale, dist_g.scale / dist_f.scale)
    if g is None:
        raise DivergentIntegralError(f"{dist_f} and {dist_g} have different supports")
    return dist_f.standard(), g


def kl_two_sample(
    design_x: RankingErrorMatrix,
    dist_f: Distribution,
    design_y: RankingErrorMatrix,
    dist_g: Distribution,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> QuadratureResult:
    """K between the joint laws of two same-size samples.

    Componentwise: sum_i int px_i log(px_i / py_i), computed in the u-space
    of the X-side law; on one law both sides' judged weights read the same
    (F, S), with no round trip through x, and two laws are read relative to
    X's (``_relative_to``).  Raises DivergentIntegralError on support mismatch.
    """
    check_shared((design_x, design_y))
    # each distinct pair of rows, the X side's then the Y side's, is one component
    rows, (counts,) = _distinct_rows(np.hstack([design_x.entries, design_y.entries]))
    rows_x, rows_y = np.hsplit(rows, [design_x.n])
    if dist_f == dist_g:  # one law: its density cancels, and both kernels read the one (F, S)
        log_wy = judged_log_weight(rows_y)
        bracket = lambda lx, F, S: lx - _log_weights(log_wy, rows_y, F, S)
    else:
        std, g = _relative_to(dist_f, dist_g)
        log_py = judged_log_pdf(g, rows_y)
        bracket = lambda lx, F, S: lx + _log_pdf_at_quantile(std, F, S) - log_py(std.quantile(F, S))

    def term(lx, F, S):
        wx = np.exp(lx)
        return np.where(wx > 0.0, wx * bracket(lx, F, S), 0.0)

    r = _of_term(term, rows_x, cfg, "two-sample KL integrand is not integrable")
    return _weighted(r.value, r.error_estimate, counts, r)


def kld_symmetric(
    design_x: RankingErrorMatrix,
    dist_f: Distribution,
    design_y: RankingErrorMatrix,
    dist_g: Distribution,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> QuadratureResult:
    """Symmetrized divergence K(X, Y) + K(Y, X): errors and subdivisions add,
    and it converged only if both did."""
    a = kl_two_sample(design_x, dist_f, design_y, dist_g, cfg)
    b = kl_two_sample(design_y, dist_g, design_x, dist_f, cfg)
    return QuadratureResult(
        a.value + b.value, a.error_estimate + b.error_estimate,
        a.subdivisions_used + b.subdivisions_used, a.converged and b.converged,
    )


def a_n(
    dist_f: Distribution,
    dist_g: Distribution,
    n: int,
    cfg: QuadratureConfig = DEFAULT_CONFIG,
) -> QuadratureResult:
    """Correction term with K(RSS_F, RSS_G) = n K(f, g) + A_n(F, G), in its
    reduced form -n(n-1)/2 - n(n-1) int_0^1 [u log G(F^-1(u)) + (1-u) log Gbar(F^-1(u))] du;
    it vanishes at F = G and at n = 1, and reads the pair relative to F (``_relative_to``).
    """
    check_count("n", n, 1)
    if n == 1:
        return _closed(0.0)
    std, g = _relative_to(dist_f, dist_g)

    def integrand(F, S):
        x = std.quantile(F, S)
        return closed_form.xlogy(F, g.cdf(x)) + closed_form.xlogy(S, g.survival(x))

    r = integrate_unit(integrand, cfg, "A_n integrand is not integrable")
    c = n * (n - 1)
    return QuadratureResult(-0.5 * c - c * r.value, c * r.error_estimate, r.subdivisions_used, r.converged)


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
