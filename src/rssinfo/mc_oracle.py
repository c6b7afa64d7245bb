"""Independent Monte Carlo verification layer.

Simulates SRS / RSS / imperfect-RSS draws and estimates every measure
without touching the quadrature engine.  A design is read only through its
ranking-error matrix (SRS is the uniform matrix, perfect RSS the identity):
the sampler takes its uniform level from the judged rank's row, and the
plug-in estimators score each level where it is drawn: the ``order_stats``
kernel read at the level u and 1 - u themselves, plus the parent's log density
at the draw x = Q(u), so no cdf or survival is taken of x.  The Vasicek
spacing estimator is the formula-free cross-check that shares no density code
with the rest of the package.

Estimates are deterministic given the seed: each sample component gets its
own stream spawned from a single SeedSequence, and ``sample_judged``'s recipe
fixes what is drawn from it: a mixed row's true ranks as ``rng.choice`` draws
them, then rows of n uniforms, ordered as ``np.sort`` orders them.  The levels
are drawn and scored _BLOCK rows at a time.  A block selects only the order
statistics its row reads, by min, max and a bitwise select, which return
their inputs, so each level is bitwise the recipe's.  A component keeps one
m-long array: the values its estimator averages.  Standard errors are batch
means over at least 20 batches of at most 10 000 draws, so the default 10^6
draws give 100 of 10 000.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import ranking_error
from .distributions import Distribution
from .errors import InputError, check_alpha, check_count, check_dimension, check_shared
from .measures import Design
from .order_stats import judged_log_pdf, judged_log_weight
from .ranking_error import RankingErrorMatrix


_BLOCK = 65_536  # draws per kernel evaluation and per ordered block
_NETWORK_MAX_N = 6  # widest block ordered by the network, not numpy's sort
_MIN_BATCHES = 20  # batch means behind every standard error
_BATCH_SIZE = 10_000  # longest batch


class DivergentEstimateError(RuntimeError):
    """Running mean failed to stabilize (likely non-integrable log-ratio)."""


@dataclass(frozen=True)
class SimConfig:
    replications: int = 1_000_000
    seed: int = 20240817

    def __post_init__(self):
        check_count("replications", self.replications, 100)
        check_count("seed", self.seed, 0)


@dataclass(frozen=True)
class EstimateResult:
    estimate: float
    std_error: float
    replications: int


def _batch_stats(values: np.ndarray, batch_size: int = _BATCH_SIZE) -> tuple[float, float]:
    """Mean and batch-means standard error of a 1-d value array: at least
    _MIN_BATCHES batches, each at most ``batch_size`` long."""
    m = values.size
    nb = max(-(-m // batch_size), _MIN_BATCHES)
    usable = (m // nb) * nb
    means = values[:usable].reshape(nb, -1).mean(axis=1)
    est = float(values.mean())
    se = float(means.std(ddof=1) / math.sqrt(nb))
    return est, se


def sample_order_stat(dist: Distribution, n: int, i: int, rng: np.random.Generator, size: int | None = None):
    """Draw the i-th smallest of n iid values from ``dist``: the judged draw
    on row i of the identity."""
    return sample_judged(dist, n, ranking_error.identity(n), i, rng, size)


def sample_judged(
    dist: Distribution,
    n: int,
    P: RankingErrorMatrix,
    i: int,
    rng: np.random.Generator,
    size: int | None = None,
):
    """Draw from the judged rank-i law: true rank r ~ row i of P, then X_(r),
    the quantile of the levels ``_levels`` draws on row i."""
    check_dimension(P.n, n)
    if size is not None:
        check_count("size", size, 0)
    u = np.empty(1 if size is None else size)
    for start, level in _levels(P.row(i), rng, u.size):
        u[start : start + level.size] = level
    x = dist.quantile(u)
    return float(x[0]) if size is None else x


def _levels(row: np.ndarray, rng: np.random.Generator, m: int):
    """Yield (start, u): the uniform levels of m judged draws on ``row``, _BLOCK
    at a time.  A uniform row takes the parent's level; any other, each draw's
    true rank's order statistic of its row of n uniforms, selected by
    ``_ordered`` from _BLOCK-row slices of the one stream.  A mixed row first
    draws its true ranks in the stream of ``rng.choice(n, size=m, p=row)``:
    the count of cdf entries at or below each uniform, which is
    ``searchsorted(side="right")``.  Each block then starts from the first
    rank's order statistic and takes each other rank's where it is drawn, by
    a bitwise select on the float64 bits: an exact copy, mask by mask."""
    n, blocks = row.size, range(0, m, _BLOCK)
    if np.all(row == row[0]):  # uniform: the parent itself
        for start in blocks:
            yield start, rng.random(min(_BLOCK, m - start))
        return
    ranks = tuple(np.flatnonzero(row).tolist())  # the 0-based true ranks the row reads
    if len(ranks) > 1:
        cdf = row.cumsum()
        cdf /= cdf[-1]
        true = np.zeros(m, np.min_scalar_type(n - 1))
        for start in blocks:
            u, t = rng.random(min(_BLOCK, m - start)), true[start : start + _BLOCK]
            for c in cdf[:-1]:  # the last entry is 1, above every u
                t += u >= c
    for start in blocks:
        level, *others = _ordered(rng.random((min(_BLOCK, m - start), n)), ranks)
        if others:
            t, bits = true[start : start + level.size], level.view(np.int64)
            for r, col in zip(ranks[1:], others):  # bits of col where t == r: the mask -1 keeps all 64
                bits ^= (bits ^ col.view(np.int64)) & -(t == r).view(np.int8)
        yield start, level


@functools.cache
def _network(n: int, ranks: tuple[int, ...]) -> tuple[tuple[int, bool, bool], ...]:
    """The (k, min?, max?) compare-exchanges of the n-wide odd-even transposition network (Knuth,
    TAOCP 3, 5.3.4) that the outputs ``ranks`` read, in order, each with the outputs it must give.
    The least or the greatest alone is a chain of n - 1 minima or maxima, which the pruned
    network exceeds from n = 3."""
    if ranks == (0,):
        return tuple((k, True, False) for k in reversed(range(n - 1)))
    if ranks == (n - 1,):
        return tuple((k, False, True) for k in range(n - 1))
    need, plan = set(ranks), []
    for r in reversed(range(n)):
        for k in range(r % 2, n - 1, 2):
            low, high = k in need, k + 1 in need
            if low or high:
                plan.append((k, low, high))
                need |= {k, k + 1}
    return tuple(reversed(plan))


def _ordered(block: np.ndarray, ranks: tuple[int, ...]) -> list[np.ndarray]:
    """The order statistics ``ranks`` (0-based) of each row of a (b, n) block, bitwise columns of
    ``np.sort(block, axis=1)``: up to _NETWORK_MAX_N columns the pruned network ``_network`` on
    the block's column views, exact as min and max return an input; numpy's row sort above."""
    n = block.shape[1]
    if n > _NETWORK_MAX_N:
        block.sort(axis=1)
        return [block[:, r] for r in ranks]
    cols = list(block.T)
    for k, low, high in _network(n, ranks):
        x, y = cols[k], cols[k + 1]
        if low:
            cols[k] = np.minimum(x, y)
        if high:
            cols[k + 1] = np.maximum(x, y)
    return [cols[r] for r in ranks]


def _log_weight(row: np.ndarray):
    """u -> log weight of the judged law on ``row`` relative to the parent at
    the level u: the kernel read at u and 1 - u, both exact, as ``rng.random``
    gives multiples of 2**-53.  A uniform row weighs 0 and builds no kernel."""
    if np.all(row == row[0]):
        return lambda u: 0.0
    log_weight = judged_log_weight(row)
    return lambda u: log_weight(u, 1.0 - u)


def _log_pdf(dist: Distribution, row: np.ndarray):
    """u -> log density of the judged law on ``row`` at its draw x = Q(u)."""
    log_weight = _log_weight(row)
    return lambda u: log_weight(u) + dist.log_pdf(dist.quantile(u))


def _sum_components(design: Design, sim: SimConfig, value, summary=lambda i, values: _batch_stats(values)):
    """m times the sum over components i of ``summary(i, values)``, an
    (estimate, std_error) pair from the per-draw values ``value(i, row)``
    gives at the levels drawn from the component's own spawned stream; errors
    add in quadrature.  Each component refills the one m-long array."""
    P, m = design.matrix, sim.replications
    values = np.empty(m)
    total = var = 0.0
    for i, seed in enumerate(np.random.SeedSequence(sim.seed).spawn(design.n), start=1):
        per_draw = value(i, P.row(i))
        for start, u in _levels(P.row(i), np.random.Generator(np.random.PCG64(seed)), m):
            values[start : start + u.size] = per_draw(u)
        est, se = summary(i, values)
        total += est
        var += se * se
    return EstimateResult(design.m * total, design.m * math.sqrt(var), m)


def mc_entropy(design: Design, dist: Distribution, sim: SimConfig = SimConfig()) -> EstimateResult:
    """Plug-in Shannon estimate: minus the mean log-density at simulated draws,
    summed over sample components."""
    mean_log_f = _sum_components(design, sim, lambda i, row: _log_pdf(dist, row))
    return EstimateResult(-mean_log_f.estimate, mean_log_f.std_error, mean_log_f.replications)


def mc_renyi(design: Design, dist: Distribution, alpha: float, sim: SimConfig = SimConfig()) -> EstimateResult:
    """Renyi estimate via E[g^(alpha-1)] per component (delta-method errors), on a
    log scale: each draw keeps (alpha - 1) log g, less the component's largest."""
    check_alpha(alpha)
    om = 1.0 - alpha

    def value(i, row):
        log_f = _log_pdf(dist, row)
        return lambda u: (alpha - 1.0) * log_f(u)

    def summary(i, values):
        top = float(values.max())
        np.exp(np.subtract(values, top, out=values), out=values)
        mhat, se = _batch_stats(values)
        return (top + math.log(mhat)) / om, se / (abs(om) * mhat)

    return _sum_components(design, sim, value, summary)


def mc_kl(
    design_x: Design,
    dist_f: Distribution,
    design_y: Design,
    dist_g: Distribution,
    sim: SimConfig = SimConfig(),
) -> EstimateResult:
    """KL estimate: mean componentwise log-ratio under the X-side law.  When
    both sides have one law (family and parameters), its density cancels and
    the two kernels read the same level; otherwise g's reads G and its
    survival at the draw."""
    check_shared((design_x, design_y))
    P_y = design_y.matrix
    same_law = type(dist_f) is type(dist_g) and vars(dist_f) == vars(dist_g)

    def value(i, row):
        log_w = _log_weight(row)
        if same_law:
            log_v = _log_weight(P_y.row(i))
            return lambda u: log_w(u) - log_v(u)
        log_g = judged_log_pdf(dist_g, P_y.row(i))

        def log_ratio(u):
            x = dist_f.quantile(u)
            return log_w(u) + dist_f.log_pdf(x) - log_g(x)

        return log_ratio

    def summary(i, vals):
        half = vals.size // 2
        m1, m2 = float(vals[:half].mean()), float(vals[half:].mean())
        if not math.isfinite(m1 + m2):  # a NaN or an infinite log-ratio among the draws
            raise DivergentEstimateError(f"log-ratio is not finite for component {i} (support mismatch?)")
        est, se = _batch_stats(vals)
        if se > 0 and abs(m1 - m2) > 10.0 * se * math.sqrt(2.0):
            raise DivergentEstimateError(f"running mean failed to stabilize for component {i}")
        return est, se

    return _sum_components(design_x, sim, value, summary)


def vasicek_entropy(samples, window: int) -> float:
    """Spacing-based (Vasicek) entropy estimate from a raw, finite sample.

    Uses no density formulas at all; ``window`` is the spacing half-width m,
    an integer, and the sample must have at least 2 m + 1 points.
    """
    n = np.size(samples)
    check_count("window", window, 1)
    if n < 2 * window + 1:
        raise InputError(f"need at least {2 * window + 1} samples, got {n}")
    x = np.sort(np.asarray(samples, dtype=float))
    if not (math.isfinite(x[0]) and math.isfinite(x[-1])):  # sorting puts a NaN or an inf at an end
        raise InputError("sample holds a NaN or an infinite value")
    hi = np.minimum(np.arange(n) + window, n - 1)
    lo = np.maximum(np.arange(n) - window, 0)
    spacings = x[hi] - x[lo]
    if np.any(spacings <= 0.0):
        raise InputError("degenerate sample: zero spacing encountered")
    return float(np.mean(np.log(n / (2.0 * window) * spacings)))
