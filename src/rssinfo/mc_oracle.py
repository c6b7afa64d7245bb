"""Independent Monte Carlo verification layer.

Simulates SRS / RSS / imperfect-RSS draws and estimates every measure
without touching the quadrature engine.  Every estimator takes a design as
its ranking-error matrix (SRS is the uniform matrix, perfect RSS the
identity): the sampler takes its uniform level from the judged rank's row,
and the plug-in estimators score each level where it is drawn: the
``order_stats`` kernel read at the level u and 1 - u themselves, plus the
parent's log density at the draw x = Q(u), so no cdf or survival is taken of
x.  The Vasicek spacing estimator is the formula-free cross-check that shares
no density code with the rest of the package.

Estimates are deterministic given the seed: each sample component gets its
own stream spawned from a single SeedSequence, and ``sample_judged``'s recipe,
on a row of the n x n matrix, fixes what is drawn from it: a mixed row's true
ranks as ``rng.choice`` draws them, then rows of n uniforms, ordered as
``np.sort`` orders them.  The levels are drawn and scored in blocks of whole
batches, at most _BLOCK rows.  A block selects only the order statistics its
row reads, by min, max and a bitwise select, which return their inputs, so each
level is bitwise the recipe's.  Each block is scored into one reused buffer and
reduced at once, so a component keeps no m-long array: only a mixed row's true
ranks, one byte per draw.
Standard errors are batch means over at least 20 batches of at most 10 000
draws, so the default 10^6 draws give 100 of 10 000.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import ranking_error
from .distributions import Distribution
from .errors import InputError, check_alpha, check_count, check_shared
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


def _batches(m: int) -> tuple[int, int]:
    """(count, length) of the batches behind the standard error of m draws: at least
    _MIN_BATCHES, each at most _BATCH_SIZE long; the draws past the last enter the mean only."""
    count = max(-(-m // _BATCH_SIZE), _MIN_BATCHES)
    return count, m // count


def _reduce(blocks, m: int, log_scale: bool = False):
    """(mean, std_error, halves, top) of the m values that ``blocks`` yields in order as (start,
    block), blocks of any length: each adds its ``_batches(m)`` batches' sums and its shares of the
    sums of the two halves, the first m // 2 values and the rest.  A batch within one block is
    summed as ``values[a:b].sum()``.  On a log scale the values are logs and the statistics are
    those of exp(value - top), top the largest value; the running sums are rescaled as it rises."""
    nb, size = _batches(m)
    sums, top = np.zeros(nb + 2), -math.inf if log_scale else 0.0  # the batches', then the halves'
    for start, v in blocks:
        if log_scale:
            top, was = max(top, float(v.max())), top
            sums *= math.exp(was - top)
            np.exp(np.subtract(v, top, out=v), out=v)
        half = max(m // 2 - start, 0)
        for k in range(start // size, min(-(-(start + v.size) // size), nb)):
            sums[k] += v[max(k * size - start, 0) : (k + 1) * size - start].sum()
        sums[nb:] += v[:half].sum(), v[half:].sum()
    mean = float(sums[nb:].sum() / m)  # a NaN or an infinite value among the m gives no error
    se = float((sums[:nb] / size).std(ddof=1) / math.sqrt(nb)) if math.isfinite(mean) else math.nan
    return mean, se, (sums[nb:] / (m // 2, m - m // 2)).tolist(), top


def sample_order_stat(dist: Distribution, n: int, i: int, rng: np.random.Generator, size: int | None = None):
    """Draw the i-th smallest of n iid values from ``dist``: the judged draw
    on row i of the identity."""
    return _sample(dist, ranking_error.identity_row(n, i), rng, size)


def sample_judged(dist: Distribution, P: RankingErrorMatrix, i: int, rng: np.random.Generator, size: int | None = None):
    """Draw from the judged rank-i law: true rank r ~ row i of P, then X_(r),
    the quantile of the levels ``_levels`` draws on row i."""
    return _sample(dist, P.row(i), rng, size)


def _sample(dist: Distribution, row: np.ndarray, rng: np.random.Generator, size: int | None):
    """``sample_judged`` on a checked row."""
    if size is not None:
        check_count("size", size, 0)
    u = np.empty(1 if size is None else size)
    for start, level in _levels(row, rng, u.size):
        u[start : start + level.size] = level
    x = dist.quantile(u)
    return float(x[0]) if size is None else x


def _levels(row: np.ndarray, rng: np.random.Generator, m: int):
    """Yield (start, u): the uniform levels of m judged draws on ``row``, in
    blocks of the most whole batches of ``_batches(m)`` within _BLOCK draws.  A
    uniform row takes the parent's level; any other, each draw's true rank's
    order statistic of its row of n uniforms, selected by ``_ordered`` from
    block-row slices of the one stream.  A mixed row first draws its true ranks
    in the stream of ``rng.choice(n, size=m, p=row)``: the count of cdf entries
    at or below each uniform, which is ``searchsorted(side="right")``.  Each
    block then starts from the first rank's order statistic and takes each
    other rank's where it is drawn, by a bitwise select on the float64 bits:
    an exact copy, mask by mask."""
    n, blocks = row.size, range(0, m, _BLOCK - _BLOCK % max(_batches(m)[1], 1))
    if np.all(row == row[0]):  # uniform: the parent itself
        for start in blocks:
            yield start, rng.random(min(blocks.step, m - start))
        return
    ranks = tuple(np.flatnonzero(row).tolist())  # the 0-based true ranks the row reads
    if len(ranks) > 1:
        cdf = row.cumsum()
        cdf /= cdf[-1]
        true = np.zeros(m, np.min_scalar_type(n - 1))
        for start in blocks:
            u, t = rng.random(min(blocks.step, m - start)), true[start : start + blocks.step]
            for c in cdf[:-1]:  # the last entry is 1, above every u
                t += u >= c
        del u  # not held while the levels are drawn
    for start in blocks:
        level, *others = _ordered(rng.random((min(blocks.step, m - start), n)), ranks)
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
    gives multiples of 2**-53; a uniform row's is exactly 0."""
    log_weight = judged_log_weight(row)
    return lambda u: log_weight(u, 1.0 - u)


def _log_pdf(dist: Distribution, row: np.ndarray):
    """(u, out) -> out, holding the log density of the judged law on ``row``
    at its draw x = Q(u)."""
    log_weight = _log_weight(row)
    return lambda u, out: np.add(log_weight(u), dist.log_pdf(dist.quantile(u)), out=out)


def _sum_components(design: RankingErrorMatrix, sim: SimConfig, value, summary=lambda i, *stats: stats[:2], log_scale=False):
    """The sum over components i of ``summary(i, *stats)``, an
    (estimate, std_error) pair from the ``_reduce`` stats of the per-draw values
    that ``value(i, row)``, called as (u, out), writes at the levels drawn from
    the component's own spawned stream; errors add in quadrature.  Each block,
    at most _BLOCK draws, is scored into the one reused buffer and reduced
    before the next is drawn."""
    m = sim.replications
    buf = np.empty(min(m, _BLOCK))
    total = var = 0.0
    for i, seed in enumerate(np.random.SeedSequence(sim.seed).spawn(design.n), start=1):
        score, levels = value(i, design.row(i)), _levels(design.row(i), np.random.Generator(np.random.PCG64(seed)), m)
        scored = ((start, score(u, buf[: u.size])) for start, u in levels)
        est, se = summary(i, *_reduce(scored, m, log_scale))
        total += est
        var += se * se
    return EstimateResult(total, math.sqrt(var), m)


def mc_entropy(design: RankingErrorMatrix, dist: Distribution, sim: SimConfig = SimConfig()) -> EstimateResult:
    """Plug-in Shannon estimate: minus the mean log-density at simulated draws,
    summed over sample components."""
    mean_log_f = _sum_components(design, sim, lambda i, row: _log_pdf(dist, row))
    return EstimateResult(-mean_log_f.estimate, mean_log_f.std_error, mean_log_f.replications)


def mc_renyi(design: RankingErrorMatrix, dist: Distribution, alpha: float, sim: SimConfig = SimConfig()) -> EstimateResult:
    """Renyi estimate via E[g^(alpha-1)] per component (delta-method errors), on a
    log scale: each draw keeps (alpha - 1) log g, less the largest so far."""
    check_alpha(alpha)
    om = 1.0 - alpha

    def value(i, row):
        log_f = _log_pdf(dist, row)
        return lambda u, out: np.multiply(alpha - 1.0, log_f(u, out), out=out)

    def summary(i, mhat, se, halves, top):
        return (top + math.log(mhat)) / om, se / (abs(om) * mhat)

    return _sum_components(design, sim, value, summary, log_scale=True)


def mc_kl(
    design_x: RankingErrorMatrix,
    dist_f: Distribution,
    design_y: RankingErrorMatrix,
    dist_g: Distribution,
    sim: SimConfig = SimConfig(),
) -> EstimateResult:
    """KL estimate: mean componentwise log-ratio under the X-side law.  When
    both sides have one law (family and parameters), its density cancels and
    the two kernels read the same level; otherwise g's reads G and its
    survival at the draw."""
    check_shared((design_x, design_y))

    def value(i, row):
        log_w = _log_weight(row)
        if dist_f == dist_g:
            log_v = _log_weight(design_y.row(i))
            return lambda u, out: np.subtract(log_w(u), log_v(u), out=out)
        log_g = judged_log_pdf(dist_g, design_y.row(i))

        def log_ratio(u, out):
            x = dist_f.quantile(u)
            return np.subtract(np.add(log_w(u), dist_f.log_pdf(x), out=out), log_g(x), out=out)

        return log_ratio

    def summary(i, est, se, halves, top):
        m1, m2 = halves
        if not math.isfinite(m1 + m2):  # a NaN or an infinite log-ratio among the draws
            raise DivergentEstimateError(f"log-ratio is not finite for component {i} (support mismatch?)")
        if se > 0 and abs(m1 - m2) > 10.0 * se * math.sqrt(2.0):
            raise DivergentEstimateError(f"running mean failed to stabilize for component {i}")
        return est, se

    return _sum_components(design_x, sim, value, summary)


def vasicek_entropy(samples, window: int) -> float:
    """Spacing-based (Vasicek) entropy estimate from a raw, finite sample.

    Uses no density formulas at all; ``window`` is the spacing half-width m,
    an integer, and the sample must be 1-D with at least 2 m + 1 points.
    """
    x = np.asarray(samples, dtype=float)
    if x.ndim != 1:
        raise InputError(f"sample must be 1-D, got shape {x.shape}")
    n = x.size
    check_count("window", window, 1)
    if n < 2 * window + 1:
        raise InputError(f"need at least {2 * window + 1} samples, got {n}")
    x = np.sort(x)
    if not (math.isfinite(x[0]) and math.isfinite(x[-1])):  # sorting puts a NaN or an inf at an end
        raise InputError("sample holds a NaN or an infinite value")
    hi = np.minimum(np.arange(n) + window, n - 1)
    lo = np.maximum(np.arange(n) - window, 0)
    spacings = x[hi] - x[lo]
    if np.any(spacings <= 0.0):
        raise InputError("degenerate sample: zero spacing encountered")
    return float(np.mean(np.log(n / (2.0 * window) * spacings)))
