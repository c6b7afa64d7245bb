"""Independent Monte Carlo verification layer.

Simulates SRS / RSS / imperfect-RSS draws and estimates every measure
without touching the quadrature engine.  A design is read only through its
ranking-error matrix (SRS is the uniform matrix, perfect RSS the identity):
the sampler takes its draw from the judged rank's row, and the plug-in
estimators take that row through the ``order_stats`` kernel.  The Vasicek
spacing estimator is the formula-free cross-check that shares no density code
with the rest of the package.

Estimates are deterministic given the seed: each sample component gets its
own stream spawned from a single SeedSequence, and ``sample_judged``'s recipe
fixes what is drawn from it; the draw is ordered _BLOCK rows at a time, so no
(m, n) array is held.  Standard errors are batch means over at least 20
batches of at most 10 000 draws, so the default 10^6 draws give 100 of 10 000.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import ranking_error
from .distributions import Distribution
from .errors import InputError, check_alpha
from .measures import Design
from .order_stats import judged_log_pdf
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
        if self.replications < 100:
            raise InputError("need at least 100 replications")


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
    """Draw from the judged rank-i law: true rank r ~ row i of P, then X_(r).

    A uniform row draws the parent itself and a one-hot row its order
    statistic from the sorted (m, n) uniforms; only a mixed row first draws
    the true rank with ``rng.choice``.  The uniforms come in _BLOCK-row slices,
    the same stream as one (m, n) draw, ordered by ``_ordered``: a
    compare-exchange network up to _NETWORK_MAX_N columns, a row sort above.
    """
    if P.n != n:
        raise InputError(f"error matrix dimension {P.n} does not match n = {n}")
    row = P.row(i)
    m = 1 if size is None else size
    if np.all(row == row[0]):  # uniform: the parent itself
        x = dist.quantile(rng.random(m))
    else:
        ranks = np.flatnonzero(row)  # 0-based true ranks: the one, or one drawn
        if ranks.size > 1:
            ranks = rng.choice(n, size=m, p=row)
        u = np.empty(m)
        for start in range(0, m, _BLOCK):
            cols = _ordered(rng.random((min(_BLOCK, m - start), n)))
            b = cols.shape[1]
            u[start : start + b] = cols[ranks[0]] if ranks.size == 1 else cols[ranks[start : start + b], np.arange(b)]
        x = dist.quantile(u)
    return float(x[0]) if size is None else x


def _ordered(block: np.ndarray) -> np.ndarray:
    """The (n, b) order statistics of a (b, n) block, bitwise ``np.sort(block, axis=1).T``: up to
    _NETWORK_MAX_N columns an odd-even transposition network (Knuth, TAOCP 3, 5.3.4) of n(n-1)/2
    in-place compare-exchanges, exact as min and max return an input; numpy's row sort above."""
    b, n = block.shape
    if n > _NETWORK_MAX_N:
        block.sort(axis=1)
        return block.T
    cols, tmp = block.T.copy(), np.empty(b)
    for r in range(n):
        for k in range(r % 2, n - 1, 2):
            np.minimum(cols[k], cols[k + 1], out=tmp)
            np.maximum(cols[k], cols[k + 1], out=cols[k + 1])
            cols[k] = tmp
    return cols


def _log_density(dist: Distribution, row: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Log density of the judged law with weights ``row`` at the 1-d draws
    ``x``, a block at a time so the kernel's (ranks x points) temporaries stay
    small."""
    log_pdf = judged_log_pdf(dist, row)
    out = np.empty(x.shape)
    for start in range(0, x.size, _BLOCK):
        out[start : start + _BLOCK] = log_pdf(x[start : start + _BLOCK])
    return out


def _sum_components(design: Design, dist: Distribution, sim: SimConfig, score) -> EstimateResult:
    """m times the sum over components i of ``score(i, x, log_f)``, an
    (estimate, std_error) pair from the component's draws x, taken from its
    own spawned stream, and their log density log_f; errors add in quadrature."""
    P = design.matrix
    total = var = 0.0
    for i, seed in enumerate(np.random.SeedSequence(sim.seed).spawn(design.n), start=1):
        x = sample_judged(dist, design.n, P, i, np.random.Generator(np.random.PCG64(seed)), sim.replications)
        est, se = score(i, x, _log_density(dist, P.row(i), x))
        total += est
        var += se * se
    return EstimateResult(design.m * total, design.m * math.sqrt(var), sim.replications)


def mc_entropy(design: Design, dist: Distribution, sim: SimConfig = SimConfig()) -> EstimateResult:
    """Plug-in Shannon estimate: minus the mean log-density at simulated draws,
    summed over sample components."""
    return _sum_components(design, dist, sim, lambda i, x, log_f: _batch_stats(-log_f))


def mc_renyi(design: Design, dist: Distribution, alpha: float, sim: SimConfig = SimConfig()) -> EstimateResult:
    """Renyi estimate via E[g^(alpha-1)] per component (delta-method errors)."""
    check_alpha(alpha)
    om = 1.0 - alpha

    def score(i, x, log_f):
        mhat, se = _batch_stats(np.exp((alpha - 1.0) * log_f))
        return math.log(mhat) / om, se / (abs(om) * mhat)

    return _sum_components(design, dist, sim, score)


def mc_kl(
    design_x: Design,
    dist_f: Distribution,
    design_y: Design,
    dist_g: Distribution,
    sim: SimConfig = SimConfig(),
) -> EstimateResult:
    """KL estimate: mean componentwise log-ratio under the X-side law."""
    if design_x.n != design_y.n:
        raise InputError("designs must share the set size n")
    if design_x.m != design_y.m:
        raise InputError("designs must share the cycle count m")
    P_y = design_y.matrix

    def score(i, x, log_f):
        vals = log_f - _log_density(dist_g, P_y.row(i), x)
        if not np.all(np.isfinite(vals)):
            raise DivergentEstimateError(f"log-ratio is not finite for component {i} (support mismatch?)")
        est, se = _batch_stats(vals)
        half = vals.size // 2
        m1, m2 = float(vals[:half].mean()), float(vals[half:].mean())
        if se > 0 and abs(m1 - m2) > 10.0 * se * math.sqrt(2.0):
            raise DivergentEstimateError(f"running mean failed to stabilize for component {i}")
        return est, se

    return _sum_components(design_x, dist_f, sim, score)


def vasicek_entropy(samples, window: int) -> float:
    """Spacing-based (Vasicek) entropy estimate from a raw sample.

    Uses no density formulas at all; ``window`` is the spacing half-width m,
    and the sample must have at least 2 m + 1 points.
    """
    n = np.size(samples)
    if window < 1:
        raise InputError("window must be >= 1")
    if n < 2 * window + 1:
        raise InputError(f"need at least {2 * window + 1} samples, got {n}")
    x = np.sort(np.asarray(samples, dtype=float))
    hi = np.minimum(np.arange(n) + window, n - 1)
    lo = np.maximum(np.arange(n) - window, 0)
    spacings = x[hi] - x[lo]
    if np.any(spacings <= 0.0):
        raise InputError("degenerate sample: zero spacing encountered")
    return float(np.mean(np.log(n / (2.0 * window) * spacings)))
