"""Independent Monte Carlo verification layer.

Simulates SRS / RSS / imperfect-RSS draws and estimates every measure
without touching the quadrature engine.  Each design kind keeps its own
sampler, which fixes the random streams; the plug-in estimators take the
design's ranking-error matrix through the ``order_stats`` kernel.  The Vasicek
spacing estimator is the formula-free cross-check that shares no density code
with the rest of the package.

Estimates are deterministic given the seed: each sample component gets its
own stream spawned from a single SeedSequence.  Standard errors are batch
means over at least 20 batches of at most ``SimConfig.batch_size`` draws, so
the default 10^6 draws give 100 batches of 10 000.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import Distribution
from .errors import InputError
from .measures import PERFECT_RSS, SRS, Design
from .order_stats import judged_log_pdf
from .ranking_error import RankingErrorMatrix


_BLOCK = 65_536  # draws per kernel evaluation
_MIN_BATCHES = 20  # batch means behind every standard error


class DivergentEstimateError(RuntimeError):
    """Running mean failed to stabilize (likely non-integrable log-ratio)."""


@dataclass(frozen=True)
class SimConfig:
    replications: int = 1_000_000
    seed: int = 20240817
    batch_size: int | None = None  # longest batch; None: 10 000, or every replication if fewer

    def __post_init__(self):
        if self.replications < 100:
            raise InputError("need at least 100 replications")
        if self.batch_size is None:
            object.__setattr__(self, "batch_size", min(10_000, self.replications))
        if not 1 <= self.batch_size <= self.replications:
            raise InputError("batch size must lie in [1, replications]")


@dataclass(frozen=True)
class EstimateResult:
    estimate: float
    std_error: float
    replications: int


def _batch_stats(values: np.ndarray, batch_size: int) -> tuple[float, float]:
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
    """Draw the i-th smallest of n iid values from ``dist``."""
    if not 1 <= i <= n:
        raise ValueError(f"rank {i} out of range 1..{n}")
    m = 1 if size is None else size
    u = rng.random((m, n))
    u.sort(axis=1)
    x = dist.quantile(u[:, i - 1])
    return float(x[0]) if size is None else x


def sample_judged(
    dist: Distribution,
    n: int,
    P: RankingErrorMatrix,
    i: int,
    rng: np.random.Generator,
    size: int | None = None,
):
    """Draw from the judged rank-i law: true rank r ~ row i of P, then X_(r)."""
    if P.n != n:
        raise ValueError(f"error matrix dimension {P.n} does not match n = {n}")
    m = 1 if size is None else size
    ranks = rng.choice(n, size=m, p=P.row(i))  # 0-based true rank
    u = rng.random((m, n))
    u.sort(axis=1)
    x = dist.quantile(u[np.arange(m), ranks])
    return float(x[0]) if size is None else x


def _component_draw(design: Design, dist: Distribution, i: int, rng, size: int) -> np.ndarray:
    if design.kind == SRS:
        return dist.quantile(rng.random(size))
    if design.kind == PERFECT_RSS:
        return sample_order_stat(dist, design.n, i, rng, size)
    return sample_judged(dist, design.n, design.P, i, rng, size)


def _component_log_density(design: Design, dist: Distribution, i: int, x: np.ndarray) -> np.ndarray:
    """Log density of component i at the 1-d draws ``x``, a block at a time so
    the kernel's (ranks x points) temporaries stay small."""
    log_pdf = judged_log_pdf(dist, design.matrix.row(i))
    out = np.empty(x.shape)
    for start in range(0, x.size, _BLOCK):
        out[start : start + _BLOCK] = log_pdf(x[start : start + _BLOCK])
    return out


def _spawned(seed: int, count: int) -> list[np.random.Generator]:
    return [np.random.Generator(np.random.PCG64(s)) for s in np.random.SeedSequence(seed).spawn(count)]


def mc_entropy(design: Design, dist: Distribution, sim: SimConfig = SimConfig()) -> EstimateResult:
    """Plug-in Shannon estimate: minus the mean log-density at simulated draws,
    summed over sample components."""
    rngs = _spawned(sim.seed, design.n)
    total = 0.0
    var = 0.0
    for i in range(1, design.n + 1):
        x = _component_draw(design, dist, i, rngs[i - 1], sim.replications)
        vals = -_component_log_density(design, dist, i, x)
        est, se = _batch_stats(vals, sim.batch_size)
        total += est
        var += se * se
    return EstimateResult(design.m * total, design.m * math.sqrt(var), sim.replications)


def mc_renyi(design: Design, dist: Distribution, alpha: float, sim: SimConfig = SimConfig()) -> EstimateResult:
    """Renyi estimate via E[g^(alpha-1)] per component (delta-method errors)."""
    if alpha <= 0 or alpha == 1.0:
        raise ValueError("alpha must be positive and != 1")
    om = 1.0 - alpha
    rngs = _spawned(sim.seed, design.n)
    total = 0.0
    var = 0.0
    for i in range(1, design.n + 1):
        x = _component_draw(design, dist, i, rngs[i - 1], sim.replications)
        vals = np.exp((alpha - 1.0) * _component_log_density(design, dist, i, x))
        mhat, se = _batch_stats(vals, sim.batch_size)
        total += math.log(mhat) / om
        var += (se / (abs(om) * mhat)) ** 2
    return EstimateResult(design.m * total, design.m * math.sqrt(var), sim.replications)


def mc_kl(
    design_x: Design,
    dist_f: Distribution,
    design_y: Design,
    dist_g: Distribution,
    sim: SimConfig = SimConfig(),
) -> EstimateResult:
    """KL estimate: mean componentwise log-ratio under the X-side law."""
    if design_x.n != design_y.n:
        raise ValueError("designs must share the set size n")
    rngs = _spawned(sim.seed, design_x.n)
    total = 0.0
    var = 0.0
    for i in range(1, design_x.n + 1):
        x = _component_draw(design_x, dist_f, i, rngs[i - 1], sim.replications)
        vals = _component_log_density(design_x, dist_f, i, x) - _component_log_density(
            design_y, dist_g, i, x
        )
        if not np.all(np.isfinite(vals)):
            raise DivergentEstimateError(
                f"log-ratio is not finite for component {i} (support mismatch?)"
            )
        est, se = _batch_stats(vals, sim.batch_size)
        half = vals.size // 2
        m1, m2 = float(vals[:half].mean()), float(vals[half:].mean())
        if se > 0 and abs(m1 - m2) > 10.0 * se * math.sqrt(2.0):
            raise DivergentEstimateError(
                f"running mean failed to stabilize for component {i}"
            )
        total += est
        var += se * se
    return EstimateResult(design_x.m * total, design_x.m * math.sqrt(var), sim.replications)


def vasicek_entropy(samples, window: int) -> float:
    """Spacing-based (Vasicek) entropy estimate from a raw sample.

    Uses no density formulas at all; ``window`` is the spacing half-width m,
    and the sample must have at least 2 m + 1 points.
    """
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    if window < 1:
        raise ValueError("window must be >= 1")
    if n < 2 * window + 1:
        raise ValueError(f"need at least {2 * window + 1} samples, got {n}")
    hi = np.minimum(np.arange(n) + window, n - 1)
    lo = np.maximum(np.arange(n) - window, 0)
    spacings = x[hi] - x[lo]
    if np.any(spacings <= 0.0):
        raise ValueError("degenerate sample: zero spacing encountered")
    return float(np.mean(np.log(n / (2.0 * window) * spacings)))
