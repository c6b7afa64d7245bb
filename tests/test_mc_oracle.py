import itertools
import math
import tracemalloc

import numpy as np
import pytest

from rssinfo import closed_form as cf
from rssinfo import mc_oracle as mc
from rssinfo import measures as M
from rssinfo import ranking_error as re
from rssinfo.distributions import Exponential, Normal, Uniform
from rssinfo.measures import Design

FAST = mc.SimConfig(replications=200_000, seed=42)


def test_sim_config_validation():
    with pytest.raises(ValueError):
        mc.SimConfig(replications=10)


def test_sample_order_stat_means():
    rng = np.random.default_rng(7)
    u2 = mc.sample_order_stat(Uniform(), 2, 2, rng, size=200_000)
    se = u2.std(ddof=1) / math.sqrt(u2.size)
    assert abs(u2.mean() - 2.0 / 3.0) < 3.0 * se
    e1 = mc.sample_order_stat(Exponential(1.0), 2, 1, rng, size=200_000)
    se = e1.std(ddof=1) / math.sqrt(e1.size)
    assert abs(e1.mean() - 0.5) < 3.0 * se


def test_sample_order_stat_n1_is_plain_draw():
    rng = np.random.default_rng(3)
    x = mc.sample_order_stat(Exponential(1.0), 1, 1, rng, size=100_000)
    se = x.std(ddof=1) / math.sqrt(x.size)
    assert abs(x.mean() - 1.0) < 3.0 * se
    with pytest.raises(ValueError):
        mc.sample_order_stat(Exponential(1.0), 2, 3, rng)


def test_sample_judged_ks_against_mixture_cdf():
    # judged rank 1 under a 2x2 error matrix: F_[1] = p11 F_(1) + p12 F_(2)
    dist, P, m = Exponential(1.0), re.two_by_two(0.3), 100_000
    rng = np.random.default_rng(11)
    x = np.sort(mc.sample_judged(dist, 2, P, 1, rng, size=m))
    F = dist.cdf(x)
    truth = 0.7 * (1.0 - (1.0 - F) ** 2) + 0.3 * F**2
    emp_hi = np.arange(1, m + 1) / m
    emp_lo = np.arange(0, m) / m
    ks = max(np.max(np.abs(emp_hi - truth)), np.max(np.abs(emp_lo - truth)))
    assert ks < 1.628 / math.sqrt(m)  # 1% critical value


def test_sample_judged_uniform_matrix_is_parent_law():
    dist, m = Exponential(1.0), 100_000
    rng = np.random.default_rng(13)
    x = np.sort(mc.sample_judged(dist, 3, re.uniform(3), 2, rng, size=m))
    ks = np.max(np.abs(np.arange(1, m + 1) / m - dist.cdf(x)))
    assert ks < 1.628 / math.sqrt(m)


def test_mc_entropy_matches_closed_forms():
    est = mc.mc_entropy(Design("srs", 2), Exponential(1.0), FAST)
    assert abs(est.estimate - 2.0) < 3.0 * est.std_error
    est = mc.mc_entropy(Design("rss", 2), Exponential(1.0), FAST)
    assert abs(est.estimate - (3.0 - 2.0 * math.log(2.0))) < 3.0 * est.std_error


def test_mc_entropy_uniform_matrix_equals_srs():
    srs = mc.mc_entropy(Design("srs", 2), Exponential(1.0), FAST)
    rnd = mc.mc_entropy(Design("irss", 2, re.uniform(2)), Exponential(1.0), FAST)
    combined = math.hypot(srs.std_error, rnd.std_error)
    assert abs(srs.estimate - rnd.estimate) < 3.0 * combined


def test_design_is_read_only_through_its_matrix():
    # SRS is the uniform matrix and perfect RSS the identity: the oracle
    # draws the same streams for either spelling of a design
    sim = mc.SimConfig(replications=2000, seed=9)
    dist = Exponential(1.0)
    for n in (1, 2, 3):
        for kind, P in (("srs", re.uniform(n)), ("rss", re.identity(n))):
            plain, irss = Design(kind, n), Design("irss", n, P)
            assert mc.mc_entropy(plain, dist, sim) == mc.mc_entropy(irss, dist, sim)
            assert mc.mc_renyi(plain, dist, 2.0, sim) == mc.mc_renyi(irss, dist, 2.0, sim)
            srs = Design("srs", n)
            assert mc.mc_kl(srs, dist, plain, dist, sim) == mc.mc_kl(srs, dist, irss, dist, sim)


def test_mc_renyi_matches_closed_forms():
    est = mc.mc_renyi(Design("srs", 2), Exponential(1.0), 2.0, FAST)
    assert abs(est.estimate - 2.0 * math.log(2.0)) < 3.0 * est.std_error
    est = mc.mc_renyi(Design("rss", 2), Exponential(1.0), 2.0, FAST)
    assert abs(est.estimate - math.log(3.0)) < 3.0 * est.std_error
    with pytest.raises(ValueError):
        mc.mc_renyi(Design("srs", 2), Exponential(1.0), 1.0, FAST)


@pytest.mark.parametrize(
    "dist, alpha",
    [(Exponential(1e-6), 30.0), (Exponential(1e-6), 60.0), (Exponential(1.0), 800.0)],
    ids=["exp1e-6-alpha30", "exp1e-6-alpha60", "exp1-alpha800"],
)
def test_mc_renyi_averages_on_a_log_scale(dist, alpha):
    # g^(alpha - 1) over- or underflows at these draws; (alpha - 1) log g does not
    design = Design("rss", 2)
    est = mc.mc_renyi(design, dist, alpha, FAST)
    assert math.isfinite(est.std_error) and est.std_error > 0.0
    assert abs(est.estimate - M.renyi(design, dist, alpha).value) < 4.0 * est.std_error


def test_mc_kl_distribution_free_constant():
    for dist in [Exponential(1.0), Normal(0.0, 1.0)]:
        est = mc.mc_kl(Design("srs", 3), dist, Design("rss", 3), dist, FAST)
        assert abs(est.estimate - cf.d_n(3)) < 3.0 * est.std_error, dist.spec_string()


def test_mc_kl_identical_laws_vanish():
    est = mc.mc_kl(Design("rss", 2), Exponential(1.0), Design("rss", 2), Exponential(1.0), FAST)
    assert abs(est.estimate) < 3.0 * max(est.std_error, 1e-12)


def test_mc_kl_support_mismatch_raises():
    with pytest.raises(mc.DivergentEstimateError):
        mc.mc_kl(Design("srs", 2), Normal(0.0, 1.0), Design("srs", 2), Exponential(1.0), FAST)


def test_mc_kl_unstable_running_mean_raises(monkeypatch):
    # levels whose first half lies below 1/2 and second above: the two halves'
    # means of the log-ratio differ by far more than their batch-means error
    def halves(row, rng, m):
        u = 0.5 * rng.random(m)
        u[m // 2 :] += 0.5
        yield 0, u

    monkeypatch.setattr(mc, "_levels", halves)
    with pytest.raises(mc.DivergentEstimateError, match="failed to stabilize"):
        mc.mc_kl(Design("srs", 2), Exponential(1.0), Design("rss", 2), Exponential(1.0), mc.SimConfig(10**6))


@pytest.mark.parametrize("dist", [Exponential(1.0), Normal(0.0, 1.0)], ids=["exp", "norm"])
def test_estimators_above_the_network(dist):
    # n = 8 orders each block by numpy's row sort, not the network
    assert mc._NETWORK_MAX_N < 8
    est = mc.mc_kl(Design("srs", 8), dist, Design("rss", 8), dist, FAST)
    assert abs(est.estimate - cf.d_n(8)) < 4.0 * est.std_error
    if isinstance(dist, Normal):
        est = mc.mc_entropy(Design("rss", 8), dist, FAST)
        assert abs(est.estimate - M.shannon(Design("rss", 8), dist).value) < 4.0 * est.std_error


def test_same_law_draws_are_scored_at_their_levels(monkeypatch):
    # the kernel reads the drawn level u and 1 - u, so no cdf or survival is taken of the draws
    def unused(self, z):
        raise AssertionError("cdf or survival taken of a draw")

    monkeypatch.setattr(Normal, "_cdf", unused)
    monkeypatch.setattr(Normal, "_survival", unused)
    sim, norm = mc.SimConfig(replications=20_000, seed=3), Normal(1.0, 2.0)
    for design in (Design("rss", 3), Design("irss", 3, re.blend(3, 0.5))):
        assert math.isfinite(mc.mc_entropy(design, norm, sim).estimate)
        assert math.isfinite(mc.mc_renyi(design, norm, 2.0, sim).estimate)
        assert math.isfinite(mc.mc_kl(Design("srs", 3), norm, design, Normal(1.0, 2.0), sim).estimate)


def test_same_law_kl_matches_the_draw_route():
    # a g side one ulp of scale away is another law: its kernel reads G and its survival at the draws
    srs, rss = Design("srs", 3), Design("rss", 3)
    levels = mc.mc_kl(srs, Normal(0.0, 1.0), rss, Normal(0.0, 1.0), FAST)
    draws = mc.mc_kl(srs, Normal(0.0, 1.0), rss, Normal(0.0, 1.0 + 2.0**-52), FAST)
    assert abs(levels.estimate - draws.estimate) < 1e-9 * levels.std_error
    assert levels.std_error == pytest.approx(draws.std_error, rel=1e-9)


def test_seed_reproducibility_is_bitwise():
    a = mc.mc_entropy(Design("rss", 2), Exponential(1.0), FAST)
    b = mc.mc_entropy(Design("rss", 2), Exponential(1.0), FAST)
    assert a.estimate == b.estimate
    assert a.std_error == b.std_error
    other = mc.mc_entropy(
        Design("rss", 2), Exponential(1.0), mc.SimConfig(replications=200_000, seed=43)
    )
    assert other.estimate != a.estimate


_ZERO_ENTRIES = re.validate([[0.5, 0.5, 0.0], [0.5, 0.0, 0.5], [0.0, 0.5, 0.5]])


@pytest.mark.parametrize("m", [1000, mc._BLOCK + 1001, None])
@pytest.mark.parametrize(
    "n, P, ranks",
    [
        *(pytest.param(n, re.blend(n, 0.5), {1, (n + 1) // 2, n}, id=str(n)) for n in range(1, mc._NETWORK_MAX_N + 3)),
        pytest.param(mc._NETWORK_MAX_N, re.blend(mc._NETWORK_MAX_N, 0.5), range(1, mc._NETWORK_MAX_N + 1), id="every-rank"),
        pytest.param(3, _ZERO_ENTRIES, range(1, 4), id="zero-entries"),
    ],
)
def test_samplers_follow_the_documented_recipe(n, P, ranks, m):
    # the recipe fixes the streams, whatever the sampler computes internally:
    # the true rank from rng.choice(n, p=row) (mixed rows only), then
    # np.sort(rng.random((m, n)), axis=1), then the selection; n runs across
    # _NETWORK_MAX_N and m across a _BLOCK boundary.  Each rank of the widest
    # network, and rows with zero entries, get their own pruned network
    dist = Exponential(1.0)
    rng, ref = np.random.default_rng(5), np.random.default_rng(5)
    k = 1 if m is None else m
    for i in sorted(ranks):
        x = mc.sample_order_stat(dist, n, i, rng, size=m)
        want = dist.quantile(np.sort(ref.random((k, n)), axis=1)[:, i - 1])
        assert np.array_equal(x, want[0] if m is None else want)
        x = mc.sample_judged(dist, n, P, i, rng, size=m)
        if n == 1:  # blend(1, w) is the uniform row: the parent itself
            want = dist.quantile(ref.random(k))
        else:
            ranks_drawn = ref.choice(n, size=k, p=P.row(i))
            u = np.sort(ref.random((k, n)), axis=1)
            want = dist.quantile(u[np.arange(k), ranks_drawn])
        assert np.array_equal(x, want[0] if m is None else want)


@pytest.mark.parametrize("n", range(2, mc._NETWORK_MAX_N + 2))
def test_ordered_selects_any_ranks_as_a_sort_does(n):
    # every set of ranks a row can read, each with its own pruned network; ties included
    block = np.random.default_rng(n).integers(0, 4, (500, n)).astype(float)
    want = np.sort(block, axis=1)
    for size in range(1, n + 1):
        for ranks in itertools.combinations(range(n), size):
            got = mc._ordered(block.copy(), ranks)
            assert len(got) == size and all(np.array_equal(g, want[:, r]) for g, r in zip(got, ranks))
    for extreme in (0, n - 1):  # the least or the greatest alone: a chain of n - 1 minima or maxima
        assert sum(low + high for _, low, high in mc._network(n, (extreme,))) == n - 1
        (got,) = mc._ordered(block.copy(), (extreme,))
        assert np.array_equal(got, want[:, extreme])


@pytest.mark.parametrize("n", [4, 8])
@pytest.mark.parametrize("mixed", [False, True], ids=["identity", "blend"])
def test_sampler_never_holds_the_whole_draw(n, mixed):
    # the peak's growth with m, not the peak itself: the quantile's own
    # m-long temporaries would otherwise make the bound depend on the family
    P = re.blend(n, 0.5) if mixed else re.identity(n)
    m = 200_000

    def peak(size):
        rng = np.random.default_rng(1)
        tracemalloc.start()
        try:
            mc.sample_judged(Exponential(1.0), n, P, 2, rng, size=size)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(2 * m) - peak(m) < n * 8 * m


@pytest.mark.parametrize(
    "estimate",
    [
        lambda sim: mc.mc_entropy(Design("irss", 4, re.blend(4, 0.5)), Normal(0.0, 1.0), sim),
        lambda sim: mc.mc_renyi(Design("rss", 3), Normal(0.0, 1.0), 2.0, sim),
        lambda sim: mc.mc_kl(Design("srs", 3), Normal(0.0, 1.0), Design("rss", 3), Normal(0.0, 1.0), sim),
    ],
    ids=["entropy-irss4-blend", "renyi-rss3", "kl-rss3"],
)
def test_estimators_keep_one_array_per_component(estimate):
    # each component scores its draws a block at a time into one m-long array of
    # 8-byte values; a mixed row adds its true ranks at one byte each
    mc.mc_entropy(Design("srs", 2), Normal(0.0, 1.0), mc.SimConfig(replications=100))  # imports scipy
    m = 200_000  # both runs span at least two whole blocks, whose temporaries do not grow with m

    def peak(replications):
        tracemalloc.start()
        try:
            estimate(mc.SimConfig(replications=replications, seed=1))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(2 * m) - peak(m) < 16 * m


def test_small_runs_take_their_error_from_twenty_batches():
    # 1000 draws used to give 2 batch means, one degree of freedom, and a
    # 2-sigma interval that held 33 times in 40
    truth = 3.0 - 2.0 * math.log(2.0)  # Shannon entropy of rss:2 on Exp(1)
    rss2, exp1 = Design("rss", 2), Exponential(1.0)
    runs = [mc.mc_entropy(rss2, exp1, mc.SimConfig(1000, seed=s)) for s in range(1, 41)]
    assert sum(abs(r.estimate - truth) <= 2.0 * r.std_error for r in runs) >= 36
    # batch_size is the longest batch: the default 10^6 draws keep 100 of 10 000
    values = np.random.default_rng(0).random(1_005_000)
    cases = ((1_000_000, 10_000, 100), (1000, 1000, 20), (25_000, 10_000, 20), (1_005_000, 10_000, 101))
    for m, batch_size, batches in cases:
        v = values[:m]
        means = v[: m // batches * batches].reshape(batches, -1).mean(axis=1)
        se = float(means.std(ddof=1) / math.sqrt(batches))
        assert mc._batch_stats(v, batch_size) == (float(v.mean()), se)


def test_vasicek_battery():
    m = 100_000
    window = int(math.sqrt(m))
    rng = np.random.default_rng(17)
    assert abs(mc.vasicek_entropy(rng.random(m), window) - 0.0) < 0.02
    assert abs(mc.vasicek_entropy(rng.exponential(size=m), window) - 1.0) < 0.02
    # min of two Exp(1) draws is Exp(2) with entropy 1 - log 2
    x = mc.sample_order_stat(Exponential(1.0), 2, 1, rng, size=m)
    assert abs(mc.vasicek_entropy(x, window) - (1.0 - math.log(2.0))) < 0.02


def test_vasicek_validation():
    with pytest.raises(ValueError):
        mc.vasicek_entropy([1.0, 2.0, 3.0], 5)  # sample too small for window
    with pytest.raises(ValueError):
        mc.vasicek_entropy(np.ones(100), 3)  # degenerate sample
    with pytest.raises(ValueError):
        mc.vasicek_entropy(np.arange(10.0), 0)
