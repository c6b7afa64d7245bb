import math

import numpy as np
import pytest

from rssinfo import closed_form as cf
from rssinfo import mc_oracle as mc
from rssinfo import ranking_error as re
from rssinfo.distributions import Exponential, Normal, Uniform
from rssinfo.measures import Design

FAST = mc.SimConfig(replications=200_000, seed=42)


def test_sim_config_validation():
    with pytest.raises(ValueError):
        mc.SimConfig(replications=10)
    with pytest.raises(ValueError):
        mc.SimConfig(batch_size=0)
    with pytest.raises(ValueError):
        mc.SimConfig(replications=1000, batch_size=2000)
    # the default batch is 10 000 draws, or every draw when there are fewer
    assert mc.SimConfig(replications=1000).batch_size == 1000
    assert mc.SimConfig(replications=20_000).batch_size == 10_000


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


def test_mc_renyi_matches_closed_forms():
    est = mc.mc_renyi(Design("srs", 2), Exponential(1.0), 2.0, FAST)
    assert abs(est.estimate - 2.0 * math.log(2.0)) < 3.0 * est.std_error
    est = mc.mc_renyi(Design("rss", 2), Exponential(1.0), 2.0, FAST)
    assert abs(est.estimate - math.log(3.0)) < 3.0 * est.std_error
    with pytest.raises(ValueError):
        mc.mc_renyi(Design("srs", 2), Exponential(1.0), 1.0, FAST)


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


def test_seed_reproducibility_is_bitwise():
    a = mc.mc_entropy(Design("rss", 2), Exponential(1.0), FAST)
    b = mc.mc_entropy(Design("rss", 2), Exponential(1.0), FAST)
    assert a.estimate == b.estimate
    assert a.std_error == b.std_error
    other = mc.mc_entropy(
        Design("rss", 2), Exponential(1.0), mc.SimConfig(replications=200_000, seed=43)
    )
    assert other.estimate != a.estimate


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
