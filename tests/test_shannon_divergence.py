"""D(P) = sum_i int_0^1 w_i log w_i du, the matrix-only part of the Shannon
entropy H(design) = n H(f) - D(P).

H(Uniform(0, 1)) = 0, so a uniform parent's Shannon value is -D(P); these
tests read D through the public ``shannon``.
"""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rssinfo import measures as M
from rssinfo import ranking_error as re
from rssinfo.distributions import Exponential, Normal, Uniform, Weibull, parse_distribution
from rssinfo.measures import Design
from rssinfo.quadrature import DEFAULT_CONFIG, QuadratureConfig, QuadratureResult
from rssinfo.ranking_error import RankingErrorMatrix


def divergence(P: RankingErrorMatrix, force_numeric: bool) -> QuadratureResult:
    res = M.shannon(Design("irss", P.n, P), Uniform(), force_numeric=force_numeric)
    return replace(res, value=-res.value)


CLOSED = [
    *((f"identity-{n}", re.identity(n)) for n in (2, 3, 8, 20, 50)),
    *((f"2x2-p12={p}", re.two_by_two(p)) for p in (0.0, 0.1, 0.3, 0.5, 1.0)),
    *((f"uniform-{n}", re.uniform(n)) for n in (2, 5)),
]


@pytest.mark.parametrize("P", [P for _, P in CLOSED], ids=[name for name, _ in CLOSED])
def test_closed_divergence_matches_the_integral(P):
    closed, forced = divergence(P, False), divergence(P, True)
    assert closed.method == "closed-form" and forced.method == "quadrature"
    assert forced.converged
    assert abs(forced.value - closed.value) <= forced.error_estimate


@pytest.mark.parametrize("n, w", [(3, 0.5), (5, 0.25)])
def test_blend_divergence_matches_a_30_digit_oracle(n, w):
    mp = pytest.importorskip("mpmath")
    P = re.blend(n, w)
    with mp.workdps(30):
        coeff = [n * mp.binomial(n - 1, r) for r in range(n)]

        def row_term(p):
            def integrand(u):
                wu = mp.fsum(mp.mpf(pr) * c * u**r * (1 - u) ** (n - 1 - r) for r, (pr, c) in enumerate(zip(p, coeff)))
                return wu * mp.log(wu)

            return mp.quad(integrand, [0, 0.5, 1])

        ref = mp.fsum(row_term(p) for p in P.entries)
    res = divergence(P, False)
    assert res.converged
    assert abs(res.value - float(ref)) <= res.error_estimate


@st.composite
def birkhoff_mixtures(draw, max_n=8):
    """A doubly stochastic matrix of size 2..max_n as a convex mixture of permutation matrices."""
    n = draw(st.integers(2, max_n))
    perms = draw(st.lists(st.permutations(range(n)), min_size=1, max_size=4))
    weights = np.array(draw(st.lists(st.floats(0.05, 1.0), min_size=len(perms), max_size=len(perms))))
    weights /= weights.sum()
    return RankingErrorMatrix(sum(w * np.eye(n)[list(p)] for w, p in zip(weights, perms)))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(P=birkhoff_mixtures(), dist=st.sampled_from([Exponential(1.0), Normal(), Weibull(2.0, 1.0)]))
def test_divergence_on_birkhoff_mixtures(P, dist):
    # D = K(design || SRS) >= 0, and n H(f) - D agrees with the x-space integral
    d = divergence(P, True)
    assert d.value >= -d.error_estimate
    design = Design("irss", P.n, P)
    u = M.shannon(design, dist, force_numeric=True)
    x = M.shannon_x(design, dist)
    assert u.converged and x.converged
    assert abs(u.value - x.value) <= u.error_estimate + x.error_estimate


TIGHT = QuadratureConfig(abs_tol=1e-13, rel_tol=1e-12, max_subdivisions=4000)
ORDERING_LAWS = [parse_distribution(s) for s in ("exp:1", "norm:0,1", "weibull:2,1", "unif", "norm:1e6,1e-6", "exp:1e6")]


@settings(max_examples=15, deadline=None, derandomize=True)
@given(P=birkhoff_mixtures(max_n=50))
def test_provable_orderings_hold_on_birkhoff_mixtures(P):
    # for every doubly stochastic P: H(RSS) <= H(IRSS) <= n H(f), the same for H_a at a < 1,
    # and 0 <= K(SRS || IRSS) <= K(SRS || RSS), each within the summed errors of its two sides
    identity, uniform = re.identity(P.n), re.uniform(P.n)

    def ordered(*results):
        assert all(r.converged for r in results), results
        for lo, hi in zip(results, results[1:]):
            assert lo.value <= hi.value + lo.error_estimate + hi.error_estimate, (P.entries, lo, hi)

    for cfg in (DEFAULT_CONFIG, TIGHT):
        kl_rss, kl_irss = M.kl_srs_vs_design(identity, cfg=cfg), M.kl_srs_vs_design(P, cfg=cfg)
        ordered(QuadratureResult(0.0, 0.0, 0, True), kl_irss, kl_rss)
        for dist in ORDERING_LAWS:
            ordered(*(M.shannon(D, dist, cfg) for D in (identity, P, uniform)))
            for alpha in (0.3, 0.7, 0.95):
                ordered(*M.renyi_designs([identity, P, uniform], dist, alpha, cfg))


# (f, g) changed in location, scale, shape, family, and a scale pair far from 1
SANDWICH_PAIRS = [
    tuple(map(parse_distribution, pair))
    for pair in (
        ("norm:0,1", "norm:0.5,1"),
        ("norm:0,1", "norm:0,2"),
        ("weibull:2,1", "weibull:1.5,1"),
        ("weibull:2,1", "exp:1"),
        ("norm:1e6,1e-6", "norm:1e6,2e-6"),
    )
]


@settings(max_examples=15, deadline=None, derandomize=True)
@given(P=birkhoff_mixtures(max_n=50))
def test_two_sample_sandwich_holds_on_birkhoff_mixtures(P):
    # row i's judged densities are the mixtures sum_j p_ij f_(j) and sum_j p_ij g_(j), so joint
    # convexity of KL (Cover & Thomas, Thm 2.7.2) over the columns, then over the rows, gives
    # n K(f || g) = K(SRS_F || SRS_G) <= K(IRSS_F || IRSS_G) <= K(RSS_F || RSS_G) for every doubly stochastic P
    designs = (re.uniform(P.n), P, re.identity(P.n))
    for cfg in (DEFAULT_CONFIG, TIGHT):
        for f, g in SANDWICH_PAIRS:
            srs, irss, rss = (M.kl_two_sample(D, f, D, g, cfg) for D in designs)
            assert srs.converged and irss.converged and rss.converged, (f, g, srs, irss, rss)
            assert srs.value <= irss.value + srs.error_estimate + irss.error_estimate, (P.entries, f, g, srs, irss)
            assert irss.value <= rss.value + irss.error_estimate + rss.error_estimate, (P.entries, f, g, irss, rss)


@pytest.mark.parametrize("a", [1e-6, 1e6])
@pytest.mark.parametrize("family", [lambda loc, a: Normal(loc, a), lambda loc, a: Weibull(2.0, a)], ids=["norm", "weibull"])
def test_shannon_scale_equivariance_is_exact(family, a):
    # no Shannon integrand reads the parent, so H(aX + b) = H(X) + n log a
    # holds to the rounding of the shift alone, at every magnitude, and the
    # error covers that rounding: one ulp each of the shift and of the sum
    design = Design("irss", 5, re.blend(5, 0.5))
    ref = M.shannon(design, family(0.0, 1.0))
    res = M.shannon(design, family(3.0, a))
    shift = 5 * math.log(a)
    assert res.value == ref.value + shift
    assert res.error_estimate == ref.error_estimate + math.ulp(shift) + math.ulp(res.value)


# 40-digit Shannon entropy H(f) of each standard law the sweep reads
SWEEP_ENTROPY = {
    "exp:1": lambda mp: mp.mpf(1),
    "norm:0,1": lambda mp: mp.log(2 * mp.pi * mp.e) / 2,
    "weibull:2": lambda mp: mp.euler / 2 - mp.log(2) + 1,
    "unif": lambda mp: mp.mpf(0),
}


@pytest.mark.parametrize(
    "family",
    [
        "exp:1",
        "norm:0,1",
        "weibull:2",
        pytest.param(
            "unif",
            marks=pytest.mark.xfail(
                strict=True,
                reason="9 misses at p12 in [0.435, 0.505] are D(P)'s own bar: the fold's rounding floor (ROADMAP item 2)",
            ),
        ),
    ],
)
def test_forced_2x2_sweep_lies_within_its_error(family):
    # irss:2:p12 at 201 p12, forced numeric, against 2 H(f) - D(P) with
    # D(P) = 2 log 2 - eta(p11) - eta(p22) at 40 digits: the bar covers
    # the rounding of n H(f) and of the subtraction, not D's error alone
    mp = pytest.importorskip("mpmath")

    def sq_log(b):
        return b * b * mp.log(b) if b else 0

    def eta(a):  # 1/2 + [a^2 log a - (1-a)^2 log(1-a)] / (1-2a), 0 log 0 = 0; log 2 at a = 1/2
        if 2 * a == 1:
            return mp.log(2)
        return mp.mpf(1) / 2 + (sq_log(a) - sq_log(1 - a)) / (1 - 2 * a)

    dist, misses = parse_distribution(family), []
    with mp.workdps(40):
        h = SWEEP_ENTROPY[family](mp)
        for k in range(201):
            P = re.two_by_two(k / 200)
            p11, p22 = (mp.mpf(float(p)) for p in P.entries.diagonal())
            res = M.shannon(Design("irss", 2, P), dist, force_numeric=True)
            assert res.converged
            if not abs(res.value - (2 * h - (2 * mp.log(2) - eta(p11) - eta(p22)))) <= res.error_estimate:
                misses.append(k / 200)
    assert not misses, misses
