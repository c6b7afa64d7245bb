import numpy as np
import pytest

from rssinfo.distributions import Exponential, Normal, Uniform, Weibull


@pytest.fixture
def families():
    """The four parametric families exercised by every property grid."""
    return [Uniform(), Exponential(1.0), Normal(0.0, 1.0), Weibull(2.0, 1.0)]


@pytest.fixture
def members(families):
    """The families plus members off unit scale (1e-6 and 1e6) and off the
    origin (+-1e4), for the pointwise checks."""
    scaled = [m for s in (1e-6, 1e6) for m in (Exponential(1.0 / s), Normal(0.0, s), Weibull(2.0, s))]
    return families + scaled + [Normal(1e4, 1.0), Normal(-1e4, 1.0)]


@pytest.fixture
def interior_u():
    """A grid of quantile levels strictly inside (0, 1), tails included."""
    return np.concatenate(
        [
            np.array([1e-9, 1e-6, 1e-3]),
            np.linspace(0.01, 0.99, 25),
            1.0 - np.array([1e-3, 1e-6, 1e-9]),
        ]
    )
