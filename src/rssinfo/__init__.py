"""Information measures of ranked set samples versus simple random samples.

Shannon, Renyi and Kullback-Leibler measures for perfect and imperfect
ranked set sampling designs, with distribution-free closed forms, an
adaptive quadrature engine, and an independent Monte Carlo oracle.
"""

from . import closed_form, mc_oracle, measures, order_stats, quadrature, ranking_error
from .distributions import (
    Distribution,
    Exponential,
    Normal,
    Support,
    Uniform,
    Weibull,
    parse_distribution,
)
from .measures import Design
from .quadrature import QuadratureConfig, QuadratureResult
from .ranking_error import RankingErrorMatrix

__all__ = [
    "Design",
    "Distribution",
    "Exponential",
    "Normal",
    "QuadratureConfig",
    "QuadratureResult",
    "RankingErrorMatrix",
    "Support",
    "Uniform",
    "Weibull",
    "closed_form",
    "mc_oracle",
    "measures",
    "order_stats",
    "parse_distribution",
    "quadrature",
    "ranking_error",
]

__version__ = "0.1.0"
