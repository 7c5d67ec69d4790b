"""Small shared utilities: statistics, table rendering, deterministic RNG."""

from .stats import percentile, summarize
from .tables import TextTable
from .rng import rng_for

__all__ = [
    "percentile",
    "summarize",
    "TextTable",
    "rng_for",
]
