"""Percentile and summary helpers for experiment reports and stats
snapshots: interpolating (numpy) for the paper-figure reports,
nearest-rank (pure Python) where both planes must agree exactly.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

__all__ = ["nearest_rank", "percentile", "summarize"]


def percentile(values: Sequence[float], q: float) -> float:
    """Percentile with linear interpolation; q in [0, 100]."""
    if not 0 <= q <= 100:
        raise ValueError(f"q must be in [0, 100], got {q}")
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        raise ValueError("percentile of empty sequence")
    return float(np.percentile(arr, q))


def nearest_rank(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least ``q``
    percent of the samples at or below it (rank ``ceil(q/100 * n)``).

    No interpolation and no numpy, so both planes — and the perf
    harness — compute the identical value from the identical sample
    sequence; an empty set reports 0.0 so idle tenants keep a full key
    set.  (:func:`percentile` interpolates and feeds the paper-figure
    reports.)
    """
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = math.ceil(q / 100.0 * len(ordered))
    return ordered[min(len(ordered), max(1, rank)) - 1]


def summarize(values: Sequence[float]) -> dict[str, float]:
    """Mean / p50 / p95 / min / max summary used in experiment reports."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        return {"n": 0, "mean": 0.0, "p50": 0.0, "p95": 0.0, "min": 0.0, "max": 0.0}
    return {
        "n": int(arr.size),
        "mean": float(arr.mean()),
        "p50": float(np.percentile(arr, 50)),
        "p95": float(np.percentile(arr, 95)),
        "min": float(arr.min()),
        "max": float(arr.max()),
    }
