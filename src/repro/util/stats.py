"""Statistics helpers used by traces, profiles and experiment reports.

Numpy-backed where it matters (bucket histograms over large traces),
pure-python where streaming matters (RunningStats is O(1) memory so the
IO threads can keep per-thread stats without retaining samples).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = ["RunningStats", "histogram_by_buckets", "nearest_rank", "percentile", "summarize"]


class RunningStats:
    """Streaming mean/variance/min/max (Welford's algorithm).

    O(1) memory; safe to merge across threads after the fact via ``merge``.
    """

    __slots__ = ("n", "_mean", "_m2", "min", "max", "total")

    def __init__(self) -> None:
        self.n = 0
        self._mean = 0.0
        self._m2 = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.total = 0.0

    def add(self, x: float) -> None:
        self.n += 1
        self.total += x
        delta = x - self._mean
        self._mean += delta / self.n
        self._m2 += delta * (x - self._mean)
        if x < self.min:
            self.min = x
        if x > self.max:
            self.max = x

    def extend(self, xs: Iterable[float]) -> None:
        for x in xs:
            self.add(x)

    @property
    def mean(self) -> float:
        return self._mean if self.n else 0.0

    @property
    def variance(self) -> float:
        return self._m2 / (self.n - 1) if self.n > 1 else 0.0

    @property
    def stdev(self) -> float:
        return math.sqrt(self.variance)

    def merge(self, other: "RunningStats") -> "RunningStats":
        """Combine two streams (Chan et al. parallel variance merge)."""
        out = RunningStats()
        out.n = self.n + other.n
        if out.n == 0:
            return out
        delta = other._mean - self._mean
        out._mean = self._mean + delta * other.n / out.n
        out._m2 = self._m2 + other._m2 + delta * delta * self.n * other.n / out.n
        out.min = min(self.min, other.min)
        out.max = max(self.max, other.max)
        out.total = self.total + other.total
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"RunningStats(n={self.n}, mean={self.mean:.4g}, "
            f"stdev={self.stdev:.4g}, min={self.min:.4g}, max={self.max:.4g})"
        )


@dataclass(frozen=True)
class BucketRow:
    """One row of a bucketed histogram: [lo, hi) with count and weight."""

    lo: float
    hi: float
    count: int
    weight: float

    @property
    def label(self) -> str:
        return f"[{self.lo:g}, {self.hi:g})"


def histogram_by_buckets(
    values: Sequence[float] | np.ndarray,
    edges: Sequence[float],
    weights: Sequence[float] | np.ndarray | None = None,
) -> list[BucketRow]:
    """Bucket ``values`` by ``edges`` (half-open; final bucket is open-ended).

    ``edges`` of length k produce k buckets: ``[e0,e1), ... [e_{k-1}, inf)``.
    ``weights`` (same length as values) accumulate per-bucket; defaults to
    the values themselves (so a write-size histogram also totals bytes).
    """
    vals = np.asarray(values, dtype=float)
    if weights is None:
        wts = vals
    else:
        wts = np.asarray(weights, dtype=float)
        if wts.shape != vals.shape:
            raise ValueError("weights must match values in length")
    if len(edges) < 1:
        raise ValueError("need at least one bucket edge")
    if list(edges) != sorted(edges):
        raise ValueError("edges must be sorted ascending")
    full_edges = np.asarray(list(edges) + [np.inf], dtype=float)
    idx = np.searchsorted(full_edges, vals, side="right") - 1
    rows: list[BucketRow] = []
    for b in range(len(edges)):
        mask = idx == b
        rows.append(
            BucketRow(
                lo=float(full_edges[b]),
                hi=float(full_edges[b + 1]),
                count=int(mask.sum()),
                weight=float(wts[mask].sum()),
            )
        )
    return rows


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
