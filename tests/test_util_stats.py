"""Tests for streaming stats, bucket histograms and percentiles."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.util.stats import (
    RunningStats,
    histogram_by_buckets,
    nearest_rank,
    percentile,
    summarize,
)

floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


class TestRunningStats:
    def test_empty(self):
        s = RunningStats()
        assert s.n == 0
        assert s.mean == 0.0
        assert s.variance == 0.0

    def test_single_value(self):
        s = RunningStats()
        s.add(5.0)
        assert s.mean == 5.0
        assert s.min == 5.0
        assert s.max == 5.0
        assert s.variance == 0.0

    def test_known_sequence(self):
        s = RunningStats()
        s.extend([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0])
        assert s.mean == pytest.approx(5.0)
        assert s.stdev == pytest.approx(np.std([2, 4, 4, 4, 5, 5, 7, 9], ddof=1))
        assert s.total == pytest.approx(40.0)

    @given(st.lists(floats, min_size=2, max_size=200))
    def test_matches_numpy(self, xs):
        s = RunningStats()
        s.extend(xs)
        assert s.mean == pytest.approx(np.mean(xs), rel=1e-9, abs=1e-6)
        assert s.variance == pytest.approx(np.var(xs, ddof=1), rel=1e-6, abs=1e-6)
        assert s.min == min(xs)
        assert s.max == max(xs)

    @given(st.lists(floats, min_size=1, max_size=50), st.lists(floats, min_size=1, max_size=50))
    def test_merge_equals_concat(self, a, b):
        sa, sb, sc = RunningStats(), RunningStats(), RunningStats()
        sa.extend(a)
        sb.extend(b)
        sc.extend(a + b)
        merged = sa.merge(sb)
        assert merged.n == sc.n
        assert merged.mean == pytest.approx(sc.mean, rel=1e-9, abs=1e-6)
        assert merged.variance == pytest.approx(sc.variance, rel=1e-6, abs=1e-6)
        assert merged.min == sc.min
        assert merged.max == sc.max

    def test_merge_empty(self):
        s = RunningStats()
        s.add(1.0)
        merged = s.merge(RunningStats())
        assert merged.n == 1
        assert merged.mean == 1.0


class TestHistogram:
    def test_paper_table1_style_buckets(self):
        # Bucket edges mirroring Table I's write-size rows.
        edges = [0, 64, 256, 1024, 4096, 16384, 65536]
        sizes = [32, 32, 100, 5000, 20000, 70000, 70000]
        rows = histogram_by_buckets(sizes, edges)
        assert [r.count for r in rows] == [2, 1, 0, 0, 1, 1, 2]
        assert rows[0].weight == 64  # two 32-byte writes
        assert rows[-1].hi == math.inf

    def test_weights_override(self):
        rows = histogram_by_buckets([1, 1, 10], [0, 5], weights=[2.0, 3.0, 7.0])
        assert rows[0].weight == 5.0
        assert rows[1].weight == 7.0

    def test_counts_and_weights_are_partitions(self):
        rng = np.random.default_rng(1)
        sizes = rng.integers(1, 10**6, size=500)
        rows = histogram_by_buckets(sizes, [0, 64, 1024, 65536])
        assert sum(r.count for r in rows) == 500
        assert sum(r.weight for r in rows) == pytest.approx(sizes.sum())

    def test_unsorted_edges_rejected(self):
        with pytest.raises(ValueError):
            histogram_by_buckets([1], [10, 0])

    def test_mismatched_weights_rejected(self):
        with pytest.raises(ValueError):
            histogram_by_buckets([1, 2], [0], weights=[1.0])

    def test_empty_edges_rejected(self):
        with pytest.raises(ValueError):
            histogram_by_buckets([1], [])

    @given(
        st.lists(st.floats(min_value=0, max_value=1e6, allow_nan=False), min_size=1, max_size=100)
    )
    def test_partition_property(self, vals):
        rows = histogram_by_buckets(vals, [0, 10, 1000])
        assert sum(r.count for r in rows) == len(vals)
        assert sum(r.weight for r in rows) == pytest.approx(sum(vals), rel=1e-9, abs=1e-6)


class TestPercentileSummary:
    def test_percentile_median(self):
        assert percentile([1, 2, 3, 4, 5], 50) == 3

    def test_percentile_bounds(self):
        with pytest.raises(ValueError):
            percentile([1], 101)
        with pytest.raises(ValueError):
            percentile([], 50)

    @pytest.mark.parametrize(
        "n,p50,p99", [(1, 1, 1), (2, 1, 2), (5, 3, 5), (9, 5, 9), (10, 5, 10)]
    )
    def test_nearest_rank_is_ceil_not_bankers_rounding(self, n, p50, p99):
        """Rank ceil(q/100 * n): the median of [1..5] is 3 and of [1..9]
        is 5 (``int(round(2.5))`` and ``int(round(4.5))`` gave 2 and 4)."""
        samples = [float(i) for i in range(n, 0, -1)]  # unsorted on purpose
        assert nearest_rank(samples, 50) == p50
        assert nearest_rank(samples, 99) == p99
        assert nearest_rank(samples, 100) == n
        assert nearest_rank(samples, 0) == 1

    def test_nearest_rank_empty_is_zero(self):
        assert nearest_rank([], 50) == 0.0

    def test_drain_percentiles_use_the_same_function(self):
        from repro.perf.runner import percentile as harness_percentile
        from repro.pipeline import FileDrained, PipelineStats

        stats = PipelineStats()
        for d in (1.0, 2.0, 3.0, 4.0, 5.0):
            stats.on_event(FileDrained(path="/f", duration=d, outstanding=1))
        tenant = stats.snapshot()["tenants"]["default"]
        assert (tenant["drain_p50"], tenant["drain_p99"]) == (3.0, 5.0)
        assert harness_percentile is nearest_rank

    def test_summarize(self):
        s = summarize([1.0, 2.0, 3.0])
        assert s["n"] == 3
        assert s["mean"] == pytest.approx(2.0)
        assert s["min"] == 1.0
        assert s["max"] == 3.0

    def test_summarize_empty(self):
        assert summarize([])["n"] == 0
