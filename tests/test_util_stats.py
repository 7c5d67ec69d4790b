"""Tests for the percentile and summary helpers."""

import pytest

from repro.util.stats import nearest_rank, percentile, summarize


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
        from repro.pipeline import FileDrained, PipelineStats

        stats = PipelineStats()
        for d in (1.0, 2.0, 3.0, 4.0, 5.0):
            stats.on_event(FileDrained(path="/f", duration=d, outstanding=1))
        tenant = stats.snapshot()["tenants"]["default"]
        assert (tenant["drain_p50"], tenant["drain_p99"]) == (3.0, 5.0)

    def test_summarize(self):
        s = summarize([1.0, 2.0, 3.0])
        assert s["n"] == 3
        assert s["mean"] == pytest.approx(2.0)
        assert s["min"] == 1.0
        assert s["max"] == 3.0

    def test_summarize_empty(self):
        assert summarize([])["n"] == 0
