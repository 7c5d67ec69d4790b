"""Tests for CRFSConfig validation and derived values."""

import dataclasses

import pytest

from repro.config import CRFSConfig, DEFAULT_CONFIG, RetryPolicy, TenantSpec
from repro.errors import ConfigError
from repro.units import KiB, MiB


class TestDefaults:
    def test_paper_operating_point(self):
        # Section V-B: 4 MiB chunks, 16 MiB pool, 4 IO threads.
        assert DEFAULT_CONFIG.chunk_size == 4 * MiB
        assert DEFAULT_CONFIG.pool_size == 16 * MiB
        assert DEFAULT_CONFIG.io_threads == 4
        assert DEFAULT_CONFIG.retry == RetryPolicy(attempts=1)  # fail fast

    def test_pool_chunks(self):
        assert DEFAULT_CONFIG.pool_chunks == 4

    def test_frozen(self):
        with pytest.raises(Exception):
            DEFAULT_CONFIG.chunk_size = 1  # type: ignore[misc]

    def test_knob_count_is_a_tracked_yardstick(self):
        """ROADMAP aim 2 counts config knobs; a new one must be argued
        for (and this number moved) deliberately."""
        assert len(dataclasses.fields(CRFSConfig)) == 15


class TestOptionSet:
    """The exact option set.  Every field has a caller that sets it to
    a value other than its default; adding, renaming or dropping one
    changes this list, so a new knob is a reviewed diff."""

    def test_config_fields(self):
        assert [f.name for f in dataclasses.fields(CRFSConfig)] == [
            "chunk_size",
            "pool_size",
            "io_threads",
            "read_passthrough",
            "read_cache_chunks",
            "readahead_chunks",
            "readahead_adaptive",
            "write_through_threshold",
            "retry",
            "breaker_threshold",
            "writeback_batch_chunks",
            "tenants",
            "fsync_tier",
            "tier_pump_threads",
            "tier_pump_batch_chunks",
        ]

    def test_retry_policy_fields(self):
        assert [f.name for f in dataclasses.fields(RetryPolicy)] == [
            "attempts",
            "backoff",
            "backoff_max",
            "jitter",
        ]


class TestValidation:
    def test_zero_chunk_rejected(self):
        with pytest.raises(ConfigError):
            CRFSConfig(chunk_size=0)

    def test_unaligned_chunk_rejected(self):
        with pytest.raises(ConfigError):
            CRFSConfig(chunk_size=4 * KiB + 1, pool_size=16 * MiB)

    def test_pool_smaller_than_chunk_rejected(self):
        with pytest.raises(ConfigError):
            CRFSConfig(chunk_size=4 * MiB, pool_size=2 * MiB)

    def test_zero_threads_rejected(self):
        with pytest.raises(ConfigError):
            CRFSConfig(io_threads=0)

    def test_negative_queue_depth_rejected(self):
        # The work queue's only bound of its own is a tenant's quota.
        with pytest.raises(ConfigError):
            CRFSConfig(tenants=(TenantSpec("a", queue_quota=-1),))

    def test_pool_equal_chunk_ok(self):
        cfg = CRFSConfig(chunk_size=4 * MiB, pool_size=4 * MiB)
        assert cfg.pool_chunks == 1


class TestHelpers:
    def test_with_revalidates(self):
        cfg = CRFSConfig()
        with pytest.raises(ConfigError):
            cfg.with_(io_threads=0)

    def test_with_changes_field(self):
        cfg = CRFSConfig().with_(io_threads=8)
        assert cfg.io_threads == 8
        assert cfg.chunk_size == DEFAULT_CONFIG.chunk_size

    def test_from_sizes(self):
        cfg = CRFSConfig.from_sizes(chunk="128K", pool="8M", io_threads=2)
        assert cfg.chunk_size == 128 * KiB
        assert cfg.pool_size == 8 * MiB
        assert cfg.pool_chunks == 64

    def test_pool_chunks_floors_partial(self):
        cfg = CRFSConfig.from_sizes(chunk="4M", pool="15M")
        assert cfg.pool_chunks == 3
