"""Tests for CRFSConfig validation and derived values."""

import ast
import dataclasses
import inspect
import pathlib

import pytest

import repro
from repro.backends.tiered import TieredBackend
from repro.config import CRFSConfig, DEFAULT_CONFIG, RetryPolicy, TenantSpec
from repro.core.buffer_pool import BufferPool
from repro.core.filetable import FileEntry
from repro.core.readcache import ReadCache
from repro.errors import ConfigError
from repro.pipeline.delta import DeltaTracker
from repro.pipeline.kernel import FilePipeline
from repro.pipeline.readahead import ReadaheadCore
from repro.pipeline.resilience import BackendHealth
from repro.pipeline.staging import StagingCore
from repro.simcrfs.model import SimReadCache
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
        assert len(dataclasses.fields(CRFSConfig)) == 14


class TestOptionSet:
    """The exact option set.  Every field has a caller that sets it to
    a value other than its default; adding, renaming or dropping one
    changes this list, so a new knob is a reviewed diff."""

    def test_config_fields(self):
        assert [f.name for f in dataclasses.fields(CRFSConfig)] == [
            "chunk_size",
            "pool_size",
            "io_threads",
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

    def test_every_field_has_a_caller(self):
        """The class docstring's rule, checked: each field is passed by
        keyword to ``CRFSConfig(...)``, ``.with_(...)`` or
        ``from_sizes(...)`` somewhere in the package outside
        ``config.py`` itself."""
        package = pathlib.Path(repro.__file__).parent
        makers = {"CRFSConfig", "with_", "from_sizes"}
        passed = set()
        for path in package.rglob("*.py"):
            if path == package / "config.py":
                continue
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name in makers:
                    passed.update(k.arg for k in node.keywords if k.arg is not None)
        fields = [f.name for f in dataclasses.fields(CRFSConfig)]
        assert [name for name in fields if name not in passed] == []

    def test_retry_policy_fields(self):
        assert [f.name for f in dataclasses.fields(RetryPolicy)] == [
            "attempts",
            "backoff",
            "backoff_max",
            "jitter",
        ]


class TestPartWiring:
    """One wire from a pipeline part to its mount: the mount's
    ``PipelineKernel``, which supplies the chunk size, the record stream
    and the clock.  No part takes an ``emit`` or a ``clock`` of its own,
    and no part defaults the retry policy or the breaker it is fed, so
    every record of a mount goes out on one stream and one clock.  The
    exact parameter lists (26 in all) make a new wire a reviewed
    diff."""

    PARTS = {
        FilePipeline.__init__: ["path", "kernel", "lock", "tenant"],
        FileEntry.__init__: ["path", "backend_handle", "kernel", "tenant"],
        ReadaheadCore.__init__: ["path", "kernel", "capacity", "depth", "adaptive"],
        DeltaTracker.__init__: ["path", "kernel"],
        StagingCore.__init__: ["ntiers", "kernel", "fsync_tier"],
        BackendHealth.__init__: ["kernel", "threshold", "tier"],
        BufferPool.__init__: ["kernel", "pool_size", "reservations"],
        TieredBackend.bind: ["kernel", "config"],
    }

    @staticmethod
    def params(fn):
        return {n: p for n, p in inspect.signature(fn).parameters.items() if n != "self"}

    @pytest.mark.parametrize("fn", PARTS, ids=lambda fn: fn.__qualname__)
    def test_each_part_takes_the_kernel_and_no_emit_or_clock(self, fn):
        params = self.params(fn)
        assert list(params) == self.PARTS[fn]
        assert params["kernel"].default is inspect.Parameter.empty

    def test_the_parts_take_26_parameters(self):
        assert sum(len(names) for names in self.PARTS.values()) == 26

    @pytest.mark.parametrize(
        "fn", [*PARTS, ReadCache.__init__], ids=lambda fn: fn.__qualname__
    )
    def test_the_breaker_and_retry_policy_have_no_default(self, fn):
        params = self.params(fn)
        for name in ("retry", "health"):
            if name in params:
                assert params[name].default is inspect.Parameter.empty

    def test_a_read_cache_takes_its_mount_file_and_core_on_both_planes(self):
        assert list(self.params(ReadCache.__init__)) == ["fs", "entry", "core"]
        assert list(self.params(SimReadCache.__init__)) == ["fs", "f", "core"]


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

    def test_zero_batch_rejected(self):
        # The IO workers take at least one chunk per dequeue.
        with pytest.raises(ConfigError):
            CRFSConfig(writeback_batch_chunks=0)

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
