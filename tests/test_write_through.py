"""Tests for the write-through ablation (large writes bypass aggregation)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.backends import InstrumentedBackend, MemBackend
from repro.config import CRFSConfig
from repro.core import CRFS
from repro.pipeline.planner import SealReason, WritePlanner
from repro.errors import ConfigError
from repro.units import KiB


def wt_config(threshold=64 * KiB):
    return CRFSConfig(
        chunk_size=16 * KiB,
        pool_size=128 * KiB,
        io_threads=2,
        write_through_threshold=threshold,
    )


class TestPlannerExternalWrite:
    def test_seals_partial_then_repositions(self):
        p = WritePlanner(chunk_size=100)
        p.write(0, 40)
        ops = p.note_external_write(40, 500)
        assert len(ops) == 1
        assert ops[0].reason == SealReason.FLUSH
        assert ops[0].length == 40
        assert p.append_point == 540
        assert p.chunk_fill == 0

    def test_no_partial_no_seal(self):
        p = WritePlanner(chunk_size=100)
        assert p.note_external_write(0, 500) == []
        assert p.append_point == 500

    def test_subsequent_writes_continue_after(self):
        p = WritePlanner(chunk_size=100)
        p.note_external_write(0, 250)
        ops = p.write(250, 30)
        assert len(ops) == 1  # one Fill, no gap seal
        assert p.chunk_file_offset == 250

    def test_stats_counted(self):
        p = WritePlanner(chunk_size=100)
        # The planner keeps the write's extent; ``stats()`` counts the
        # write itself (TestWriteThroughMount::test_stats_exposed).
        p.note_external_write(0, 500)
        assert (p.size, p.sealed_chunks) == (500, 0)

    def test_negative_rejected(self):
        p = WritePlanner(chunk_size=100)
        with pytest.raises(ValueError):
            p.note_external_write(-1, 10)


class TestWriteThroughMount:
    def test_large_write_goes_straight_to_backend(self):
        backend = InstrumentedBackend(MemBackend())
        with CRFS(backend, wt_config()) as fs:
            with fs.open("/f") as f:
                f.write(b"L" * (64 * KiB))  # at threshold -> direct
            assert fs.stats()["write_through_bytes"] == 64 * KiB
        # the direct write is a single backend pwrite of the full size
        assert 64 * KiB in backend.write_sizes()

    def test_small_writes_still_aggregate(self):
        backend = InstrumentedBackend(MemBackend())
        with CRFS(backend, wt_config()) as fs:
            with fs.open("/f") as f:
                for _ in range(32):
                    f.write(b"s" * 1024)  # 32 KiB -> 2 chunks of 16 KiB
            assert fs.stats()["write_through_bytes"] == 0
        assert max(backend.write_sizes()) <= 16 * KiB

    def test_mixed_stream_content_correct(self):
        backend = MemBackend()
        with CRFS(backend, wt_config()) as fs:
            with fs.open("/f") as f:
                f.write(b"a" * 1000)          # buffered
                f.write(b"B" * (64 * KiB))    # direct (flushes the partial first)
                f.write(b"c" * 500)           # buffered again
        expected = b"a" * 1000 + b"B" * (64 * KiB) + b"c" * 500
        assert backend.read_file("/f") == expected

    def test_partial_chunk_flushed_not_lost(self):
        # The buffered prefix is sealed (asynchronously) when the direct
        # write happens; ranges are disjoint so order doesn't matter, but
        # both must reach the backend by close().
        backend = InstrumentedBackend(MemBackend())
        with CRFS(backend, wt_config()) as fs:
            with fs.open("/f") as f:
                f.write(b"x" * 1000)
                f.write(b"Y" * (64 * KiB))
        ops = backend.ops("pwrite")
        assert {op.offset for op in ops} == {0, 1000}
        assert backend.inner.read_file("/f") == b"x" * 1000 + b"Y" * (64 * KiB)

    def test_disabled_by_default(self):
        backend = InstrumentedBackend(MemBackend())
        cfg = CRFSConfig(chunk_size=16 * KiB, pool_size=128 * KiB)
        with CRFS(backend, cfg) as fs:
            with fs.open("/f") as f:
                f.write(b"L" * (256 * KiB))
            assert fs.stats()["write_through_bytes"] == 0
        assert max(backend.write_sizes()) <= 16 * KiB

    def test_negative_threshold_rejected(self):
        with pytest.raises(ConfigError):
            CRFSConfig(write_through_threshold=-1)

    def test_stats_exposed(self):
        with CRFS(MemBackend(), wt_config()) as fs:
            with fs.open("/f") as f:
                f.write(b"L" * (64 * KiB))
            assert fs.stats()["write_through_bytes"] == 64 * KiB

    @given(
        sizes=st.lists(
            st.sampled_from([64, 1024, 8 * KiB, 64 * KiB, 100 * KiB]),
            min_size=1,
            max_size=15,
        )
    )
    @settings(max_examples=25, deadline=None)
    def test_roundtrip_property_with_write_through(self, sizes):
        backend = MemBackend()
        with CRFS(backend, wt_config()) as fs:
            expected = bytearray()
            with fs.open("/f") as f:
                for i, s in enumerate(sizes):
                    payload = bytes([i % 256]) * s
                    f.write(payload)
                    expected.extend(payload)
        assert backend.read_file("/f") == bytes(expected)
