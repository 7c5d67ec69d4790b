"""Tests for the pure write-aggregation planner — including the
property-based invariants both planes rely on."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.pipeline.planner import Fill, Seal, SealReason, WritePlanner
from repro.errors import ConfigError


def run_plan(planner, writes, flush=True):
    """Drive the planner; return (fills, seals) in emission order."""
    fills, seals = [], []
    for offset, length in writes:
        for op in planner.write(offset, length):
            (fills if isinstance(op, Fill) else seals).append(op)
    if flush:
        for op in planner.flush():
            seals.append(op)
    return fills, seals


class TestSequentialAggregation:
    def test_small_writes_coalesce_into_one_chunk(self):
        p = WritePlanner(chunk_size=1024)
        fills, seals = run_plan(p, [(0, 100), (100, 200), (300, 50)])
        assert len(seals) == 1
        assert seals[0] == Seal(file_offset=0, length=350, reason=SealReason.FLUSH)
        assert [f.chunk_offset for f in fills] == [0, 100, 300]

    def test_chunk_seals_exactly_at_boundary(self):
        p = WritePlanner(chunk_size=256)
        fills, seals = run_plan(p, [(0, 256)], flush=False)
        assert len(seals) == 1
        assert seals[0].reason == SealReason.FULL
        assert seals[0].length == 256
        assert p.chunk_fill == 0

    def test_large_write_spans_chunks(self):
        p = WritePlanner(chunk_size=100)
        fills, seals = run_plan(p, [(0, 350)])
        assert [s.length for s in seals] == [100, 100, 100, 50]
        assert [s.file_offset for s in seals] == [0, 100, 200, 300]
        assert [s.reason for s in seals] == [
            SealReason.FULL,
            SealReason.FULL,
            SealReason.FULL,
            SealReason.FLUSH,
        ]

    def test_typical_checkpoint_stream(self):
        # BLCR-style: many small metadata writes then large region data.
        p = WritePlanner(chunk_size=4096)
        writes = []
        off = 0
        for size in [32, 32, 64, 4096 * 2, 32, 2048]:
            writes.append((off, size))
            off += size
        fills, seals = run_plan(p, writes)
        # Aggregation invariant: far fewer seals than writes.
        assert len(seals) < len(writes)
        # Coverage invariant: seals tile the file exactly.
        pos = 0
        for s in seals:
            assert s.file_offset == pos
            pos += s.length
        assert pos == off


class TestGapsAndRewinds:
    def test_forward_gap_seals_partial(self):
        p = WritePlanner(chunk_size=1024)
        fills, seals = run_plan(p, [(0, 100), (500, 100)], flush=False)
        assert len(seals) == 1
        assert seals[0] == Seal(file_offset=0, length=100, reason=SealReason.GAP)
        assert p.chunk_file_offset == 500
        assert p.chunk_fill == 100

    def test_rewind_seals_partial(self):
        p = WritePlanner(chunk_size=1024)
        _, seals = run_plan(p, [(100, 50), (0, 10)], flush=False)
        assert seals[0].reason == SealReason.GAP
        assert p.chunk_file_offset == 0

    def test_gap_write_into_empty_chunk_no_seal(self):
        p = WritePlanner(chunk_size=1024)
        _, seals = run_plan(p, [(5000, 10)], flush=False)
        assert seals == []
        assert p.chunk_file_offset == 5000

    def test_contiguous_write_after_gap_continues(self):
        p = WritePlanner(chunk_size=1024)
        _, seals = run_plan(p, [(0, 10), (100, 10), (110, 10)])
        # one GAP seal, then 100..120 coalesce, one FLUSH seal
        assert [s.reason for s in seals] == [SealReason.GAP, SealReason.FLUSH]
        assert seals[1] == Seal(file_offset=100, length=20, reason=SealReason.FLUSH)


class TestEdgeCases:
    def test_zero_length_write_is_noop(self):
        p = WritePlanner(chunk_size=64)
        assert p.write(0, 0) == []
        assert (p.chunk_fill, p.size, p.sealed_chunks) == (0, 0, 0)

    def test_flush_empty_is_noop(self):
        p = WritePlanner(chunk_size=64)
        assert p.flush() == []

    def test_double_flush(self):
        p = WritePlanner(chunk_size=64)
        p.write(0, 10)
        assert len(p.flush()) == 1
        assert p.flush() == []

    def test_negative_offset_rejected(self):
        with pytest.raises(ValueError):
            WritePlanner(64).write(-1, 10)

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            WritePlanner(64).write(0, -10)

    def test_bad_chunk_size_rejected(self):
        with pytest.raises(ConfigError):
            WritePlanner(0)

    def test_write_exactly_chunk_size_multiple(self):
        p = WritePlanner(chunk_size=100)
        _, seals = run_plan(p, [(0, 300)], flush=False)
        assert [s.reason for s in seals] == [SealReason.FULL] * 3

    def test_stats_accumulate(self):
        p = WritePlanner(chunk_size=100)
        fills, seals = run_plan(p, [(0, 50), (50, 100), (1000, 10)])
        assert sum(f.length for f in fills) == 160
        assert p.sealed_chunks == len(seals) == 3  # full, gap, flush
        assert p.size == 1010


# -- property-based invariants ------------------------------------------------

sequential_writes = st.lists(
    st.integers(min_value=1, max_value=5000), min_size=1, max_size=60
)


@st.composite
def arbitrary_writes(draw):
    """(offset, length) streams with gaps, rewinds and overlaps."""
    n = draw(st.integers(min_value=1, max_value=40))
    out = []
    for _ in range(n):
        out.append(
            (
                draw(st.integers(min_value=0, max_value=20000)),
                draw(st.integers(min_value=0, max_value=5000)),
            )
        )
    return out


class TestPlannerProperties:
    @given(sizes=sequential_writes, chunk=st.sampled_from([64, 100, 4096]))
    @settings(max_examples=80)
    def test_sequential_stream_tiles_file_exactly(self, sizes, chunk):
        """For a sequential stream, seals partition [0, total) in order."""
        p = WritePlanner(chunk)
        writes, off = [], 0
        for s in sizes:
            writes.append((off, s))
            off += s
        _, seals = run_plan(p, writes)
        pos = 0
        for s in seals:
            assert s.file_offset == pos
            assert 0 < s.length <= chunk
            pos += s.length
        assert pos == off

    @given(sizes=sequential_writes, chunk=st.sampled_from([64, 100, 4096]))
    @settings(max_examples=80)
    def test_sequential_stream_never_gap_seals(self, sizes, chunk):
        p = WritePlanner(chunk)
        off = 0
        for s in sizes:
            for op in p.write(off, s):
                if isinstance(op, Seal):
                    assert op.reason == SealReason.FULL
            off += s

    @given(writes=arbitrary_writes(), chunk=st.sampled_from([64, 1000]))
    @settings(max_examples=80)
    def test_fills_cover_written_ranges_exactly(self, writes, chunk):
        """Fill ops reproduce each write byte-for-byte, in order."""
        p = WritePlanner(chunk)
        for offset, length in writes:
            ops = p.write(offset, length)
            fills = [op for op in ops if isinstance(op, Fill)]
            covered = 0
            for f in fills:
                assert f.data_offset == covered
                assert f.file_offset == offset + covered
                covered += f.length
            assert covered == length

    @given(writes=arbitrary_writes(), chunk=st.sampled_from([64, 1000]))
    @settings(max_examples=80)
    def test_seal_lengths_match_fills(self, writes, chunk):
        """Each sealed chunk's length equals the fills put into it, and
        conservation holds: sealed bytes + residual == written bytes."""
        p = WritePlanner(chunk)
        current_fill = 0
        sealed_bytes = 0
        written = 0
        ops = []
        for offset, length in writes:
            written += length
            ops.extend(p.write(offset, length))
        ops.extend(p.flush())
        for op in ops:
            if isinstance(op, Fill):
                assert op.chunk_offset == current_fill
                current_fill += op.length
                assert current_fill <= chunk
            else:
                assert op.length == current_fill
                sealed_bytes += op.length
                current_fill = 0
        assert current_fill == 0  # flushed
        assert sealed_bytes == written

    @given(writes=arbitrary_writes(), chunk=st.sampled_from([64, 1000]))
    @settings(max_examples=50)
    def test_sealed_chunk_is_contiguous_file_range(self, writes, chunk):
        """Within one chunk, fills form one contiguous file range starting
        at the seal's file_offset."""
        p = WritePlanner(chunk)
        ops = []
        for offset, length in writes:
            ops.extend(p.write(offset, length))
        ops.extend(p.flush())
        pending: list[Fill] = []
        for op in ops:
            if isinstance(op, Fill):
                pending.append(op)
            else:
                expect = op.file_offset
                for f in pending:
                    assert f.file_offset == expect
                    expect += f.length
                assert expect == op.file_offset + op.length
                pending = []
