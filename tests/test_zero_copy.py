"""Zero-copy hot path: copy accounting, ``pread_into``, aliasing.

The PR's contract, unit-by-unit:

* :class:`~repro.pipeline.copies.CopyLedger` and the ``stats()["mem"]``
  section it backs — every budgeted copy site counted, nothing else;
* ``Backend.pread_into`` — the readinto-style read that lets the cache
  fill pooled buffers without the backend-boundary ``bytes``;
* the pwrite **aliasing contract** — backends consume the caller's
  buffer before returning, so mutating a ``bytearray`` the moment
  ``pwrite``/``write`` returns never corrupts what was written;
* :meth:`~repro.core.chunk.Chunk.fill_external` — the fetch path's
  zero-copy twin of ``append``;
* the read cache's deferred release — a multi-chunk read that evicts a
  chunk mid-collection must still serve the evicted chunk's bytes and
  leak nothing back to the pool;
* ``DRRScheduler.gather`` — the in-place scan preserves relative order
  around skipped items in both fair and fifo modes;
* the copy itself — ``Chunk.append``, ``MemBackend.pwrite`` and the
  base ``pread_into`` each move a byte once, with no interpreter-made
  temporary; a bulk ``append`` does it with the GIL released; and every
  buffer kind ``write()`` accepts reaches the backend exact on both
  arms of :data:`~repro.core.chunk.BULK_COPY_BYTES`.
"""

import copy
import ctypes
import hashlib
import mmap
import os
import random
import sys
import threading
import time
import tracemalloc
from array import array

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.backends import (
    FaultRule,
    FaultyBackend,
    InstrumentedBackend,
    LocalDirBackend,
    MemBackend,
    TieredBackend,
)
from repro.backends.base import Backend, byte_view
from repro.config import CRFSConfig
from repro.core import CRFS
from repro.core.chunk import BULK_COPY_BYTES, Chunk
from repro.errors import FileStateError
from repro.experiments.crossplane import arms, metrics, play_sim
from repro.pipeline.copies import COPY_SITES, FETCH, INGEST, READ_BOUNDARY, CopyLedger
from repro.pipeline.events import CopyObserved
from repro.pipeline.kernel import PipelineKernel
from repro.pipeline.readahead import DEMAND, CacheEntry, ReadaheadCore
from repro.pipeline.stats import PipelineStats
from repro.pipeline.tenancy import DRRScheduler
from repro.units import KiB, MiB

CHUNK = 64 * KiB


# -- the ledger ---------------------------------------------------------------


class TestCopyLedger:
    def test_records_totals_and_sites(self):
        ledger = CopyLedger()
        ledger.record(INGEST, 100)
        ledger.record(INGEST, 50)
        ledger.record(READ_BOUNDARY, 7)
        snap = ledger.snapshot()
        assert snap["copies"] == 3
        assert snap["bytes_copied"] == 157
        assert snap["by_site"][INGEST] == {"copies": 2, "bytes": 150}
        assert snap["by_site"][READ_BOUNDARY] == {"copies": 1, "bytes": 7}

    def test_all_sites_preseeded_at_zero(self):
        snap = CopyLedger().snapshot()
        assert snap["bytes_copied"] == 0
        assert snap["copies"] == 0
        assert set(snap["by_site"]) == set(COPY_SITES)
        for site in COPY_SITES:
            assert snap["by_site"][site] == {"copies": 0, "bytes": 0}

    def test_unknown_site_admitted(self):
        ledger = CopyLedger()
        ledger.record("mystery", 9)
        snap = ledger.snapshot()
        assert snap["by_site"]["mystery"] == {"copies": 1, "bytes": 9}
        assert snap["bytes_copied"] == 9

    def test_snapshot_is_independent(self):
        ledger = CopyLedger()
        ledger.record(FETCH, 4)
        snap = ledger.snapshot()
        snap["by_site"][FETCH]["bytes"] = 999
        assert ledger.snapshot()["by_site"][FETCH]["bytes"] == 4


class TestStatsMemSection:
    def test_copy_events_feed_the_mem_section(self):
        """Each copy is counted where it is made; the registry takes no
        ``CopyObserved`` record."""
        kernel = PipelineKernel(CHUNK, pool_chunks=4)
        pipeline = kernel.file("/f")
        pipeline.note_write(0, 100)
        pipeline.note_write(100, 28)
        core = ReadaheadCore("/f", kernel, capacity=4, depth=0)
        core.fill_done(CacheEntry(0, DEMAND), CHUNK)
        kernel.stats.on_event(CopyObserved(path="/f", site=INGEST, length=1))
        mem = kernel.snapshot()["mem"]
        assert mem["copies"] == 3
        assert mem["bytes_copied"] == 128 + CHUNK
        assert mem["by_site"][INGEST] == {"copies": 2, "bytes": 128}
        assert mem["by_site"][FETCH] == {"copies": 1, "bytes": CHUNK}
        assert mem["by_site"][READ_BOUNDARY] == {"copies": 0, "bytes": 0}

    def test_idle_snapshot_keeps_full_schema(self):
        mem = PipelineStats().snapshot()["mem"]
        assert mem == {
            "bytes_copied": 0,
            "copies": 0,
            "by_site": {s: {"copies": 0, "bytes": 0} for s in COPY_SITES},
        }


# -- pread_into across backends -----------------------------------------------


@pytest.fixture(params=["mem", "localdir"])
def backend(request, tmp_path):
    if request.param == "mem":
        return MemBackend()
    return LocalDirBackend(str(tmp_path / "root"))


class TestPreadInto:
    def test_fills_buffer(self, backend):
        fd = backend.open("/f")
        backend.pwrite(fd, b"0123456789", 0)
        buf = bytearray(4)
        assert backend.pread_into(fd, buf, 3) == 4
        assert bytes(buf) == b"3456"
        backend.close(fd)

    def test_short_read_at_eof(self, backend):
        fd = backend.open("/f")
        backend.pwrite(fd, b"abc", 0)
        buf = bytearray(10)
        assert backend.pread_into(fd, buf, 1) == 2
        assert bytes(buf[:2]) == b"bc"
        backend.close(fd)

    def test_offset_past_eof_reads_nothing(self, backend):
        fd = backend.open("/f")
        backend.pwrite(fd, b"abc", 0)
        buf = bytearray(b"\xff" * 8)
        assert backend.pread_into(fd, buf, 100) == 0
        assert bytes(buf) == b"\xff" * 8
        backend.close(fd)

    def test_memoryview_slice_destination(self, backend):
        fd = backend.open("/f")
        backend.pwrite(fd, b"0123456789", 0)
        buf = bytearray(b"." * 10)
        assert backend.pread_into(fd, memoryview(buf)[2:6], 4) == 4
        assert bytes(buf) == b"..4567...."
        backend.close(fd)

    def test_base_default_splices_through_pread(self, backend):
        # The unbound base-class method is the pread-and-splice fallback
        # every backend inherits; it must agree with the overrides.
        fd = backend.open("/f")
        backend.pwrite(fd, b"0123456789", 0)
        buf = bytearray(6)
        assert Backend.pread_into(backend, fd, buf, 2) == 6
        assert bytes(buf) == b"234567"
        backend.close(fd)

    def test_tiered_serves_from_tier_zero(self):
        tiered = TieredBackend([MemBackend(), MemBackend()])
        try:
            fd = tiered.open("/f")
            tiered.pwrite(fd, b"staged bytes", 0)
            buf = bytearray(12)
            assert tiered.pread_into(fd, buf, 0) == 12
            assert bytes(buf) == b"staged bytes"
            tiered.close(fd)
        finally:
            tiered.shutdown()

    def test_instrumented_records_the_op(self):
        inst = InstrumentedBackend(MemBackend())
        fd = inst.open("/f")
        inst.pwrite(fd, b"xyzw", 0)
        buf = bytearray(4)
        inst.pread_into(fd, buf, 0)
        recs = inst.ops("pread_into")
        assert len(recs) == 1
        assert recs[0].size == 4
        assert recs[0].offset == 0
        inst.close(fd)

    def test_faulty_matches_pread_rules(self):
        # pread_into is the same logical op as pread: one rule vocabulary
        # covers both buffer-ownership variants.
        boom = OSError("injected")
        faulty = FaultyBackend(MemBackend(), [FaultRule(op="pread", error=boom)])
        fd = faulty.open("/f")
        faulty.pwrite(fd, b"abcd", 0)
        with pytest.raises(OSError, match="injected"):
            faulty.pread_into(fd, bytearray(4), 0)
        # The rule was one-shot (nth=1): the next read goes through.
        buf = bytearray(4)
        assert faulty.pread_into(fd, buf, 0) == 4
        assert bytes(buf) == b"abcd"
        faulty.close(fd)


# -- the aliasing contract ----------------------------------------------------


class TestAliasingContract:
    """Backends consume the caller's buffer before returning: mutating
    a ``bytearray`` the moment ``pwrite`` returns never changes what
    was written (the contract pinned on ``Backend.pwrite``)."""

    def test_backend_pwrite_snapshots(self, backend):
        buf = bytearray(b"payload!")
        fd = backend.open("/f")
        backend.pwrite(fd, buf, 0)
        buf[:] = b"XXXXXXXX"  # immediate recycle, as the pool does
        assert backend.pread(fd, 8, 0) == b"payload!"
        backend.close(fd)

    def test_backend_pwritev_snapshots(self, backend):
        parts = [bytearray(b"aaaa"), bytearray(b"bbbb")]
        fd = backend.open("/f")
        backend.pwritev(fd, [memoryview(p) for p in parts], 0)
        for p in parts:
            p[:] = b"!!!!"
        assert backend.pread(fd, 8, 0) == b"aaaabbbb"
        backend.close(fd)

    def test_mount_aggregated_write_snapshots_at_ingest(self):
        # The POSIX shim extends the same promise to applications: the
        # ingest copy into the pooled chunk is the snapshot point, so the
        # caller's buffer is dead to the pipeline once write() returns.
        mem = MemBackend()
        cfg = CRFSConfig(chunk_size=CHUNK, pool_size=4 * CHUNK, io_threads=1)
        image = bytes((i % 251) + 1 for i in range(2 * CHUNK))
        buf = bytearray(image)
        with CRFS(mem, cfg) as fs:
            with fs.open("/ckpt") as f:
                f.write(buf)
                buf[:] = b"\x00" * len(buf)  # mutate before any drain
                f.fsync()
        fd = mem.open("/ckpt", create=False)
        assert mem.pread(fd, len(image), 0) == image
        mem.close(fd)

    def test_mount_write_through_snapshots_before_return(self):
        mem = MemBackend()
        cfg = CRFSConfig(
            chunk_size=CHUNK, pool_size=4 * CHUNK, io_threads=1,
            write_through_threshold=1,  # every write bypasses aggregation
        )
        image = bytes((i % 239) + 1 for i in range(CHUNK))
        buf = bytearray(image)
        with CRFS(mem, cfg) as fs:
            with fs.open("/ckpt") as f:
                f.write(buf)
                buf[:] = b"\xee" * len(buf)
        fd = mem.open("/ckpt", create=False)
        assert mem.pread(fd, len(image), 0) == image
        mem.close(fd)


# -- chunk fill_external ------------------------------------------------------


class TestChunkFillExternal:
    def test_advances_valid_without_copying(self):
        chunk = Chunk(0, 16)
        chunk.buffer[:4] = b"abcd"  # the external filler (pread_into)
        chunk.fill_external(4)
        assert chunk.valid == 4
        assert bytes(chunk.payload()) == b"abcd"

    def test_rejects_partial_chunk(self):
        chunk = Chunk(0, 16)
        chunk.append(b"xy", 0, 2)
        with pytest.raises(FileStateError, match="external fill"):
            chunk.fill_external(4)

    def test_rejects_overflow(self):
        chunk = Chunk(0, 16)
        with pytest.raises(FileStateError, match="overflows"):
            chunk.fill_external(17)

    def test_failed_fetch_leaves_chunk_clean(self):
        # The fetch path fills the buffer *before* open_for, so a fetch
        # that errors between the two leaves a perfectly reusable chunk.
        chunk = Chunk(0, 16)
        chunk.buffer[:8] = b"garbage!"
        chunk.open_for(owner=object(), file_offset=0)  # still clean
        chunk.reset()


# -- deferred release under eviction ------------------------------------------


class TestReadCacheDeferredRelease:
    def test_eviction_mid_read_serves_stale_views_safely(self):
        """A 3-chunk read against a 2-chunk cache: admitting the last
        chunk evicts the first while the shim still holds its view.  The
        deferred-release window parks the evicted payload until the join
        completes — the bytes must be right and the pool must get every
        buffer back."""
        image = bytes((i % 251) + 1 for i in range(3 * CHUNK))
        fs = CRFS(
            MemBackend(),
            CRFSConfig(
                chunk_size=CHUNK, pool_size=4 * CHUNK, io_threads=1,
                read_cache_chunks=2, readahead_chunks=0,
            ),
        )
        with fs, fs.open("/ckpt") as f:
            f.write(image)
            f.fsync()
            got = f.pread(3 * CHUNK, 0)
        assert got == image
        assert fs.pool.free_chunks == fs.pool.nchunks  # nothing leaked


# -- DRR gather: in-place scan ------------------------------------------------


def _consecutive(tail, nxt):
    return nxt == tail + 1


class TestDRRGatherOrder:
    def test_fair_gather_preserves_order_around_skips(self):
        sched = DRRScheduler({"t": 1})
        for item in (1, 5, 2, 3, 9):
            sched.push("t", item)
        batch = sched.gather("t", limit=4, chain=_consecutive, tail=0)
        assert batch == [1, 2, 3]
        # Skipped items keep their relative order at the front.
        assert sched.depth("t") == 2
        assert sched.pop() == ("t", 5)
        assert sched.pop() == ("t", 9)
        assert sched.pop() is None

    def test_fair_gather_prefix_common_case(self):
        sched = DRRScheduler(None)
        for item in (1, 2, 3):
            sched.push("t", item)
        assert sched.gather("t", 8, _consecutive, 0) == [1, 2, 3]
        assert len(sched) == 0
        assert sched.pop() is None

    def test_fair_gather_charges_the_deficit(self):
        sched = DRRScheduler({"a": 1, "b": 1})
        for item in (1, 2, 3, 4):
            sched.push("a", item)
        sched.push("b", 100)
        sched.gather("a", 3, _consecutive, 0)
        # The coalesced run cost its length: b gets served before a's
        # remaining item despite a being first in the ring.
        assert sched.pop() == ("b", 100)
        assert sched.pop() == ("a", 4)

    def test_gather_limit_zero_is_a_noop(self):
        sched = DRRScheduler(None)
        sched.push("t", 1)
        assert sched.gather("t", 0, _consecutive, 0) == []
        assert sched.depth("t") == 1


# -- the sim gate's copy metrics ----------------------------------------------


def zero_copy_metrics():
    """The ``zero_copy`` arm played on the sim plane, as the gate reads it."""
    return metrics(play_sim(arms(2011, fast=True)["zero_copy"], 2011))


class TestZeroCopyScenarioMetrics:
    def test_sequential_write_path_pays_exactly_one_copy_per_byte(self):
        m = zero_copy_metrics()
        mem = m["stats"]["mem"]
        assert m["bytes_copied"] == mem["bytes_copied"] == m["bytes_in"]
        assert m["copies"] == mem["copies"] > 0
        assert m["copy_ratio"] == 1.0
        assert mem["by_site"]["ingest"]["bytes"] == m["bytes_in"]
        assert mem["by_site"]["read_boundary"]["bytes"] == 0
        assert mem["by_site"]["fetch"]["bytes"] == 0

    def test_ledger_is_conserved(self):
        mem = zero_copy_metrics()["stats"]["mem"]
        assert mem["bytes_copied"] == sum(
            b["bytes"] for b in mem["by_site"].values()
        )
        assert mem["copies"] == sum(b["copies"] for b in mem["by_site"].values())


# -- cross-plane parity of the mem section ------------------------------------


class TestMemSectionCrossPlane:
    def test_functional_plane_counts_ingest_identically(self):
        # The emissions live in shared kernel code, so the threaded mount
        # produces the same ingest accounting the sim does: one copy per
        # byte written on the aggregated path, however writeback batches.
        image = bytes((i % 251) + 1 for i in range(2 * CHUNK))
        for batch_chunks in (1, 8):
            cfg = CRFSConfig(chunk_size=CHUNK, pool_size=4 * CHUNK, io_threads=1,
                             writeback_batch_chunks=batch_chunks)
            with CRFS(MemBackend(), cfg) as fs:
                with fs.open("/ckpt") as f:
                    f.write(image)
                stats = fs.stats()
            mem = stats["mem"]
            assert stats["bytes_in"] == len(image)
            assert mem["by_site"]["ingest"]["bytes"] == len(image)
            assert mem["bytes_copied"] == len(image)
            assert mem["by_site"]["read_boundary"]["bytes"] == 0
            assert mem["by_site"]["fetch"]["bytes"] == 0
            assert stats["io_errors"] == 0

    def test_write_through_pays_no_ingest_copy(self):
        # Write-through hands the caller's buffer straight to the
        # backend (which snapshots it) — there is no pooled-chunk copy,
        # and the ledger must say so.
        cfg = CRFSConfig(
            chunk_size=CHUNK, pool_size=4 * CHUNK, io_threads=1,
            write_through_threshold=1,
        )
        with CRFS(MemBackend(), cfg) as fs:
            with fs.open("/ckpt") as f:
                f.write(b"z" * CHUNK)
            stats = fs.stats()
        assert stats["mem"]["bytes_copied"] == 0
        assert stats["mem"]["copies"] == 0


# -- one memcpy per byte, GIL released when bulk ------------------------------

#: One length on each arm of ``Chunk.append``; both divide by 16 so the
#: same bytes can be dressed as doubles and as a 2-D array.
ARMS = pytest.mark.parametrize(
    "nbytes", [4 * KiB, BULK_COPY_BYTES + 4 * KiB], ids=["view_arm", "bulk_arm"]
)


def _pattern(nbytes: int, salt: int = 0) -> bytes:
    return ((np.arange(nbytes, dtype=np.uint32) * 31 + salt) % 251).astype(np.uint8).tobytes()


def _peak_alloc(fn) -> int:
    """Peak bytes the interpreter allocated while ``fn`` ran."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _frombytes(arr: array, payload: bytes) -> array:
    arr.frombytes(payload)
    return arr


def _ro_mmap(path, payload: bytes) -> mmap.mmap:
    path.write_bytes(payload)
    with open(path, "rb") as fh:
        return mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)


#: kind -> (payload, tmp file) -> a buffer ``write()`` must accept whose
#: memory holds exactly ``payload``.  Every one but the last two has an
#: item format other than ``"B"`` or more than one dimension — what
#: ``bytearray`` slice assignment ignored and ``memoryview`` assignment
#: refuses.
SOURCE_KINDS = {
    "array_b": lambda payload, path: _frombytes(array("b"), payload),
    "array_d": lambda payload, path: _frombytes(array("d"), payload),
    "char_view": lambda payload, path: memoryview(payload).cast("c"),
    "ctypes_char": lambda payload, path: (ctypes.c_char * len(payload)).from_buffer_copy(payload),
    "numpy_int8": lambda payload, path: np.frombuffer(payload, np.int8),
    "numpy_2d": lambda payload, path: np.frombuffer(payload, np.float64).reshape(-1, 2),
    "mmap_readonly": lambda payload, path: _ro_mmap(path, payload),
    "bytes_odd_offset": lambda payload, path: memoryview(b"\xaa" + payload + b"\xbb")[1:-1],
}


class TestWriteSourceKinds:
    """``f.write(x)`` puts exactly ``x``'s memory on the backend for
    every contiguous buffer kind, through either copy arm."""

    CFG = CRFSConfig(chunk_size=256 * KiB, pool_size=MiB, io_threads=2)

    @ARMS
    @pytest.mark.parametrize("kind", SOURCE_KINDS)
    def test_exact_bytes_reach_the_backend(self, kind, nbytes, tmp_path):
        payload = _pattern(nbytes)
        source = SOURCE_KINDS[kind](payload, tmp_path / "src")
        mem = MemBackend()
        with CRFS(mem, self.CFG) as fs:
            with fs.open("/f") as f:
                f.write(b"hdr")  # the source lands at an odd chunk offset
                assert f.write(source) == nbytes
                f.write(b"trl")  # and the file is still writable after it
        assert mem.read_file("/f") == b"hdr" + payload + b"trl"

    def test_empty_nd_view_is_a_zero_length_write(self):
        # The one view memoryview.cast() refuses.
        mem = MemBackend()
        with CRFS(mem, self.CFG) as fs:
            with fs.open("/f") as f:
                assert f.write(np.zeros((0, 4))) == 0
                f.write(b"x")
        assert mem.read_file("/f") == b"x"

    def test_rejected_buffer_leaves_the_file_usable(self):
        # Refused before anything is planned: a write that raised from
        # inside the copy would leave planner and chunk disagreeing, and
        # every later write() and close() raising "divergence".
        mem = MemBackend()
        with CRFS(mem, self.CFG) as fs:
            f = fs.open("/f")
            f.write(b"before")
            with pytest.raises(BufferError, match="non-contiguous"):
                f.write(np.arange(64, dtype=np.uint8)[::2])
            f.write(b"after")
            f.close()
        assert mem.read_file("/f") == b"beforeafter"

    @ARMS
    def test_append_checks_the_exact_length_before_copying(self, nbytes):
        chunk = Chunk(0, 256 * KiB)
        with pytest.raises(FileStateError, match="given"):
            chunk.append(bytes(nbytes + 1), 0, nbytes)
        with pytest.raises(FileStateError, match="given"):
            chunk.append(bytes(nbytes - 1), 0, nbytes)
        assert chunk.valid == 0


class TestNoHiddenCopy:
    """``copy_ratio`` counts the copies the pipeline budgets; these pin
    that the interpreter makes no others.  A ``bytearray`` slice
    assignment from a ``memoryview`` allocates the whole right-hand
    side again (4 194 609 B for a 4 MiB append); one ``memcpy`` a few
    hundred bytes of slice objects."""

    @pytest.mark.parametrize("nbytes", [BULK_COPY_BYTES - 1, 4 * MiB])
    def test_chunk_append_allocates_nothing(self, nbytes):
        chunk = Chunk(0, 4 * MiB)
        source = memoryview(bytearray(_pattern(nbytes + 7)))[7:]
        peak = _peak_alloc(lambda: chunk.append(source, 0, nbytes))
        assert peak < nbytes // 64
        assert chunk.payload() == source

    def test_mem_pwrite_in_place_allocates_nothing(self):
        mem = MemBackend()
        fd = mem.open("/f")
        mem.pwrite(fd, bytes(4 * MiB), 0)
        source = memoryview(bytearray(_pattern(4 * MiB + 7)))[7:]
        peak = _peak_alloc(lambda: mem.pwrite(fd, source, 0))
        assert peak < 4 * MiB // 64
        assert mem.read_file("/f") == source

    def test_mem_pwrite_at_eof_allocates_only_the_growth(self):
        # The file's own growth is the only allocation: no zero-fill of
        # the tail about to be overwritten, no temporary of the source
        # (each of which held a second copy of the bytes at the peak).
        mem = MemBackend()
        fd = mem.open("/f")
        source = memoryview(bytearray(_pattern(4 * MiB)))
        peak = _peak_alloc(lambda: mem.pwrite(fd, source, 0))
        assert peak < 4 * MiB * 5 // 4
        assert mem.read_file("/f") == source

    def test_base_pread_into_allocates_nothing(self):
        stored = _pattern(4 * MiB)

        class Stored(MemBackend):
            def pread(self, handle, size, offset):
                return stored  # the backend's own bytes: not pread_into's doing

        backend = Stored()
        chunk = Chunk(0, 4 * MiB)
        peak = _peak_alloc(lambda: Backend.pread_into(backend, None, chunk.view, 0))
        assert peak < 4 * MiB // 64
        assert chunk.view == stored


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="needs a second CPU to run the bystander on")
class TestBulkAppendReleasesTheGil:
    """With a 100 s switch interval nothing preempts the copying thread,
    so a bystander parked on the GIL just before ``append`` runs only if
    ``append`` itself lets go of it."""

    def _bystander_ran_during_append(self, nbytes: int) -> bool:
        chunk = Chunk(0, max(nbytes, BULK_COPY_BYTES))
        source = bytearray(nbytes)
        parked, go, ran = threading.Event(), threading.Event(), []

        def bystander():
            parked.set()
            go.wait()
            ran.append(True)

        thread = threading.Thread(target=bystander)
        thread.start()
        assert parked.wait(5.0)
        time.sleep(0.05)  # let it block in go.wait()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(100)
        try:
            go.set()
            # Hold the GIL until the bystander has surely woken and is
            # queued for it (an idle CPU can take milliseconds to wake).
            spin_until = time.perf_counter() + 0.02
            while time.perf_counter() < spin_until:
                pass
            assert not ran
            chunk.append(source, 0, nbytes)
            during = bool(ran)
        finally:
            sys.setswitchinterval(interval)
            thread.join(5.0)
        assert not thread.is_alive() and ran
        return during

    def test_bulk_append_lets_another_thread_run(self):
        # ~3 ms of copy against a ~50 us hand-off; a few tries so one
        # slow wake-up on a busy host is not a failure.  With the GIL
        # held through the copy no number of tries succeeds.
        assert any(self._bystander_ran_during_append(32 * MiB) for _ in range(5))

    def test_append_under_the_constant_holds_the_gil(self):
        assert not self._bystander_ran_during_append(BULK_COPY_BYTES - 1)


def _dress(payload: bytes, kind: str, offset: int):
    """``payload`` at ``offset`` inside a larger buffer of the given
    kind; returns ``(what append is handed, scribble())``."""
    framed = b"\xaa" * offset + payload + b"\xbb" * 3
    window = slice(offset, offset + len(payload))
    if kind == "bytes":
        return memoryview(framed)[window], lambda: None
    if kind == "mmap":
        backing = mmap.mmap(-1, len(framed))
    elif kind == "numpy_int8":
        backing = np.zeros(len(framed), np.int8)
    else:
        backing = bytearray(len(framed))
    whole = byte_view(backing)
    whole[: len(framed)] = framed

    def scribble():
        whole[window] = b"\xff" * len(payload)

    return whole[window], scribble


@pytest.mark.property
class TestAppendDifferential:
    @settings(max_examples=60, deadline=None)
    @given(
        appends=st.lists(
            st.tuples(
                st.one_of(
                    st.integers(0, 96),
                    st.integers(BULK_COPY_BYTES - 2, BULK_COPY_BYTES + 2),
                    st.integers(0, 3 * BULK_COPY_BYTES),
                ),
                st.sampled_from(["bytes", "bytearray", "mmap", "numpy_int8"]),
                st.integers(0, 65),
            ),
            max_size=10,
        )
    )
    def test_payload_is_the_join_of_the_inputs(self, appends):
        """Lengths straddling the constant, from every source kind at
        every alignment, with the source overwritten the moment
        ``append`` returns: the chunk holds the inputs back to back."""
        chunk = Chunk(0, 8 * BULK_COPY_BYTES)
        expected = []
        for i, (nbytes, kind, offset) in enumerate(appends):
            nbytes = min(nbytes, chunk.room)
            payload = _pattern(nbytes, salt=i)
            view, scribble = _dress(payload, kind, offset)
            chunk.append(view, chunk.valid, nbytes)
            scribble()
            expected.append(payload)
        assert chunk.payload() == b"".join(expected)


@pytest.mark.stress
class TestBulkWritersStress:
    def test_four_bulk_writers_two_sharing_a_file(self):
        """Two writers on their own files and two on disjoint halves of
        a third, 1-8 MiB writes through a 4-chunk pool while a poller
        snapshots ``stats()`` and thread switches come every 10 us: the
        GIL-free copy hands no buffer to two owners, loses no byte and
        leaks no chunk."""
        cfg = CRFSConfig(chunk_size=MiB, pool_size=4 * MiB, io_threads=2)
        mem = MemBackend()
        rng = random.Random(2011)
        half = 20 * MiB
        # (path, base offset, write sizes, source buffer)
        jobs = []
        for i, (path, base) in enumerate(
            [("/own0", 0), ("/own1", 0), ("/shared", 0), ("/shared", half)]
        ):
            sizes, left = [], half
            while left:
                n = min(left, rng.randrange(MiB, 8 * MiB + 1))
                sizes.append(n)
                left -= n
            jobs.append((path, base, sizes, _pattern(8 * MiB + 64 * KiB, salt=i)))
        errors: list[BaseException] = []
        done = threading.Event()

        def source_view(source: bytes, k: int, n: int) -> memoryview:
            start = (k * 257) % (64 * KiB)
            return memoryview(source)[start : start + n]

        def writer(f, base, sizes, source):
            try:
                pos = base
                for k, n in enumerate(sizes):
                    assert f.pwrite(source_view(source, k, n), pos) == n
                    pos += n
            except BaseException as exc:  # noqa: BLE001 - reported by the main thread
                errors.append(exc)

        def poller(fs, entries):
            try:
                seen = 0
                while not done.is_set():
                    snap = fs.stats()
                    assert snap["bytes_in"] >= seen
                    seen = snap["bytes_in"]
                    assert 0 <= snap["pool"]["acquires"] - snap["pool"]["releases"] <= 4
                    # An open chunk changes hands only under its file's
                    # write_lock, so holding all three makes this exact.
                    for e in entries:
                        e.write_lock.acquire()
                    try:
                        chunks = [e.current_chunk for e in entries if e.current_chunk]
                        assert len({id(c.buffer) for c in chunks}) == len(chunks)
                        assert all(c.owner is e for e in entries if (c := e.current_chunk))
                    finally:
                        for e in entries:
                            e.write_lock.release()
            except BaseException as exc:  # noqa: BLE001
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with CRFS(mem, cfg) as fs:
                files = [fs.open(path) for path, *_ in jobs]
                entries = list({id(f._entry): f._entry for f in files}.values())
                assert len(entries) == 3
                threads = [
                    threading.Thread(target=writer, args=(f, base, sizes, source))
                    for f, (_, base, sizes, source) in zip(files, jobs)
                ]
                watch = threading.Thread(target=poller, args=(fs, entries))
                watch.start()
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(120.0)
                done.set()
                watch.join(30.0)
                assert not any(t.is_alive() for t in [*threads, watch])
                for f in files:
                    f.close()
                stats = fs.stats()
                pool = fs.pool
        finally:
            sys.setswitchinterval(interval)
        assert not errors, errors
        assert stats["bytes_in"] == stats["mem"]["by_site"]["ingest"]["bytes"] == 4 * half
        assert pool.in_use == 0
        assert len({id(c.buffer) for c in pool._free}) == pool.nchunks == 4
        assert all(c.valid == 0 and c.owner is None for c in pool._free)
        for path in ("/own0", "/own1", "/shared"):
            want = hashlib.blake2b()
            for _, base, sizes, source in sorted(
                (j for j in jobs if j[0] == path), key=lambda j: j[1]
            ):
                for k, n in enumerate(sizes):
                    want.update(source_view(source, k, n))
            assert hashlib.blake2b(mem.read_file(path)).hexdigest() == want.hexdigest()
