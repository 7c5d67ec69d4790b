"""The per-call fast path of ``write()``: a write that continues the
append point and leaves room in the open chunk (or is empty) is planned
by ``FilePipeline.fit_write`` — arithmetic, no ``Fill``/``Seal`` list —
copied under the per-file lock alone and counted in the file's hot
counters; its records are built only for the types an observer is
routed.

What must not change, and is pinned here: the planner state and seal
sequence (against the general ``WritePlanner``), the ``stats()`` values
(against the timing plane, and as invariants under concurrent
snapshots), the latched-error fail-fast, the events other observers
see, read-cache invalidation, and the per-file write serialisation.
"""

import dataclasses
import sys
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.backends import FaultRule, FaultyBackend, MemBackend
from repro.config import CRFSConfig
from repro.core import CRFS
from repro.errors import BackendIOError
from repro.pipeline import (
    CopyObserved,
    EventLog,
    FilePipeline,
    Fill,
    PipelineKernel,
    WriteObserved,
    WritePlanner,
)
from repro.pipeline.copies import INGEST
from repro.sim import SharedBandwidth, Simulator
from repro.simcrfs import SimCRFS
from repro.simio.nullfs import NullSimFilesystem
from repro.simio.params import DEFAULT_HW
from repro.trace import TraceObserver
from repro.util.rng import rng_for

from .test_cross_plane import DETERMINISTIC_FIELDS

CHUNK = 4096


def small_config(**kw):
    return CRFSConfig(chunk_size=CHUNK, pool_size=4 * CHUNK, io_threads=1, **kw)


def planner_state(planner: WritePlanner):
    return (planner.chunk_file_offset, planner.chunk_fill, planner.sealed_chunks)


@pytest.fixture
def slow_plans(monkeypatch):
    """Offsets of the writes that went through the general planner."""
    planned = []
    plan_write = FilePipeline.plan_write

    def spy(self, offset, length):
        planned.append(offset)
        return plan_write(self, offset, length)

    monkeypatch.setattr(FilePipeline, "plan_write", spy)
    return planned


# -- (a) the arithmetic against the general planner ---------------------------

# A write is drawn relative to the reference planner's append point so
# the interesting cases are common: continue it, leave a gap, rewind,
# fill the chunk exactly, span it, or write nothing.
_WRITES = st.lists(
    st.tuples(
        st.sampled_from(["append", "gap", "rewind", "fill", "span", "empty"]),
        st.integers(min_value=1, max_value=CHUNK // 2),
    ),
    min_size=1,
    max_size=40,
)


class TestFitWriteMatchesThePlanner:
    @given(writes=_WRITES)
    @settings(max_examples=200, deadline=None)
    def test_same_state_and_same_plan_as_the_general_planner(self, writes):
        reference = WritePlanner(CHUNK)
        pipeline = PipelineKernel(CHUNK).file("/f")
        for kind, n in writes:
            at = reference.append_point
            room = CHUNK - reference.chunk_fill
            offset, length = {
                "append": (at, n),
                "gap": (at + n, n),
                "rewind": (max(0, at - n), n),
                "fill": (at, room),
                "span": (at, room + n),
                "empty": (at + n, 0),
            }[kind]
            expected = reference.write(offset, length)
            chunk_offset = pipeline.fit_write(offset, length)
            if chunk_offset is None:
                plan = pipeline.plan_write(offset, length)
            elif length:
                plan = [Fill(offset, chunk_offset, 0, length)]
            else:
                plan = []
            assert plan == expected
            assert planner_state(pipeline.planner) == planner_state(reference)

    def test_only_a_write_that_continues_and_leaves_room_is_accepted(self):
        p = PipelineKernel(CHUNK).file("/f")
        assert p.fit_write(0, 10) is None  # no chunk open yet
        p.plan_write(0, 10)
        assert p.fit_write(10, 20) == 10
        assert p.fit_write(31, 5) is None  # gap
        assert p.fit_write(0, 5) is None  # rewind
        assert p.fit_write(30, CHUNK - 30) is None  # would fill: must seal
        assert p.fit_write(30, CHUNK) is None  # would span
        assert p.fit_write(30, CHUNK - 31) == 30  # one byte of room left
        assert p.fit_write(7, 0) == CHUNK - 1  # empty: anywhere, any state
        # (writes, bytes, ingest copies): the accepted three, and no refusal
        assert p._hot.writes == (3, 20 + CHUNK - 31, 2)

    def test_what_the_planner_rejects_is_left_to_the_planner(self):
        p = PipelineKernel(CHUNK).file("/f")
        p.plan_write(0, 10)
        for offset, length in [(-1, 0), (10, -1), (-1, 5)]:
            assert p.fit_write(offset, length) is None
            with pytest.raises(ValueError):
                p.plan_write(offset, length)
        assert planner_state(p.planner) == (0, 10, 0)


# -- (b) snapshots while writers run ------------------------------------------


class TestSnapshotsUnderConcurrentWriters:
    def test_every_snapshot_is_whole_and_the_last_is_exact(self):
        """Two writers of 8-63 B records, one thread snapshotting.  A
        write's bytes and its ingest copy arrive in the snapshot
        together or not at all — as two events they did not."""
        per_writer = 20_000
        sizes = [8 + (i * 7) % 56 for i in range(per_writer)]
        payload = memoryview(bytes(64))
        # Larger than either writer's total: no chunk fills, so after
        # the first write of each file every write is a fitting one.
        cfg = CRFSConfig.from_sizes(chunk="2M", pool="8M", io_threads=1)
        assert sum(sizes) < cfg.chunk_size
        opened = threading.Barrier(3)
        snapshots, errors = [], []
        done = threading.Event()

        def writer(name):
            try:
                with fs.open(f"/{name}.img", tenant=name) as f:
                    f.write(payload[: sizes[0]])
                    opened.wait(timeout=30)
                    for n in sizes[1:]:
                        f.write(payload[:n])
            except Exception as exc:  # pragma: no cover - reported below
                errors.append(exc)

        def watcher():
            opened.wait(timeout=30)
            while not done.is_set():
                snapshots.append(fs.stats())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with CRFS(MemBackend(), cfg) as fs:
                threads = [threading.Thread(target=writer, args=(n,)) for n in "ab"]
                watch = threading.Thread(target=watcher)
                for t in threads + [watch]:
                    t.start()
                for t in threads:
                    t.join(timeout=120)
                done.set()
                watch.join(timeout=30)
                assert not any(t.is_alive() for t in threads + [watch])
                final = fs.stats()
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert len(snapshots) > 10
        last = (0, 0)
        for snap in snapshots + [final]:
            tenants = snap["tenants"].values()
            assert snap["bytes_in"] == (
                snap["mem"]["by_site"]["ingest"]["bytes"] + snap["write_through_bytes"]
            )
            assert sum(t["writes"] for t in tenants) == snap["writes"]
            assert sum(t["bytes_in"] for t in tenants) == snap["bytes_in"]
            assert (snap["writes"], snap["bytes_in"]) >= last
            last = (snap["writes"], snap["bytes_in"])
        assert final["writes"] == 2 * per_writer
        assert final["bytes_in"] == final["bytes_out"] == 2 * sum(sizes)
        assert final["mem"]["by_site"]["ingest"] == {
            "copies": 2 * per_writer,
            "bytes": 2 * sum(sizes),
        }
        for name in "ab":
            assert final["tenants"][name]["writes"] == per_writer
            assert final["tenants"][name]["bytes_in"] == sum(sizes)

    def test_a_snapshot_does_not_wait_for_a_writer_parked_on_the_pool(self):
        """The pool's only chunk is held by file /a's open chunk; /b's
        first write parks in ``BufferPool.acquire`` holding /b's write
        lock.  ``stats()`` still answers, and counts /a's writes."""
        cfg = CRFSConfig(chunk_size=CHUNK, pool_size=CHUNK, io_threads=1)
        with CRFS(MemBackend(), cfg) as fs:
            fa, fb = fs.open("/a"), fs.open("/b")
            fa.write(b"x" * 10)
            blocked = threading.Thread(target=fb.write, args=(b"y" * 10,))
            blocked.start()
            deadline = time.monotonic() + 10
            while not fb._entry.write_lock.locked() and time.monotonic() < deadline:
                time.sleep(0.001)
            assert fb._entry.write_lock.locked()
            fa.write(b"x" * 20)  # a fitting write, while /b is parked
            snap = fs.stats()
            assert (snap["writes"], snap["bytes_in"]) == (2, 30)
            fa.close()  # frees the chunk; /b proceeds
            blocked.join(timeout=30)
            assert not blocked.is_alive()
            fb.close()
            assert fs.stats()["writes"] == 3


# -- (c) the latched error still fails fast -----------------------------------


class TestLatchedErrorFailsTheFittingWrite:
    def test_write_after_an_async_failure_raises(self, slow_plans):
        rule = FaultRule(op="pwrite", nth=1, error=BackendIOError("injected"))
        fs = CRFS(FaultyBackend(MemBackend(), [rule]), small_config()).mount()
        f = fs.open("/f")
        f.write(b"x" * (CHUNK + 10))  # seals chunk 0 (its pwrite fails), opens chunk 1
        deadline = time.monotonic() + 10
        while f._entry.pipeline.peek_error() is None and time.monotonic() < deadline:
            time.sleep(0.001)
        assert f._entry.pipeline.peek_error() is not None
        del slow_plans[:]
        with pytest.raises(BackendIOError, match="earlier async chunk write failed"):
            f.write(b"y" * 16)  # continues chunk 1 with room to spare
        assert slow_plans == []  # refused by fit_write, not by the general plan
        assert fs.stats()["writes"] == 1
        with pytest.raises(BackendIOError):
            f.close()
        fs.unmount()


# -- (d) what other observers see ---------------------------------------------


def _expected_events(path, offset, length, tenant="default"):
    """The events of one aggregated write, times zeroed."""
    events = []
    if length:
        events.append(CopyObserved(path=path, site=INGEST, length=length, t=0.0))
    events.append(
        WriteObserved(
            path=path, offset=offset, length=length, start=0.0, duration=0.0,
            write_through=False, degraded=False, tenant=tenant,
        )
    )
    return events


def _untimed(event):
    if type(event) is CopyObserved:
        assert event.t > 0
        return dataclasses.replace(event, t=0.0)
    assert event.start > 0 and event.duration >= 0
    return dataclasses.replace(event, start=0.0, duration=0.0)


@pytest.fixture
def built(monkeypatch):
    """Names of the write records built, in order."""
    names = []
    for cls in (CopyObserved, WriteObserved):

        def counting(self, *args, _init=cls.__init__, **kwargs):
            names.append(type(self).__name__)
            _init(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    return names


def _copy(path, n):
    return CopyObserved(path=path, site=INGEST, length=n, t=0.0)


def _write(path, offset, n, **kw):
    return WriteObserved(path=path, offset=offset, length=n, start=0.0, duration=0.0, **kw)


class TestObservers:
    SIZES = [16, 40, 0, 63, 8]  # the first opens the chunk; the rest fit

    #: case -> (config overrides, writes as (path, size), each write's
    #: records).  Each write appends to its file; the midstream observer
    #: joins before the last, the case's own.
    SLOW = {
        "chunk-opening": (
            {},
            [("/f", 100), ("/f", CHUNK - 100), ("/f", 40)],
            [
                (_copy("/f", 100), _write("/f", 0, 100)),
                (_copy("/f", CHUNK - 100), _write("/f", 100, CHUNK - 100)),
                (_copy("/f", 40), _write("/f", CHUNK, 40)),
            ],
        ),
        "spanning": (
            {},
            [("/f", 100), ("/f", CHUNK)],
            [
                (_copy("/f", 100), _write("/f", 0, 100)),
                (_copy("/f", CHUNK), _write("/f", 100, CHUNK)),
            ],
        ),
        "write-through": (
            {"write_through_threshold": 1024},
            [("/f", 100), ("/f", 2048)],
            [
                (_copy("/f", 100), _write("/f", 0, 100)),
                (_write("/f", 100, 2048, write_through=True),),
            ],
        ),
        # /a's sealed chunk fails its writeback and opens the breaker;
        # /b's write is then degraded, and its probe closes it again
        "degraded": (
            {"breaker_threshold": 1},
            [("/a", CHUNK), ("/b", 100)],
            [
                (_copy("/a", CHUNK), _write("/a", 0, CHUNK)),
                (_write("/b", 0, 100, write_through=True, degraded=True),),
            ],
        ),
    }

    def slow_run(self, case, early=None, late=None):
        """Play ``SLOW[case]``; returns the mount's final ``stats()``."""
        overrides, writes, _ = self.SLOW[case]
        rules = [FaultRule(op="pwrite", nth=1, error=BackendIOError("injected"))]
        backend = FaultyBackend(MemBackend(), rules if case == "degraded" else [])
        fs = CRFS(backend, small_config(**overrides), observers=[early] if early else [])
        fs.mount()
        files = {}
        for i, (path, n) in enumerate(writes):
            if i == len(writes) - 1:
                if late is not None:
                    fs.kernel.subscribe(late)
                deadline = time.monotonic() + 10
                while case == "degraded" and not fs.health.degraded:
                    assert time.monotonic() < deadline
                    time.sleep(0.001)
            if path not in files:
                files[path] = fs.open(path)
            files[path].write(b"x" * n)
        for f in files.values():
            try:
                f.close()
            except BackendIOError:  # /a's failed writeback, latched
                pass
        fs.unmount()
        return fs.stats()

    @pytest.mark.parametrize("case", SLOW)
    def test_slow_paths_are_recorded_and_counted_once(self, case):
        early, late = EventLog(), EventLog()
        observed = self.slow_run(case, early, late)
        alone = self.slow_run(case)
        records = self.SLOW[case][2]
        assert [_untimed(e) for e in early.of(CopyObserved, WriteObserved)] == [
            e for write in records for e in write
        ]
        assert [_untimed(e) for e in late.of(CopyObserved, WriteObserved)] == list(records[-1])
        for key in DETERMINISTIC_FIELDS + ("mem", "resilience"):
            assert observed[key] == alone[key], key

    def test_early_and_midstream_observers_get_each_write_once(self, slow_plans):
        early, late = EventLog(), EventLog()
        with CRFS(MemBackend(), small_config(), observers=[early]) as fs:
            with fs.open("/f", tenant="t") as f:
                offsets = []
                for n in self.SIZES:
                    offsets.append(f.tell())
                    f.write(b"x" * n)
                assert slow_plans == [0]
                fs.kernel.subscribe(late)
                offsets.append(f.tell())
                f.write(b"x" * 24)
                assert slow_plans == [0]
            stats = fs.stats()
        every = [
            e
            for offset, n in zip(offsets, self.SIZES + [24])
            for e in _expected_events("/f", offset, n, tenant="t")
        ]
        assert [_untimed(e) for e in early.of(CopyObserved, WriteObserved)] == every
        assert [_untimed(e) for e in late.of(CopyObserved, WriteObserved)] == every[-2:]
        # and the registry counted each exactly once, events or not
        assert stats["writes"] == len(self.SIZES) + 1
        assert stats["bytes_in"] == sum(self.SIZES) + 24
        assert stats["mem"]["by_site"]["ingest"]["copies"] == len(self.SIZES)

    def test_observers_joining_while_writers_run(self):
        """Three threads subscribe 30 logs while two write: each log
        holds an ordered tail of each file's writes, none is lost, and
        the registry counts every write once."""
        per_writer, joiners, per_joiner = 3_000, 3, 10
        cfg = CRFSConfig.from_sizes(chunk="2M", pool="8M", io_threads=1)
        payload = memoryview(bytes(16))
        logs, errors = [], []
        start = threading.Barrier(2 + joiners)

        def writer(path):
            try:
                with fs.open(path) as f:
                    start.wait(timeout=30)
                    for _ in range(per_writer):
                        f.write(payload)
            except Exception as exc:  # pragma: no cover - reported below
                errors.append(exc)

        def joiner():
            start.wait(timeout=30)
            for _ in range(per_joiner):
                log = EventLog()
                logs.append(log)
                fs.kernel.subscribe(log)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with CRFS(MemBackend(), cfg) as fs:
                threads = [threading.Thread(target=writer, args=(p,)) for p in ("/a", "/b")]
                threads += [threading.Thread(target=joiner) for _ in range(joiners)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=120)
                assert not any(t.is_alive() for t in threads)
                with fs.open("/c") as f:
                    f.write(payload)
            stats = fs.stats()
        finally:
            sys.setswitchinterval(interval)
        assert errors == [] and len(logs) == joiners * per_joiner
        assert stats["writes"] == 2 * per_writer + 1
        for log in logs:
            for path in ("/a", "/b"):
                offsets = [e.offset for e in log.of(WriteObserved) if e.path == path]
                assert offsets == [16 * i for i in range(per_writer - len(offsets), per_writer)]
            assert [e.path for e in log.of(WriteObserved)][-1] == "/c"

    def test_no_event_is_built_when_nobody_else_listens(self, built, slow_plans):
        with CRFS(MemBackend(), small_config()) as fs:
            with fs.open("/f") as f:
                for n in self.SIZES:
                    f.write(b"x" * n)
                assert built == []  # the general path's first write too
                assert slow_plans == [0]
            assert fs.stats()["writes"] == len(self.SIZES)

    def test_a_trace_observer_gets_the_write_record_alone(self, built, slow_plans):
        trace = TraceObserver()
        with CRFS(MemBackend(), small_config(), observers=[trace]) as fs:
            with fs.open("/f") as f:
                f.write(b"x" * 16)
                del built[:]
                f.write(b"x" * 40)  # fits
                assert built == ["WriteObserved"]
                assert slow_plans == [0]
        assert [r.size for r in trace.trace] == [16, 40]

    def test_a_pipeline_publishes_on_its_kernel_clock(self):
        log = EventLog()
        p = PipelineKernel(CHUNK, clock=lambda: 5.0, observers=[log]).file("/f")
        p.plan_write(0, 10)
        p.note_write(0, 10, start=4.0)
        assert log.events == [
            CopyObserved(path="/f", site=INGEST, length=10, t=5.0),
            WriteObserved(path="/f", offset=0, length=10, start=4.0, duration=1.0),
        ]


# -- (e) read-cache invalidation ----------------------------------------------


class TestReadCacheInvalidation:
    def test_read_your_writes_for_small_appends(self):
        cfg = small_config(read_cache_chunks=4, readahead_chunks=2)
        with CRFS(MemBackend(), cfg) as fs:
            with fs.open("/f") as f:
                image = b""
                for i in range(40):
                    # the read below flushed: the first append opens a
                    # chunk, the second fits it
                    for _ in range(2):
                        record = bytes([i + 1]) * 16
                        f.write(record)
                        image += record
                    assert f.pread(len(image) + 5, 0) == image

    def test_fitting_write_drops_the_cached_chunk_it_lands_in(self, slow_plans):
        """Write chunks start wherever the stream resumed; cache chunks
        are aligned.  A chunk opened just below an alignment boundary
        is continued across it by a fitting write, into an aligned
        chunk the cache holds (prefetched) and the opening write did
        not touch."""
        cfg = small_config(read_cache_chunks=4, readahead_chunks=2)
        with CRFS(MemBackend(), cfg) as fs:
            with fs.open("/f") as f:
                f.write(b"\x01" * (2 * CHUNK + CHUNK // 2))
                f.pread(1, 0)  # caches chunk 0, prefetches 1 and 2
                assert f.pread(1, CHUNK) == b"\x01"  # chunk 1 resident and ready
                assert fs.stats()["read"]["hits"] == 1
                del slow_plans[:]
                f.pwrite(b"\x02" * 50, CHUNK - 96)  # rewind: opens a chunk in cache chunk 0
                f.pwrite(b"\x03" * 100, CHUNK - 46)  # fits it; crosses into cache chunk 1
                assert slow_plans == [CHUNK - 96]
                assert f.pread(200, CHUNK - 96) == (
                    b"\x02" * 50 + b"\x03" * 100 + b"\x01" * 50
                )


# -- (f) one file, two handles, two threads -----------------------------------


class TestTwoHandlesOnePath:
    def test_interleaved_disjoint_pwrites_give_the_exact_image(self):
        record, count = 24, 4000
        mem = MemBackend()

        def writer(handle, parity):
            for i in range(parity, count, 2):
                handle.pwrite(bytes([i % 251 + 1]) * record, i * record)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with CRFS(mem, CRFSConfig(chunk_size=CHUNK, pool_size=8 * CHUNK)) as fs:
                h0, h1 = fs.open("/f"), fs.open("/f")
                threads = [
                    threading.Thread(target=writer, args=(h, parity))
                    for parity, h in enumerate((h0, h1))
                ]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=120)
                assert not any(t.is_alive() for t in threads)
                h0.close()
                h1.close()
                stats = fs.stats()
        finally:
            sys.setswitchinterval(interval)
        handle = mem.open("/f", create=False)
        image = mem.pread(handle, mem.file_size(handle), 0)
        assert image == b"".join(bytes([i % 251 + 1]) * record for i in range(count))
        assert stats["writes"] == count
        assert stats["bytes_in"] == stats["bytes_out"] == count * record


# -- (g) the registry holds open files only, and agrees with the sim ----------


class TestHotCountersFoldAndDrop:
    CYCLES = 1000
    SIZES = [40, 8, 63, 0, 17]

    def _functional(self):
        with CRFS(MemBackend(), small_config()) as fs:
            for i in range(self.CYCLES):
                with fs.open(f"/rank{i % 7}.img") as f:
                    for n in self.SIZES:
                        f.write(b"x" * n)
                assert fs.kernel.stats._hot == {}
            return fs.stats()

    def _timing(self):
        sim = Simulator()
        membus = SharedBandwidth(sim, DEFAULT_HW.membus_bandwidth)
        backend = NullSimFilesystem(sim, DEFAULT_HW, rng_for(1, "fast-path"))
        crfs = SimCRFS(sim, DEFAULT_HW, small_config(), backend, membus)

        def proc():
            for i in range(self.CYCLES):
                f = crfs.open(f"/rank{i % 7}.img")
                for n in self.SIZES:
                    yield from crfs.write(f, n)
                yield from crfs.close(f)
                assert crfs.kernel.stats._hot == {}

        sim.run_until_complete([sim.spawn(proc())])
        return crfs.stats()

    def test_cycles_leave_no_cell_and_match_the_timing_plane(self):
        func, timing = self._functional(), self._timing()
        assert func["writes"] == self.CYCLES * len(self.SIZES)
        assert func["bytes_in"] == self.CYCLES * sum(self.SIZES)
        for key in DETERMINISTIC_FIELDS + ("mem", "resilience", "delta"):
            assert func[key] == timing[key], key
        for key in ("writes", "bytes_in", "chunks_queued", "chunks_written", "bytes_out"):
            assert func["tenants"]["default"][key] == timing["tenants"]["default"][key], key

    def test_open_file_is_folded_by_every_snapshot(self):
        kernel = PipelineKernel(CHUNK)
        kernel.file_opened("/f")
        p = kernel.file("/f")
        p.plan_write(0, 10)
        p.note_write(0, 10)
        for i in range(3):
            assert p.fit_write(10 + 5 * i, 5) == 10 + 5 * i
            snap = kernel.snapshot()
            assert (snap["writes"], snap["bytes_in"]) == (2 + i, 15 + 5 * i)
        kernel.file_closed("/f")
        assert kernel.stats._hot == {}
        assert kernel.snapshot()["writes"] == 4
