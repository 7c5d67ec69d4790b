"""The per-call fast path of ``pread()`` and the eviction rule under it.

A ``pread`` of a clean file whose every chunk is resident is served by
``readahead.read_resident`` — a plain function: the decisions
``cached_chunk`` makes on a hit, one join under the cache lock, the
call counted in the file's hot counters, its records built only for the
types an observer is routed — and any other read by the ``read`` flow,
unchanged.  Under both, eviction
spares the live window, so a sequential restore fetches every chunk
from the backend once.

What must not change, and is pinned here: the bytes, the LRU order and
window state, ``stats()`` (against the flow alone, against the timing
plane, and as invariants under concurrent snapshots), every case the
fast function must refuse, the events other observers see, and the
registry holding cells for open files only.
"""

import dataclasses
import sys
import threading
import time

import pytest
from hypothesis import given, settings, strategies as st

from repro.backends import FaultRule, FaultyBackend, InstrumentedBackend, MemBackend
from repro.config import CRFSConfig
from repro.core import CRFS, PosixShim
from repro.core.posix import O_CREAT
from repro.errors import BackendIOError
from repro.experiments.crossplane import DeviceStore
from repro.pipeline import (
    CopyObserved,
    EventLog,
    PipelineKernel,
    PrefetchDropped,
    PrefetchWasted,
    ReadHit,
    ReadMiss,
    ReadObserved,
    readahead,
)
from repro.pipeline.copies import FETCH, READ_BOUNDARY
from repro.pipeline.readahead import DEMAND, PREFETCH, ReadaheadCore, service_prefetch
from repro.pipeline.writeback import run
from repro.sim import SharedBandwidth, Simulator
from repro.simcrfs import SimCRFS
from repro.simio.nullfs import NullSimFilesystem
from repro.simio.params import DEFAULT_HW
from repro.util.rng import rng_for

from .test_cross_plane import DETERMINISTIC_FIELDS
from .test_restore_engine import CHUNK, SIZE, FakeCache, FakeMount

NCHUNKS = SIZE // CHUNK


def image(nbytes, salt=0):
    return bytes((i * 7 + salt) % 251 + 1 for i in range(nbytes))


def cached_config(capacity=4, depth=2, pool=16, **kw):
    return CRFSConfig(
        chunk_size=CHUNK, pool_size=pool * CHUNK, io_threads=1,
        read_cache_chunks=capacity, readahead_chunks=depth, **kw,
    )


@pytest.fixture
def flows(monkeypatch):
    """(offset, size) of the reads that took the ``read`` flow."""
    taken = []
    flow = readahead.read

    def spy(port, f, size, offset):
        taken.append((offset, size))
        return flow(port, f, size, offset)

    monkeypatch.setattr(readahead, "read", spy)
    return taken


def per_call_records(recorder):
    """Every per-call record in ``recorder``, times zeroed."""
    out = []
    for e in recorder.events:
        if type(e) in (ReadHit, ReadMiss, CopyObserved):
            out.append(dataclasses.replace(e, t=0.0))
        elif type(e) is ReadObserved:
            assert e.duration >= 0
            out.append(dataclasses.replace(e, start=0.0, duration=0.0))
    return out


def read_records(recorder):
    """The records of the read path a hit produces, times zeroed."""
    out = []
    for e in recorder.events:
        if type(e) is ReadHit or (type(e) is CopyObserved and e.site == READ_BOUNDARY):
            out.append(dataclasses.replace(e, t=0.0))
        elif type(e) is ReadObserved:
            assert e.duration >= 0
            out.append(dataclasses.replace(e, start=0.0, duration=0.0))
    return out


# -- (a) the eviction rule ----------------------------------------------------

# capacity, then a window the config would accept for it
_GEOMETRY = st.integers(min_value=2, max_value=6).flatmap(
    lambda capacity: st.tuples(
        st.just(capacity), st.integers(min_value=1, max_value=capacity - 1)
    )
)
_REQUEST = st.integers(min_value=CHUNK // 16, max_value=5 * CHUNK // 2)


def fake_mount(capacity, depth, adaptive):
    cache = FakeCache(capacity=capacity, depth=depth, free=capacity + 2)
    if adaptive:
        cache.core = ReadaheadCore(cache.path, cache.kernel, capacity, depth, adaptive=True)
    return FakeMount(cache), cache


def fake_pread(mount, size, offset):
    """What both planes do: the plain function if it accepts, else the flow."""
    served = readahead.read_resident(mount, mount.file, size, offset)
    if served is None:
        return mount.read(size, offset)
    parts, slide = served
    if slide is not None:
        run(slide)
    return parts


class TestEveryChunkIsFetchedOnceThroughTheFakePort:
    @given(
        geometry=_GEOMETRY,
        size=_REQUEST,
        adaptive=st.booleans(),
        eager=st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_sequential_scan(self, geometry, size, adaptive, eager):
        """Prefetches land at once (``eager``) or only when a read parks
        on them; either way the scan fetches each chunk once."""
        capacity, depth = geometry
        mount, cache = fake_mount(capacity, depth, adaptive)
        serviced = set()

        def land(item):
            if id(item) not in serviced:
                serviced.add(id(item))
                run(service_prefetch(item))

        cache.on_await = lambda centry: land(
            next(i for i in cache.queue if i.centry is centry)
        )
        offset = 0
        while offset < SIZE:
            parts = fake_pread(mount, size, offset)
            assert sum(hi - lo for _, lo, hi in parts) == min(size, SIZE - offset)
            if eager:
                for item in list(cache.queue):
                    land(item)
            offset += size
        assert sorted(rec[2] for rec in cache.ops("warm")) == [
            i * CHUNK for i in range(NCHUNKS)
        ]
        assert cache.of(PrefetchWasted) == cache.of(PrefetchDropped) == []


def replay(core, accesses, landing):
    """Drive ``core`` the way the flows do for one reader.  A demand
    fetch lands before the read returns and a hit on an in-flight entry
    parks until it has landed; every other prefetch lands when
    ``landing`` says so — ``"now"``, ``"never"`` or every ``"other"``
    one.  Returns the admit/evict decisions, checking each victim."""
    decisions = []
    issued = 0

    def admit(index, origin):
        low, depth = core.window.last_index, core.depth
        entry, evicted = core.admit(index, origin)
        for victim in evicted:
            assert not low <= victim.index <= low + depth, (victim, low, depth)
        decisions.append((index, origin, [v.index for v in evicted]))
        return entry

    for index in accesses:
        entry = core.access(index)
        if entry is None:
            entry = admit(index, DEMAND)
        if not entry.ready:
            core.warm_done(entry, object(), CHUNK)
        for ahead in core.plan_prefetch(index, SIZE):
            prefetch = admit(ahead, PREFETCH)
            issued += 1
            if landing == "now" or (landing == "other" and issued % 2):
                core.warm_done(prefetch, object(), CHUNK)
    return decisions, [e.index for e in core.entries()], core.depth


class TestEvictionIsAFunctionOfTheAccessSequence:
    @given(
        geometry=_GEOMETRY,
        adaptive=st.booleans(),
        accesses=st.lists(
            st.integers(min_value=0, max_value=NCHUNKS - 1), min_size=1, max_size=60
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_no_victim_inside_the_live_window_whatever_the_fetch_timing(
        self, geometry, adaptive, accesses
    ):
        capacity, depth = geometry
        outcomes = [
            replay(
                ReadaheadCore("/f", PipelineKernel(CHUNK), capacity, depth, adaptive=adaptive),
                accesses,
                landing,
            )
            for landing in ("now", "never", "other")
        ]
        assert outcomes[0] == outcomes[1] == outcomes[2]

    def test_the_unread_prefetch_outlives_the_consumed_chunk(self):
        """cache = window + 1: chunk 0 is re-touched by every read of
        it, so strict LRU evicted the ready-but-unread chunk 2 when the
        window slid to chunk 3 — and fetched it again a read later."""
        core = ReadaheadCore("/f", PipelineKernel(CHUNK), capacity=3, depth=2)
        replay(core, [0, 0, 0], "now")
        decisions, resident, _ = replay(core, [1], "now")
        assert decisions == [(3, PREFETCH, [0])]
        assert resident == [2, 1, 3]

    def test_without_a_window_the_rule_is_plain_lru(self):
        core = ReadaheadCore("/f", PipelineKernel(CHUNK), capacity=2, depth=0)
        decisions, _, _ = replay(core, [0, 1, 0, 2, 3], "now")
        assert decisions == [
            (0, DEMAND, []), (1, DEMAND, []), (2, DEMAND, [1]), (3, DEMAND, [0]),
        ]


# -- (b) the plain function against the flow alone ------------------------------

_OFFSETS = st.integers(min_value=0, max_value=6 * CHUNK)
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("pread"), _OFFSETS, _REQUEST),
        st.tuples(st.just("pread"), _OFFSETS, st.integers(min_value=1, max_value=64)),
        st.tuples(st.just("pwrite"), _OFFSETS, st.integers(min_value=1, max_value=CHUNK)),
        st.tuples(st.just("fsync"), st.just(0), st.just(0)),
    ),
    min_size=1,
    max_size=30,
)


def run_ops(ops, adaptive):
    """Replay ``ops`` on a fresh mount over a 4-chunk image."""
    cfg = cached_config(readahead_adaptive=adaptive)
    model = bytearray(image(4 * CHUNK))
    got = []
    with CRFS(MemBackend(), cfg) as fs:
        with fs.open("/f") as f:
            f.write(bytes(model))
            f.fsync()
            for i, (op, offset, size) in enumerate(ops):
                if op == "pread":
                    got.append(f.pread(size, offset))
                    assert got[-1] == bytes(model[offset : offset + size])
                elif op == "pwrite":
                    data = image(size, salt=i + 1)
                    f.pwrite(data, offset)
                    if offset > len(model):
                        model.extend(bytes(offset - len(model)))
                    model[offset : offset + size] = data
                else:
                    f.fsync()
            core = f._entry.read_cache.core
            lru = [(e.index, e.origin, e.used, e.valid) for e in core.entries()]
            window = (core.window.window, core.window._streak, core.window.last_index)
            stats = fs.stats()
    tenant = stats["tenants"]["default"]
    return got, lru, window, stats["read"], stats["mem"], (tenant["reads"], tenant["bytes_read"])


class TestResidentReadMatchesTheFlowAlone:
    @given(ops=_OPS, adaptive=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_same_bytes_lru_window_and_stats(self, ops, adaptive):
        both = run_ops(ops, adaptive)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(readahead, "read_resident", lambda *args: None)
            flow_alone = run_ops(ops, adaptive)
        assert both == flow_alone

    def test_a_rescan_of_resident_chunks_takes_no_flow(self, flows):
        """Single- and multi-chunk reads, the window sliding under them."""
        cfg = cached_config(capacity=6, depth=1)
        data = image(6 * CHUNK)
        with CRFS(MemBackend(), cfg) as fs:
            with fs.open("/f") as f:
                f.write(data)
                f.fsync()
                for i in range(6):
                    assert f.pread(CHUNK, i * CHUNK) == data[i * CHUNK : (i + 1) * CHUNK]
                before = fs.stats()["read"]
                del flows[:]
                request = 5 * CHUNK // 2
                for offset in range(0, 6 * CHUNK, request):
                    assert f.pread(request, offset) == data[offset : offset + request]
                assert f.pread(64, 100) == data[100:164]
                after = fs.stats()["read"]
        # the last request runs past EOF: its tail chunk is short, so it
        # alone is the flow's
        assert flows == [(2 * request, request)]
        assert after["misses"] == before["misses"]
        assert after["prefetched"] == before["prefetched"]
        assert after["hits"] - before["hits"] == 3 + 3 + 1 + 1
        assert after["reads"] - before["reads"] == 4


# -- (c) readers, an invalidating writer and snapshots --------------------------


class TestSnapshotsUnderConcurrentReaders:
    def test_every_read_is_right_and_every_snapshot_whole(self, flows):
        """Two readers (a file and a tenant each), a writer rewriting
        the same bytes under them — which drops cached chunks and makes
        the files briefly dirty, so reads alternate between the plain
        function and the flow — and a thread snapshotting."""
        per_reader = 3000
        nbytes = 4 * CHUNK
        data = {name: image(nbytes, salt=ord(name)) for name in "ab"}
        plan = [((i * 37) % (nbytes - 200), 8 + (i * 13) % 192) for i in range(per_reader)]
        errors = []
        taken, last = 0, None
        done = threading.Event()

        def whole(snap, last):
            """Assert ``snap`` adds up across tenants and that no read
            counter went back since ``last``; return its counters."""
            read, tenants = snap["read"], snap["tenants"].values()
            assert sum(t["reads"] for t in tenants) == read["reads"]
            assert sum(t["bytes_read"] for t in tenants) == read["bytes_read"]
            now = (read["reads"], read["bytes_read"], read["hits"])
            assert now >= last
            return now

        def guarded(fn, *args):
            try:
                fn(*args)
            except Exception as exc:  # pragma: no cover - reported below
                errors.append(exc)

        def reader(f, name):
            for offset, size in plan:
                assert f.pread(size, offset) == data[name][offset : offset + size]

        def writer(files):
            i = 0
            while not done.is_set():
                name = "ab"[i % 2]
                offset = (i * 911) % (nbytes - 64)
                files[name].pwrite(data[name][offset : offset + 64], offset)
                i += 1
                time.sleep(0.0002)

        def watcher():
            # Each snapshot is checked as it is taken, not kept: the loop
            # runs as long as the readers do, and a list of every
            # snapshot grows to gigabytes on a loaded machine.
            nonlocal taken, last
            while not done.is_set():
                last = whole(fs.stats(), last)
                taken += 1

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with CRFS(MemBackend(), cached_config()) as fs:
                files = {n: fs.open(f"/{n}.img", tenant=n) for n in "ab"}
                for name, f in files.items():
                    f.write(data[name])
                    f.fsync()
                base = fs.stats()
                last = (base["read"]["reads"], base["read"]["bytes_read"], base["read"]["hits"])
                readers = [
                    threading.Thread(target=guarded, args=(reader, files[n], n)) for n in "ab"
                ]
                others = [
                    threading.Thread(target=guarded, args=(writer, files)),
                    threading.Thread(target=guarded, args=(watcher,)),
                ]
                for t in readers + others:
                    t.start()
                for t in readers:
                    t.join(timeout=120)
                done.set()
                for t in others:
                    t.join(timeout=30)
                assert not any(t.is_alive() for t in readers + others)
                for f in files.values():
                    f.close()
                final = fs.stats()
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert taken > 10
        assert 0 < len(flows) < 2 * per_reader  # both ways were taken
        whole(final, last)
        total = sum(size for _, size in plan)
        assert final["read"]["reads"] == 2 * per_reader
        assert final["read"]["bytes_read"] == 2 * total
        assert final["mem"]["by_site"]["read_boundary"] == {
            "copies": 2 * per_reader,
            "bytes": 2 * total,
        }
        for name in "ab":
            assert final["tenants"][name]["reads"] == per_reader
            assert final["tenants"][name]["bytes_read"] == total


# -- (d) what the plain function must refuse ------------------------------------


class TestIneligibleReadsTakeTheFlow:
    def test_in_flight_entry(self, flows):
        release, started = threading.Event(), threading.Event()

        class SlowPrefetch(MemBackend):
            reads_from_memory = False  # an IO worker fetches chunk 1

            def pread_into(self, handle, buf, offset):
                if offset >= CHUNK:  # demand is chunk 0
                    started.set()
                    assert release.wait(timeout=20)
                return super().pread_into(handle, buf, offset)

        data = image(2 * CHUNK)
        with CRFS(SlowPrefetch(), cached_config(depth=1)) as fs:
            with fs.open("/f") as f:
                f.write(data)
                f.fsync()
                assert f.pread(8, 0) == data[:8]
                assert started.wait(timeout=20)  # chunk 1 is in flight
                del flows[:]
                threading.Timer(0.05, release.set).start()
                assert f.pread(8, CHUNK) == data[CHUNK : CHUNK + 8]
                assert flows == [(CHUNK, 8)]
                assert f.pread(8, CHUNK + 8) == data[CHUNK + 8 : CHUNK + 16]
                assert flows == [(CHUNK, 8)]  # landed: resident now

    def test_warmed_entry(self, flows):
        """A warmed prefetch holds no bytes until a read fills it.  Over
        a backend that reads from memory a read inside that one chunk
        fills it without the flow; a read spanning it and a filled
        chunk still takes the flow."""
        data = image(3 * CHUNK)
        with CRFS(MemBackend(), cached_config(depth=1)) as fs:
            with fs.open("/f") as f:
                f.write(data)
                f.fsync()
                assert f.pread(8, 0) == data[:8]
                chunk1 = f._entry.read_cache.core.entries()[-1]
                assert chunk1.ready and not chunk1.filled  # warmed
                del flows[:]
                assert f.pread(8, CHUNK) == data[CHUNK : CHUNK + 8]
                assert flows == [] and chunk1.filled
                assert f.pread(8, CHUNK + 8) == data[CHUNK + 8 : CHUNK + 16]
                (chunk2,) = [e for e in f._entry.read_cache.core.entries() if e.index == 2]
                assert chunk2.ready and not chunk2.filled  # chunk 1's slide warmed it
                assert f.pread(16, 2 * CHUNK - 8) == data[2 * CHUNK - 8 : 2 * CHUNK + 8]
                assert flows == [(2 * CHUNK - 8, 16)] and chunk2.filled

    def test_entry_fetched_short_at_an_old_eof(self, flows):
        """Chunk 1 was warmed holding one byte; the file has since grown
        past it without touching it.  A read inside the valid byte fills
        it without the flow; one reaching past it takes the flow, which
        re-fetches the chunk whole."""
        with CRFS(MemBackend(), cached_config()) as fs:
            with fs.open("/f") as f:
                f.write(b"\x07" * (CHUNK + 1))
                assert f.pread(1, 0) == b"\x07"
                f.pwrite(b"\x09", 2 * CHUNK)
                f.fsync()
                del flows[:]
                assert f.pread(1, CHUNK) == b"\x07"  # the fill: inside the valid byte
                assert flows == []
                assert f.pread(2, CHUNK) == b"\x07\x00"
                assert f.pread(CHUNK + 2, 0) == b"\x07" * (CHUNK + 1) + b"\x00"
                assert flows == [(CHUNK, 2)]  # re-fetched whole: resident since

    def test_range_spanning_a_missing_chunk(self, flows):
        data = image(3 * CHUNK)
        with CRFS(MemBackend(), cached_config(depth=0)) as fs:
            with fs.open("/f") as f:
                f.write(data)
                f.fsync()
                f.pread(1, 0)
                f.pread(1, 2 * CHUNK)
                del flows[:]
                assert f.pread(3 * CHUNK, 0) == data
                assert flows == [(0, 3 * CHUNK)]
                assert f.pread(3 * CHUNK, 0) == data
                assert flows == [(0, 3 * CHUNK)]

    def test_file_with_an_open_chunk_reads_its_writes(self, flows):
        data = image(CHUNK)
        with CRFS(MemBackend(), cached_config()) as fs:
            with fs.open("/f") as f:
                f.write(data)
                f.fsync()
                assert f.pread(16, 0) == data[:16]
                assert f.pread(16, 0) == data[:16]
                assert flows == [(0, 16)]
                f.pwrite(b"new!", 4 * CHUNK)  # elsewhere: chunk 0 stays cached
                assert not f._entry.pipeline.clean
                assert f.pread(4, 4 * CHUNK) == b"new!"
                assert flows == [(0, 16), (4 * CHUNK, 4)]
                assert f._entry.pipeline.clean  # the flow flushed and drained
                drains = fs.stats()["drain"]["waits"]
                assert f.pread(16, 0) == data[:16]
                assert f.pread(4, 4 * CHUNK) == b"new!"
                assert len(flows) == 2
                assert fs.stats()["drain"]["waits"] == drains

    def test_open_breaker_bypasses_the_cache(self, flows):
        data = image(2 * CHUNK)
        with CRFS(MemBackend(), cached_config(breaker_threshold=2)) as fs:
            with fs.open("/f") as f:
                f.write(data)
                f.fsync()
                assert f.pread(8, 0) == data[:8]
                assert f.pread(8, 8) == data[8:16]
                assert flows == [(0, 8)]
                fs.health.record_failure()
                fs.health.record_failure()
                assert fs.health.degraded
                hits = fs.stats()["read"]["hits"]
                assert f.pread(8, 16) == data[16:24]  # resident, but not served from there
                assert flows == [(0, 8), (16, 8)]
                assert fs.stats()["read"]["hits"] == hits
                assert not fs.health.degraded  # the passthrough probe landed
                assert f.pread(8, 24) == data[24:32]
                assert len(flows) == 2

    def test_latched_error_surfaces_on_the_next_pread_exactly_once(self, flows):
        data = image(CHUNK)
        rule = FaultRule(op="pwrite", nth=2, error=BackendIOError("injected"))
        fs = CRFS(FaultyBackend(MemBackend(), [rule]), cached_config()).mount()
        f = fs.open("/f")
        f.write(data)
        f.fsync()
        assert f.pread(8, 0) == data[:8]
        f.pwrite(b"x" * CHUNK, 2 * CHUNK)  # seals at once; its pwrite fails
        deadline = time.monotonic() + 10
        while f._entry.pipeline.peek_error() is None and time.monotonic() < deadline:
            time.sleep(0.001)
        assert f._entry.pipeline.peek_error() is not None
        assert not f._entry.pipeline.clean
        del flows[:]
        with pytest.raises(BackendIOError, match="async chunk write failed"):
            f.pread(8, 0)  # resident bytes, but there is an error to tell
        assert flows == [(0, 8)]
        assert f.pread(8, 0) == data[:8]
        assert flows == [(0, 8)]
        f.close()  # clean: the error was raised exactly once
        fs.unmount()


class TestARefusalDecidesNothing:
    """Through the fake port: None means the flow starts from scratch."""

    def primed(self, resident, capacity=6, depth=2):
        mount, cache = fake_mount(capacity, depth, adaptive=False)
        for index in resident:
            cache.chunk(index)
        del cache.events[:], cache.log[:]
        return mount, cache

    def state(self, mount, cache):
        entries = [(e.index, e.used, e.ready) for e in cache.core.entries()]
        return entries, cache.core.window.last_index, mount.file.pipeline._hot.reads

    @pytest.mark.parametrize(
        "resident,size,offset",
        [
            ([0, 2], 3 * CHUNK, 0),  # a chunk of the range is missing
            ([0, 1], 2 * CHUNK, 0),  # chunk 0's window (1, 2] is not resident
            ([0], 0, 10),  # nothing to serve
            ([NCHUNKS - 1], 2 * CHUNK, SIZE - CHUNK),  # runs past EOF
        ],
    )
    def test_refused_reads_leave_no_trace(self, resident, size, offset):
        mount, cache = self.primed(resident)
        before = self.state(mount, cache)
        assert readahead.read_resident(mount, mount.file, size, offset) is None
        assert self.state(mount, cache) == before
        assert cache.events == [] and cache.log == [] and cache.queue == []

    def test_accepted_multi_chunk_read_slides_only_after_its_last_chunk(self):
        mount, cache = self.primed([0, 1, 2, 3])  # windows (1, 2] and (2, 3] are resident
        parts, slide = readahead.read_resident(mount, mount.file, 2 * CHUNK, CHUNK // 2)
        # chunks 0-2, as (lease, lo, hi)
        assert parts == [(1, CHUNK // 2, CHUNK), (2, 0, CHUNK), (3, 0, CHUNK // 2)]
        assert [type(e) for e in cache.events] == [ReadHit] * 3
        assert cache.queue == []  # nothing admitted yet
        run(slide)  # chunk 2's window is (3, 4], and 4 is absent
        assert [item.file_offset for item in cache.queue] == [4 * CHUNK]
        assert mount.file.pipeline._hot.reads == (1, 2 * CHUNK, 3)


class TestANegativeReadRaises:
    """A negative size or offset is the caller's error, refused before
    anything is decided, counted or read.  Unchecked, ``pread(10, -5)``
    on a cached file is a failed demand fetch of chunk -1 — a breaker
    failure, a degraded mount at ``breaker_threshold=1`` — and a
    passthrough ``pread(-1, 0)`` over ``MemBackend`` the file but its
    last byte."""

    BAD = [(10, -5), (-1, 0), (0, -1), (-1, -1)]

    @pytest.mark.parametrize("cache", [4, 0])
    def test_threaded(self, cache):
        backend = InstrumentedBackend(MemBackend())
        cfg = CRFSConfig(
            chunk_size=CHUNK, pool_size=16 * CHUNK, io_threads=1,
            read_cache_chunks=cache, readahead_chunks=min(cache, 2), breaker_threshold=1,
        )
        data = image(3 * CHUNK)
        with CRFS(backend, cfg) as fs:
            with fs.open("/f") as f:
                f.write(data)
                f.fsync()
                assert f.pread(8, 0) == data[:8]
                before, ops = fs.stats(), len(backend.ops("pread") + backend.ops("pread_into"))
                for size, offset in self.BAD:
                    with pytest.raises(ValueError, match="negative"):
                        f.pread(size, offset)
                after = fs.stats()
                assert len(backend.ops("pread") + backend.ops("pread_into")) == ops
                assert not fs.health.degraded and fs.health.failures == 0
                assert after["read"] == before["read"] and after["mem"] == before["mem"]
                assert f.pread(8, 8) == data[8:16]

    def test_posix_shim(self):
        with CRFS(MemBackend(), cached_config()) as fs:
            shim = PosixShim(fs)
            fd = shim.open("/f", O_CREAT)
            shim.write(fd, image(CHUNK))
            with pytest.raises(ValueError, match="negative"):
                shim.pread(fd, 10, -5)
            shim.close(fd)

    def test_timing_plane(self):
        sim = Simulator()
        membus = SharedBandwidth(sim, DEFAULT_HW.membus_bandwidth)
        backend = NullSimFilesystem(sim, DEFAULT_HW, rng_for(1, "negative-read"))
        crfs = SimCRFS(sim, DEFAULT_HW, cached_config(), backend, membus)
        f = crfs.open("/f", size=2 * CHUNK)
        with pytest.raises(ValueError, match="negative"):
            next(crfs.read(f, -1))
        assert crfs.stats()["read"]["reads"] == 0


# -- (e) what other observers see ------------------------------------------------


class TestObservers:
    READS = [(0, 16), (100, 64), (CHUNK - 8, 16), (CHUNK, 2 * CHUNK), (3 * CHUNK - 1, 1)]

    def observed(self, late_after):
        """The read records an early observer and one subscribed after
        ``late_after`` reads get for READS over a resident 3-chunk file."""
        early, late = EventLog(), EventLog()
        data = image(3 * CHUNK)
        with CRFS(MemBackend(), cached_config(depth=0), observers=[early]) as fs:
            with fs.open("/f", tenant="t") as f:
                f.write(data)
                f.fsync()
                assert f.pread(3 * CHUNK, 0) == data  # three demand fetches
                del early.events[:]
                for i, (offset, size) in enumerate(self.READS):
                    if i == late_after:
                        fs.kernel.subscribe(late)
                    assert f.pread(size, offset) == data[offset : offset + size]
            stats = fs.stats()
        return read_records(early), read_records(late), stats

    def test_early_and_midstream_observers_get_each_read_once(self, flows):
        early, late, stats = self.observed(late_after=3)
        assert flows == [(0, 3 * CHUNK)]
        expected = []
        for offset, size in self.READS:
            for index in range(offset // CHUNK, (offset + size - 1) // CHUNK + 1):
                expected.append(ReadHit(path="/f", file_offset=index * CHUNK, t=0.0))
            expected.append(CopyObserved(path="/f", site=READ_BOUNDARY, length=size, t=0.0))
            expected.append(
                ReadObserved(
                    path="/f", offset=offset, length=size, start=0.0, duration=0.0, tenant="t"
                )
            )
        assert early == expected
        assert late == expected[-7:]  # the last two reads: 2 + 1 hits, 2 x 2 records
        # and the registry counted each exactly once, events or not
        assert stats["read"]["reads"] == 1 + len(self.READS)
        assert stats["read"]["hits"] == 7
        assert stats["mem"]["by_site"]["read_boundary"]["copies"] == 1 + len(self.READS)

    def test_the_records_are_the_ones_the_flow_emits(self):
        both = self.observed(late_after=3)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(readahead, "read_resident", lambda *args: None)
            flow_alone = self.observed(late_after=3)
        assert both[:2] == flow_alone[:2]
        assert both[2]["read"] == flow_alone[2]["read"]
        assert both[2]["mem"] == flow_alone[2]["mem"]

    def test_no_event_is_built_when_nobody_else_listens(self, monkeypatch, flows):
        built = []
        for cls in (CopyObserved, ReadObserved, ReadHit, ReadMiss):

            def counting(self, *args, _init=cls.__init__, **kwargs):
                built.append(type(self).__name__)
                _init(self, *args, **kwargs)

            monkeypatch.setattr(cls, "__init__", counting)
        data = image(3 * CHUNK)
        with CRFS(MemBackend(), cached_config(depth=0)) as fs:
            with fs.open("/f") as f:
                f.write(data)
                f.fsync()
                f.pread(3 * CHUNK, 0)
                assert flows == [(0, 3 * CHUNK)]  # the flow's misses and fetches
                for offset, size in self.READS:
                    assert f.pread(size, offset) == data[offset : offset + size]
                assert built == [] and flows == [(0, 3 * CHUNK)]
            assert fs.stats()["read"]["reads"] == 1 + len(self.READS)

    #: case -> (config, reads as (offset, size), each read's per-call
    #: records) over a written and synced 3-chunk file; the midstream
    #: observer joins before the last read, the case's own.
    SLOW = {
        "passthrough": (
            CRFSConfig(chunk_size=CHUNK, pool_size=16 * CHUNK, io_threads=1),
            [(0, 16), (CHUNK + 8, 64)],
            [
                (ReadObserved(path="/f", offset=0, length=16, start=0.0, duration=0.0),),
                (ReadObserved(path="/f", offset=CHUNK + 8, length=64, start=0.0, duration=0.0),),
            ],
        ),
        "flow-miss-fetch": (
            cached_config(depth=0),
            [(0, 16), (CHUNK + 8, 64)],
            [
                (
                    ReadMiss(path="/f", file_offset=0, t=0.0),
                    CopyObserved(path="/f", site=FETCH, length=CHUNK, t=0.0),
                    CopyObserved(path="/f", site=READ_BOUNDARY, length=16, t=0.0),
                    ReadObserved(path="/f", offset=0, length=16, start=0.0, duration=0.0),
                ),
                (
                    ReadMiss(path="/f", file_offset=CHUNK, t=0.0),
                    CopyObserved(path="/f", site=FETCH, length=CHUNK, t=0.0),
                    CopyObserved(path="/f", site=READ_BOUNDARY, length=64, t=0.0),
                    ReadObserved(path="/f", offset=CHUNK + 8, length=64, start=0.0, duration=0.0),
                ),
            ],
        ),
    }

    def slow_run(self, case, early=None, late=None):
        """Play ``SLOW[case]``; returns the mount's final ``stats()``."""
        cfg, reads, _ = self.SLOW[case]
        data = image(3 * CHUNK)
        with CRFS(MemBackend(), cfg, observers=[early] if early else []) as fs:
            with fs.open("/f") as f:
                f.write(data)
                f.fsync()
                if early is not None:
                    del early.events[:]
                for i, (offset, size) in enumerate(reads):
                    if i == len(reads) - 1 and late is not None:
                        fs.kernel.subscribe(late)
                    assert f.pread(size, offset) == data[offset : offset + size]
        return fs.stats()

    @pytest.mark.parametrize("case", SLOW)
    def test_slow_paths_are_recorded_and_counted_once(self, case):
        early, late = EventLog(), EventLog()
        observed = self.slow_run(case, early, late)
        alone = self.slow_run(case)
        records = self.SLOW[case][2]
        assert per_call_records(early) == [e for read in records for e in read]
        assert per_call_records(late) == list(records[-1])
        for key in DETERMINISTIC_FIELDS + ("read", "mem"):
            assert observed[key] == alone[key], key


# -- (f) a file that grows through another handle -------------------------------


class TestGrowthThroughAnotherHandle:
    def test_the_reader_reaches_the_new_end(self, flows):
        first, more = image(CHUNK + 100), image(2 * CHUNK, salt=5)
        with CRFS(MemBackend(), cached_config()) as fs:
            reader, writer = fs.open("/f"), fs.open("/f")
            writer.write(first)
            writer.fsync()
            assert reader.pread(4 * CHUNK, 0) == first
            assert reader.pread(100, CHUNK) == first[CHUNK:]
            assert flows == [(0, 4 * CHUNK)]
            writer.write(more)  # sealed and open chunks pending
            whole = first + more
            assert reader.pread(4 * CHUNK, 0) == whole
            assert reader.pread(200, CHUNK) == whole[CHUNK : CHUNK + 200]
            writer.fsync()
            assert reader.read() == whole
            assert reader.pread(8, len(whole) - 8) == whole[-8:]
            assert reader.pread(8, len(whole) - 4) == whole[-4:]
            reader.close()
            writer.close()


# -- (g) the registry holds open files only, and agrees with the sim ------------


class TestHotCountersFoldAndDrop:
    CYCLES = 1000
    FILES = 7
    #: per cycle: a demand miss that slides the window over chunks 1-2,
    #: their hits (in flight or landed), and reads of resident bytes
    READS = [(0, 64), (CHUNK, CHUNK), (2 * CHUNK, 100), (64, 64), (CHUNK - 8, 16), (0, 3 * CHUNK)]

    def _functional(self):
        # A store with latency of its own, as the timing plane models:
        # the IO workers fetch the window and every prefetch is a put.
        with CRFS(DeviceStore(), cached_config()) as fs:
            for i in range(self.FILES):
                with fs.open(f"/rank{i}.img") as f:
                    f.write(bytes(3 * CHUNK))
            for i in range(self.CYCLES):
                with fs.open(f"/rank{i % self.FILES}.img") as f:
                    for offset, size in self.READS:
                        assert len(f.pread(size, offset)) == size
                assert fs.kernel.stats._hot == {}
            return fs.stats()

    def _timing(self):
        sim = Simulator()
        membus = SharedBandwidth(sim, DEFAULT_HW.membus_bandwidth)
        backend = NullSimFilesystem(sim, DEFAULT_HW, rng_for(1, "read-fast-path"))
        crfs = SimCRFS(sim, DEFAULT_HW, cached_config(), backend, membus)

        def proc():
            for i in range(self.FILES):
                f = crfs.open(f"/rank{i}.img")
                yield from crfs.write(f, 3 * CHUNK)
                yield from crfs.close(f)
            for i in range(self.CYCLES):
                f = crfs.open(f"/rank{i % self.FILES}.img", size=3 * CHUNK)
                for offset, size in self.READS:
                    crfs.seek(f, offset)
                    yield from crfs.read(f, size)
                yield from crfs.close(f)
                assert crfs.kernel.stats._hot == {}

        sim.run_until_complete([sim.spawn(proc())])
        return crfs.stats()

    def test_cycles_leave_no_cell_and_match_the_timing_plane(self):
        func, timing = self._functional(), self._timing()
        assert func["read"]["reads"] == self.CYCLES * len(self.READS)
        assert func["read"]["misses"] == self.CYCLES
        assert func["read"]["prefetched"] == 2 * self.CYCLES
        assert func["read"]["prefetch_wasted"] == func["read"]["prefetch_dropped"] == 0
        # what the cross-plane read differential compares, and then some
        for key in DETERMINISTIC_FIELDS + ("read", "mem", "resilience"):
            assert func[key] == timing[key], key
        assert func["pool"]["acquires"] == timing["pool"]["acquires"]
        assert func["queue"]["puts"] == timing["queue"]["puts"]
        assert func["drain"]["waits"] == timing["drain"]["waits"]
        for key in ("reads", "bytes_read", "drain_waits"):
            assert func["tenants"]["default"][key] == timing["tenants"]["default"][key], key


# -- the guard: a restore reads the image from the backend once ------------------


class TestRestoreFetchesEveryChunkOnce:
    """``restart_readback`` at 1/64 scale: 2 readers x 16-chunk images.
    With cache = window + 1 strict LRU fetched 1.9 bytes per byte read."""

    @pytest.mark.parametrize("slack", [1, 2])
    @pytest.mark.parametrize("size", [CHUNK // 16, CHUNK, 5 * CHUNK // 2])
    def test_backend_reads_equal_the_images(self, slack, size):
        nchunks, depth = 16, 2
        images = [image(nchunks * CHUNK, salt=i) for i in range(2)]
        backend = InstrumentedBackend(MemBackend())
        cfg = cached_config(capacity=depth + slack, depth=depth, pool=16)
        errors = []

        def restore(fs, i):
            try:
                with fs.open(f"/client{i}.img", create=False) as f:
                    offset = 0
                    while offset < len(images[i]):
                        data = f.pread(size, offset)
                        assert data == images[i][offset : offset + size]
                        offset += size
            except Exception as exc:  # pragma: no cover - reported below
                errors.append(exc)

        with CRFS(backend, cfg) as fs:
            for i, data in enumerate(images):
                with fs.open(f"/client{i}.img") as f:
                    f.write(data)
            backend.clear()
            threads = [threading.Thread(target=restore, args=(fs, i)) for i in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            read = fs.stats()["read"]
        assert errors == []
        fetches = backend.ops("pread_into") + backend.ops("pread")
        assert len(fetches) == 2 * nchunks
        assert sum(op.size for op in fetches) == sum(len(data) for data in images)
        assert read["prefetch_wasted"] == read["prefetch_dropped"] == 0
        assert read["misses"] == 2  # each reader's first chunk; the window had the rest
