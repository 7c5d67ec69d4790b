"""The restore engine — the read flows in ``pipeline/readahead.py`` and
the delta drivers in ``pipeline/delta.py`` — driven through fake ports:
no threads, no simulator, no backend.

Both planes run these exact generators, so their policy is pinned here
once: hit / demand miss / park-then-ready / park-then-evicted-retry,
the fill of a warmed entry (once, by the first read, and short when
the backend is), starved demand vs. starved prefetch, loud demand
failures and silent prefetch and fill failures (all counted by the
breaker, landed fetches too), lease released exactly once, nothing
speculative while degraded; the checkpoint's commit discipline and the
restore's open-once walk.
"""

from contextlib import nullcontext
from types import SimpleNamespace

import pytest

from repro.checkpoint.manifest import Manifest
from repro.errors import BackendIOError, ManifestError, ShutdownError
from repro.pipeline import (
    BackendHealth,
    ChunkPrefetched,
    CopyObserved,
    DeltaGenerationCommitted,
    DeltaRestored,
    FilePipeline,
    PipelineKernel,
    PrefetchDropped,
    PrefetchWasted,
    ReadHit,
    ReadMiss,
    ReadObserved,
)
from repro.pipeline import delta
from repro.pipeline.readahead import (
    ReadaheadCore,
    cached_chunk,
    clear,
    invalidate,
    issue_prefetches,
    read,
    serve,
    service_prefetch,
)
from repro.pipeline.writeback import blocking, run

CHUNK = 4096
SIZE = 8 * CHUNK  # the fake file: eight whole chunks


class FakeCache:
    """A scripted per-file cache port, shaped like the timing plane's:
    the warm is the backend read, the fill is free.  ``free`` pool slots
    back the leases (small ints, so tests can name them); ``outcomes``
    is consumed one per ``warm`` (an exception instance raises, a
    callable runs mid-warm, None lands) and ``fills`` one per ``fill``
    (an exception raises, an int is the byte count of a short fill, None
    fills what was asked); every operation is appended to ``log``.
    ``warm_reads=False`` tells the flows the fill is the read instead,
    as the threaded port says over a backend that reads from memory."""

    lock = nullcontext()
    path = "/f"

    def __init__(
        self, capacity=4, depth=0, free=4, threshold=0, outcomes=(), fills=(), warm_reads=True
    ):
        self.warm_reads = warm_reads
        self.events = []
        self.log = []
        self.core = ReadaheadCore(
            self.path, CHUNK, capacity, depth, emit=self.events.append
        )
        self.health = BackendHealth(threshold, emit=self.events.append)
        self.free = free
        self.leased = 0
        self.outcomes = list(outcomes)
        self.fills = list(fills)
        self.queue = []
        self.on_await = lambda centry: None

    @blocking
    def try_lease(self):
        if self.free == 0:
            return None
        self.free -= 1
        self.leased += 1
        return self.leased

    @blocking
    def warm(self, lease, offset, length):
        self.log.append(("warm", lease, offset, length))
        outcome = self.outcomes.pop(0) if self.outcomes else None
        if isinstance(outcome, BaseException):
            raise outcome
        if outcome is not None:
            outcome()
        return length

    @blocking
    def fill(self, lease, offset, length):
        self.log.append(("fill", lease, offset, length))
        outcome = self.fills.pop(0) if self.fills else None
        if isinstance(outcome, BaseException):
            raise outcome
        return length if outcome is None else outcome

    @blocking
    def read_uncached(self, offset, length):
        self.log.append(("uncached", offset, length))
        return ("backend", offset, length)

    @staticmethod
    def view(lease, lo, hi):
        return (lease, lo, hi)

    @blocking
    def await_entry(self, centry):
        self.log.append(("await", centry.index))
        self.on_await(centry)

    def wake(self, centry):
        self.log.append(("wake", centry.index))

    def release(self, lease):
        self.free += 1
        self.log.append(("release", lease))

    @blocking
    def enqueue_prefetch(self, item):
        self.queue.append(item)

    @blocking
    def serve_read(self, offset, end, file_size):
        return run(serve(self, offset, end, file_size))

    def chunk(self, index, lo=0, hi=CHUNK):
        """Service bytes ``lo:hi`` of chunk ``index``."""
        base = index * CHUNK
        return run(cached_chunk(self, index, base + lo, base + hi, SIZE))

    def of(self, cls):
        return [e for e in self.events if isinstance(e, cls)]

    def ops(self, kind):
        return [rec for rec in self.log if rec[0] == kind]


# ---------------------------------------------------------------------------
# cached_chunk: the service of one chunk


class TestCachedChunk:
    def test_demand_miss_fetches_the_whole_aligned_chunk(self):
        cache = FakeCache()
        assert cache.chunk(2, lo=100, hi=200) == (1, 100, 200)
        assert cache.ops("warm") == [("warm", 1, 2 * CHUNK, CHUNK)]
        assert len(cache.of(ReadMiss)) == 1 and cache.of(ReadHit) == []
        assert cache.health.successes == 1  # a landed fetch resets the streak

    def test_tail_chunk_fetch_is_clipped_at_the_file_size(self):
        cache = FakeCache()
        size = 2 * CHUNK + 10
        run(cached_chunk(cache, 2, 2 * CHUNK, size, size))
        assert cache.ops("warm") == [("warm", 1, 2 * CHUNK, 10)]

    def test_hit_serves_the_resident_lease_without_a_fetch(self):
        cache = FakeCache()
        cache.chunk(0)
        assert cache.chunk(0, lo=8, hi=16) == (1, 8, 16)
        assert len(cache.ops("warm")) == 1
        assert len(cache.of(ReadHit)) == 1

    def test_in_flight_hit_parks_then_serves_what_the_worker_landed(self):
        cache = FakeCache(depth=1)
        cache.chunk(0)
        run(issue_prefetches(cache, 0, SIZE))
        (item,) = cache.queue
        cache.on_await = lambda centry: run(service_prefetch(item))
        assert cache.chunk(1) == (2, 0, CHUNK)  # the prefetch's lease
        assert cache.ops("await") == [("await", 1)]
        assert [rec[2] for rec in cache.ops("warm")] == [0, CHUNK]  # no refetch
        assert len(cache.of(ChunkPrefetched)) == 1

    def test_in_flight_hit_evicted_while_parked_retries_from_a_fresh_access(self):
        cache = FakeCache(depth=1)
        cache.chunk(0)
        run(issue_prefetches(cache, 0, SIZE))
        cache.on_await = lambda centry: invalidate(cache, CHUNK, 1)
        part = cache.chunk(1)
        assert part[1:] == (0, CHUNK)
        # hit on the in-flight entry, then — evicted — a miss and a demand fetch
        assert len(cache.of(ReadHit)) == 1 and len(cache.of(ReadMiss)) == 2
        assert len(cache.of(PrefetchDropped)) == 1
        assert ("wake", 1) in cache.log
        assert cache.ops("warm")[-1][2:] == (CHUNK, CHUNK)

    def test_starved_demand_unadmits_and_reads_an_uncached_slice(self):
        cache = FakeCache(free=0)
        assert cache.chunk(3, lo=10, hi=20) == ("backend", 3 * CHUNK + 10, 10)
        assert cache.ops("warm") == []
        assert len(cache.core) == 0  # silently un-admitted ...
        assert cache.of(PrefetchDropped) == []  # ... demand drops are not accounted

    def test_demand_failure_raises_and_counts_on_the_breaker(self):
        cache = FakeCache(threshold=1, outcomes=[OSError("EIO")])
        with pytest.raises(BackendIOError, match=r"demand read of chunk @4096.*EIO"):
            cache.chunk(1)
        assert cache.ops("release") == [("release", 1)]
        assert len(cache.core) == 0
        assert cache.health.failures == 1 and cache.health.degraded

    def test_demand_entry_evicted_mid_fetch_releases_its_lease_once(self):
        cache = FakeCache()
        cache.outcomes = [lambda: clear(cache)]  # a writer sheds the cache
        assert cache.chunk(0) == (1, 0, CHUNK)  # the read still gets its bytes
        assert cache.ops("release") == [("release", 1)]
        assert cache.free == 4 and len(cache.core) == 0

    def test_lru_evictee_goes_back_to_the_pool(self):
        cache = FakeCache(capacity=2)
        for index in range(3):
            cache.chunk(index)
        assert cache.ops("release") == [("release", 1)]  # chunk 0's lease


# ---------------------------------------------------------------------------
# issue_prefetches / service_prefetch: the window and the IO-worker step


class TestPrefetch:
    def primed(self, **kw):
        """A cache that served chunk 0 and queued the chunk-1 prefetch."""
        cache = FakeCache(depth=1, **kw)
        cache.chunk(0)
        run(issue_prefetches(cache, 0, SIZE))
        return cache, cache.queue[0]

    def test_window_slides_past_the_access_and_stops_at_eof(self):
        cache = FakeCache(capacity=8, depth=3)
        run(issue_prefetches(cache, 5, SIZE))
        assert [(i.file_offset, i.length) for i in cache.queue] == [
            (6 * CHUNK, CHUNK),
            (7 * CHUNK, CHUNK),
        ]
        assert all(i.cache is cache for i in cache.queue)

    def test_nothing_is_issued_while_degraded(self):
        cache = FakeCache(depth=2, threshold=1)
        cache.health.record_failure()
        run(issue_prefetches(cache, 0, SIZE))
        assert cache.queue == [] and len(cache.core) == 0

    def test_put_racing_unmount_drops_the_entry(self):
        cache = FakeCache(depth=1)

        @blocking
        def closed(item):
            raise ShutdownError("queue closed")

        cache.enqueue_prefetch = closed
        run(issue_prefetches(cache, 0, SIZE))
        assert len(cache.core) == 0
        assert len(cache.of(PrefetchDropped)) == 1

    def test_delivery_publishes_the_entry_and_wakes_waiters(self):
        cache, item = self.primed()
        run(service_prefetch(item))
        assert item.centry.ready and item.centry.payload == 2
        assert cache.log[-1] == ("wake", 1)
        assert cache.health.successes == 2  # the demand fetch and this one

    def test_starved_prefetch_is_dropped_never_blocked(self):
        cache, item = self.primed(free=1)  # the demand fetch took the last slot
        run(service_prefetch(item))
        assert cache.ops("warm") == [("warm", 1, 0, CHUNK)]
        assert len(cache.of(PrefetchDropped)) == 1
        assert item.centry.evicted and ("wake", 1) in cache.log

    def test_failure_is_silent_but_counted(self):
        cache, item = self.primed()
        cache.outcomes = [OSError("EIO")]
        run(service_prefetch(item))  # must not raise
        assert len(cache.of(PrefetchDropped)) == 1
        assert cache.ops("release") == [("release", 2)]
        assert cache.health.failures == 1
        # refetched on demand when a read actually wants it
        assert cache.chunk(1)[1:] == (0, CHUNK)

    def test_evicted_while_queued_is_skipped_without_a_lease(self):
        cache, item = self.primed()
        clear(cache)
        run(service_prefetch(item))
        assert cache.leased == 1 and cache.ops("warm") == [("warm", 1, 0, CHUNK)]

    def test_evicted_while_fetching_releases_the_lease_exactly_once(self):
        cache, item = self.primed()
        cache.outcomes = [lambda: clear(cache)]
        run(service_prefetch(item))
        assert cache.ops("release").count(("release", 2)) == 1
        assert cache.free == 4
        assert cache.of(ChunkPrefetched) == []  # drop-accounted at eviction
        assert len(cache.of(PrefetchDropped)) == 1

    def test_run_raises_if_a_threaded_port_op_yields(self):
        cache, item = self.primed()

        def parks():
            yield "a simulator waitable"

        cache.try_lease = parks
        with pytest.raises(RuntimeError, match="yielded"):
            run(service_prefetch(item))


# ---------------------------------------------------------------------------
# fill: the first read of a warmed entry moves its bytes


def fetch_copies(cache):
    return [e.length for e in cache.of(CopyObserved) if e.site == "fetch"]


class TestFill:
    def warmed(self, **kw):
        """A cache that served chunk 0 and warmed the chunk-1 prefetch."""
        cache = FakeCache(depth=1, **kw)
        cache.chunk(0)
        run(issue_prefetches(cache, 0, SIZE))
        run(service_prefetch(cache.queue[0]))
        return cache

    def test_the_first_read_fills_once_and_the_copy_is_counted_there(self):
        cache = self.warmed()
        assert fetch_copies(cache) == [CHUNK]  # chunk 0's; the warm copied nothing
        assert cache.chunk(1, lo=8, hi=16) == (2, 8, 16)
        assert cache.chunk(1) == (2, 0, CHUNK)
        assert cache.ops("fill")[1:] == [("fill", 2, CHUNK, CHUNK)]
        assert fetch_copies(cache) == [CHUNK, CHUNK]
        assert len(cache.of(ReadHit)) == 2 and len(cache.of(ReadMiss)) == 1

    def test_a_prefetch_evicted_unread_copies_nothing(self):
        cache = self.warmed()
        clear(cache)
        assert fetch_copies(cache) == [CHUNK]
        assert len(cache.of(PrefetchWasted)) == 1
        assert cache.free == 4

    def test_a_failed_fill_is_silent_counted_and_refetched_on_demand(self):
        cache = self.warmed(fills=[None, OSError("EIO")])  # chunk 0's lands
        assert cache.chunk(1) == (3, 0, CHUNK)  # the refetch's lease
        assert ("release", 2) in cache.log
        assert cache.health.failures == 1
        assert len(cache.of(ReadHit)) == 1 and len(cache.of(ReadMiss)) == 2
        assert cache.of(PrefetchDropped) == []  # it was warmed: not a drop
        assert fetch_copies(cache) == [CHUNK, CHUNK]

    def test_a_short_fill_makes_a_short_read(self):
        """The backend shrank behind the mount: the read stops at the
        bytes the fill got, not at what the pooled buffer holds."""
        cache = self.warmed(fills=[None, 100])
        assert cache.chunk(1, lo=50, hi=200) == (2, 50, 100)
        assert fetch_copies(cache) == [CHUNK, 100]

    def test_a_short_demand_fetch_makes_a_short_read(self):
        cache = FakeCache(fills=[1000])
        assert cache.chunk(0) == (1, 0, 1000)

    @pytest.mark.parametrize("warm_reads", [True, False])
    def test_the_breaker_counts_a_success_where_the_bytes_moved(self, warm_reads):
        cache = self.warmed(warm_reads=warm_reads)
        assert cache.health.successes == (2 if warm_reads else 1)  # + chunk 0's
        cache.chunk(1)
        assert cache.health.successes == 2

    def test_a_free_warm_never_closes_the_breaker(self):
        """Where the fill is the read, a warm moves nothing: it is no
        probe, and a breaker a failure tripped stays open through it."""
        cache = FakeCache(depth=1, threshold=1, warm_reads=False)
        cache.chunk(0)
        run(issue_prefetches(cache, 0, SIZE))
        cache.health.record_failure()
        run(service_prefetch(cache.queue[0]))
        assert cache.queue[0].centry.ready and cache.health.degraded


# ---------------------------------------------------------------------------
# read: the entry (passthrough or cached)


class FakeMount:
    """The mount-level half of the read port."""

    def __init__(self, cache=None, threshold=0, outcomes=()):
        self.events = cache.events if cache is not None else []
        self.log = []
        self.health = (
            cache.health if cache is not None else BackendHealth(threshold)
        )
        self.outcomes = list(outcomes)
        self.file = SimpleNamespace(
            pipeline=FilePipeline("/f", CHUNK, emit=self.events.append),
            read_cache=cache,
        )

    @blocking
    def flush_drain(self, f):
        self.log.append("flush_drain")

    @blocking
    def read_through(self, f, size, offset):
        self.log.append(("through", size, offset))
        if (exc := self.outcomes.pop(0) if self.outcomes else None) is not None:
            raise exc
        return ("backend", offset, size)

    @staticmethod
    def file_size(f):
        return SIZE

    def read(self, size, offset):
        return run(read(self, self.file, size, offset))


class TestRead:
    def test_no_cache_passes_straight_through(self):
        mount = FakeMount()
        assert mount.read(100, 7) == ("backend", 7, 100)
        assert mount.log == [("through", 100, 7)]  # the paper: no flush either
        (seen,) = [e for e in mount.events if isinstance(e, ReadObserved)]
        assert (seen.offset, seen.length) == (7, 100)
        assert mount.health.successes == 0  # a closed breaker is not probed

    @pytest.mark.parametrize("cached", [False, True])
    def test_a_read_of_a_clean_file_is_not_a_drain_wait(self, cached):
        mount = FakeMount(FakeCache() if cached else None)
        assert mount.file.pipeline.clean
        mount.read(100, 0)
        assert "flush_drain" not in mount.log

    @pytest.mark.parametrize("pending", ["open chunk", "outstanding", "latched"])
    def test_a_file_with_anything_pending_is_flushed_and_drained(self, pending):
        mount = FakeMount(FakeCache())
        pipeline = mount.file.pipeline
        pipeline.plan_write(0, 10 if pending == "open chunk" else CHUNK)
        if pending != "open chunk":
            pipeline.note_queued()
            assert not pipeline.clean  # sealed by the planner, not yet written
        if pending == "latched":
            pipeline.note_complete(error=OSError("EIO"))
        assert not pipeline.clean
        mount.read(100, 0)
        assert mount.log == ["flush_drain"]

    def test_cached_read_flushes_clips_and_accounts_the_boundary_copy(self):
        cache = FakeCache()
        mount = FakeMount(cache)
        mount.file.pipeline.plan_write(SIZE, 10)  # an open chunk to flush
        parts = mount.read(2 * CHUNK, SIZE - CHUNK - 8)  # asks for CHUNK - 8 past EOF
        assert mount.log == ["flush_drain"]
        assert parts == [(1, CHUNK - 8, CHUNK), (2, 0, CHUNK)]
        (copy,) = [e for e in cache.of(CopyObserved) if e.site == "read_boundary"]
        assert copy.length == CHUNK + 8  # the request clipped at the file size

    def test_read_at_or_past_eof_touches_nothing(self):
        cache = FakeCache()
        mount = FakeMount(cache)
        assert mount.read(CHUNK, SIZE + 5) == []
        assert mount.read(0, 5) == []
        assert cache.of(ReadMiss) == cache.of(ReadHit) == []
        assert cache.of(CopyObserved) == []

    def test_open_breaker_bypasses_the_cache_and_the_read_is_a_probe(self):
        cache = FakeCache(depth=2, threshold=1)
        mount = FakeMount(cache, outcomes=[OSError("still down"), None])
        cache.health.record_failure()
        with pytest.raises(OSError, match="still down"):  # passthrough: raw
            mount.read(CHUNK, 0)
        assert cache.health.degraded and cache.health.failures == 2
        assert mount.read(CHUNK, 0) == ("backend", 0, CHUNK)
        assert not cache.health.degraded  # the probe that landed closed it
        assert cache.of(ReadMiss) == [] and cache.queue == []
        mount.read(CHUNK, 0)  # healed: the cache is back in the path
        assert len(cache.of(ReadMiss)) == 1 and len(cache.queue) == 2


# ---------------------------------------------------------------------------
# delta: checkpoint and restore


class FakeDeltaPort:
    """A scripted delta port over a real kernel (the trackers).  A file
    is its generation number; ``fail`` names the one op that raises."""

    def __init__(self, fail=None):
        self.events = []
        self.kernel = PipelineKernel(CHUNK)
        self.kernel.subscribe(SimpleNamespace(on_event=self.events.append))
        self.log = []
        self.fail = fail

    def _op(self, *record):
        self.log.append(record)
        if record[0] == self.fail:
            raise OSError(f"injected-{self.fail}")

    def open_generation(self, path, generation, tenant, create):
        self.log.append(("open", generation, create))
        return generation

    @blocking
    def write_extent(self, f, ext, image):
        self._op("write", f, ext.file_offset, ext.length)

    @blocking
    def fsync(self, f):
        self._op("fsync", f)

    @blocking
    def close(self, f):
        self._op("close", f)

    @blocking
    def write_manifest(self, path, raw):
        self._op("manifest", len(raw))

    @blocking
    def load_manifest(self, path):
        self._op("load")
        t = self.kernel.delta(path)
        return Manifest(path, t.generation, CHUNK, t.logical_size, tuple(t.owners))

    @blocking
    def read_run(self, f, file_offset, length):
        self._op("read", f, file_offset, length)
        return (f, file_offset, length)

    def checkpoint(self, size, dirty=None):
        return run(delta.checkpoint(self, "/ckpt", size, dirty))

    def ops(self, kind):
        return [rec for rec in self.log if rec[0] == kind]

    def of(self, cls):
        return [e for e in self.events if isinstance(e, cls)]


class TestDeltaCheckpoint:
    def test_commit_follows_extents_fsync_close_manifest(self):
        port = FakeDeltaPort()
        port.checkpoint(4 * CHUNK)
        plan = port.checkpoint(4 * CHUNK, dirty=[0, 2])
        assert plan.generation == 1
        assert port.log[-6:] == [
            ("open", 1, True),
            ("write", 1, 0, CHUNK),
            ("write", 1, 2 * CHUNK, CHUNK),
            ("fsync", 1),
            ("close", 1),
            ("manifest", len(plan.manifest.to_bytes())),
        ]
        committed = port.of(DeltaGenerationCommitted)
        assert [c.generation for c in committed] == [0, 1]
        assert committed[1].manifest_bytes == len(plan.manifest.to_bytes())

    def test_manifest_failure_marks_the_chain_torn_and_does_not_commit(self):
        port = FakeDeltaPort(fail="manifest")
        with pytest.raises(OSError, match="injected-manifest"):
            port.checkpoint(2 * CHUNK)
        tracker = port.kernel.delta("/ckpt")
        assert tracker.torn and tracker.generation == -1
        assert port.of(DeltaGenerationCommitted) == []
        port.fail = None
        with pytest.raises(ManifestError, match="torn"):
            run(delta.restore(port, "/ckpt"))
        assert port.ops("load") == []  # refused before touching storage

    @pytest.mark.parametrize("phase", ["write", "fsync"])
    def test_data_phase_failure_still_closes_and_leaves_the_head_intact(self, phase):
        port = FakeDeltaPort()
        port.checkpoint(2 * CHUNK)
        port.fail = phase
        with pytest.raises(OSError):
            port.checkpoint(2 * CHUNK, dirty=[1])
        assert port.log[-1] == ("close", 1)
        assert port.ops("manifest") == [port.ops("manifest")[0]]  # gen 0's only
        tracker = port.kernel.delta("/ckpt")
        assert not tracker.torn and tracker.generation == 0


class TestDeltaRestore:
    def test_one_read_per_owner_run_each_generation_opened_once(self):
        port = FakeDeltaPort()
        port.checkpoint(5 * CHUNK)
        port.checkpoint(5 * CHUNK, dirty=[1, 3])
        del port.log[:]
        runs = run(delta.restore(port, "/ckpt"))
        assert runs == [  # the runs tile the image in offset order
            (0, 0, CHUNK),
            (1, CHUNK, CHUNK),
            (0, 2 * CHUNK, CHUNK),
            (1, 3 * CHUNK, CHUNK),
            (0, 4 * CHUNK, CHUNK),
        ]
        assert port.ops("open") == [("open", 0, False), ("open", 1, False)]
        assert sorted(port.ops("close")) == [("close", 0), ("close", 1)]
        (restored,) = port.of(DeltaRestored)
        assert restored.reassembly_reads == 5
        assert restored.reassembly_bytes == 5 * CHUNK

    def test_failed_run_closes_what_it_opened_and_accounts_nothing(self):
        port = FakeDeltaPort()
        port.checkpoint(2 * CHUNK)
        port.fail = "read"
        with pytest.raises(OSError):
            run(delta.restore(port, "/ckpt"))
        assert port.log[-1] == ("close", 0)
        assert port.of(DeltaRestored) == []

    def test_fresh_chain_refuses(self):
        with pytest.raises(ManifestError, match="no committed"):
            run(delta.restore(FakeDeltaPort(), "/ckpt"))
