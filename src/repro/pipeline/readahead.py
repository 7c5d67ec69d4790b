"""The restart read path, written once: cache decisions and read flows.

The paper optimizes only the checkpoint *write* path and passes reads
straight through (Section IV-D1) — restart replays the same many-medium-
request pattern in reverse, so this module adds the symmetric read-side
mechanism: a bounded per-file cache of chunk-aligned reads plus a
sliding prefetch window pushed through the existing IO machinery.

Like :class:`~repro.pipeline.kernel.FilePipeline` for writes, the
*decisions* live here once — :class:`ReadaheadCore` holds the LRU index
of :class:`CacheEntry` objects, classifies every chunk access as hit or
miss, admits/evicts entries and plans the prefetch window — and so do
the *control flows* that execute them, as plain generator functions over
a per-plane port (the technique of :mod:`repro.pipeline.writeback`):

* :func:`read` — one application read: passthrough or cached;
* :func:`serve` / :func:`cached_chunk` — the per-chunk loop of a cached
  read and the service of one chunk (hit, demand fetch, park on an
  in-flight entry, starved pool → uncached slice);
* :func:`issue_prefetches` / :func:`service_prefetch` — slide the window
  onto the work queue's low band; the IO-worker step for one
  :class:`Prefetch`;
* :func:`release_evicted`, :func:`invalidate`, :func:`clear` — evictee
  release + waiter wake-up, and the write-path / teardown hooks.

Ports (duck-typed).  The *mount* (:class:`~repro.core.mount.CRFS`,
:class:`~repro.simcrfs.model.SimCRFS`) provides ``config``, ``health``,
``flush_drain(file)``, ``read_through(file, size, offset)`` and
``file_size(file)``; files expose ``pipeline`` and ``read_cache``.  The
*per-file cache* (:class:`~repro.core.readcache.ReadCache`,
:class:`~repro.simcrfs.model.SimReadCache`) provides ``core``,
``health``, ``path`` and

``lock``
    context manager guarding the core (a real lock on the threaded
    plane, a null context on the single-threaded simulator);
``try_lease()``
    one pool buffer, or None when starved — never blocks on the pool;
``fetch(lease, offset, length)``
    fill the leased buffer from the backend; returns the byte count;
``read_uncached(offset, length)``
    a slice straight from the backend (starved demand read);
``view(lease, lo, hi)``
    what a read is handed for bytes ``lo:hi`` of a resident buffer;
``await_entry(entry)``
    park until an in-flight entry is ready or evicted;
``wake(entry)``
    wake readers parked on ``entry``;
``release(lease)``
    return one buffer to the pool;
``enqueue_prefetch(item)``
    put one :class:`Prefetch` on the work queue's low band;
``serve_read(offset, end, file_size)``
    run :func:`serve` with the plane's own cost of handing the bytes
    back (the threaded join under the cache lock, the modelled FUSE
    round-trips and copy-out).

Determinism contract (what the cross-plane differential tests lean on):
every decision — hit vs. miss, admit, evict, prefetch planning — is a
pure function of the *access sequence*, never of fetch timing.  An
entry still in flight counts as a **hit** (the fetch was saved either
way), and eviction is strict LRU regardless of entry state, so two
planes replaying the same reads make byte-identical decisions even
though their fetches complete at different (virtual or wall) times.

Accounting invariants: every issued prefetch eventually emits exactly
one of ``ChunkPrefetched`` (delivered) or ``PrefetchDropped`` (pool
starved, backend error, or evicted in flight); a delivered prefetch
that leaves the cache unused emits ``PrefetchWasted``.

Synchronization: every :class:`ReadaheadCore` method must be invoked
under the owning cache port's ``lock``; the flows below take it where
they are entered from outside a read (:func:`serve` runs with it
already held by ``serve_read``).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Iterable, List, Optional, Tuple

from ..errors import BackendIOError, ShutdownError
from .copies import FETCH
from .events import (
    ChunkPrefetched,
    CopyObserved,
    PrefetchDropped,
    PrefetchWasted,
    ReadHit,
    ReadMiss,
    WindowGrown,
    WindowShrunk,
)
from .kernel import EmitFn
from .writeback import Gen

__all__ = [
    "AdaptiveWindow",
    "CacheEntry",
    "Prefetch",
    "ReadaheadCore",
    "DEMAND",
    "PREFETCH",
    "cached_chunk",
    "clear",
    "invalidate",
    "issue_prefetches",
    "read",
    "release_evicted",
    "serve",
    "service_prefetch",
]

#: Why an entry entered the cache: a foreground miss or the window.
DEMAND = "demand"
PREFETCH = "prefetch"


class CacheEntry:
    """One chunk-aligned cache slot.

    ``payload`` is the port's lease: the threaded plane stores the
    leased :class:`~repro.core.chunk.Chunk`, the timing plane a truthy
    marker for "holds one pool slot".  ``waiters`` likewise: the timing
    plane parks per-entry :class:`~repro.sim.primitives.SimEvent`
    objects here (the threaded plane waits on its cache condition
    instead).
    """

    __slots__ = ("index", "origin", "ready", "valid", "used", "evicted", "payload", "waiters")

    def __init__(self, index: int, origin: str):
        self.index = index
        self.origin = origin
        self.ready = False  # payload holds the fetched chunk
        self.valid = 0  # bytes the fetch delivered (short at the then-EOF)
        self.used = False  # some read was served from (or waited on) it
        self.evicted = False  # removed from the index; payload is stale
        self.payload: Any = None
        self.waiters: List[Any] = []

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "ready" if self.ready else "fetching"
        if self.evicted:
            state = "evicted"
        return f"<CacheEntry #{self.index} {self.origin} {state}>"


class AdaptiveWindow:
    """AIMD prefetch-window controller — a pure decision kernel.

    Additive increase: every ``grow_streak`` consecutive sequential hits
    widen the window by one chunk, up to ``ceiling`` (cache capacity
    minus two, so a fully grown window's working set — the chunk being
    served plus the window — still leaves one slot of slack and never
    evicts a ready-but-unread prefetch).  Multiplicative decrease: each
    cache-pressure signal
    — an unread prefetch evicted, a fetch dropped on a starved pool, a
    delivered prefetch wasted — halves the window down to ``floor``.
    With ``adaptive=False`` the window is pinned at ``initial``: the
    static-``readahead_chunks`` degeneracy the property tests pin.

    Purity contract: the window is a function of the sequence of
    :meth:`on_access` / :meth:`on_pressure` calls alone, which both
    planes derive from the identical access sequence and removal
    accounting — never from fetch timing — so the cross-plane
    differential holds for the window counters too.
    """

    __slots__ = ("window", "initial", "floor", "ceiling", "grow_streak",
                 "adaptive", "_streak", "_last_index")

    def __init__(
        self,
        initial: int,
        ceiling: int,
        adaptive: bool = False,
        floor: int = 1,
        grow_streak: int = 2,
    ):
        if adaptive and initial < 1:
            raise ValueError(f"adaptive window needs initial >= 1, got {initial}")
        if adaptive and not floor <= initial <= ceiling:
            raise ValueError(
                f"adaptive window needs {floor} <= initial <= {ceiling}, got {initial}"
            )
        self.window = initial
        self.initial = initial
        self.floor = floor
        self.ceiling = ceiling
        self.grow_streak = grow_streak
        self.adaptive = adaptive
        self._streak = 0
        self._last_index: Optional[int] = None

    def on_access(self, index: int, hit: bool) -> bool:
        """Observe one chunk access; True when the window grew."""
        sequential = self._last_index is not None and index == self._last_index + 1
        self._last_index = index
        if not self.adaptive:
            return False
        if hit and sequential:
            self._streak += 1
        else:
            self._streak = 0
        if self._streak >= self.grow_streak and self.window < self.ceiling:
            self.window += 1
            self._streak = 0
            return True
        return False

    def on_pressure(self) -> bool:
        """Observe one cache-pressure signal; True when the window
        shrank.  Pressure also breaks the current hit streak, so growth
        restarts from scratch once the pressure clears."""
        if not self.adaptive:
            return False
        self._streak = 0
        shrunk = max(self.floor, self.window // 2)
        if shrunk < self.window:
            self.window = shrunk
            return True
        return False


class ReadaheadCore:
    """Per-file readahead decisions: LRU cache index + prefetch window.

    ``capacity`` bounds resident entries (both ready and in flight);
    ``depth`` is the sliding prefetch window issued after every access —
    fixed at the ``readahead_chunks`` knob by default, governed by an
    :class:`AdaptiveWindow` between 1 and ``capacity - 2`` when
    ``adaptive`` is set.  The adaptive ceiling keeps one slot of slack
    beyond the working set (current chunk + window): at ``capacity - 1``
    the set fills the cache exactly and every window slide evicts a
    ready-but-unread prefetch — the window would thrash at its own
    ceiling.  ``capacity > depth`` (enforced by
    :class:`~repro.config.CRFSConfig` and by the window ceiling)
    guarantees the window can never evict the chunk being served.
    """

    def __init__(
        self,
        path: str,
        chunk_size: int,
        capacity: int,
        depth: int,
        emit: Optional[EmitFn] = None,
        clock: Optional[Callable[[], float]] = None,
        adaptive: bool = False,
    ):
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1, got {capacity}")
        if depth < 0:
            raise ValueError(f"prefetch depth must be >= 0, got {depth}")
        self.path = path
        self.chunk_size = chunk_size
        self.capacity = capacity
        ceiling = max(1, capacity - 2)
        self.window = AdaptiveWindow(
            # An adaptive window starts inside its own bounds even when
            # the configured static depth exceeds the thrash-free ceiling.
            initial=min(depth, ceiling) if adaptive else depth,
            ceiling=ceiling,
            adaptive=adaptive,
        )
        self._emit = emit if emit is not None else (lambda event: None)
        self._clock = clock if clock is not None else (lambda: 0.0)
        self._entries: "OrderedDict[int, CacheEntry]" = OrderedDict()

    @property
    def depth(self) -> int:
        """The current prefetch-window width (the static knob, or the
        adaptive controller's live value)."""
        return self.window.window

    # -- introspection ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def pending(self) -> int:
        """Entries still in flight (teardown waits for these)."""
        return sum(1 for e in self._entries.values() if not e.ready)

    def entries(self) -> List[CacheEntry]:
        return list(self._entries.values())

    def chunk_span(self, offset: int, length: int) -> range:
        """The chunk indices a byte range overlaps."""
        if length <= 0:
            return range(0)
        cs = self.chunk_size
        return range(offset // cs, (offset + length - 1) // cs + 1)

    # -- the access path -------------------------------------------------------

    def access(self, index: int) -> Optional[CacheEntry]:
        """Classify one chunk access; returns the entry on a hit.

        A resident entry — ready *or* still in flight — is a hit (the
        caller waits on in-flight entries); absence is a miss and the
        caller fetches on demand.  Both outcomes go out on the event
        stream, and the hit is marked used and moved to MRU.
        """
        entry = self._entries.get(index)
        if entry is None:
            self._emit(
                ReadMiss(
                    path=self.path,
                    file_offset=index * self.chunk_size,
                    t=self._clock(),
                )
            )
        else:
            entry.used = True
            self._entries.move_to_end(index)
            self._emit(
                ReadHit(
                    path=self.path,
                    file_offset=index * self.chunk_size,
                    t=self._clock(),
                )
            )
        if self.window.on_access(index, hit=entry is not None):
            self._emit(
                WindowGrown(path=self.path, window=self.window.window, t=self._clock())
            )
        return entry

    def admit(self, index: int, origin: str) -> Tuple[CacheEntry, List[CacheEntry]]:
        """Insert a fresh entry at MRU; returns it plus LRU evictions.

        Eviction is state-independent (strict LRU even for in-flight
        entries) so the resident set is a pure function of the access
        sequence.  The caller releases the evictees' payloads and wakes
        their waiters; evicted in-flight fetches are drop-accounted
        here, delivered-but-unused prefetches as waste.
        """
        entry = CacheEntry(index, origin)
        self._entries[index] = entry
        evicted: List[CacheEntry] = []
        while len(self._entries) > self.capacity:
            old_index, old = next(iter(self._entries.items()))
            if old is entry:  # capacity >= 1 makes this unreachable
                break
            del self._entries[old_index]
            self._account_removal(old, pressure_drop=True)
            old.evicted = True
            evicted.append(old)
        return entry, evicted

    def plan_prefetch(self, index: int, file_size: int) -> List[int]:
        """The absent chunk indices in the window after ``index``.

        The window slides on every access (hit or miss), so steady-state
        sequential reads issue one prefetch per chunk consumed and stay
        ``depth`` chunks ahead.  Clamped to chunks that start inside the
        file — prefetching past EOF would fetch nothing.
        """
        if self.depth <= 0:
            return []
        nchunks = (file_size + self.chunk_size - 1) // self.chunk_size
        stop = min(index + 1 + self.depth, nchunks)
        return [i for i in range(index + 1, stop) if i not in self._entries]

    # -- fetch completion ------------------------------------------------------

    def fetch_done(self, entry: CacheEntry, payload: Any, length: int) -> bool:
        """An issued fetch delivered.  Returns False when the entry was
        evicted in flight — the caller then releases ``payload`` itself
        (the drop was accounted at eviction time).

        The backend→pooled-buffer copy happened whether or not the entry
        survived its flight, so the ``fetch`` copy is accounted before
        the eviction check (failed fetches moved no bytes and go through
        :meth:`fetch_failed` instead, which accounts nothing)."""
        self._emit(
            CopyObserved(
                path=self.path, site=FETCH, length=length, t=self._clock()
            )
        )
        if entry.evicted:
            return False
        entry.ready = True
        entry.valid = length
        entry.payload = payload
        if entry.origin == PREFETCH:
            self._emit(
                ChunkPrefetched(
                    path=self.path,
                    file_offset=entry.index * self.chunk_size,
                    length=length,
                    t=self._clock(),
                )
            )
        return True

    def fetch_failed(self, entry: CacheEntry, starved: bool = False) -> None:
        """An issued fetch was abandoned: pool starved or backend error.

        The entry leaves the index; a prefetch is drop-accounted
        (foreground demand failures raise at the caller instead, so
        demand removals stay silent).  Waiters are woken by the caller
        and retry from a fresh access.  ``starved`` marks pool
        contention — a cache-pressure signal for the adaptive window —
        while backend errors leave the window alone (the circuit
        breaker owns that failure mode).
        """
        self._remove(entry, pressure_drop=starved)

    # -- removal (invalidation, eviction, teardown) ----------------------------

    def invalidate(self, offset: int, length: int) -> List[CacheEntry]:
        """Drop every entry overlapping a written byte range.

        Writes go through the aggregation pipeline, not the cache, so
        cached chunks covering rewritten bytes are stale the moment the
        write is accepted.  Returns the removed entries for the plane to
        release payloads and wake waiters.
        """
        removed = []
        for index in self.chunk_span(offset, length):
            entry = self._entries.get(index)
            if entry is not None:
                self._remove(entry)
                removed.append(entry)
        return removed

    def clear(self) -> List[CacheEntry]:
        """Drop everything (close/unmount teardown); same contract as
        :meth:`invalidate`."""
        removed = list(self._entries.values())
        for entry in removed:
            self._remove(entry)
        return removed

    def _remove(self, entry: CacheEntry, pressure_drop: bool = False) -> None:
        current = self._entries.get(entry.index)
        if current is entry:
            del self._entries[entry.index]
        if not entry.evicted:
            self._account_removal(entry, pressure_drop=pressure_drop)
        entry.evicted = True

    def _account_removal(self, entry: CacheEntry, pressure_drop: bool = False) -> None:
        """Emit the accounting event for a removal, feeding the adaptive
        window its pressure signals.  A wasted prefetch (fetched, never
        read) is always pressure; an unready removal is pressure only
        when ``pressure_drop`` says so (LRU eviction, pool starvation —
        not invalidation by a write or a backend error)."""
        offset = entry.index * self.chunk_size
        if not entry.ready:
            if entry.origin == PREFETCH:
                self._emit(
                    PrefetchDropped(path=self.path, file_offset=offset, t=self._clock())
                )
            if pressure_drop:
                self._note_pressure()
        elif entry.origin == PREFETCH and not entry.used:
            self._emit(
                PrefetchWasted(path=self.path, file_offset=offset, t=self._clock())
            )
            self._note_pressure()

    def _note_pressure(self) -> None:
        if self.window.on_pressure():
            self._emit(
                WindowShrunk(path=self.path, window=self.window.window, t=self._clock())
            )


# -- the read engine: the flows both planes run -------------------------------


@dataclass
class Prefetch:
    """One window fetch bound for the IO workers — the work item both
    planes put on the queue's low band."""

    cache: Any
    centry: CacheEntry
    file_offset: int
    length: int


def read(port: Any, f: Any, size: int, offset: int) -> Gen:
    """One application read of ``size`` bytes at ``offset``.

    Passthrough (the paper's Section IV-D1 behaviour) when the file has
    no cache or while the circuit breaker is open — with the breaker
    open every backend op is suspect, and the passthrough read doubles
    as a recovery probe, the read-side analogue of "every degraded
    write is a probe": its outcome is recorded, so a healed backend
    gets its cache back.  Otherwise flush + drain (read-your-writes
    through pending chunks), clip at the file size like a passthrough
    pread would, and serve chunk-aligned slices from the cache.
    """
    pipeline = f.pipeline
    t0 = pipeline.clock()
    cache = f.read_cache
    health = port.health
    degraded = health.degraded
    if cache is None or degraded:
        if not port.config.read_passthrough:
            yield from port.flush_drain(f)
        try:
            data = yield from port.read_through(f, size, offset)
        except Exception:
            if degraded:
                health.record_failure()
            raise
        if degraded:
            health.record_success()
        pipeline.note_read(offset, size, start=t0)
        return data
    yield from port.flush_drain(f)
    file_size = port.file_size(f)
    end = max(offset, min(offset + size, file_size))
    data = yield from cache.serve_read(offset, end, file_size)
    # ``end - offset`` is the cached serve's one boundary
    # materialization: the request clipped at the file size.
    pipeline.note_read(offset, size, start=t0, copied=end - offset)
    return data


def serve(cache: Any, offset: int, end: int, file_size: int) -> Gen:
    """The per-chunk loop of one cached read of ``[offset, end)``
    (caller holds ``cache.lock``): service each chunk, then slide the
    prefetch window past it.  Returns the per-chunk views in order."""
    cs = cache.core.chunk_size
    parts = []
    if end > offset:
        for index in range(offset // cs, (end - 1) // cs + 1):
            lo = max(offset, index * cs)
            hi = min(end, (index + 1) * cs)
            parts.append((yield from cached_chunk(cache, index, lo, hi, file_size)))
            yield from issue_prefetches(cache, index, file_size)
    return parts


def cached_chunk(cache: Any, index: int, lo: int, hi: int, file_size: int) -> Gen:
    """One chunk's contribution to a cached read (caller holds
    ``cache.lock``).  A miss fetches the whole aligned chunk on demand;
    a hit on an in-flight entry (our own prefetch) parks until the
    worker lands it and, if it was dropped or evicted instead — or
    turns out to hold fewer valid bytes than the read now needs —
    retries from a fresh access."""
    core = cache.core
    base = index * core.chunk_size
    while True:
        centry = core.access(index)
        if centry is None:
            return (yield from _demand_fetch(cache, index, lo, hi, file_size))
        if not centry.ready:
            yield from cache.await_entry(centry)
        if centry.evicted:
            continue
        if hi - base > centry.valid:
            # ``hi`` is clipped at the file size, so the entry was
            # fetched short at a then-EOF that a write elsewhere (no
            # invalidation reached it) has since moved: past ``valid``
            # its buffer holds whatever the pooled chunk held before.
            release_evicted(cache, core.invalidate(base, 1))
            continue
        return cache.view(centry.payload, lo - base, hi - base)


def _demand_fetch(cache: Any, index: int, lo: int, hi: int, file_size: int) -> Gen:
    """Foreground miss.  A starved pool un-admits silently (still a
    pool-pressure signal for the adaptive window) and degrades to an
    uncached slice read; a backend failure surfaces as
    :class:`BackendIOError` and is counted by the breaker — demand
    reads are never silent."""
    core = cache.core
    base = index * core.chunk_size
    centry, evicted = core.admit(index, DEMAND)
    release_evicted(cache, evicted)
    lease = yield from cache.try_lease()
    if lease is None:
        core.fetch_failed(centry, starved=True)
        cache.wake(centry)
        return (yield from cache.read_uncached(lo, hi - lo))
    try:
        got = yield from cache.fetch(lease, base, min(core.chunk_size, file_size - base))
    except Exception as exc:
        core.fetch_failed(centry)
        cache.wake(centry)
        cache.release(lease)
        cache.health.record_failure()
        raise BackendIOError(
            f"{cache.path}: demand read of chunk @{base} failed: {exc}"
        ) from exc
    cache.health.record_success()
    part = cache.view(lease, lo - base, hi - base)
    if core.fetch_done(centry, lease, got):
        cache.wake(centry)
    else:  # evicted while we fetched (a concurrent writer invalidated)
        cache.release(lease)
    return part


def issue_prefetches(cache: Any, index: int, file_size: int) -> Gen:
    """Slide the window after an access (caller holds ``cache.lock``).
    Degraded mode issues nothing: with the breaker open every backend
    op is suspect, and speculative reads would only feed it failures."""
    core = cache.core
    if core.depth <= 0 or cache.health.degraded:
        return
    cs = core.chunk_size
    for pidx in core.plan_prefetch(index, file_size):
        centry, evicted = core.admit(pidx, PREFETCH)
        release_evicted(cache, evicted)
        base = pidx * cs
        item = Prefetch(cache, centry, base, min(cs, file_size - base))
        try:
            yield from cache.enqueue_prefetch(item)
        except ShutdownError:  # racing unmount: drop, never block
            core.fetch_failed(centry)


def service_prefetch(item: Prefetch) -> Gen:
    """The IO-worker step for one queued prefetch.  Never blocks on the
    pool (starved → dropped), so a full pool cannot park a worker; the
    lock is dropped around the backend read so foreground hits overlap
    the fetch.  Failures are silent — the chunk is refetched on demand
    if a read actually wants it — but still counted by the breaker."""
    cache, centry = item.cache, item.centry
    core = cache.core
    with cache.lock:
        if centry.evicted:  # invalidated/cleared while queued
            return
        lease = yield from cache.try_lease()
        if lease is None:
            core.fetch_failed(centry, starved=True)
            cache.wake(centry)
            return
    try:
        got = yield from cache.fetch(lease, item.file_offset, item.length)
    except Exception:
        with cache.lock:
            if not centry.evicted:
                core.fetch_failed(centry)
            cache.wake(centry)
            cache.release(lease)
        cache.health.record_failure()
        return
    cache.health.record_success()
    with cache.lock:
        if core.fetch_done(centry, lease, got):
            cache.wake(centry)
        else:  # evicted in flight (drop-accounted at eviction)
            cache.release(lease)


def release_evicted(cache: Any, entries: Iterable[CacheEntry]) -> None:
    """Return evictees' buffers to the pool and wake readers parked on
    in-flight ones (caller holds ``cache.lock``).  An in-flight
    evictee's buffer is still with its fetcher, which releases it when
    ``fetch_done`` reports the eviction."""
    for entry in entries:
        if entry.payload is not None:
            cache.release(entry.payload)
            entry.payload = None
        if not entry.ready:
            cache.wake(entry)


def invalidate(cache: Any, offset: int, length: int) -> None:
    """Drop cached chunks overlapping a just-accepted write."""
    with cache.lock:
        release_evicted(cache, cache.core.invalidate(offset, length))


def clear(cache: Any) -> None:
    """Teardown (last close, unmount, pool-pressure shed): drop
    everything without waiting for in-flight fetches."""
    with cache.lock:
        release_evicted(cache, cache.core.clear())
