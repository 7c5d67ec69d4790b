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

* :func:`read_resident` — not a flow: the per-call case that cannot
  park (a clean file, every chunk of the range resident — or, where
  the reader fills, the one chunk of the range warmed) served by a
  plain function both planes try first;
* :func:`read` — one application read: passthrough or cached;
* :func:`serve` / :func:`cached_chunk` — the per-chunk loop of a cached
  read and the service of one chunk (hit, fill of a warmed entry,
  demand fetch, park on an in-flight entry, starved pool → uncached
  slice);
* :func:`issue_prefetches` / :func:`service_prefetch` — slide the window
  onto the work queue's low band; lease and warm one
  :class:`Prefetch`;
* :func:`release_evicted`, :func:`invalidate`, :func:`clear` — evictee
  release + waiter wake-up, and the write-path / teardown hooks.

Ports (duck-typed).  The *mount* (:class:`~repro.core.mount.CRFS`,
:class:`~repro.simcrfs.model.SimCRFS`) provides ``health``,
``flush_drain(file)`` (entered only for a file that is not
``pipeline.clean``), ``read_through(file, size, offset)`` and
``file_size(file)``; files expose ``pipeline`` and ``read_cache``.  The
*per-file cache* (:class:`~repro.core.readcache.ReadCache`,
:class:`~repro.simcrfs.model.SimReadCache`) provides ``core``,
``health``, ``path`` and

``lock``
    context manager guarding the core (a real lock on the threaded
    plane, a null context on the single-threaded simulator);
``try_lease()``
    one pool buffer, or None when starved — never blocks on the pool;
``warm_reads``
    which half of a chunk's backend read moves the bytes: True when
    the warm does (the timing plane; the threaded plane over a backend
    with latency of its own), False when the fill does (the threaded
    plane over a backend that reads from memory);
``warm(lease, offset, length)``
    the first half — get ``length`` bytes at ``offset`` ready to move;
    returns the byte count it got (promised, where it is free);
``fill(lease, offset, length)``
    the second half — have the warmed bytes in the leased buffer;
    returns the byte count there (short if the file shrank behind the
    mount);
``read_into(lease, offset, length)``
    the fill as a plain call, for :func:`read_resident` — needed only
    where the fill reads (``warm_reads`` False: the threaded plane);
``read_uncached(offset, length)``
    a slice straight from the backend (starved demand read);
``view(lease, lo, hi)``
    what a read is handed for bytes ``lo:hi`` of a resident buffer;
``await_entry(entry)``
    until an entry not yet warmed is ready or evicted: park while the
    IO side warms it or, where the reader warms (only the read's own
    slide can have left one unwarmed), warm it on the spot;
``wake(entry)``
    wake readers parked on ``entry``;
``release(lease)``
    return one buffer to the pool;
``enqueue_prefetch(item)``
    put one :class:`Prefetch` on the work queue's low band, where the
    plane's IO side runs :func:`service_prefetch` on it — or, where the
    reader warms, run that on the reader and queue nothing; either way
    raise :class:`~repro.errors.ShutdownError` before leasing once the
    queue is closed;
``serve_read(offset, end, file_size)``
    run :func:`serve` with the plane's own cost of handing the bytes
    back (the threaded join under the cache lock, the modelled FUSE
    round-trips and copy-out).

Determinism contract (what the cross-plane differential tests lean on):
every decision — hit vs. miss, admit, evict, prefetch planning — is a
pure function of the *access sequence*, never of fetch timing.  An
entry still in flight, or warmed and not yet filled, counts as a
**hit** (the fetch was saved either way), and the eviction victim —
least recently used outside the live window — is chosen regardless of
entry state from LRU order, the latest access and the window width,
all functions of that sequence, so two planes replaying the same reads
make byte-identical decisions even though their fetches complete at
different (virtual or wall) times.

Accounting invariants: every issued prefetch eventually emits exactly
one of ``ChunkPrefetched`` (warmed) or ``PrefetchDropped`` (pool
starved, backend error, or evicted in flight); a warmed prefetch that
leaves the cache unused emits ``PrefetchWasted``.  The ``fetch`` copy
(backend → pooled buffer) is counted at the fill, where a read first
takes the chunk, whichever half moved its bytes — so the ledger is the
same on both planes, and a prefetch evicted unread counts as wasted,
not as a copy.  The breaker counts a success where bytes did move.

Synchronization: every :class:`ReadaheadCore` method must be invoked
under the owning cache port's ``lock``; the flows below take it where
they are entered from outside a read (:func:`serve` runs with it
already held by ``serve_read``).
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Iterable, List, Optional, Tuple

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
from .kernel import PipelineKernel
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
    "read_resident",
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

    __slots__ = ("index", "origin", "ready", "filled", "valid", "used", "evicted",
                 "payload", "waiters")

    def __init__(self, index: int, origin: str):
        self.index = index
        self.origin = origin
        self.ready = False  # warmed: payload is leased, a read may fill it
        self.filled = False  # payload holds the chunk's bytes
        self.valid = 0  # bytes the chunk holds (short at the then-EOF)
        self.used = False  # some read was served from (or waited on) it
        self.evicted = False  # removed from the index; payload is stale
        self.payload: Any = None
        self.waiters: List[Any] = []

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "filled" if self.filled else "warm" if self.ready else "fetching"
        if self.evicted:
            state = "evicted"
        return f"<CacheEntry #{self.index} {self.origin} {state}>"


class AdaptiveWindow:
    """AIMD prefetch-window controller — a pure decision kernel.

    Additive increase: every ``grow_streak`` consecutive sequential hits
    widen the window by one chunk, up to ``ceiling`` (cache capacity
    minus two: the chunk being served plus a fully grown window leave
    one slot, which keeps the chunk just consumed for a re-read).
    Multiplicative decrease: each cache-pressure signal
    — an unread prefetch evicted, a fetch dropped on a starved pool, a
    delivered prefetch wasted — halves the window down to ``floor``.
    A static window is one whose bounds meet: with ``floor == initial
    == ceiling`` it neither grows nor shrinks, which the property tests
    pin.

    Purity contract: the window is a function of the sequence of
    :meth:`on_access` / :meth:`on_pressure` calls alone, which both
    planes derive from the identical access sequence and removal
    accounting — never from fetch timing — so the cross-plane
    differential holds for the window counters too.
    """

    __slots__ = ("window", "floor", "ceiling", "grow_streak", "last_index", "_streak")

    def __init__(
        self,
        initial: int,
        ceiling: int,
        floor: int = 1,
        grow_streak: int = 2,
    ):
        if not 0 <= floor <= initial <= ceiling:
            raise ValueError(
                f"window needs 0 <= {floor} <= initial <= {ceiling}, got {initial}"
            )
        self.window = initial
        self.floor = floor
        self.ceiling = ceiling
        self.grow_streak = grow_streak
        self._streak = 0
        #: The chunk the latest access touched — the low edge of the
        #: live window eviction spares (None before the first access).
        self.last_index: Optional[int] = None

    def on_access(self, index: int, hit: bool) -> bool:
        """Observe one chunk access; True when the window grew."""
        sequential = self.last_index is not None and index == self.last_index + 1
        self.last_index = index
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
        self._streak = 0
        shrunk = max(self.floor, self.window // 2)
        if shrunk < self.window:
            self.window = shrunk
            return True
        return False


class ReadaheadCore:
    """Per-file readahead decisions: LRU cache index + prefetch window.

    ``capacity`` bounds resident entries (both ready and in flight);
    ``depth`` is the sliding prefetch window issued after every access,
    an :class:`AdaptiveWindow` — pinned at the ``readahead_chunks`` knob
    by default (its bounds meet there), between 1 and ``capacity - 2``
    when ``adaptive`` is set.  Eviction spares the *live window* — the
    chunk the latest access touched and the ``depth`` chunks after it — and
    takes the least recently used entry outside it, so the chunk being
    served and the prefetches issued for it are never their own
    window's victims: a sequential scan fetches every chunk once at any
    ``capacity > depth`` (enforced by :class:`~repro.config.CRFSConfig`
    and by the window ceiling), which is also what guarantees a victim
    outside the window exists.  The slot the adaptive ceiling leaves
    beyond current chunk + window holds the chunk just consumed.

    ``kernel`` is the mount's :class:`~repro.pipeline.kernel.
    PipelineKernel`: the core reads its chunk size, counts its hits,
    misses and ``fetch`` copies in its registry and emits on its stream.
    """

    def __init__(
        self,
        path: str,
        kernel: PipelineKernel,
        capacity: int,
        depth: int,
        adaptive: bool = False,
    ):
        if capacity < 1:
            raise ValueError(f"cache capacity must be >= 1, got {capacity}")
        if depth < 0:
            raise ValueError(f"prefetch depth must be >= 0, got {depth}")
        self.path = path
        self.chunk_size = kernel.chunk_size
        self.capacity = capacity
        if adaptive:
            # An adaptive window starts inside its own bounds even when
            # the configured depth exceeds the thrash-free ceiling.
            ceiling = max(1, capacity - 2)
            self.window = AdaptiveWindow(min(depth, ceiling), ceiling)
        else:
            self.window = AdaptiveWindow(depth, depth, floor=depth)
        self._kernel = kernel
        self._emit = kernel.emit
        self._clock = kernel.clock
        self._entries: "OrderedDict[int, CacheEntry]" = OrderedDict()

    @property
    def depth(self) -> int:
        """The current prefetch-window width."""
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

        A resident entry — filled, warmed *or* still in flight — is a
        hit (the caller fills a warmed entry and waits on an in-flight
        one); absence is a miss and the caller fetches on demand.  Both
        outcomes are counted.
        """
        entry = self._entries.get(index)
        self._kernel.stats._count_access(hit=entry is not None)
        if entry is not None:
            self.hit(entry)
            return entry
        if ReadMiss in self._kernel._routes:
            self._emit(ReadMiss(self.path, index * self.chunk_size, self._clock()))
        self._observe_access(index, hit=False)
        return None

    def hit(self, entry: CacheEntry) -> None:
        """The decisions of one hit, which the caller counts
        (:meth:`access`, or :func:`read_resident` in the file's hot
        cell): ``entry`` is marked used, moved to MRU and shown to the
        window controller, and a ``ReadHit`` is built if routed."""
        entry.used = True
        self._entries.move_to_end(entry.index)
        if ReadHit in self._kernel._routes:
            self._emit(ReadHit(self.path, entry.index * self.chunk_size, self._clock()))
        self._observe_access(entry.index, hit=True)

    def _observe_access(self, index: int, hit: bool) -> None:
        if self.window.on_access(index, hit=hit):
            self._emit(
                WindowGrown(path=self.path, window=self.window.window, t=self._clock())
            )

    def resident(self, index: int, nbytes: int, warmed: bool = False) -> Optional[CacheEntry]:
        """The entry of chunk ``index`` if a read of its first
        ``nbytes`` bytes can be served from it right now — resident,
        filled (or, with ``warmed``, at least warmed: the caller fills
        it), and not short of them (:attr:`CacheEntry.valid`) — else
        None.  Decides and counts nothing."""
        entry = self._entries.get(index)
        if entry is not None and (entry.filled or warmed and entry.ready) and entry.valid >= nbytes:
            return entry
        return None

    def window_resident(self, index: int, depth: Optional[int] = None) -> bool:
        """Whether every chunk of the window after ``index`` (``depth``
        chunks; the current width by default) is in the cache, ready or
        in flight — sliding it would then issue nothing.  The file size
        is not consulted: a chunk past EOF counts as absent."""
        entries = self._entries
        if depth is None:
            depth = self.depth
        for i in range(index + 1, index + 1 + depth):
            if i not in entries:
                return False
        return True

    def admit(self, index: int, origin: str) -> Tuple[CacheEntry, List[CacheEntry]]:
        """Insert a fresh entry at MRU; returns it plus the evictions.

        The victim is the least recently used entry outside the live
        window (:meth:`_victim`), whatever its state — in-flight entries
        included — so the resident set is a pure function of the access
        sequence.  The caller releases the evictees' payloads and wakes
        their waiters; evicted in-flight fetches are drop-accounted
        here, delivered-but-unused prefetches as waste.
        """
        entry = CacheEntry(index, origin)
        self._entries[index] = entry
        evicted: List[CacheEntry] = []
        while len(self._entries) > self.capacity:
            old = self._victim(entry)
            if old is None:  # capacity >= 1 makes this unreachable
                break
            del self._entries[old.index]
            self._account_removal(old, pressure_drop=True)
            old.evicted = True
            evicted.append(old)
        return entry, evicted

    def _victim(self, admitted: CacheEntry) -> Optional[CacheEntry]:
        """Whom to evict for ``admitted``: the least recently used entry
        whose chunk lies outside ``[a, a + depth]``, ``a`` being the
        chunk of the latest access — the chunk being served and the
        window issued for it.  LRU order, ``a`` and ``depth`` are all
        functions of the access sequence, so the choice is too.  Only a
        core built with ``depth >= capacity`` (which ``CRFSConfig``
        refuses) can find every other entry inside the window; the
        least recently used of those goes then."""
        last = self.window.last_index
        # Before the first access the window is empty.
        low, high = (0, -1) if last is None else (last, last + self.depth)
        inside: Optional[CacheEntry] = None
        for entry in self._entries.values():
            if entry is admitted:
                continue
            if not low <= entry.index <= high:
                return entry
            if inside is None:
                inside = entry
        return inside

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

    def warm_done(self, entry: CacheEntry, payload: Any, length: int) -> bool:
        """An issued warm landed: ``entry`` holds its lease and will
        hold ``length`` bytes once filled.  Returns False when the entry
        was evicted in flight — the caller then releases ``payload``
        itself (the drop was accounted at eviction time)."""
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

    def fill_done(self, entry: CacheEntry, got: int) -> None:
        """A fill left ``got`` bytes in ``entry``'s buffer — no more
        than the warm promised, fewer if the file shrank behind the
        mount, and the entry then holds only those.  The backend →
        pooled-buffer copy happened whether or not the entry survived,
        so the ``fetch`` copy is accounted either way (a failed fill
        moved no bytes and goes through :meth:`fetch_failed` instead)."""
        self._kernel.stats._count_copy(FETCH, got)
        if CopyObserved in self._kernel._routes:
            self._emit(CopyObserved(path=self.path, site=FETCH, length=got, t=self._clock()))
        entry.filled = True
        entry.valid = got

    def fetch_failed(self, entry: CacheEntry, starved: bool = False) -> None:
        """An issued fetch was abandoned: pool starved or backend error.

        The entry leaves the index; a prefetch still in flight is
        drop-accounted (foreground demand failures raise at the caller
        instead, and a failed fill retries on demand, so those removals
        stay silent).  Waiters are woken by the caller
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
    """One window prefetch bound for the IO side — the work item both
    planes put on the queue's low band."""

    cache: Any
    centry: CacheEntry
    file_offset: int
    length: int


def read_resident(
    port: Any, f: Any, size: int, offset: int
) -> Optional[Tuple[Optional[list], Optional[Gen]]]:
    """Serve one application read from resident cache chunks, or return
    None — having decided and counted nothing — for :func:`read` to.

    Not a flow: the case is split off by what the call can see in its
    input, and nothing in it can park.  The mount is not degraded, the
    file is *clean* (``FilePipeline.clean``: nothing to flush, wait for
    or surface, so no drain lock is taken and no drain wait recorded)
    and every chunk of ``[offset, offset + size)`` is in the cache,
    filled, and holds the bytes asked of it — bytes inside an entry's
    ``valid`` existed when it was filled and a write would have dropped
    the entry, so the file size is not asked for either.  Each chunk
    then gets exactly the decisions :func:`cached_chunk` makes on a hit
    (``ReadaheadCore.hit``), in the same order, and the read and its
    hits are counted in the file's hot counters
    (``FilePipeline.count_read``).

    Where the reader fills (``warm_reads`` False), a read inside one
    chunk is served from an entry the window warmed and no read has
    filled yet too — a restore's chunk-boundary read.  After the hit
    the entry is filled by the port's plain ``read_into`` and counted
    as :func:`_fill` counts it (a breaker success, ``fill_done`` and
    its ``fetch`` copy); a fill that comes back short makes the read
    short.  A failed fill drops the entry and counts a breaker failure,
    as :func:`_fill` does, and the read — its hit counted — goes on as
    :func:`cached_chunk` then does: ``(None, rest)`` comes back,
    ``rest`` being the port's ``serve_read`` of the range (a fresh
    access whose miss fetches the chunk on demand, then the slide),
    which the caller drives for the read's bytes.

    Otherwise returns ``(parts, slide)``: the per-chunk views, which the
    caller joins before it does anything else, and — only when a chunk
    of the window after the last access is absent — the
    :func:`issue_prefetches` flow for the caller to drive as it drives
    any flow.  A read of several chunks is served only when none but
    its last can have a window to slide (a slide is a flow this function
    cannot enter mid-read): the widest window an earlier access could
    leave must be resident already.  Then no admission happens before
    the last access, and that one's victims lie outside its window —
    never a chunk this read has yet to touch.

    The caller holds ``f.read_cache.lock`` from here until it has
    joined the parts and driven the slide.
    """
    cache = f.read_cache
    pipeline = f.pipeline
    if cache is None or size <= 0 or port.health.degraded or not pipeline.clean:
        return None
    core = cache.core
    cs = core.chunk_size
    end = offset + size
    first, last = offset // cs, (end - 1) // cs
    warmed = first == last and not cache.warm_reads
    found = []
    for index in range(first, last + 1):
        centry = core.resident(index, min(end - index * cs, cs), warmed)
        if centry is None:
            return None
        found.append(centry)
    if last > first and not core.window_resident(last, core.window.ceiling - 1):
        return None
    parts = []
    for centry in found:
        core.hit(centry)
        base = centry.index * cs
        lo, hi = max(offset - base, 0), min(end - base, cs)
        if not centry.filled:  # warmed: this read fills it
            try:
                got = cache.read_into(centry.payload, base, centry.valid)
            except Exception:
                _drop_failed_fill(cache, centry)
                pipeline.count_read(size, 1)
                file_size = port.file_size(f)
                end = max(offset, min(end, file_size))
                return None, cache.serve_read(offset, end, file_size)
            cache.health.record_success()
            core.fill_done(centry, got)
            hi = max(lo, min(hi, got))
        parts.append(cache.view(centry.payload, lo, hi))
    pipeline.count_read(size, len(found))
    slide = None
    if not core.window_resident(last):
        slide = issue_prefetches(cache, last, port.file_size(f))
    return parts, slide


def read(port: Any, f: Any, size: int, offset: int) -> Gen:
    """One application read of ``size`` bytes at ``offset`` — any that
    :func:`read_resident` did not serve.

    Passthrough (the paper's Section IV-D1 behaviour: nothing pending
    is flushed first) when the file has no cache or while the circuit
    breaker is open — with the breaker open every backend op is
    suspect, and the passthrough read doubles as a recovery probe, the
    read-side analogue of "every degraded write is a probe": its
    outcome is recorded, so a healed backend gets its cache back.  Otherwise flush + drain if the file has
    anything pending (read-your-writes through pending chunks; a latched
    writeback error surfaces here), clip at the file size like a
    passthrough pread would, and serve chunk-aligned slices from the
    cache.  A negative ``size`` or ``offset`` raises :class:`ValueError`
    before anything is decided, counted or read.
    """
    if size < 0 or offset < 0:
        raise ValueError(f"{f.path}: negative read size or offset ({size} @ {offset})")
    pipeline = f.pipeline
    t0 = pipeline.clock()
    cache = f.read_cache
    health = port.health
    degraded = health.degraded
    if cache is None or degraded:
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
    if not pipeline.clean:
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
    the first read of a warmed entry fills it; a hit on an entry not
    yet warmed waits for its warm (``await_entry``).  If
    the entry was dropped or evicted instead, its fill failed, or it
    turns out to hold fewer valid bytes than the read now needs, the
    read retries from a fresh access."""
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
            # warmed short at a then-EOF that a write elsewhere (no
            # invalidation reached it) has since moved: past ``valid``
            # its buffer holds whatever the pooled chunk held before.
            release_evicted(cache, core.invalidate(base, 1))
            continue
        if not centry.filled and not (yield from _fill(cache, centry)):
            continue
        return _view(cache, centry.payload, base, centry.valid, lo, hi)


def _view(cache: Any, lease: Any, base: int, valid: int, lo: int, hi: int) -> Any:
    """The view of bytes ``[lo, hi)`` of the chunk at ``base``, clipped
    at the ``valid`` bytes its buffer holds: a fill that came back short
    makes the read short, as a passthrough ``pread`` would be — past
    ``valid`` the pooled buffer holds another file's bytes."""
    return cache.view(lease, lo - base, max(lo, min(hi, base + valid)) - base)


def _fill(cache: Any, centry: CacheEntry) -> Gen:
    """The first read of a warmed prefetch has its bytes in the leased
    buffer — moving them, where the warm did not (caller holds
    ``cache.lock``); returns whether the entry is now filled.  A failure
    is silent like the prefetch's own — the entry drops and the read
    refetches it on demand — but counted by the breaker."""
    core = cache.core
    try:
        got = yield from cache.fill(
            centry.payload, centry.index * core.chunk_size, centry.valid
        )
    except Exception:
        _drop_failed_fill(cache, centry)
        return False
    if not cache.warm_reads:  # the warm counted its own read
        cache.health.record_success()
    core.fill_done(centry, got)
    return True


def _drop_failed_fill(cache: Any, centry: CacheEntry) -> None:
    """A warmed entry's fill failed (caller holds ``cache.lock``): the
    entry leaves the cache silently and the breaker counts it."""
    cache.core.fetch_failed(centry)
    release_evicted(cache, [centry])
    cache.health.record_failure()


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
        length = yield from cache.warm(
            lease, base, min(core.chunk_size, file_size - base)
        )
        got = yield from cache.fill(lease, base, length)
    except Exception as exc:
        core.fetch_failed(centry)
        cache.wake(centry)
        cache.release(lease)
        cache.health.record_failure()
        raise BackendIOError(
            f"{cache.path}: demand read of chunk @{base} failed: {exc}"
        ) from exc
    cache.health.record_success()
    part = _view(cache, lease, base, got, lo, hi)
    live = core.warm_done(centry, lease, length)
    core.fill_done(centry, got)
    if live:
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
    """Lease and warm one prefetch: the IO side's step for a queued
    item — or, where the reader warms (``warm_reads`` False), the step
    that reader runs itself, free, so the entry is ready before it lets
    go of the lock.  Never blocks on the pool (starved → dropped), so a
    full pool cannot park an IO thread; the lock is dropped around the
    warm so foreground hits overlap the fetch.  Failures are silent —
    the chunk is refetched on demand if a read actually wants it — but
    still counted by the breaker, and so is a warm that read bytes."""
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
        length = yield from cache.warm(lease, item.file_offset, item.length)
    except Exception:
        with cache.lock:
            if not centry.evicted:
                core.fetch_failed(centry)
            cache.wake(centry)
            cache.release(lease)
        cache.health.record_failure()
        return
    if cache.warm_reads:  # the warm read the bytes (else the fill counts)
        cache.health.record_success()
    with cache.lock:
        if core.warm_done(centry, lease, length):
            cache.wake(centry)
        else:  # evicted in flight (drop-accounted at eviction)
            cache.release(lease)


def release_evicted(cache: Any, entries: Iterable[CacheEntry]) -> None:
    """Return evictees' buffers to the pool and wake readers parked on
    in-flight ones (caller holds ``cache.lock``).  An in-flight
    evictee's buffer is still with its warm, which releases it when
    ``warm_done`` reports the eviction."""
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
    everything without waiting for in-flight warms."""
    with cache.lock:
        release_evicted(cache, cache.core.clear())
