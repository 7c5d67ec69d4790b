"""Hierarchical async staging: the tiered backend (ROADMAP item 2).

``TieredBackend`` composes a chain of ordinary backends — e.g. Mem →
LocalDir → an NFS/Lustre-like store — into one :class:`Backend`.  The
mount's IO workers write into **tier 0** only, so a chunk writeback
completes at staging speed; background *pump* workers (a private
:class:`~repro.core.workqueue.WorkQueue` drained by dedicated threads,
batch-aware like the coalesced-writeback path) copy each accepted
extent tier-to-tier until every tier holds the full image.

Durability is a *level*: ``fsync`` waits until the file's extents have
reached tiers ``0..fsync_tier`` (the ``fsync_tier`` CRFSConfig knob;
-1 = the deepest tier) and then fsyncs exactly those tiers.  Reads are
always served from tier 0, which by construction holds every byte.

Resilience applies **per tier**: each migration destination gets its
own :class:`~repro.pipeline.resilience.RetryPolicy` chain and
:class:`~repro.pipeline.resilience.BackendHealth` breaker (its
``BackendDegraded``/``BackendRecovered`` and the pump's ``ChunkRetried``
carry the destination tier, so the stats registry counts them in that
tier's slice, not the mount's ``resilience`` section).  A migration
whose retries exhaust *strands* its extents at the shallower tier — a
broken PFS degrades the mount to "durable on local disk" instead of
dragging it into synchronous write-through; the strand error latches
and surfaces from any ``fsync`` whose durability level includes the
broken tier.

The accounting (what each tier is owed, what stranded where) lives in
the plane-agnostic :class:`~repro.pipeline.staging.StagingCore`, and
the pump step itself (retry, forward, strand, deferred close) is
:func:`repro.pipeline.writeback.migrate` — both run unchanged by the
timing plane, so the ``tiers`` section of ``stats()`` is bit-identical
across planes.  This class is the storage fan-out, the pump threads,
and the engine's threaded *port*.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Optional, Sequence

from .. import waits
from ..config import CRFSConfig
from ..errors import BackendTimeoutError, ShutdownError
from ..pipeline.kernel import PipelineKernel
from ..pipeline.resilience import BackendHealth
from ..pipeline.staging import StagedFile, StagingCore
from ..pipeline.writeback import Extent, blocking, contiguous, migrate, run, stage
from .base import Backend, BackendStat

__all__ = ["TieredBackend"]


class _TierHandle:
    """One open file across every tier: the per-tier inner handles plus
    the shared staging debt."""

    __slots__ = ("path", "inner", "staged")

    def __init__(self, path: str, inner: list[Any], staged: StagedFile):
        self.path = path
        self.inner = inner
        self.staged = staged


class TieredBackend(Backend):
    """A chain of backends staged tier-to-tier by background pumps."""

    name = "tiered"

    def __init__(
        self,
        tiers: Sequence[Backend],
        sleep: Callable[[float], None] = time.sleep,
    ):
        if len(tiers) < 2:
            raise ValueError(
                f"TieredBackend needs >= 2 tiers, got {len(tiers)} "
                "(a single tier is just that backend)"
            )
        self.tiers: list[Backend] = list(tiers)
        self.sleep = blocking(sleep)
        # One lock guards the staging accounting; the idle condition
        # wakes fsync/drain waiters whenever debt is paid (or forgiven).
        self.lock = threading.RLock()
        self._idle = threading.Condition(self.lock)
        self.pump_depth = 0
        self._workers: list[threading.Thread] = []
        self._started = False
        self._shutdown = False
        # Unmounted, the default config's knobs and a private kernel; a
        # mount rebinds to its own before any IO.
        config = CRFSConfig()
        self.bind(PipelineKernel(config.chunk_size, tiers=len(self.tiers)), config)
        # Private queue: its QueuePressure records go nowhere, never to
        # the mount's `queue` section.
        from ..core.workqueue import WorkQueue

        self._queue = WorkQueue()

    @property
    def reads_from_memory(self) -> bool:  # type: ignore[override]
        return self.tiers[0].reads_from_memory  # reads are served by tier 0

    # -- mount wiring ---------------------------------------------------------

    def bind(self, kernel: PipelineKernel, config: CRFSConfig) -> None:
        """Wire this backend into a mount's pipeline kernel: tier events
        join its stream, stamped by its clock, and ``config``'s staging
        knobs (``fsync_tier``, ``retry``, ``breaker_threshold``,
        ``tier_pump_threads``, ``tier_pump_batch_chunks``) take effect.
        Must be called before any IO (the mount does it at construction)."""
        if self._started:
            raise ShutdownError("cannot bind a tiered backend after IO started")
        self.retry = config.retry
        self._pump_threads = config.tier_pump_threads
        self._pump_batch = config.tier_pump_batch_chunks
        self.staging = StagingCore(len(self.tiers), kernel, fsync_tier=config.fsync_tier)
        self.tier_healths: list[Optional[BackendHealth]] = self.staging.breakers(
            config.breaker_threshold
        )

    @property
    def fsync_tier(self) -> int:
        """The resolved durability level (tier index) fsync syncs through."""
        return self.staging.fsync_tier

    def resolve_fsync_tier(self, tier: int) -> int:
        """Normalize an ``fsync_tier`` knob (-1 = deepest) against this
        chain (raises on out-of-range)."""
        return StagingCore.resolve_tier(tier, len(self.tiers))

    @property
    def outstanding(self) -> int:
        """Total arrivals still owed across all files and tiers."""
        with self.lock:
            return self.staging.outstanding

    # -- pump lifecycle -------------------------------------------------------

    def _ensure_started(self) -> None:
        with self.lock:
            if self._started:
                return
            if self._shutdown:
                raise ShutdownError("tiered backend is shut down")
            self._started = True
            for i in range(self._pump_threads):
                t = threading.Thread(
                    target=self._pump_worker, name=f"crfs-pump-{i}", daemon=True
                )
                self._workers.append(t)
                t.start()

    def _pump_worker(self) -> None:
        while True:
            try:
                extents = self._queue.get_batch(self._pump_batch, contiguous)
            except ShutdownError:
                return
            run(migrate(self, extents))

    # -- the writeback engine's pump port (threaded plane) --------------------
    # plus the attributes ``retry``, ``sleep``, ``staging``,
    # ``tier_healths``, ``lock`` and ``pump_depth`` set up above.

    @blocking
    def tier_copy(
        self, handle: _TierHandle, tier: int, offset: int, lengths: Sequence[int]
    ) -> None:
        payload = self.tiers[tier - 1].pread(
            handle.inner[tier - 1], sum(lengths), offset
        )
        view = memoryview(payload)
        if len(lengths) > 1:
            # one iovec per accepted extent, like the writeback batching
            views, at = [], 0
            for n in lengths:
                views.append(view[at : at + n])
                at += n
            self.tiers[tier].pwritev(handle.inner[tier], views, offset)
        else:
            self.tiers[tier].pwrite(handle.inner[tier], view, offset)

    @blocking
    def pump_put(self, extent: Extent) -> None:
        self._queue.put(extent)

    def staging_wake(self, sf: StagedFile) -> None:
        self._idle.notify_all()

    def _close_inner(self, handle: _TierHandle) -> None:
        for tier, backend in enumerate(self.tiers):
            backend.close(handle.inner[tier])

    tier_close = blocking(_close_inner)

    # -- data plane -----------------------------------------------------------

    def open(self, path: str, create: bool = True, truncate: bool = False) -> Any:
        self._ensure_started()
        inner = [t.open(path, create, truncate) for t in self.tiers]
        return _TierHandle(path, inner, self.staging.file(path))

    def pwrite(self, handle: Any, data: bytes | memoryview, offset: int) -> int:
        n = self.tiers[0].pwrite(handle.inner[0], data, offset)
        self.stage(handle, offset, n)
        return n

    def pwritev(
        self, handle: Any, views: Sequence[bytes | memoryview], offset: int
    ) -> int:
        n = self.tiers[0].pwritev(handle.inner[0], views, offset)
        self.stage(handle, offset, n)
        return n

    def tier0(self, handle: _TierHandle) -> tuple[Backend, Any]:
        """The staging tier and this file's handle in it — for a caller
        that stages explicitly (the mount's IO workers write here under
        retry, then call :meth:`stage` once)."""
        return self.tiers[0], handle.inner[0]

    def stage(self, handle: _TierHandle, offset: int, length: int) -> None:
        """Tier 0 accepted one extent: account it and hand it to the pump."""
        run(stage(self, handle, offset, length))

    def pread(self, handle: Any, size: int, offset: int) -> bytes:
        # Tier 0 is a full replica by construction — reads never wait on
        # the pump.
        return self.tiers[0].pread(handle.inner[0], size, offset)

    def pread_into(self, handle: Any, buf: memoryview | bytearray, offset: int) -> int:
        return self.tiers[0].pread_into(handle.inner[0], buf, offset)

    def fsync(self, handle: Any) -> None:
        self.fsync_through(handle, self.staging.fsync_tier)

    def fsync_through(self, handle: Any, tier: int) -> None:
        """Durability through tier ``tier``: wait until every extent the
        file staged has arrived at (or stranded short of) tiers
        0..``tier``, surface the shallowest strand error if any, then
        fsync those tiers in order."""
        tier = StagingCore.resolve_tier(tier, len(self.tiers))
        sf: StagedFile = handle.staged
        with self._idle:
            if not self._idle.wait_for(
                lambda: sf.pending_through(tier) <= 0, waits.bound()
            ):
                raise BackendTimeoutError(
                    f"{handle.path}: tier-{tier} sync stuck "
                    f"({sf.pending_through(tier)} extent(s) in flight)"
                )
            error = sf.sync_error(tier)
        if error is not None:
            raise error
        for level in range(tier + 1):
            self.tiers[level].fsync(handle.inner[level])
        with self.lock:
            self.staging.synced(sf, tier)

    def close(self, handle: Any) -> None:
        """Release the handle.  A file with migrations still in flight
        defers the underlying per-tier closes to the pump worker that
        pays its last debt — close never waits for deep tiers."""
        with self.lock:
            if sum(handle.staged.pending) > 0:
                handle.staged.closing = True
                return
        self._close_inner(handle)

    def file_size(self, handle: Any) -> int:
        return self.tiers[0].file_size(handle.inner[0])

    # -- drain / shutdown -----------------------------------------------------

    def drain(self) -> None:
        """Block until the pump has no migrations outstanding anywhere
        (every extent arrived at the deepest tier or stranded)."""
        with self._idle:
            if not self._idle.wait_for(
                lambda: self.staging.outstanding <= 0, waits.bound()
            ):
                raise BackendTimeoutError(
                    f"tier pump drain stuck "
                    f"({self.staging.outstanding} arrival(s) outstanding)"
                )

    def shutdown(self) -> None:
        """Drain the pump, then stop its workers, against one shared
        deadline (:func:`waits.one_deadline`).  Idempotent; the queue
        closes (drain-then-stop) even when the drain times out, so
        workers always exit once their current op finishes."""
        with self.lock:
            if self._shutdown:
                return
            self._shutdown = True
            started = self._started
        with waits.one_deadline():
            try:
                if started:
                    self.drain()
            finally:
                self._queue.close()
                stuck = waits.join_all(self._workers)
                if stuck:
                    raise BackendTimeoutError(
                        f"tier pump worker(s) did not exit: {', '.join(stuck)}"
                    )

    # -- namespace plane ------------------------------------------------------

    def exists(self, path: str) -> bool:
        return self.tiers[0].exists(path)

    def stat(self, path: str) -> BackendStat:
        return self.tiers[0].stat(path)

    def listdir(self, path: str) -> list[str]:
        return self.tiers[0].listdir(path)

    def _fanout(self, op: Callable[[Backend], None]) -> None:
        """Apply a namespace mutation to every tier; deeper tiers may
        not have received the path yet, so absence there is not an
        error."""
        op(self.tiers[0])
        for backend in self.tiers[1:]:
            try:
                op(backend)
            except FileNotFoundError:
                pass

    def unlink(self, path: str) -> None:
        self._fanout(lambda b: b.unlink(path))

    def mkdir(self, path: str) -> None:
        for backend in self.tiers:
            backend.mkdir(path)

    def rmdir(self, path: str) -> None:
        self._fanout(lambda b: b.rmdir(path))

    def rename(self, old: str, new: str) -> None:
        self._fanout(lambda b: b.rename(old, new))

    def truncate(self, path: str, size: int) -> None:
        self._fanout(lambda b: b.truncate(path, size))
