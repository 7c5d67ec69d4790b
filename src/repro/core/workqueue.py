"""The work queue between writers and the mount's IO workers.

The paper (Section IV-B): "Data chunks are eventually handed over to the
Work Queue for actual writing... Whenever a chunk is enqueued, an IO
thread wakes up and fetches the chunk off the queue."

Item storage and service order live in a
:class:`~repro.pipeline.tenancy.DRRScheduler` shared with the timing
plane's ``SimQueue``: per-tenant sub-queues served weighted
deficit-round-robin under contention, which degrades to exact FIFO for
a single-tenant mount.  This class adds what is thread-specific —
the mutex, the condition variables, quota blocking and the
drain-close protocol.

Close semantics are drain-then-stop: after :meth:`close`, queued items
are still handed out, and once empty every getter receives
:class:`QueueClosed` — that is how the IO threads learn to exit at
unmount without dropping in-flight chunks.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Mapping

from .. import waits
from ..errors import QueueFullTimeout, ShutdownError
from ..pipeline import AdmissionWait, QueuePressure
from ..pipeline.kernel import PipelineKernel
from ..pipeline.tenancy import DEFAULT_TENANT, DRRScheduler

__all__ = ["WorkQueue", "QueueClosed", "QueueFullTimeout"]


class QueueClosed(ShutdownError):
    """Raised from get_batch()/put() once the queue has shut down."""


class WorkQueue:
    """Thread-safe queue with drain-close.

    Two priority bands: the default (high) band carries writeback
    chunks, the low band readahead prefetches — :meth:`get_batch` drains
    the high band first, so prefetch never delays a checkpoint write.
    The queue has no bound of its own: a chunk is taken from the buffer
    pool before it is queued, so the pool bounds the high band (the
    paper's design).

    Multi-tenant mounts add per-tenant ``quotas`` on queued high-band
    chunks: a tenant at its quota blocks *its own* writers at
    :meth:`put` (admission control), leaving other tenants' puts and the
    IO workers untouched.  Low-band puts never block (prefetch volume
    is already bounded by cache admission, and a blocking low put from
    a reader holding cache locks could deadlock).

    Depth goes out as ``QueuePressure`` / ``AdmissionWait`` records on
    ``kernel``'s stream, an admission wait stamped by its clock: the
    mount passes its own, and a tiered backend's private pump queue
    passes none, so its depths never reach the mount's ``queue``
    section.
    """

    def __init__(
        self,
        kernel: PipelineKernel | None = None,
        scheduler: DRRScheduler | None = None,
        quotas: Mapping[str, int] | None = None,
    ):
        self.kernel = kernel
        self.scheduler = scheduler if scheduler is not None else DRRScheduler()
        self.quotas = {t: q for t, q in (quotas or {}).items() if q > 0}
        self._lock = threading.Lock()
        self._not_empty = threading.Condition(self._lock)
        self._not_full = threading.Condition(self._lock)
        self._closed = False

    def __len__(self) -> int:
        with self._lock:
            return len(self.scheduler)

    def depth(self, tenant: str) -> int:
        """Queued high-band chunks for ``tenant`` (the admission gauge)."""
        with self._lock:
            return self.scheduler.depth(tenant)

    @property
    def closed(self) -> bool:
        with self._lock:
            return self._closed

    # -- put -------------------------------------------------------------------

    def _pushed(self, tenant: str) -> None:
        """Emit the depths after a put and wake a getter (caller holds
        the lock)."""
        if self.kernel is not None:
            depth, tenant_depth = len(self.scheduler), self.scheduler.depth(tenant)
            self.kernel.emit(
                QueuePressure(depth=depth, tenant=tenant, tenant_depth=tenant_depth)
            )
        self._not_empty.notify()

    def _wake_putters(self) -> None:
        """Wake blocked putters after a high-band item left the queue
        (caller holds the lock).  A putter waits only on its own
        tenant's quota — waiters block on *different* predicates — so
        every one must recheck; with no quotas nobody waits."""
        if self.quotas:
            self._not_full.notify_all()

    def put(
        self, item: Any, low: bool = False, tenant: str = DEFAULT_TENANT
    ) -> None:
        """Enqueue ``item`` for ``tenant``; raises :class:`QueueClosed`
        once closed.

        Band contract: a high-band put blocks while the tenant is at its
        ``queue_quota`` (:class:`QueueFullTimeout` if it stays there).
        A low-band put NEVER blocks — the band is unbounded and
        quota-exempt by design (prefetch volume is capped upstream by
        cache admission, and a blocking low put from a reader holding
        cache locks could deadlock).
        """
        with self._not_full:
            quota = 0 if low else self.quotas.get(tenant, 0)
            if quota and self.scheduler.depth(tenant) >= quota and not self._closed:
                # Count the blocking put once, not once per wakeup.
                if self.kernel is not None:
                    self.kernel.emit(
                        AdmissionWait(
                            tenant=tenant,
                            depth=self.scheduler.depth(tenant),
                            t=self.kernel.clock(),
                        )
                    )
                bound = waits.bound()
                if not self._not_full.wait_for(
                    lambda: self._closed or self.scheduler.depth(tenant) < quota, bound
                ):
                    raise QueueFullTimeout(
                        f"work queue full for {bound:.3g}s "
                        f"(tenant {tenant!r}) — IO stalled?"
                    )
            if self._closed:
                raise QueueClosed("work queue closed")
            self.scheduler.push(tenant, item, low=low)
            self._pushed(tenant)

    # -- get -------------------------------------------------------------------

    def get_batch(self, limit: int, chain: Callable[[Any, Any], bool]) -> list[Any]:
        """Take the next item in service order plus up to ``limit - 1``
        queued high-band items that ``chain`` accepts as its
        continuation.

        Blocks while the queue is empty — an idle worker's wait has no
        bound — and raises :class:`QueueClosed` once it is closed *and*
        both bands are drained.  The wait is for the *first* item only,
        the high band drains before the low band, and a low-band item
        is never batched (prefetches carry no contiguity).  The gather
        scans only the popped tenant's sub-queue —
        ``chain(batch[-1], candidate)`` — skipping non-matching items and
        preserving their relative order, so a batch never spans tenants;
        the gathered run is charged against the tenant's DRR deficit, so
        a long coalesced batch still costs its weight.
        """
        if limit < 1:
            raise ValueError(f"limit must be >= 1, got {limit}")
        with self._not_empty:
            self._not_empty.wait_for(lambda: self._closed or len(self.scheduler))
            if not len(self.scheduler):
                raise QueueClosed("work queue closed")
            was_high = self.scheduler.high_len > 0
            popped = self.scheduler.pop()
            assert popped is not None
            tenant, item = popped
            if not was_high:
                return [item]
            batch = [item, *self.scheduler.gather(tenant, limit - 1, chain, item)]
            self._wake_putters()
            return batch

    def close(self) -> None:
        with self._lock:
            self._closed = True
            self._not_empty.notify_all()
            self._not_full.notify_all()
