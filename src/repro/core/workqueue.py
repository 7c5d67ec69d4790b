"""The work queue between writers and the IO thread pool.

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
import time
from typing import Any, Callable, Mapping

from ..errors import QueueFullTimeout, ShutdownError
from ..pipeline import AdmissionWait, PipelineStats, QueuePressure
from ..pipeline.tenancy import DEFAULT_TENANT, DRRScheduler

__all__ = ["WorkQueue", "QueueClosed", "QueueFullTimeout"]

#: Sentinel distinguishing "caller never passed timeout" (fine for any
#: band) from an explicit value (a contract violation for the low band,
#: whose puts never block).
_DEFAULT_TIMEOUT: Any = object()


class QueueClosed(ShutdownError):
    """Raised from get()/put() once the queue has shut down."""


class WorkQueue:
    """Thread-safe queue with drain-close.

    Two priority bands: the default (high) band carries writeback
    chunks, the low band readahead prefetches — ``get`` always drains
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

    Depth accounting is published as ``QueuePressure`` /
    ``AdmissionWait`` events into the shared
    :class:`~repro.pipeline.stats.PipelineStats` registry.
    """

    def __init__(
        self,
        stats: PipelineStats | None = None,
        scheduler: DRRScheduler | None = None,
        quotas: Mapping[str, int] | None = None,
    ):
        self.stats = stats if stats is not None else PipelineStats()
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

    def _wake_putters(self) -> None:
        """Wake blocked putters after a high-band item left the queue
        (caller holds the lock).  A putter waits only on its own
        tenant's quota — waiters block on *different* predicates — so
        every one must recheck; with no quotas nobody waits."""
        if self.quotas:
            self._not_full.notify_all()

    def put(
        self,
        item: Any,
        timeout: float | None = _DEFAULT_TIMEOUT,
        low: bool = False,
        tenant: str = DEFAULT_TENANT,
    ) -> None:
        """Enqueue ``item`` for ``tenant``; raises :class:`QueueClosed`
        once closed.

        Band contract: high-band puts block while the tenant is at its
        ``queue_quota``, and raise :class:`QueueFullTimeout` after
        ``timeout`` seconds (None = wait forever; default 30 s).  The
        bound is a *deadline*: wakeups that do not admit the put wait
        only on the remainder.  Low-band puts NEVER block — the band is
        unbounded and quota-exempt by design (prefetch volume is capped
        upstream by cache admission, and a blocking low put from a
        reader holding cache locks could deadlock) — so passing
        ``timeout`` with ``low=True`` is a contract violation and raises
        :class:`ValueError` instead of being silently ignored.
        """
        if low and timeout is not _DEFAULT_TIMEOUT:
            raise ValueError(
                "timeout does not apply to low-band puts — they never block"
            )
        if timeout is _DEFAULT_TIMEOUT:
            timeout = 30.0
        with self._not_full:
            if low:
                if self._closed:
                    raise QueueClosed("work queue closed")
                self.scheduler.push(tenant, item, low=True)
                self.stats.on_event(
                    QueuePressure(
                        depth=len(self.scheduler),
                        tenant=tenant,
                        tenant_depth=self.scheduler.depth(tenant),
                    )
                )
                self._not_empty.notify()
                return
            quota = self.quotas.get(tenant, 0)
            deadline = None if timeout is None else time.monotonic() + timeout
            admission_noted = False
            while quota and self.scheduler.depth(tenant) >= quota and not self._closed:
                if not admission_noted:
                    # Count the blocking put once, not once per wakeup.
                    self.stats.on_event(
                        AdmissionWait(
                            tenant=tenant, depth=self.scheduler.depth(tenant)
                        )
                    )
                    admission_noted = True
                remaining = (
                    None if deadline is None else deadline - time.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    raise QueueFullTimeout(
                        f"work queue full for {timeout}s "
                        f"(tenant {tenant!r}) — IO stalled?"
                    )
                if not self._not_full.wait(timeout=remaining):
                    raise QueueFullTimeout(
                        f"work queue full for {timeout}s "
                        f"(tenant {tenant!r}) — IO stalled?"
                    )
            if self._closed:
                raise QueueClosed("work queue closed")
            self.scheduler.push(tenant, item)
            self.stats.on_event(
                QueuePressure(
                    depth=len(self.scheduler),
                    tenant=tenant,
                    tenant_depth=self.scheduler.depth(tenant),
                )
            )
            self._not_empty.notify()

    # -- get -------------------------------------------------------------------

    def get(self, timeout: float | None = None) -> Any:
        """Take the next item in scheduler service order, high band
        first; blocks while empty; raises QueueClosed once closed *and*
        both bands drained.  ``timeout`` is a deadline: wakeups that
        find the queue still empty wait only on the remainder."""
        with self._not_empty:
            deadline = None if timeout is None else time.monotonic() + timeout
            while not len(self.scheduler):
                if self._closed:
                    raise QueueClosed("work queue closed")
                remaining = (
                    None if deadline is None else deadline - time.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    raise TimeoutError("work queue get timed out")
                if not self._not_empty.wait(timeout=remaining):
                    raise TimeoutError("work queue get timed out")
            was_high = self.scheduler.high_len > 0
            popped = self.scheduler.pop()
            assert popped is not None
            _, item = popped
            if was_high:
                self._wake_putters()
            return item

    def get_batch(
        self,
        limit: int,
        chain: Callable[[Any, Any], bool],
        timeout: float | None = None,
    ) -> list[Any]:
        """Take the next item plus up to ``limit - 1`` queued high-band
        items that ``chain`` accepts as its continuation.

        Blocking, close and band semantics are exactly :meth:`get`'s:
        the wait is for the *first* item only, the high band drains
        before the low band, and a low-band item is never batched
        (prefetches carry no contiguity).  The gather scans only the
        popped tenant's sub-queue — ``chain(batch[-1], candidate)`` —
        skipping non-matching items and preserving their relative order,
        so a batch never spans tenants; the gathered run is charged
        against the tenant's DRR deficit, so a long coalesced batch
        still costs its weight.
        """
        if limit < 1:
            raise ValueError(f"limit must be >= 1, got {limit}")
        with self._not_empty:
            deadline = None if timeout is None else time.monotonic() + timeout
            while not len(self.scheduler):
                if self._closed:
                    raise QueueClosed("work queue closed")
                remaining = (
                    None if deadline is None else deadline - time.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    raise TimeoutError("work queue get timed out")
                if not self._not_empty.wait(timeout=remaining):
                    raise TimeoutError("work queue get timed out")
            was_high = self.scheduler.high_len > 0
            popped = self.scheduler.pop()
            assert popped is not None
            tenant, item = popped
            if not was_high:
                return [item]
            batch = [item]
            if limit > 1:
                batch.extend(
                    self.scheduler.gather(tenant, limit - 1, chain, item)
                )
            self._wake_putters()
            return batch

    def close(self) -> None:
        with self._lock:
            self._closed = True
            self._not_empty.notify_all()
            self._not_full.notify_all()
