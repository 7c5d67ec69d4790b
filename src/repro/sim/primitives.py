"""Synchronization primitives for simulated processes.

All primitives are FIFO-fair: waiters are released in arrival order, which
both matches kernel queue behaviour (VFS wait queues, ticket locks) and
keeps simulations deterministic.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable, Deque, Mapping

from ..errors import ShutdownError, SimulationError
from ..pipeline.tenancy import DEFAULT_TENANT, DRRScheduler, PoolLedger
from .engine import Process, Simulator, Waitable

__all__ = ["SimEvent", "SimLock", "SimSemaphore", "SimQueue", "SimTenantPool"]


class SimEvent(Waitable):
    """One-shot event.  ``yield event`` parks until someone calls
    :meth:`succeed` (resumes with the value) or :meth:`fail` (throws)."""

    def __init__(self, sim: Simulator):
        self.sim = sim
        self.triggered = False
        self.value: Any = None
        self.error: BaseException | None = None
        self._waiters: list[Process] = []

    def succeed(self, value: Any = None) -> None:
        if self.triggered:
            raise SimulationError("event already triggered")
        self.triggered = True
        self.value = value
        waiters, self._waiters = self._waiters, []
        for w in waiters:
            self.sim.schedule(0.0, w._resume, value)

    def fail(self, error: BaseException) -> None:
        if self.triggered:
            raise SimulationError("event already triggered")
        self.triggered = True
        self.error = error
        waiters, self._waiters = self._waiters, []
        for w in waiters:
            self.sim.schedule(0.0, w._throw, error)

    def _subscribe(self, sim: Simulator, proc: Process) -> None:
        if self.triggered:
            if self.error is not None:
                sim.schedule(0.0, proc._throw, self.error)
            else:
                sim.schedule(0.0, proc._resume, self.value)
        else:
            self._waiters.append(proc)


class _Acquire(Waitable):
    __slots__ = ("owner",)

    def __init__(self, owner: "SimSemaphore"):
        self.owner = owner

    def _subscribe(self, sim: Simulator, proc: Process) -> None:
        self.owner._enqueue(proc)


class SimSemaphore:
    """Counting semaphore.  ``yield sem.acquire()`` ... ``sem.release()``."""

    def __init__(self, sim: Simulator, capacity: int):
        if capacity < 1:
            raise SimulationError(f"semaphore capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self._in_use = 0
        self._waiters: Deque[Process] = deque()
        # contention stats, used by models to report queueing behaviour
        self.total_acquires = 0
        self.total_waits = 0

    def acquire(self) -> Waitable:
        return _Acquire(self)

    def _enqueue(self, proc: Process) -> None:
        self.total_acquires += 1
        if self._in_use < self.capacity and not self._waiters:
            self._in_use += 1
            self.sim.schedule(0.0, proc._resume, None)
        else:
            self.total_waits += 1
            self._waiters.append(proc)

    def release(self) -> None:
        if self._in_use <= 0:
            raise SimulationError("release() without matching acquire()")
        if self._waiters:
            nxt = self._waiters.popleft()
            self.sim.schedule(0.0, nxt._resume, None)
        else:
            self._in_use -= 1

    @property
    def in_use(self) -> int:
        return self._in_use

    @property
    def waiting(self) -> int:
        return len(self._waiters)


class SimLock(SimSemaphore):
    """Mutex: a semaphore of capacity 1."""

    def __init__(self, sim: Simulator):
        super().__init__(sim, capacity=1)


class _PoolAcquire(Waitable):
    __slots__ = ("owner", "tenant")

    def __init__(self, owner: "SimTenantPool", tenant: str):
        self.owner = owner
        self.tenant = tenant

    def _subscribe(self, sim: Simulator, proc: Process) -> None:
        self.owner._enqueue(proc, self.tenant)


class SimTenantPool:
    """A buffer pool accounted through a
    :class:`~repro.pipeline.tenancy.PoolLedger` — the timing-plane twin
    of ``BufferPool`` (with one default tenant and no reservation, a
    global FIFO pool).

    Admission is per tenant: an acquire proceeds whenever the *ledger*
    admits the tenant, even while other tenants queue — that is the
    isolation property (a storm parked on the shared region cannot
    delay a victim drawing on its own reservation).  Waiters are FIFO among themselves: a release
    resumes the first admissible waiter.
    """

    def __init__(self, sim: Simulator, ledger: PoolLedger):
        self.sim = sim
        self.ledger = ledger
        self._waiters: Deque[tuple[Process, str]] = deque()
        self.total_acquires = 0
        self.total_waits = 0

    def acquire(self, tenant: str = DEFAULT_TENANT) -> Waitable:
        return _PoolAcquire(self, tenant)

    def would_wait(self, tenant: str) -> bool:
        """Whether an acquire for ``tenant`` would park right now — the
        backpressure predicate the model samples before yielding."""
        return not self.ledger.can_acquire(tenant)

    def _enqueue(self, proc: Process, tenant: str) -> None:
        self.total_acquires += 1
        if self.ledger.can_acquire(tenant):
            self.ledger.acquire(tenant)
            self.sim.schedule(0.0, proc._resume, None)
        else:
            self.total_waits += 1
            self._waiters.append((proc, tenant))

    def release(self, tenant: str = DEFAULT_TENANT) -> None:
        self.ledger.release(tenant)
        # One freed slot admits at most one waiter: the first whose
        # tenant the ledger now accepts (a reserved-slot release admits
        # only its owner, a shared-slot release admits anyone).
        for i, (proc, waiter_tenant) in enumerate(self._waiters):
            if self.ledger.can_acquire(waiter_tenant):
                del self._waiters[i]
                self.ledger.acquire(waiter_tenant)
                self.sim.schedule(0.0, proc._resume, None)
                return

    @property
    def in_use(self) -> int:
        return self.ledger.in_use

    def held(self, tenant: str) -> int:
        return self.ledger.held(tenant)

    @property
    def waiting(self) -> int:
        return len(self._waiters)


class _Get(Waitable):
    __slots__ = ("queue",)

    def __init__(self, queue: "SimQueue"):
        self.queue = queue

    def _subscribe(self, sim: Simulator, proc: Process) -> None:
        self.queue._enqueue_getter(proc)


class _Put(Waitable):
    __slots__ = ("queue", "item", "low", "tenant")

    def __init__(
        self,
        queue: "SimQueue",
        item: Any,
        low: bool = False,
        tenant: str = DEFAULT_TENANT,
    ):
        self.queue = queue
        self.item = item
        self.low = low
        self.tenant = tenant

    def _subscribe(self, sim: Simulator, proc: Process) -> None:
        self.queue._enqueue_putter(proc, self.item, self.low, self.tenant)


class SimQueue:
    """FIFO work queue of the CRFS model.

    * ``yield q.put(item)`` enqueues; it parks only while the item's
      tenant is at its queue quota.
    * ``yield q.get()`` blocks while it is empty; returns the item.
    * :meth:`close` wakes all blocked getters with :class:`ShutdownError`
      and makes further puts fail — the IO-thread shutdown protocol.

    Item storage and service order live in a
    :class:`~repro.pipeline.tenancy.DRRScheduler` — the exact class the
    functional plane's ``WorkQueue`` delegates to (one default
    sub-queue, which is exact FIFO, unless the model passes a tenant
    scheduler).  Two priority bands, as there: ``put(item, low=True)``
    enqueues on the low band (readahead prefetches), which getters
    drain only when the high band is empty, and low puts never park.
    Per-tenant ``quotas`` park a tenant's high-band putters at
    admission (``on_admission_wait`` is called once per parked put, so
    the model can emit the matching event).
    """

    def __init__(
        self,
        sim: Simulator,
        scheduler: DRRScheduler | None = None,
        quotas: Mapping[str, int] | None = None,
        on_admission_wait: Callable[[str, int], None] | None = None,
    ):
        self.sim = sim
        self.scheduler = scheduler if scheduler is not None else DRRScheduler()
        self.quotas = {t: q for t, q in (quotas or {}).items() if q > 0}
        self.on_admission_wait = on_admission_wait
        self._getters: Deque[Process] = deque()
        self._putters: Deque[tuple[Process, Any, str]] = deque()
        self.closed = False
        self.max_depth = 0
        self.total_puts = 0

    def __len__(self) -> int:
        return len(self.scheduler)

    def depth(self, tenant: str) -> int:
        """Queued high-band items for ``tenant`` (the admission gauge)."""
        return self.scheduler.depth(tenant)

    def put(
        self, item: Any, low: bool = False, tenant: str = DEFAULT_TENANT
    ) -> Waitable:
        return _Put(self, item, low, tenant)

    def get(self) -> Waitable:
        return _Get(self)

    def _put_blocked(self, tenant: str) -> bool:
        """Whether a high-band put must park: the tenant is at its quota."""
        quota = self.quotas.get(tenant, 0)
        return bool(quota) and self.scheduler.depth(tenant) >= quota

    def _enqueue_putter(
        self,
        proc: Process,
        item: Any,
        low: bool = False,
        tenant: str = DEFAULT_TENANT,
    ) -> None:
        if self.closed:
            self.sim.schedule(0.0, proc._throw, ShutdownError("queue closed"))
            return
        self.total_puts += 1
        if self._getters:
            getter = self._getters.popleft()
            self.sim.schedule(0.0, getter._resume, item)
            self.sim.schedule(0.0, proc._resume, None)
            return
        if not low and self._put_blocked(tenant):
            if self.on_admission_wait is not None:
                self.on_admission_wait(tenant, self.scheduler.depth(tenant))
            self._putters.append((proc, item, tenant))
            return
        self.scheduler.push(tenant, item, low=low)
        self.max_depth = max(self.max_depth, len(self))
        self.sim.schedule(0.0, proc._resume, None)

    def _readmit_putters(self) -> None:
        """Re-admit parked putters now within their quota, preserving
        arrival order among those still blocked."""
        if not self._putters:
            return
        kept: Deque[tuple[Process, Any, str]] = deque()
        while self._putters:
            proc, item, tenant = self._putters.popleft()
            if self._put_blocked(tenant):
                kept.append((proc, item, tenant))
            else:
                self.scheduler.push(tenant, item)
                self.max_depth = max(self.max_depth, len(self))
                self.sim.schedule(0.0, proc._resume, None)
        self._putters = kept

    def _enqueue_getter(self, proc: Process) -> None:
        was_high = self.scheduler.high_len > 0
        popped = self.scheduler.pop()
        if popped is not None:
            _, item = popped
            if was_high:
                self._readmit_putters()
            self.sim.schedule(0.0, proc._resume, item)
        elif self.closed:
            self.sim.schedule(0.0, proc._throw, ShutdownError("queue closed"))
        else:
            self._getters.append(proc)

    def take_adjacent(
        self,
        last: Any,
        limit: int,
        chain: Callable[[Any, Any], bool],
        tenant: str = DEFAULT_TENANT,
    ) -> list[Any]:
        """Synchronously take up to ``limit`` queued high-band items of
        ``tenant`` that ``chain`` accepts as the continuation of ``last``.

        The batch-gather mirror of the functional plane's
        ``WorkQueue.get_batch``: called by a getter right after its
        ``yield q.get()`` returned ``last``, it scans ``tenant``'s own
        sub-queue (batches never span tenants) — ``chain(tail,
        candidate)`` with a rolling tail — skipping non-matching items
        and preserving their relative order.  The gathered run is
        charged against the tenant's DRR deficit.  Never blocks; freeing
        high-band slots re-admits parked putters.
        """
        batch = self.scheduler.gather(tenant, limit, chain, last)
        if batch:
            self._readmit_putters()
        return batch

    def close(self) -> None:
        """Close the queue: blocked getters get ShutdownError once the
        queue is empty of items (drain-then-stop, both bands)."""
        self.closed = True
        # Items still queued will be consumed first; only wake getters if
        # there is nothing left to hand them.
        if len(self) == 0:
            getters, self._getters = self._getters, deque()
            for g in getters:
                self.sim.schedule(0.0, g._throw, ShutdownError("queue closed"))
