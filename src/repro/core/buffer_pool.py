"""Buffer pool: fixed-size chunks allocated at mount time.

The paper (Section IV-B): "CRFS manages a buffer pool initialized at
mount time.  The buffer pool is divided into fixed-sized chunks."  The
pool is the pipeline's backpressure mechanism: when IO threads fall
behind the writers, the pool drains and writers block in
:meth:`acquire` — exactly the stall that makes Figure 5's bandwidth rise
with pool size.

Multi-tenant mounts partition the pool through a shared
:class:`~repro.pipeline.tenancy.PoolLedger`: each tenant owns a
reserved region, the remainder is a shared overflow everyone competes
for.  An acquire is admissible when the tenant has reservation headroom
*or* the shared region has a free chunk — so an idle node still gives
one tenant the whole pool, but a storm can never take another tenant's
reservation.  Without a ledger (single-tenant mounts) the behaviour is
exactly the pre-tenant pool.
"""

from __future__ import annotations

import time

import threading

from ..errors import ConfigError, ShutdownError
from ..pipeline import PoolPressure
from ..pipeline.kernel import EmitFn
from ..pipeline.tenancy import DEFAULT_TENANT, PoolLedger
from .chunk import Chunk

__all__ = ["BufferPool"]


class BufferPool:
    """Thread-safe pool of pre-allocated chunks.

    ``acquire()`` blocks while no admissible chunk exists (bounded by
    ``timeout`` to keep tests debuggable); ``release()`` recycles a chunk
    and wakes waiters.  Pressure goes out as ``PoolPressure`` records
    on ``emit`` (the mount passes its kernel's; a standalone pool drops
    them) — one per acquire *and* one per release, so the ``in_use``
    gauge falls in the event timeline as well as rises.
    """

    def __init__(
        self,
        chunk_size: int,
        pool_size: int,
        emit: EmitFn | None = None,
        ledger: PoolLedger | None = None,
    ):
        if chunk_size <= 0:
            raise ConfigError(f"chunk_size must be positive, got {chunk_size}")
        nchunks = pool_size // chunk_size
        if nchunks < 1:
            raise ConfigError(
                f"pool_size {pool_size} holds no chunk of size {chunk_size}"
            )
        if ledger is not None and ledger.nchunks != nchunks:
            raise ConfigError(
                f"ledger sized for {ledger.nchunks} chunks, pool holds {nchunks}"
            )
        self.chunk_size = chunk_size
        self.nchunks = nchunks
        self.ledger = ledger
        self._emit: EmitFn = emit if emit is not None else (lambda event: None)
        self._free: list[Chunk] = [Chunk(i, chunk_size) for i in range(nchunks)]
        #: chunk.index -> owning tenant, tracked only with a ledger (a
        #: release must credit the tenant that acquired the chunk).
        self._owner: dict[int, str] = {}
        self._lock = threading.Lock()
        self._available = threading.Condition(self._lock)
        self._closed = False

    @property
    def free_chunks(self) -> int:
        with self._lock:
            return len(self._free)

    @property
    def in_use(self) -> int:
        with self._lock:
            return self.nchunks - len(self._free)

    # -- acquire ---------------------------------------------------------------

    def _admissible(self, tenant: str) -> bool:
        """A free chunk exists and the ledger admits the tenant (caller
        holds the lock)."""
        if not self._free:
            return False
        return self.ledger is None or self.ledger.can_acquire(tenant)

    def _take(self, tenant: str, waited: bool = False) -> Chunk:
        """Pop a free chunk for ``tenant`` and emit the acquire record
        (caller holds the lock and has checked admissibility)."""
        chunk = self._free.pop()
        in_use = self.nchunks - len(self._free)
        if self.ledger is not None:
            self.ledger.acquire(tenant)
            self._owner[chunk.index] = tenant
            tenant_in_use = self.ledger.held(tenant)
        else:
            tenant_in_use = in_use
        self._emit(
            PoolPressure(waited=waited, in_use=in_use, tenant=tenant, tenant_in_use=tenant_in_use)
        )
        return chunk

    def acquire(
        self, timeout: float | None = 30.0, tenant: str = DEFAULT_TENANT
    ) -> Chunk:
        """Take a chunk admissible for ``tenant``, blocking while none is.

        ``timeout`` guards against pipeline deadlocks in tests; production
        callers can pass ``None`` to wait forever.  The bound is a
        *deadline*: condition wakeups that do not yield an admissible
        chunk wait only on the remainder, so racing acquirers cannot
        stretch the advertised bound.
        """
        deadline = (
            None if timeout is None else time.monotonic() + timeout
        )
        with self._available:
            waited = not self._admissible(tenant) and not self._closed
            while not self._admissible(tenant):
                if self._closed:
                    raise ShutdownError("buffer pool closed")
                remaining = (
                    None if deadline is None else deadline - time.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    raise ShutdownError(
                        f"buffer pool exhausted for {timeout}s "
                        f"({self.nchunks} chunks all in flight, "
                        f"tenant {tenant!r}) — IO stalled?"
                    )
                if not self._available.wait(timeout=remaining):
                    raise ShutdownError(
                        f"buffer pool exhausted for {timeout}s "
                        f"({self.nchunks} chunks all in flight, "
                        f"tenant {tenant!r}) — IO stalled?"
                    )
            return self._take(tenant, waited)

    def try_acquire(self, tenant: str = DEFAULT_TENANT) -> Chunk | None:
        """Take an admissible chunk without ever blocking; None when the
        pool is starved for this tenant or closed.

        This is the readahead-cache lease path: IO workers servicing a
        prefetch must never block on the pool (a worker parked in
        :meth:`acquire` behind a full pool would deadlock
        ``IOThreadPool.shutdown``), so a starved prefetch is simply
        dropped and the chunk refetched on demand.
        """
        with self._available:
            if self._closed or not self._admissible(tenant):
                return None
            return self._take(tenant)

    # -- release ---------------------------------------------------------------

    def release(self, chunk: Chunk) -> None:
        """Recycle a chunk: reset its metadata and emit a ``released``
        ``PoolPressure`` event, so the stats timeline sees the
        ``in_use`` gauge fall.
        """
        chunk.reset()
        with self._available:
            if len(self._free) >= self.nchunks:
                raise ShutdownError("double release into buffer pool")
            if self.ledger is not None:
                tenant = self._owner.pop(chunk.index, DEFAULT_TENANT)
                self.ledger.release(tenant)
                tenant_in_use = self.ledger.held(tenant)
            else:
                tenant = DEFAULT_TENANT
                tenant_in_use = self.nchunks - len(self._free) - 1
            self._free.append(chunk)
            self._emit(
                PoolPressure(
                    waited=False,
                    in_use=self.nchunks - len(self._free),
                    tenant=tenant,
                    tenant_in_use=tenant_in_use,
                    released=True,
                )
            )
            if self.ledger is not None:
                # A shared-region release may admit any waiting tenant, a
                # reserved-slot release only its owner: wake everyone and
                # let the admissibility predicate sort it out.
                self._available.notify_all()
            else:
                self._available.notify()

    def close(self) -> None:
        """Wake all blocked acquirers with ShutdownError (unmount path)."""
        with self._available:
            self._closed = True
            self._available.notify_all()
