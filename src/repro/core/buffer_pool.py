"""Buffer pool: fixed-size chunks, capacity fixed at mount time.

The paper (Section IV-B): "CRFS manages a buffer pool initialized at
mount time.  The buffer pool is divided into fixed-sized chunks."  The
pool is the pipeline's backpressure mechanism: when IO threads fall
behind the writers, the pool drains and writers block in
:meth:`acquire` — exactly the stall that makes Figure 5's bandwidth rise
with pool size.

The chunk count is fixed at mount; the memory is not.  Each chunk is an
anonymous mapping the kernel commits on first fill (``core/chunk.py``),
and the free list is a stack — an acquire takes the chunk released
last — so a chunk is first leased only when every chunk leased before it
is in use.  The chunks a mount ever touches are therefore exactly
``stats()["pool"]["max_in_use"]`` of them, and that gauge bounds the
pool's share of the mount's resident set
(``tests/test_core_components.py::TestCommittedMemory``).

Every acquire and release is accounted per tenant through a
:class:`~repro.pipeline.tenancy.PoolLedger`, as the timing plane's
``SimTenantPool`` does: each tenant owns its reserved region (if the
mount gives it one), the remainder is a shared overflow everyone
competes for.  An acquire is admissible when the tenant has reservation
headroom *or* the shared region has a free chunk — so an idle node
still gives one tenant the whole pool, but a storm can never take
another tenant's reservation.  A mount with no reservations is one
shared region: the paper's pool, with a per-tenant gauge.
"""

from __future__ import annotations

import threading
from typing import Mapping

from .. import waits
from ..errors import ConfigError, ShutdownError
from ..pipeline import PipelineKernel, PoolPressure
from ..pipeline.tenancy import DEFAULT_TENANT, PoolLedger
from .chunk import Chunk

__all__ = ["BufferPool"]


class BufferPool:
    """Thread-safe pool of pre-allocated chunks.

    ``acquire()`` blocks while no admissible chunk exists; ``release()``
    recycles a chunk and wakes waiters.  Chunks are ``kernel``'s chunk
    size, and pressure goes out as ``PoolPressure`` records on its
    stream — one per acquire *and* one per release, so the ``in_use``
    gauge falls in the event timeline as well as rises.
    """

    def __init__(
        self,
        kernel: PipelineKernel,
        pool_size: int,
        reservations: Mapping[str, int] | None = None,
    ):
        chunk_size = kernel.chunk_size
        if chunk_size <= 0:
            raise ConfigError(f"chunk_size must be positive, got {chunk_size}")
        nchunks = pool_size // chunk_size
        if nchunks < 1:
            raise ConfigError(
                f"pool_size {pool_size} holds no chunk of size {chunk_size}"
            )
        self.chunk_size = chunk_size
        self.nchunks = nchunks
        # Every lease goes through the ledger, so it admits a tenant only
        # while a free chunk exists: admissibility is the ledger's alone.
        self.ledger = PoolLedger(nchunks, reservations)
        self._emit = kernel.emit
        self._free: list[Chunk] = [Chunk(i, chunk_size) for i in range(nchunks)]
        #: chunk.index -> the tenant leasing it, None while it is free: a
        #: release credits the tenant that acquired the chunk, and a
        #: release of a chunk not leased is refused.
        self._owner: list[str | None] = [None] * nchunks
        self._lock = threading.Lock()
        self._available = threading.Condition(self._lock)
        # With no reservation every waiter waits on one predicate (a
        # free chunk), so a release wakes one.  With reservations a
        # shared-region release may admit any waiting tenant, a
        # reserved-slot release only its owner: wake everyone and let
        # the admissibility predicate sort it out.
        self._wake = (
            self._available.notify_all
            if self.ledger.shared_capacity < nchunks
            else self._available.notify
        )
        self._closed = False

    @property
    def in_use(self) -> int:
        with self._lock:
            return self.nchunks - len(self._free)

    def would_wait(self, tenant: str) -> bool:
        """Whether an acquire for ``tenant`` would block right now — the
        same per-tenant predicate as the timing plane's pool."""
        with self._lock:
            return not self.ledger.can_acquire(tenant)

    # -- acquire ---------------------------------------------------------------

    def _take(self, tenant: str, waited: bool = False) -> Chunk:
        """Pop a free chunk for ``tenant`` and emit the acquire record
        (caller holds the lock and has checked admissibility)."""
        chunk = self._free.pop()
        self._owner[chunk.index] = tenant
        self.ledger.acquire(tenant)
        self._emit(
            PoolPressure(
                waited=waited,
                in_use=self.nchunks - len(self._free),
                tenant=tenant,
                tenant_in_use=self.ledger.held(tenant),
            )
        )
        return chunk

    def acquire(self, tenant: str = DEFAULT_TENANT) -> Chunk:
        """Take a chunk admissible for ``tenant``, blocking while none is."""
        admissible = self.ledger.can_acquire
        with self._available:
            if admissible(tenant):
                return self._take(tenant)
            bound = waits.bound()
            self._available.wait_for(lambda: self._closed or admissible(tenant), bound)
            if admissible(tenant):
                return self._take(tenant, waited=True)
            if self._closed:
                raise ShutdownError("buffer pool closed")
            raise ShutdownError(
                f"buffer pool exhausted for {bound:.3g}s "
                f"({self.nchunks} chunks all in flight, "
                f"tenant {tenant!r}) — IO stalled?"
            )

    def try_acquire(self, tenant: str = DEFAULT_TENANT) -> Chunk | None:
        """Take an admissible chunk without ever blocking; None when the
        pool is starved for this tenant or closed.

        This is the readahead-cache lease path: IO workers servicing a
        prefetch must never block on the pool (a worker parked in
        :meth:`acquire` behind a full pool would deadlock the mount's
        ``stop_workers``), so a starved prefetch is simply
        dropped and the chunk refetched on demand.
        """
        with self._available:
            if self._closed or not self.ledger.can_acquire(tenant):
                return None
            return self._take(tenant)

    # -- release ---------------------------------------------------------------

    def release(self, chunk: Chunk) -> None:
        """Recycle a chunk: reset its metadata and emit a ``released``
        ``PoolPressure`` event, so the stats timeline sees the
        ``in_use`` gauge fall.
        """
        with self._available:
            tenant = self._owner[chunk.index]
            if tenant is None:
                raise ShutdownError(f"double release of chunk {chunk.index} into buffer pool")
            self._owner[chunk.index] = None
            chunk.reset()
            self.ledger.release(tenant)
            self._free.append(chunk)
            self._emit(
                PoolPressure(
                    waited=False,
                    in_use=self.nchunks - len(self._free),
                    tenant=tenant,
                    tenant_in_use=self.ledger.held(tenant),
                    released=True,
                )
            )
            self._wake()

    def close(self) -> None:
        """Wake all blocked acquirers with ShutdownError (unmount path)."""
        with self._available:
            self._closed = True
            self._available.notify_all()
