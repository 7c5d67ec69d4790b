"""Multi-tenant primitives, shared by both planes.

A production staging node serves checkpoints for many concurrent jobs;
the burst-buffer literature (PAPERS.md) shows a shared staging area
needs QoS to keep one tenant's burst from starving the rest.  This
module holds everything the tenant concept needs that is *not* plane
specific, so the threaded runtime and the discrete-event model stay
bit-identical by construction:

* :class:`TenantSpec` / :class:`TenantRegistry` — configuration and
  per-open resolution (explicit id, fnmatch path rules, ``default``
  fallback).
* :class:`PoolLedger` — per-tenant buffer-pool accounting: reserved
  chunks per tenant plus a shared overflow region.  An idle node still
  gives one tenant the whole pool, but a storm can never take another
  tenant's reservation.
* :class:`DRRScheduler` — weighted deficit-round-robin storage and
  selection over per-tenant sub-queues.  Both ``WorkQueue`` (threads)
  and ``SimQueue`` (virtual clock) delegate their item storage to this
  class, so the service order is one function of the arrival order on
  either plane.

None of these classes lock: callers serialize access (the work queue's
mutex on the functional plane, the single-threaded event loop on the
timing plane).
"""

from __future__ import annotations

import fnmatch
from collections import deque
from dataclasses import dataclass
from typing import Any, Callable, Deque, Iterable, Mapping

from ..errors import ConfigError

__all__ = ["DEFAULT_TENANT", "DRRScheduler", "PoolLedger", "TenantRegistry", "TenantSpec"]

#: Every mount has this tenant; unmatched paths and unconfigured mounts
#: resolve to it (weight 1, no reservation, no quota — today's behaviour).
DEFAULT_TENANT = "default"


@dataclass(frozen=True)
class TenantSpec:
    """One tenant's share of the mount.

    ``weight`` is the DRR quantum (relative IO share under contention);
    ``pool_reserved`` chunks are carved out of the buffer pool for this
    tenant alone; ``queue_quota`` bounds the tenant's queued high-band
    chunks (0 = unlimited) — admission control blocks the tenant's own
    writers at ``put`` instead of letting a burst flood the queue;
    ``patterns`` are fnmatch rules mapping opened paths to the tenant.
    """

    name: str
    weight: int = 1
    pool_reserved: int = 0
    queue_quota: int = 0
    patterns: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigError("tenant name must be non-empty")
        if not isinstance(self.weight, int) or self.weight < 1:
            raise ConfigError(
                f"tenant {self.name!r}: weight must be an int >= 1, got {self.weight!r}"
            )
        if self.pool_reserved < 0:
            raise ConfigError(
                f"tenant {self.name!r}: pool_reserved must be >= 0, got {self.pool_reserved}"
            )
        if self.queue_quota < 0:
            raise ConfigError(
                f"tenant {self.name!r}: queue_quota must be >= 0, got {self.queue_quota}"
            )


class TenantRegistry:
    """Per-mount tenant resolution and spec lookup.

    A mount with no configured specs is single-tenant: every open
    resolves to :data:`DEFAULT_TENANT` and the scheduler/pool degrade to
    one global FIFO.
    """

    def __init__(self, specs: Iterable[TenantSpec] = (), pool_chunks: int = 0):
        self.specs: tuple[TenantSpec, ...] = tuple(specs)
        names = [s.name for s in self.specs]
        if len(names) != len(set(names)):
            raise ConfigError(f"duplicate tenant names in {names}")
        self._by_name: dict[str, TenantSpec] = {s.name: s for s in self.specs}
        reserved = sum(s.pool_reserved for s in self.specs)
        if pool_chunks and reserved > pool_chunks:
            raise ConfigError(
                f"tenant pool reservations ({reserved} chunks) exceed the "
                f"pool ({pool_chunks} chunks)"
            )
        self.pool_chunks = pool_chunks

    @property
    def active(self) -> bool:
        """Whether any tenant is explicitly configured."""
        return bool(self.specs)

    @property
    def names(self) -> tuple[str, ...]:
        """Every known tenant, default included, in sorted order — the
        pre-seeded keys of ``stats()['tenants']`` on both planes."""
        return tuple(sorted({DEFAULT_TENANT, *self._by_name}))

    def spec(self, name: str) -> TenantSpec:
        """The spec for ``name``; unknown tenants get default terms
        (weight 1, no reservation, no quota)."""
        found = self._by_name.get(name)
        return found if found is not None else TenantSpec(name)

    def resolve(self, path: str, tenant: str | None = None) -> str:
        """The tenant an open of ``path`` belongs to.

        An explicit ``tenant`` id always wins (ids outside the
        configured set are accepted and served on default terms); else
        the first spec whose fnmatch pattern matches the normalized
        path; else :data:`DEFAULT_TENANT`.
        """
        if tenant is not None:
            return tenant
        for spec in self.specs:
            for pattern in spec.patterns:
                if fnmatch.fnmatchcase(path, pattern):
                    return spec.name
        return DEFAULT_TENANT

    def weights(self) -> dict[str, int]:
        return {s.name: s.weight for s in self.specs}

    def quotas(self) -> dict[str, int]:
        return {s.name: s.queue_quota for s in self.specs if s.queue_quota}

    def reservations(self) -> dict[str, int]:
        return {s.name: s.pool_reserved for s in self.specs if s.pool_reserved}


class PoolLedger:
    """Per-tenant buffer-pool accounting: reservations + shared overflow.

    The pool's chunks split into per-tenant reserved regions and one
    shared region (``nchunks - sum(reserved)``).  An acquire consumes
    the tenant's own reservation first, then the shared region; a
    release returns the shared slot first, so a tenant that burst into
    the overflow gives it back before touching its guarantee.  Because
    a release needs only the tenant name — never which *slot* the chunk
    came from — both planes account identically by construction.
    """

    def __init__(self, nchunks: int, reservations: Mapping[str, int] | None = None):
        self.nchunks = nchunks
        self._reserved = {t: n for t, n in (reservations or {}).items() if n > 0}
        total_reserved = sum(self._reserved.values())
        if total_reserved > nchunks:
            raise ConfigError(
                f"reservations ({total_reserved}) exceed the pool ({nchunks} chunks)"
            )
        self.shared_capacity = nchunks - total_reserved
        self._used_reserved: dict[str, int] = {}
        self._used_shared: dict[str, int] = {}
        self.shared_used = 0

    @property
    def in_use(self) -> int:
        return sum(self._used_reserved.values()) + self.shared_used

    def held(self, tenant: str) -> int:
        """Chunks this tenant currently holds (reserved + shared)."""
        return self._used_reserved.get(tenant, 0) + self._used_shared.get(tenant, 0)

    def can_acquire(self, tenant: str) -> bool:
        if self._used_reserved.get(tenant, 0) < self._reserved.get(tenant, 0):
            return True
        return self.shared_used < self.shared_capacity

    def acquire(self, tenant: str) -> None:
        if self._used_reserved.get(tenant, 0) < self._reserved.get(tenant, 0):
            self._used_reserved[tenant] = self._used_reserved.get(tenant, 0) + 1
        elif self.shared_used < self.shared_capacity:
            self._used_shared[tenant] = self._used_shared.get(tenant, 0) + 1
            self.shared_used += 1
        else:
            raise ConfigError(
                f"tenant {tenant!r}: acquire with no admissible chunk "
                "(caller must check can_acquire first)"
            )

    def release(self, tenant: str) -> None:
        if self._used_shared.get(tenant, 0) > 0:
            self._used_shared[tenant] -= 1
            self.shared_used -= 1
        elif self._used_reserved.get(tenant, 0) > 0:
            self._used_reserved[tenant] -= 1
        else:
            raise ConfigError(f"tenant {tenant!r}: release with no chunk held")


class DRRScheduler:
    """Weighted deficit-round-robin over per-tenant sub-queues.

    Two bands, mirroring the work queue's contract: the high band
    carries drain-blocking writeback chunks, the low band readahead
    prefetches — :meth:`pop` always exhausts the high band first, so
    prefetch never delays a checkpoint write regardless of weights.

    * ``fair=True`` (DRR): each tenant gets a quantum of ``weight``
      items per round; a tenant whose queue empties leaves the ring and
      forfeits its residual deficit (no banking, so an idle tenant
      cannot later burst past its share).  With a single tenant DRR
      degrades to exact FIFO — today's single-tenant behaviour.
    * ``fair=False`` (FIFO): one global arrival-order queue, tenants
      ignored — the unfair ablation arm of the ``tenant_storm``
      experiment.

    Item cost is 1 (every queued chunk is the same size), so integer
    weights make DRR an exact weighted round robin: a saturated tenant
    is served ``weight`` consecutive items per round.  ``service_counts``
    records high-band pops per tenant for the fairness property tests.

    Not thread-safe: the owning queue serializes access.
    """

    def __init__(self, weights: Mapping[str, int] | None = None, fair: bool = True):
        self.fair = fair
        self._weights = dict(weights or {})
        self.service_counts: dict[str, int] = {}
        # fair mode: per-tenant deques + active rings + deficit counters
        self._high: dict[str, Deque[Any]] = {}
        self._low: dict[str, Deque[Any]] = {}
        self._ring: Deque[str] = deque()
        self._low_ring: Deque[str] = deque()
        self._deficit: dict[str, int] = {}
        # fifo mode: global arrival-order bands of (tenant, item)
        self._fifo_high: Deque[tuple[str, Any]] = deque()
        self._fifo_low: Deque[tuple[str, Any]] = deque()
        self._fifo_depth: dict[str, int] = {}
        self._high_len = 0
        self._low_len = 0

    def weight(self, tenant: str) -> int:
        return self._weights.get(tenant, 1)

    # -- introspection ---------------------------------------------------------

    @property
    def high_len(self) -> int:
        return self._high_len

    def __len__(self) -> int:
        return self._high_len + self._low_len

    def depth(self, tenant: str) -> int:
        """Queued high-band items for ``tenant`` (the admission gauge)."""
        if not self.fair:
            return self._fifo_depth.get(tenant, 0)
        q = self._high.get(tenant)
        return len(q) if q is not None else 0

    # -- push ------------------------------------------------------------------

    def push(self, tenant: str, item: Any, low: bool = False) -> None:
        if low:
            self._low_len += 1
            if not self.fair:
                self._fifo_low.append((tenant, item))
                return
            q = self._low.get(tenant)
            if q is None:
                q = self._low[tenant] = deque()
            if not q:
                self._low_ring.append(tenant)
            q.append(item)
            return
        self._high_len += 1
        if not self.fair:
            self._fifo_high.append((tenant, item))
            self._fifo_depth[tenant] = self._fifo_depth.get(tenant, 0) + 1
            return
        q = self._high.get(tenant)
        if q is None:
            q = self._high[tenant] = deque()
        if not q:
            self._ring.append(tenant)
            self._deficit.setdefault(tenant, 0)
        q.append(item)

    # -- pop -------------------------------------------------------------------

    def pop(self) -> tuple[str, Any] | None:
        """Take the next (tenant, item): high band through DRR, then the
        low band round-robin; None when both bands are empty."""
        if not self.fair:
            if self._fifo_high:
                tenant, item = self._fifo_high.popleft()
                self._fifo_depth[tenant] -= 1
                self._high_len -= 1
                self.service_counts[tenant] = self.service_counts.get(tenant, 0) + 1
                return tenant, item
            if self._fifo_low:
                self._low_len -= 1
                return self._fifo_low.popleft()
            return None
        while self._ring:
            tenant = self._ring[0]
            q = self._high[tenant]
            if self._deficit[tenant] < 1:
                self._deficit[tenant] += self.weight(tenant)
                if self._deficit[tenant] < 1:
                    # Still in debt after its quantum (a gather overdrew
                    # it): skip this round.  Each visit adds a quantum,
                    # so the debt amortizes and the loop terminates.
                    self._ring.rotate(-1)
                    continue
            self._deficit[tenant] -= 1
            item = q.popleft()
            self._high_len -= 1
            self.service_counts[tenant] = self.service_counts.get(tenant, 0) + 1
            if not q:
                # Empty queues leave the ring and forfeit their residual
                # deficit — no banking across idle periods.
                self._ring.popleft()
                self._deficit[tenant] = 0
            elif self._deficit[tenant] < 1:
                self._ring.rotate(-1)  # quantum spent: next tenant's turn
            return tenant, item
        if self._low_ring:
            tenant = self._low_ring[0]
            q = self._low[tenant]
            item = q.popleft()
            self._low_len -= 1
            if not q:
                self._low_ring.popleft()
            else:
                self._low_ring.rotate(-1)
            return tenant, item
        return None

    # -- batch gather ----------------------------------------------------------

    def gather(
        self,
        tenant: str,
        limit: int,
        chain: Callable[[Any, Any], bool],
        tail: Any,
    ) -> list[Any]:
        """Take up to ``limit`` queued high-band items that ``chain``
        accepts as the continuation of ``tail`` (rolling).

        Batches never span tenants: in fair mode only ``tenant``'s own
        sub-queue is scanned (skip-and-preserve, keeping relative
        order), and the gathered items are charged against the tenant's
        deficit so a long coalesced run still costs its weight.  In
        fifo mode the global band is scanned, exactly the pre-tenant
        behaviour (``chain`` requires same-file continuity, so a batch
        cannot cross tenants there either).

        The scan mutates the sub-queue in place: matches pop off the
        front, skipped items rotate to the back and rotate home once the
        scan ends.  No per-call deque is rebuilt — in the common case
        (the batch is a prefix of the queue, as contiguous chunks arrive
        in order) the gather allocates nothing but the returned list.
        """
        batch: list[Any] = []
        if limit <= 0:
            return batch
        if not self.fair:
            q = self._fifo_high
            scanned = skipped = 0
            to_scan = len(q)
            while scanned < to_scan and len(batch) < limit:
                cand_tenant, candidate = q[0]
                if chain(tail, candidate):
                    q.popleft()
                    batch.append(candidate)
                    tail = candidate
                    self._fifo_depth[cand_tenant] -= 1
                    self._high_len -= 1
                    self.service_counts[cand_tenant] = (
                        self.service_counts.get(cand_tenant, 0) + 1
                    )
                else:
                    q.rotate(-1)
                    skipped += 1
                scanned += 1
            if skipped:
                # Skipped items sit at the back in original order, after
                # any unexamined ones; one right-rotate restores the
                # band's relative order (every skip predates every
                # unexamined item).
                q.rotate(skipped)
            return batch
        q = self._high.get(tenant)
        if not q:
            return batch
        scanned = skipped = 0
        to_scan = len(q)
        while scanned < to_scan and len(batch) < limit:
            candidate = q[0]
            if chain(tail, candidate):
                q.popleft()
                batch.append(candidate)
                tail = candidate
            else:
                q.rotate(-1)
                skipped += 1
            scanned += 1
        if skipped:
            q.rotate(skipped)
        if batch:
            self._high_len -= len(batch)
            self.service_counts[tenant] = (
                self.service_counts.get(tenant, 0) + len(batch)
            )
            # Charge the gather against the quantum (may go negative; the
            # tenant then waits extra rounds before its next service).
            self._deficit[tenant] = self._deficit.get(tenant, 0) - len(batch)
        if not q and tenant in self._ring:
            self._ring.remove(tenant)
            self._deficit[tenant] = 0
        return batch
