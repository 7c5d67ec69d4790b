"""CRFS mount configuration.

Mirrors the tunables the paper exposes at mount time (Section IV/V-B):

* **chunk size** — the unit of write aggregation.  The paper evaluates
  128 KiB..4 MiB and fixes 4 MiB for the application experiments.
* **buffer pool size** — total aggregation memory.  The paper evaluates
  4..64 MiB and fixes 16 MiB ("CRFS shouldn't occupy too much memory").
* **io threads** — worker threads draining the work queue.  The paper
  finds 4 to be the sweet spot and uses it throughout.

The defaults here are the paper's chosen operating point.  The work
queue has no bound of its own: a chunk is allocated from the pool
before it is queued, so the pool (and each tenant's queue quota, where
a ``TenantSpec`` sets one) bounds it.  Every other field is here because a
scenario, experiment or benchmark sets it to a value other than its
default; ``tests/test_config.py`` pins the field names, so a new knob
is a reviewed diff.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

from .errors import ConfigError
from .pipeline.resilience import RetryPolicy
from .pipeline.tenancy import TenantRegistry, TenantSpec
from .units import KiB, MiB, parse_size

__all__ = ["CRFSConfig", "DEFAULT_CONFIG", "RetryPolicy", "TenantSpec"]


@dataclass(frozen=True)
class CRFSConfig:
    """Tunables for a CRFS mount (both functional and timing planes)."""

    #: Size of each aggregation chunk in bytes (paper default: 4 MiB).
    chunk_size: int = 4 * MiB
    #: Total buffer pool size in bytes (paper default: 16 MiB).
    pool_size: int = 16 * MiB
    #: Number of IO worker threads draining the work queue (paper: 4).
    io_threads: int = 4
    #: Whether read() passes straight through to the backend (paper
    #: behaviour: "we directly pass it to the underlying filesystem").
    #: With False, a read first flushes and drains the file's pending
    #: chunks, so reads always observe the latest writes — a
    #: read-your-writes extension for general (non-checkpoint) workloads
    #: that interleave reads and writes.
    read_passthrough: bool = True
    #: Per-file restart readahead cache, in chunks leased from the
    #: buffer pool.  0 (the paper's behaviour, and the default) keeps
    #: reads pure passthrough; > 0 serves chunk-aligned reads from a
    #: bounded LRU cache with read-your-writes semantics.  Must leave
    #: pool headroom (<= pool_chunks) and exceed ``readahead_chunks``.
    read_cache_chunks: int = 0
    #: Sliding prefetch window: after every cached read access, the next
    #: N absent chunks are fetched asynchronously through the IO thread
    #: pool (prioritized below writeback).  0 disables prefetch (the
    #: cache, if any, fills on demand only); > 0 requires a cache.
    readahead_chunks: int = 0
    #: Adaptive prefetch window (AIMD): ``readahead_chunks`` becomes the
    #: *initial* window, which grows by one chunk per streak of
    #: consecutive sequential hits (up to ``read_cache_chunks - 2``) and
    #: halves under cache pressure — unread prefetches evicted, fetches
    #: dropped on a starved pool, delivered prefetches wasted.  False
    #: (the default) keeps the window pinned at ``readahead_chunks``.
    readahead_adaptive: bool = False
    #: Writes of at least this many bytes bypass aggregation and go
    #: straight to the backend (after flushing the partial chunk, so
    #: issue order is preserved).  0 disables write-through — the paper's
    #: behaviour, since BLCR's large writes still benefit from the
    #: asynchronous chunk pipeline.  Ablation knob.
    write_through_threshold: int = 0
    #: Writeback retry schedule: attempts per chunk (1 = fail fast, the
    #: paper's implicit behaviour: the first writeback error latches),
    #: backoff and its cap, and deterministic jitter.
    retry: RetryPolicy = RetryPolicy()
    #: Consecutive failed write attempts that trip the backend circuit
    #: breaker, degrading the mount to synchronous write-through until a
    #: probe write succeeds.  0 disables the breaker.
    breaker_threshold: int = 0
    #: Coalesced writeback: an IO worker that takes a chunk off the work
    #: queue opportunistically gathers up to this many queued chunks
    #: contiguous in the same file and issues them as one vectored
    #: backend write (``pwritev``).  1 (the default) disables gathering
    #: — byte- and stats-identical to the unbatched pipeline.
    writeback_batch_chunks: int = 1
    #: Per-tenant IO shares, buffer-pool reservations, queue quotas and
    #: path-mapping rules (see :class:`~repro.pipeline.tenancy.TenantSpec`).
    #: Every mount runs the same pool ledger and DRR queue; empty (the
    #: default) resolves every open without an explicit tenant id to
    #: ``default`` — one tenant at weight 1 with no reservation or
    #: quota, so the pool and the queue are the paper's FIFO ones.
    tenants: tuple[TenantSpec, ...] = ()
    #: Hierarchical staging durability level: with a tiered backend,
    #: ``fsync`` returns once every extent the file staged has reached
    #: (or stranded short of) tiers 0..k and those tiers acknowledged
    #: their own fsync.  -1 (the default) means the deepest tier — full
    #: write-through durability.  0 returns at tier-0 (staging) speed.
    #: Ignored by single-backend mounts.
    fsync_tier: int = -1
    #: Pump workers migrating staged extents tier-to-tier in the
    #: background (per tiered mount, not per tier).
    tier_pump_threads: int = 1
    #: A pump worker that takes an extent opportunistically gathers up
    #: to this many queued extents contiguous in the same file bound for
    #: the same tier and moves them as one vectored op (the writeback
    #: batching idiom applied to migration).  1 disables gathering.
    tier_pump_batch_chunks: int = 1

    def __post_init__(self) -> None:
        if self.chunk_size <= 0:
            raise ConfigError(f"chunk_size must be positive, got {self.chunk_size}")
        if self.chunk_size % (4 * KiB) != 0:
            raise ConfigError(
                f"chunk_size must be a multiple of the 4 KiB page size, got {self.chunk_size}"
            )
        if self.pool_size < self.chunk_size:
            raise ConfigError(
                f"pool_size ({self.pool_size}) must hold at least one chunk ({self.chunk_size})"
            )
        if self.io_threads < 1:
            raise ConfigError(f"io_threads must be >= 1, got {self.io_threads}")
        if self.write_through_threshold < 0:
            raise ConfigError(
                f"write_through_threshold must be >= 0, got {self.write_through_threshold}"
            )
        if self.breaker_threshold < 0:
            raise ConfigError(
                f"breaker_threshold must be >= 0, got {self.breaker_threshold}"
            )
        if self.writeback_batch_chunks < 1:
            raise ConfigError(
                f"writeback_batch_chunks must be >= 1, got {self.writeback_batch_chunks}"
            )
        if self.read_cache_chunks < 0:
            raise ConfigError(
                f"read_cache_chunks must be >= 0, got {self.read_cache_chunks}"
            )
        if self.readahead_chunks < 0:
            raise ConfigError(
                f"readahead_chunks must be >= 0, got {self.readahead_chunks}"
            )
        if self.readahead_chunks and not self.read_cache_chunks:
            raise ConfigError(
                "readahead_chunks requires a read cache (read_cache_chunks > 0)"
            )
        if self.readahead_adaptive and self.readahead_chunks < 1:
            raise ConfigError(
                "readahead_adaptive requires an initial window (readahead_chunks >= 1)"
            )
        if self.read_cache_chunks:
            if self.readahead_chunks >= self.read_cache_chunks:
                raise ConfigError(
                    f"read_cache_chunks ({self.read_cache_chunks}) must exceed "
                    f"readahead_chunks ({self.readahead_chunks}) so the window "
                    "cannot evict the chunk being served"
                )
            if self.read_cache_chunks > self.pool_chunks:
                raise ConfigError(
                    f"read_cache_chunks ({self.read_cache_chunks}) exceeds the "
                    f"pool ({self.pool_chunks} chunks) — the cache leases its "
                    "buffers from the shared pool"
                )
        if self.fsync_tier < -1:
            raise ConfigError(
                f"fsync_tier must be >= -1 (-1 = deepest tier), got {self.fsync_tier}"
            )
        if self.tier_pump_threads < 1:
            raise ConfigError(
                f"tier_pump_threads must be >= 1, got {self.tier_pump_threads}"
            )
        if self.tier_pump_batch_chunks < 1:
            raise ConfigError(
                f"tier_pump_batch_chunks must be >= 1, got {self.tier_pump_batch_chunks}"
            )
        # Delegates tenant validation (unique names, reservations fit
        # the pool) to TenantRegistry's constructor.
        self.tenant_registry()

    def tenant_registry(self) -> TenantRegistry:
        """The :class:`TenantRegistry` these specs describe (validated)."""
        return TenantRegistry(self.tenants, pool_chunks=self.pool_chunks)

    @property
    def pool_chunks(self) -> int:
        """How many whole chunks the pool holds (the pool is chunk-granular)."""
        return self.pool_size // self.chunk_size

    def with_(self, **changes: Any) -> "CRFSConfig":
        """Return a copy with the given fields replaced (validated)."""
        return replace(self, **changes)

    @classmethod
    def from_sizes(
        cls,
        chunk: str | int = "4M",
        pool: str | int = "16M",
        io_threads: int = 4,
        **kw: Any,
    ) -> "CRFSConfig":
        """Build a config from human-readable size strings."""
        return cls(
            chunk_size=parse_size(chunk),
            pool_size=parse_size(pool),
            io_threads=io_threads,
            **kw,
        )


#: The paper's chosen operating point (Section V-B): 4 MiB chunks,
#: 16 MiB pool, 4 IO threads.
DEFAULT_CONFIG = CRFSConfig()
