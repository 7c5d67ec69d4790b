"""The plane-agnostic aggregation-pipeline kernel (paper Section IV).

One mechanism, defined once: write aggregation into fixed-size chunks
(:mod:`~repro.pipeline.planner`), the per-file
``write_chunk_count``/``complete_chunk_count`` drain accounting and the
latched writeback-error contract (:mod:`~repro.pipeline.kernel`), a
unified event stream with observer hooks
(:mod:`~repro.pipeline.events`), the counter registry every
``stats()`` snapshot is served from (:mod:`~repro.pipeline.stats`), and
the per-chunk writeback control flow — retry loop, IO-worker step, tier
pump — as generators over a per-plane port
(:mod:`~repro.pipeline.writeback`).

Both planes import this package: :mod:`repro.core` executes the state
machine with real threads and buffers, :mod:`repro.simcrfs` with
simulated processes on a virtual clock.  Because the accounting logic
exists only here, the two planes expose field-identical ``stats()``
snapshots for identical workloads — which the cross-plane differential
tests assert.
"""

from .copies import COPY_SITES, FETCH, INGEST, READ_BOUNDARY, CopyLedger
from .delta import DeltaExtent, DeltaPlan, DeltaTracker
from .events import (
    AdmissionWait,
    BackendDegraded,
    BackendRecovered,
    BatchBroken,
    BatchWritten,
    ChunkPrefetched,
    ChunkRetried,
    ChunkSealed,
    ChunkWritten,
    CopyObserved,
    DeltaGenerationCommitted,
    DeltaRestored,
    ErrorLatched,
    EventLog,
    FileClosed,
    FileDrained,
    FileOpened,
    PipelineEvent,
    PipelineObserver,
    PoolPressure,
    PrefetchDropped,
    PrefetchWasted,
    QueuePressure,
    ReadHit,
    ReadMiss,
    ReadObserved,
    TierMigrated,
    TierPumpPressure,
    TierStaged,
    TierSynced,
    WorkersDrained,
    WriteObserved,
)
from .kernel import FilePipeline, PipelineKernel
from .planner import Fill, PlanOp, Seal, SealReason, WritePlanner
from .readahead import DEMAND, PREFETCH, CacheEntry, ReadaheadCore
from .resilience import BackendHealth, RetryPolicy
from .staging import StagedFile, StagingCore
from .stats import PipelineStats
from .tenancy import (
    DEFAULT_TENANT,
    DRRScheduler,
    PoolLedger,
    TenantRegistry,
    TenantSpec,
)

__all__ = [
    "AdmissionWait",
    "BackendDegraded",
    "BackendHealth",
    "BackendRecovered",
    "BatchBroken",
    "BatchWritten",
    "CacheEntry",
    "ChunkPrefetched",
    "ChunkRetried",
    "ChunkSealed",
    "ChunkWritten",
    "COPY_SITES",
    "CopyLedger",
    "CopyObserved",
    "DEFAULT_TENANT",
    "DEMAND",
    "DRRScheduler",
    "DeltaExtent",
    "DeltaGenerationCommitted",
    "DeltaPlan",
    "DeltaRestored",
    "DeltaTracker",
    "ErrorLatched",
    "EventLog",
    "FileClosed",
    "FileDrained",
    "FETCH",
    "FileOpened",
    "Fill",
    "FilePipeline",
    "INGEST",
    "PREFETCH",
    "PipelineEvent",
    "PipelineKernel",
    "PipelineObserver",
    "PipelineStats",
    "PlanOp",
    "PoolLedger",
    "PoolPressure",
    "PrefetchDropped",
    "PrefetchWasted",
    "QueuePressure",
    "READ_BOUNDARY",
    "ReadHit",
    "ReadMiss",
    "ReadObserved",
    "ReadaheadCore",
    "RetryPolicy",
    "Seal",
    "SealReason",
    "StagedFile",
    "StagingCore",
    "TierMigrated",
    "TierPumpPressure",
    "TierStaged",
    "TierSynced",
    "TenantRegistry",
    "TenantSpec",
    "WorkersDrained",
    "WriteObserved",
    "WritePlanner",
]
