"""Storage backends for the functional plane.

CRFS is a *stackable* filesystem: it stores no data itself and relies on
a backing store ("CRFS can be mounted over any standard filesystem like
ext3, NFS and Lustre").  On the functional plane the backing store is a
:class:`~repro.backends.base.Backend`:

* :class:`~repro.backends.mem.MemBackend` — in-memory tree, the default
  for tests and examples;
* :class:`~repro.backends.localdir.LocalDirBackend` — a real directory,
  so CRFS-written files are ordinary files on disk;
* :class:`~repro.backends.null.NullBackend` — discards writes; this is
  the paper's Figure 5 method for measuring raw aggregation bandwidth
  ("once a filled chunk is picked up by an IO thread it is discarded");
* :class:`~repro.backends.instrumented.InstrumentedBackend` — records
  every op (the profiling substrate for Table I-style analysis);
* :class:`~repro.backends.faulty.FaultyBackend` — injects failures and
  delays to test the error-latching and backpressure paths;
* :class:`~repro.backends.tiered.TieredBackend` — hierarchical async
  staging: writes land in tier 0, background pumps migrate them
  tier-to-tier (mem → local disk → PFS) with per-tier durability.
"""

from .base import Backend, BackendStat
from .mem import MemBackend
from .localdir import LocalDirBackend
from .null import NullBackend
from .instrumented import InstrumentedBackend, OpRecord
from .faulty import FaultyBackend, FaultRule
from .tiered import TieredBackend

__all__ = [
    "Backend",
    "BackendStat",
    "MemBackend",
    "LocalDirBackend",
    "NullBackend",
    "InstrumentedBackend",
    "OpRecord",
    "FaultyBackend",
    "FaultRule",
    "TieredBackend",
]
