"""Copy accounting for the zero-copy hot path (DESIGN.md §3k).

The pipeline budgets exactly which data copies the hot path is allowed
to make, and counts every one of them.  The sites:

``ingest``
    User buffer → pooled chunk buffer in ``Chunk.append``.  The single
    copy the aggregated write path pays per byte; it is also the
    aliasing snapshot point — the caller may mutate its buffer the
    moment ``pwrite`` returns.  The ledger counts *budgeted* copies;
    that the interpreter adds none to this one (a ``bytearray`` slice
    assignment would: a temporary of the whole source) is the
    ``memoryview`` / ``np.copyto`` copy in ``Chunk.append``, pinned by
    ``tests/test_zero_copy.py::TestNoHiddenCopy``.
``read_boundary``
    Cached ``memoryview`` slice(s) → the ``bytes`` object handed across
    the POSIX-shim boundary on a cache-served read.  Internal movement
    between cache and caller is views; the join at the shim is the one
    copy.
``fetch``
    Backend → pooled cache buffer, counted when a read first takes a
    cached chunk (a prefetched one, or a demand miss), whichever thread
    moved its bytes.  Filling the cache is a copy by definition;
    serving from it afterwards is not, and a prefetch the window evicts
    unread counts as wasted, not copied.

Emission happens in shared kernel code (``FilePipeline.note_write`` /
``fit_write`` / ``note_read`` and ``ReadaheadCore.fill_done``), so
the ledger — and therefore ``stats()["mem"]`` — is bit-identical across
the functional and timing planes by construction.  Backend-internal
materializations (e.g. ``MemBackend.pread`` returning ``bytes``) are a
property of the backend boundary, documented on
:class:`~repro.backends.base.Backend`, and deliberately *not* counted:
they differ per backend and would break cross-plane parity.
"""

from __future__ import annotations

from typing import Dict

__all__ = ["CopyLedger", "COPY_SITES", "INGEST", "READ_BOUNDARY", "FETCH"]

INGEST = "ingest"
READ_BOUNDARY = "read_boundary"
FETCH = "fetch"

#: Every site the pipeline may report, in snapshot order.  Pre-seeding
#: the ledger with all of them keeps the ``by_site`` schema identical
#: across planes and workloads (a site that never fired still appears,
#: at zero).
COPY_SITES = (INGEST, READ_BOUNDARY, FETCH)


class CopyLedger:
    """Counters for the budgeted copy sites.

    Not thread-safe on its own — :class:`~repro.pipeline.stats.
    PipelineStats` mutates it under its event lock.
    """

    __slots__ = ("copies", "bytes_copied", "by_site")

    def __init__(self) -> None:
        self.copies = 0
        self.bytes_copied = 0
        self.by_site: Dict[str, Dict[str, int]] = {
            site: {"copies": 0, "bytes": 0} for site in COPY_SITES
        }

    def record(self, site: str, length: int, copies: int = 1) -> None:
        """Count one copy of ``length`` bytes at ``site`` — or
        ``copies`` of them, ``length`` bytes in all.

        Unknown sites are admitted (they grow ``by_site``) so the
        ledger never drops data, but every in-tree emitter uses a
        :data:`COPY_SITES` constant.
        """
        self.copies += copies
        self.bytes_copied += length
        bucket = self.by_site.get(site)
        if bucket is None:
            bucket = self.by_site.setdefault(site, {"copies": 0, "bytes": 0})
        bucket["copies"] += copies
        bucket["bytes"] += length

    def snapshot(self) -> dict:
        """The ``stats()["mem"]`` section."""
        return {
            "bytes_copied": self.bytes_copied,
            "copies": self.copies,
            "by_site": {
                site: dict(counts) for site, counts in self.by_site.items()
            },
        }
