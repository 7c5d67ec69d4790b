"""Plane-agnostic accounting for hierarchical staging.

A tiered mount accepts writes at tier 0 and pumps them tier-to-tier in
the background.  Both planes — the threaded
:class:`~repro.backends.tiered.TieredBackend` and the timing twin's
pump processes in :mod:`repro.simcrfs` — run the *same* bookkeeping,
defined once here, so the ``tiers`` section of their ``stats()``
snapshots is bit-identical for identical workloads:

* every accepted extent owes one **arrival** to each deeper tier;
* a successful migration pays the destination tier's debt and forwards
  the extent another level down;
* a migration whose retries exhaust **strands** the extent at the
  shallower tier — its debt to *every* deeper tier is forgiven (the
  bytes stay durable where they are), and the error latches so an
  ``fsync`` through that tier can report it.

:class:`StagingCore` is pure accounting plus event emission.  It does
no waiting of its own: callers synchronize around it (the functional
plane holds a condition's lock; the single-threaded simulator needs
nothing) and implement "wait until drained" against
:meth:`StagedFile.pending_through` / :attr:`StagingCore.outstanding`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from .events import ChunkRetried, TierMigrated, TierPumpPressure, TierStaged, TierSynced
from .resilience import BackendHealth

if TYPE_CHECKING:  # pragma: no cover
    from .kernel import PipelineKernel

__all__ = ["StagedFile", "StagingCore"]


class StagedFile:
    """Per-file staging debt: what each tier is still owed.

    ``pending[k]`` counts extents accepted into tier 0 that have not yet
    arrived at (or stranded short of) tier ``k``; index 0 is unused.
    ``stranded[k]`` latches the first error that stranded extents on
    their way *into* tier ``k``.
    """

    __slots__ = ("path", "pending", "stranded", "closing", "waiters")

    def __init__(self, path: str, ntiers: int) -> None:
        self.path = path
        self.pending = [0] * ntiers
        self.stranded: list[Optional[BaseException]] = [None] * ntiers
        #: Set once the mount closed the file; the pump finishes the
        #: underlying per-tier closes when the debt hits zero.
        self.closing = False
        #: Plane-owned parking spots (the sim parks SimEvents here; the
        #: functional plane uses a condition instead and leaves it empty).
        self.waiters: list = []

    def pending_through(self, tier: int) -> int:
        """Extents still owed to any of tiers 1..``tier``."""
        return sum(self.pending[1 : tier + 1])

    def sync_error(self, tier: int) -> Optional[BaseException]:
        """The shallowest latched strand error within tiers 0..``tier``."""
        for error in self.stranded[: tier + 1]:
            if error is not None:
                return error
        return None


class StagingCore:
    """The shared tier-staging state machine (accounting + events on
    the mount's ``kernel``)."""

    def __init__(self, ntiers: int, kernel: "PipelineKernel", fsync_tier: int = -1) -> None:
        if ntiers < 2:
            raise ValueError(f"staging needs >= 2 tiers, got {ntiers}")
        self.ntiers = ntiers
        self.fsync_tier = self.resolve_tier(fsync_tier, ntiers)
        self.kernel = kernel
        self.emit = kernel.emit
        self.clock = kernel.clock
        #: Total arrivals still owed across all files and tiers.
        self.outstanding = 0

    @staticmethod
    def resolve_tier(tier: int, ntiers: int) -> int:
        """Normalize an ``fsync_tier`` knob (-1 = deepest) to an index."""
        if tier == -1:
            return ntiers - 1
        if not 0 <= tier < ntiers:
            raise ValueError(f"fsync_tier {tier} out of range for {ntiers} tiers")
        return tier

    def file(self, path: str) -> StagedFile:
        return StagedFile(path, self.ntiers)

    def breakers(self, threshold: int) -> list[Optional[BackendHealth]]:
        """One breaker per migration destination: ``[k]`` guards the
        migrations into tier k >= 1 and stamps its records with k.  Tier
        0 has none here: its writes are the mount's backend writes,
        guarded by the mount's own breaker."""
        return [None] + [
            BackendHealth(self.kernel, threshold, tier=tier)
            for tier in range(1, self.ntiers)
        ]

    # -- transitions (caller holds its plane's lock) ----------------------

    def accept(self, sf: StagedFile, file_offset: int, length: int) -> None:
        """Tier 0 took one write extent; every deeper tier is now owed."""
        for tier in range(1, self.ntiers):
            sf.pending[tier] += 1
        self.outstanding += self.ntiers - 1
        self.emit(
            TierStaged(
                path=sf.path, file_offset=file_offset, length=length,
                t=self.clock(),
            )
        )

    def enqueued(self, tier: int, depth: int) -> None:
        """An extent joined the pump queue bound for ``tier``."""
        self.emit(TierPumpPressure(tier=tier, depth=depth))

    def migrated(
        self,
        sf: StagedFile,
        tier: int,
        file_offset: int,
        length: int,
        chunks: int,
        start: float,
    ) -> None:
        """``chunks`` extents arrived at ``tier`` in one pump op."""
        sf.pending[tier] -= chunks
        self.outstanding -= chunks
        self.emit(
            TierMigrated(
                tier=tier, path=sf.path, file_offset=file_offset,
                length=length, chunks=chunks, start=start,
                duration=self.clock() - start,
            )
        )

    def stranded(
        self,
        sf: StagedFile,
        tier: int,
        file_offset: int,
        length: int,
        chunks: int,
        start: float,
        error: BaseException,
    ) -> None:
        """Migration into ``tier`` exhausted its retries: the extents
        stay at tier ``tier - 1`` and stop owing every deeper tier."""
        for deeper in range(tier, self.ntiers):
            sf.pending[deeper] -= chunks
            self.outstanding -= chunks
        if sf.stranded[tier] is None:
            sf.stranded[tier] = error
        self.emit(
            TierMigrated(
                tier=tier, path=sf.path, file_offset=file_offset,
                length=length, chunks=chunks, start=start,
                duration=self.clock() - start, error=error,
            )
        )

    def retried(
        self,
        tier: int,
        path: str,
        file_offset: int,
        attempt: int,
        delay: float,
        error: BaseException,
    ) -> None:
        """A migration attempt into ``tier`` failed and will be retried:
        the mount's retry record, stamped with the destination tier."""
        self.emit(
            ChunkRetried(
                path=path, file_offset=file_offset, attempt=attempt,
                delay=delay, error=error, t=self.clock(), tier=tier,
            )
        )

    def synced(self, sf: StagedFile, tier: int) -> None:
        """An fsync finished waiting and fsynced tiers 0..``tier``."""
        self.emit(TierSynced(tier=tier, path=sf.path, t=self.clock()))
