"""The plane-agnostic incremental-checkpoint (delta) kernel.

Classic BLCR traffic rewrites the whole image every epoch; LLM-style
cadence checkpointing rewrites a few huge shard files every iteration
with most bytes unchanged.  This module tracks, per logical checkpoint
path, which chunks each generation dirtied — and turns a "checkpoint
now, these chunks changed" declaration into:

* a write plan (:class:`DeltaPlan`): contiguous dirty-chunk extents to
  stream into this generation's file at their logical offsets, plus the
  new :class:`~repro.checkpoint.manifest.Manifest` recording chunk
  ownership across the chain;
* a commit step that only advances the chain *after* the plane
  persisted the manifest — a failed manifest write never moves the
  generation pointer, so a retry re-plans the same generation and a
  torn manifest can never be silently trusted.

Dirtiness is *declared by the workload* (chunk indices), not diffed
from data: the timing plane is data-free, and LLM trainers know exactly
which shards/optimizer slices changed.

The drivers that execute a plan — :func:`checkpoint` and
:func:`restore` — live here too, once, as generator functions over a
per-plane port (the technique of :mod:`repro.pipeline.writeback`):
the functional plane's :class:`~repro.core.delta.DeltaCheckpointer`
moves real bytes into ``<path>.g<N>``, the timing plane's
:class:`~repro.simcrfs.model.SimCRFS` virtual-clock writes of the same
extents.  A port provides ``kernel`` plus

``open_generation(path, generation, tenant, create)``
    open one generation file through the mount (plain call; ``create``
    truncates for a checkpoint, otherwise the file must exist);
``write_extent(file, extent, image)``
    one dirty extent through the normal write path;
``fsync(file)`` / ``close(file)``
    the mount's own durability and close;
``write_manifest(path, raw)``
    the synchronous manifest replace, straight to the backend;
``load_manifest(path)``
    the current :class:`~repro.checkpoint.manifest.Manifest` (real
    bytes validated, or derived from the tracker);
``read_run(file, file_offset, length)``
    one owner run through the normal (cacheable) read path.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Generator, Iterable

from ..checkpoint.manifest import Manifest
from ..errors import ManifestError
from .events import DeltaGenerationCommitted, DeltaRestored

if TYPE_CHECKING:  # pragma: no cover
    from .kernel import PipelineKernel

__all__ = ["DeltaExtent", "DeltaPlan", "DeltaTracker", "checkpoint", "restore"]


@dataclass(frozen=True)
class DeltaExtent:
    """One contiguous dirty run: write ``length`` bytes at logical
    ``file_offset`` into the generation file (``chunks`` whole-or-tail
    chunks)."""

    file_offset: int
    length: int
    chunks: int


@dataclass(frozen=True)
class DeltaPlan:
    """Everything one checkpoint generation needs to execute.

    Pure output of :meth:`DeltaTracker.plan_checkpoint` — nothing is
    mutated until :meth:`DeltaTracker.commit`, so a failed data or
    manifest write leaves the chain exactly where it was.
    """

    generation: int
    manifest: Manifest
    extents: tuple[DeltaExtent, ...]
    dirty: frozenset = field(default_factory=frozenset)
    dirty_chunks: int = 0
    clean_chunks: int = 0
    dirty_bytes: int = 0

    @property
    def logical_bytes(self) -> int:
        return self.manifest.logical_size

    @property
    def gen_file_size(self) -> int:
        """Physical size of this generation's file: extents land at
        their logical offsets (the file is sparse between runs)."""
        if not self.extents:
            return 0
        last = self.extents[-1]
        return last.file_offset + last.length


class DeltaTracker:
    """Per-path generation-chain state, owned by the mount's kernel.

    The tracker is plane-agnostic bookkeeping only — it never touches
    storage.  The plane drives it::

        plan = tracker.plan_checkpoint(logical_size, dirty=indices)
        # ... write plan.extents into generation_path(path, plan.generation)
        # ... write plan.manifest.to_bytes() to manifest_path(path)
        tracker.commit(plan)          # only after the manifest landed

    ``dirty=None`` (or the very first generation) means *all* chunks —
    generation 0 degenerates exactly to today's full rewrite.  Chunk
    indices past the previous image and, when the size changed, the
    previous tail chunk are auto-dirtied: their bytes cannot be owed to
    an older generation that never saw them.
    """

    def __init__(self, path: str, kernel: "PipelineKernel"):
        self.path = path
        self.chunk_size = kernel.chunk_size
        self._emit = kernel.emit
        self.clock = kernel.clock
        self.generation = -1  # committed generations so far - 1
        self.logical_size = 0
        self.owners: list[int] = []
        #: Physical size of each committed generation file, recorded at
        #: commit so restore (and the data-free timing plane) knows the
        #: backing file extent without a stat.
        self.gen_sizes: dict[int, int] = {}
        #: A checkpoint attempt failed after possibly tearing the
        #: on-disk manifest; restore must refuse until a clean commit.
        self.torn = False

    # -- planning --------------------------------------------------------------

    def _nchunks(self, logical_size: int) -> int:
        return (logical_size + self.chunk_size - 1) // self.chunk_size

    def _dirty_set(
        self, logical_size: int, dirty: Iterable[int] | None
    ) -> frozenset:
        nchunks = self._nchunks(logical_size)
        if self.generation < 0 or dirty is None:
            return frozenset(range(nchunks))
        declared = frozenset(dirty)
        for index in declared:
            if not 0 <= index < nchunks:
                raise ValueError(
                    f"{self.path}: dirty chunk {index} outside image of "
                    f"{nchunks} chunks"
                )
        auto = set(range(len(self.owners), nchunks))  # growth: new chunks
        if logical_size != self.logical_size and self.owners and nchunks > 0:
            # the previous tail chunk's length changed (or it gained
            # bytes): its old owner cannot serve the new shape
            auto.add(min(len(self.owners) - 1, nchunks - 1))
        return declared | frozenset(auto)

    def plan_checkpoint(
        self, logical_size: int, dirty: Iterable[int] | None = None
    ) -> DeltaPlan:
        """Plan the next generation (pure; commit separately)."""
        if logical_size < 0:
            raise ValueError(f"logical_size must be >= 0, got {logical_size}")
        generation = self.generation + 1
        nchunks = self._nchunks(logical_size)
        dirty_set = self._dirty_set(logical_size, dirty)

        owners = list(self.owners[:nchunks])
        owners.extend(0 for _ in range(nchunks - len(owners)))
        for index in dirty_set:
            owners[index] = generation

        manifest = Manifest(
            path=self.path,
            generation=generation,
            chunk_size=self.chunk_size,
            logical_size=logical_size,
            owners=tuple(owners),
        )

        extents: list[DeltaExtent] = []
        dirty_bytes = 0
        index = 0
        while index < nchunks:
            if index not in dirty_set:
                index += 1
                continue
            start = index
            length = 0
            while index < nchunks and index in dirty_set:
                length += manifest.chunk_length(index)
                index += 1
            extents.append(
                DeltaExtent(
                    file_offset=start * self.chunk_size,
                    length=length,
                    chunks=index - start,
                )
            )
            dirty_bytes += length

        return DeltaPlan(
            generation=generation,
            manifest=manifest,
            extents=tuple(extents),
            dirty=dirty_set,
            dirty_chunks=len(dirty_set),
            clean_chunks=nchunks - len(dirty_set),
            dirty_bytes=dirty_bytes,
        )

    # -- commit / failure ------------------------------------------------------

    def commit(self, plan: DeltaPlan, manifest_bytes: int | None = None) -> None:
        """Advance the chain — call only after the manifest write landed."""
        if plan.generation != self.generation + 1:
            raise ManifestError(
                f"{self.path}: commit of generation {plan.generation} "
                f"against chain at {self.generation}"
            )
        self.generation = plan.generation
        self.logical_size = plan.manifest.logical_size
        self.owners = list(plan.manifest.owners)
        self.gen_sizes[plan.generation] = plan.gen_file_size
        self.torn = False
        if manifest_bytes is None:
            manifest_bytes = len(plan.manifest.to_bytes())
        self._emit(
            DeltaGenerationCommitted(
                path=self.path,
                generation=plan.generation,
                dirty_chunks=plan.dirty_chunks,
                clean_chunks=plan.clean_chunks,
                dirty_bytes=plan.dirty_bytes,
                logical_bytes=plan.logical_bytes,
                manifest_bytes=manifest_bytes,
                t=self.clock(),
            )
        )

    def note_torn(self) -> None:
        """A checkpoint attempt failed after the manifest may have been
        (partially) overwritten; the chain did not advance, and restore
        refuses until a clean commit replaces the manifest."""
        self.torn = True

    def check_restorable(self) -> None:
        """Fail loudly before any reassembly from suspect state."""
        if self.torn:
            raise ManifestError(
                f"{self.path}: manifest write was interrupted; refusing to "
                "reassemble from a possibly-torn manifest"
            )
        if self.generation < 0:
            raise ManifestError(f"{self.path}: no committed checkpoint generation")

    # -- restore accounting ----------------------------------------------------

    def gen_size(self, generation: int) -> int:
        """Recorded physical size of a committed generation file."""
        try:
            return self.gen_sizes[generation]
        except KeyError:
            raise ManifestError(
                f"{self.path}: generation {generation} was never committed"
            ) from None

    def note_restore(self, reassembly_reads: int, reassembly_bytes: int) -> None:
        """One full image reassembly completed."""
        self._emit(
            DeltaRestored(
                path=self.path,
                generation=self.generation,
                reassembly_reads=reassembly_reads,
                reassembly_bytes=reassembly_bytes,
                t=self.clock(),
            )
        )


# -- the drivers both planes run ----------------------------------------------


def checkpoint(
    port: Any,
    path: str,
    logical_size: int,
    dirty: Iterable[int] | None = None,
    tenant: str | None = None,
    image: Any = None,
) -> Generator[Any, Any, DeltaPlan]:
    """Commit one generation of ``path``'s chain and return its plan.

    Only the dirty extents enter the pipeline (one write per contiguous
    extent, at its logical offset, ``image`` handed through to the port
    untouched); fsync + close drain the generation file — closed even
    when the data phase fails, which leaves the old chain head fully
    restorable.  The manifest write is the durable commit point: only a
    successful one advances the chain, a failed one marks it torn.
    """
    tracker = port.kernel.delta(path)
    plan = tracker.plan_checkpoint(logical_size, dirty)
    f = port.open_generation(path, plan.generation, tenant, create=True)
    try:
        for ext in plan.extents:
            yield from port.write_extent(f, ext, image)
        yield from port.fsync(f)
    finally:
        yield from port.close(f)
    raw = plan.manifest.to_bytes()
    try:
        yield from port.write_manifest(path, raw)
    except BaseException:
        # The old manifest was truncated before the failure: the
        # on-disk chain head is suspect until a clean commit.
        tracker.note_torn()
        raise
    tracker.commit(plan, len(raw))
    return plan


def restore(
    port: Any, path: str, tenant: str | None = None
) -> Generator[Any, Any, list[Any]]:
    """Reassemble the current logical image across the chain: refuse a
    torn or empty chain, load the manifest, then one read per contiguous
    same-owner run with every distinct generation file opened exactly
    once.  Returns what each run's read returned — the runs tile the
    image in offset order."""
    tracker = port.kernel.delta(path)
    tracker.check_restorable()
    manifest = yield from port.load_manifest(path)
    runs = manifest.owner_runs()
    files: dict[int, Any] = {}
    parts = []
    try:
        for generation, file_offset, length, _chunks in runs:
            f = files.get(generation)
            if f is None:
                f = files[generation] = port.open_generation(
                    path, generation, tenant, create=False
                )
            parts.append((yield from port.read_run(f, file_offset, length)))
    finally:
        for f in files.values():
            yield from port.close(f)
    tracker.note_restore(len(runs), manifest.logical_size)
    return parts
