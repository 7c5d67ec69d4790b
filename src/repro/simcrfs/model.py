"""The CRFS pipeline as simulated processes.

One :class:`SimCRFS` instance models one node's CRFS mount: a buffer
pool (counting semaphore over pool chunks), the work queue, and
``io_threads`` worker processes that write sealed chunks to the backing
:class:`~repro.simio.fsbase.SimFilesystem`.  The pipeline *state
machine* — aggregation planning, the ``write_chunk_count`` /
``complete_chunk_count`` drain accounting, the error latch — is the
shared :class:`~repro.pipeline.kernel.FilePipeline`, and the control
flows that run it — chunk writeback and the tier pump
(:mod:`repro.pipeline.writeback`), the cached-read service
(:mod:`repro.pipeline.readahead`), the delta checkpoint/restore drivers
(:mod:`repro.pipeline.delta`) — are the generator functions the
threaded plane runs too.  This module is their *port* on the virtual
clock: processes, queues, the pool, and the modelled costs.  Every
state transition is emitted on the mount's
:class:`~repro.pipeline.kernel.PipelineKernel` stream, so
:meth:`SimCRFS.stats` reports the same schema as the functional plane's
``CRFS.stats()`` — from the identical counting code.

Costs on the write path (what the application's checkpoint time sees):

* per FUSE request (128 KiB ``big_writes`` splits): the request
  round-trip overhead, then the copy into the chunk over the node's
  shared memory bus;
* pool backpressure: when every chunk is either filling or in flight,
  the writer blocks until an IO thread recycles one — the stall that
  makes Figure 5's bandwidth rise with pool size;
* close(): flush the partial chunk, then block until the file's
  ``complete_chunk_count`` reaches its ``write_chunk_count``
  (Section IV-C), then the backing close (which on NFS triggers the
  close-to-open flush).
"""

from __future__ import annotations

from contextlib import nullcontext
from typing import Any, Iterable, Optional, Sequence

from ..checkpoint.manifest import Manifest, generation_path, manifest_path
from ..config import CRFSConfig
from ..errors import ShutdownError
from ..pipeline import (
    AdmissionWait,
    BackendHealth,
    FilePipeline,
    PipelineKernel,
    PipelineObserver,
    PoolPressure,
    QueuePressure,
    Seal,
    WorkersDrained,
)
from ..pipeline import delta, readahead
from ..pipeline.delta import DeltaExtent
from ..pipeline.readahead import CacheEntry, Prefetch, ReadaheadCore
from ..pipeline.staging import StagedFile, StagingCore
from ..pipeline.tenancy import DEFAULT_TENANT, DRRScheduler, PoolLedger
from ..pipeline.writeback import (
    Extent,
    contiguous,
    flush,
    ingest,
    migrate,
    stage,
    write_through,
    writeback,
)
from ..sim import (
    SharedBandwidth,
    SimEvent,
    SimQueue,
    SimTenantPool,
    Simulator,
)
from ..simio.fsbase import PAGE, SimFile, SimFilesystem
from ..simio.params import HardwareParams
from ..simio.tiered import TieredSimFilesystem
from .fuse import fuse_requests

__all__ = ["SimCRFS", "SimCRFSFile", "SimReadCache"]


def _park(sim: Simulator, waiters: "list[SimEvent]"):
    """Generator: park until the next :func:`_wake_all` of ``waiters``."""
    ev = SimEvent(sim)
    waiters.append(ev)
    yield ev


def _wake_all(waiters: "list[SimEvent]") -> None:
    """Succeed every parked event, in arrival order, emptying the list
    (the simulator's ``notify_all``; the woken re-check their predicate)."""
    parked, waiters[:] = waiters[:], []
    for ev in parked:
        ev.succeed()


class SimCRFSFile:
    """Per-file CRFS state on the timing plane."""

    __slots__ = (
        "path",
        "pipeline",
        "backend_file",
        "tenant",
        "current_chunk",
        "_drain_waiters",
        "pos",
        "read_pos",
        "known_size",
        "read_cache",
        "staged",
    )

    def __init__(
        self,
        path: str,
        pipeline: FilePipeline,
        backend_file: SimFile,
        known_size: int = 0,
        tenant: str = DEFAULT_TENANT,
        staged: Optional[StagedFile] = None,
    ):
        self.path = path
        self.pipeline = pipeline
        self.backend_file = backend_file
        self.tenant = tenant
        #: True while a chunk (a pool slot — data here is sizes) is open.
        self.current_chunk: Optional[bool] = None
        self._drain_waiters: list[SimEvent] = []
        #: Tier-staging debt (tiered mounts only): the shared
        #: plane-agnostic accounting the pump processes pay down.
        self.staged = staged
        self.pos = 0  # sequential append cursor
        self.read_pos = 0  # sequential read cursor (restart path)
        #: Pre-existing size, as passed to :meth:`SimCRFS.open` — restart
        #: opens an image written earlier; checkpoint data in the timing
        #: plane is a stream of sizes, so the size must be declared.
        self.known_size = known_size
        #: Restart-readahead cache port (:class:`SimReadCache`), attached
        #: by the mount when ``config.read_cache_chunks > 0``; None keeps
        #: reads on the paper's passthrough path.
        self.read_cache: Optional[SimReadCache] = None


class SimReadCache:
    """Per-file readahead cache on the timing plane: the port the
    shared flows in :mod:`repro.pipeline.readahead` drive, as
    virtual-clock generators.  A lease is a pool slot (``True``), a
    view is nothing — data here is a stream of sizes."""

    lock = nullcontext()  # the simulator is single-threaded
    warm_reads = True  # the IO threads model the backend read; the fill is free

    def __init__(self, fs: "SimCRFS", f: SimCRFSFile, core: ReadaheadCore):
        self.fs = fs
        self.f = f
        self.core = core
        self.path = f.path
        self.health = fs.health

    def serve_read(self, offset: int, end: int, file_size: int):
        yield from readahead.serve(self, offset, end, file_size)
        if end > offset:
            yield from self.hand_back(end - offset)

    def hand_back(self, nbytes: int):
        """Serving pass: the mount's own cost of handing ``nbytes``
        cached bytes back — FUSE request round-trips plus the copy out
        of the chunk over the shared memory bus."""
        fs = self.fs
        for request in fuse_requests(nbytes, fs.hw.fuse_max_request):
            yield fs.sim.timeout(fs.hw.fuse_request_overhead)
            if request >= PAGE:
                yield fs.membus.transfer(request)

    def try_lease(self):
        fs, tenant = self.fs, self.f.tenant
        if fs.pool.would_wait(tenant):
            return None
        yield fs.pool.acquire(tenant)
        fs._note_pool(tenant)
        return True

    def warm(self, lease: Any, offset: int, length: int):
        yield from self.fs.backend.read(self.f.backend_file, length)
        return length

    @staticmethod
    def fill(lease: Any, offset: int, length: int):
        return length
        yield  # a generator: the warm modelled the whole read

    def read_uncached(self, offset: int, length: int):
        yield from self.fs.backend.read(self.f.backend_file, length)

    @staticmethod
    def view(lease: Any, lo: int, hi: int) -> None:
        return None

    def await_entry(self, centry: CacheEntry):
        return _park(self.fs.sim, centry.waiters)

    @staticmethod
    def wake(centry: CacheEntry) -> None:
        _wake_all(centry.waiters)

    def release(self, lease: Any) -> None:
        self.fs._pool_release(self.f.tenant)

    def enqueue_prefetch(self, item: Prefetch):
        fs, tenant = self.fs, self.f.tenant
        yield fs.queue.put(item, low=True, tenant=tenant)
        fs._note_queued(tenant)


class SimCRFS:
    """One node's CRFS mount over a modelled backing filesystem."""

    def __init__(
        self,
        sim: Simulator,
        hw: HardwareParams,
        config: CRFSConfig,
        backend: SimFilesystem,
        membus: SharedBandwidth,
        node: str = "node0",
        file_affine: bool = False,
        observers: Iterable[PipelineObserver] = (),
    ):
        self.sim = sim
        self.hw = hw
        self.config = config
        self.backend = backend
        self.membus = membus
        self.node = node
        #: Experimental (Section VII prototype): IO threads prefer to
        #: keep draining the file they last wrote, so one file's chunks
        #: reach the backend back-to-back instead of interleaving.
        self.file_affine = file_affine
        self._backlog: "dict[SimCRFSFile, list[Extent]]" = {}
        #: Open files with a read cache — pool-pressure shedding must
        #: reach every cache.
        self._cached_files: "list[SimCRFSFile]" = []
        self.tenants = config.tenant_registry()
        ntiers = len(backend.tiers) if isinstance(backend, TieredSimFilesystem) else 0
        self.kernel = PipelineKernel(
            config.chunk_size,
            pool_chunks=config.pool_chunks,
            clock=lambda: sim.now,
            observers=observers,
            tenants=self.tenants.names,
            tiers=ntiers,
            fsync_tier=(
                StagingCore.resolve_tier(config.fsync_tier, ntiers) if ntiers else -1
            ),
        )
        self.retry = config.retry
        self.health = BackendHealth(self.kernel, config.breaker_threshold)
        # Tiered staging: the same plane-agnostic StagingCore the
        # functional TieredBackend drives, paid down here by pump
        # *processes* over their own SimQueue (its depths never touch
        # the mount's `queue` stats section).
        self.staging: Optional[StagingCore] = None
        self._pump_queue: Optional[SimQueue] = None
        self.pump_depth = 0
        self._pump_waiters: list[SimEvent] = []
        self.tier_healths: list[Optional[BackendHealth]] = []
        self._pump_procs: list = []
        if ntiers:
            self.staging = StagingCore(ntiers, self.kernel, fsync_tier=config.fsync_tier)
            self._pump_queue = SimQueue(sim)
            self.tier_healths = self.staging.breakers(config.breaker_threshold)
            self._pump_procs = [
                sim.spawn(self._pump_proc(i), name=f"{node}-crfs-pump{i}")
                for i in range(config.tier_pump_threads)
            ]
        # The same ledger / scheduler classes the functional plane
        # delegates to, so service order is identical across planes by
        # construction (one tenant: a FIFO pool and queue).
        self.pool = SimTenantPool(
            sim,
            PoolLedger(max(1, config.pool_chunks), self.tenants.reservations()),
        )
        self.queue = SimQueue(
            sim,
            scheduler=DRRScheduler(weights=self.tenants.weights()),
            quotas=self.tenants.quotas(),
            on_admission_wait=lambda tenant, depth: self.kernel.emit(
                AdmissionWait(tenant=tenant, depth=depth, t=sim.now)
            ),
        )
        self._io_threads = [
            sim.spawn(self._io_thread(i), name=f"{node}-crfs-io{i}")
            for i in range(config.io_threads)
        ]

    def stats(self) -> dict[str, Any]:
        """One atomic snapshot of the pipeline counters — the identical
        schema (and counting code) as the functional plane's
        ``CRFS.stats()``."""
        return self.kernel.snapshot()

    # -- file API (all generators, driven by writer processes) -----------------

    def open(
        self, path: str, size: int = 0, tenant: str | None = None
    ) -> SimCRFSFile:
        """Open a file; ``size`` declares pre-existing bytes (timing-plane
        data is a stream of sizes, so a restart read-back of an image
        written in an earlier mount must state how large it is).

        ``tenant`` pins the open to a tenant explicitly; by default the
        registry maps the path through the configured fnmatch rules
        (falling back to ``default``) — the same resolution the
        functional plane's ``CRFS.open`` performs.
        """
        resolved = self.tenants.resolve(path, tenant)
        backend_file = self.backend.open(path)
        # Chunk writeback is issued by CRFS's few dedicated IO threads as
        # large aligned writes of brand-new pages — it dodges the
        # page-collision stalls interactive writers suffer (see
        # simio.ext3).
        backend_file.bulk_writer = True
        self.kernel.file_opened(path, tenant=resolved)
        f = SimCRFSFile(
            path,
            self.kernel.file(path, tenant=resolved),
            backend_file,
            known_size=size,
            tenant=resolved,
            staged=self.staging.file(path) if self.staging is not None else None,
        )
        if self.config.read_cache_chunks > 0:
            f.read_cache = SimReadCache(
                self,
                f,
                ReadaheadCore(
                    path,
                    self.kernel,
                    capacity=self.config.read_cache_chunks,
                    depth=self.config.readahead_chunks,
                    adaptive=self.config.readahead_adaptive,
                ),
            )
            self._cached_files.append(f)
        return f

    # -- pool plumbing ------------------------------------------------------------

    def pool_would_wait(self, f: SimCRFSFile) -> bool:
        """The write-path backpressure predicate, sampled before the
        acquire is yielded."""
        return self.pool.would_wait(f.tenant)

    def _note_pool(self, tenant: str, waited: bool = False, released: bool = False):
        """The ``PoolPressure`` event after an acquire (once the yield
        returned) or a release."""
        self.kernel.emit(
            PoolPressure(
                waited=waited,
                in_use=self.pool.in_use,
                tenant=tenant,
                tenant_in_use=self.pool.held(tenant),
                released=released,
            )
        )

    def _pool_release(self, tenant: str) -> None:
        """Recycle one chunk and emit the released ``PoolPressure`` — the
        one choke point, like the functional plane's
        ``BufferPool.release``."""
        self.pool.release(tenant)
        self._note_pool(tenant, released=True)

    def write(self, f: SimCRFSFile, nbytes: int):
        """Generator: one application write() through FUSE into chunks.

        Each 128 KiB request is costed (round-trip, copy over the memory
        bus), then planned and executed by the shared
        :func:`~repro.pipeline.writeback.ingest` — unless the write fits
        the open chunk whole, when ``fit_write`` plans and counts it up
        front and the loop only costs out its requests.  A write at
        ``write_through_threshold`` bypasses aggregation, and while the
        breaker is open every write does (as a recovery probe), as on the
        threaded plane: ``flush`` seals the partial chunk, then each
        request is written through, its error raised here (nothing was
        accepted asynchronously, so nothing is latched)."""
        t0 = self.sim.now
        offset0 = f.pos
        pipeline = f.pipeline
        degraded = self.health.degraded
        direct = degraded or 0 < self.config.write_through_threshold <= nbytes
        if f.read_cache is not None:
            readahead.invalidate(f.read_cache, offset0, nbytes)
        if direct:
            yield from flush(self, f, (offset0, nbytes))
        fits = not direct and pipeline.fit_write(offset0, nbytes) is not None
        for request in fuse_requests(nbytes, self.hw.fuse_max_request):
            yield self.sim.timeout(self.hw.fuse_request_overhead)
            if request >= PAGE:
                yield self.membus.transfer(request)
            if direct:
                yield from write_through(self, Extent(f, 0, f.pos, request))
            elif not fits:
                yield from ingest(self, f, f.pos, request)
            f.pos += request
        if not fits:
            pipeline.note_write(
                offset0, nbytes, start=t0, write_through=direct, degraded=degraded
            )
        else:
            pipeline._observe_write(offset0, nbytes, t0)

    def close(self, f: SimCRFSFile):
        """Generator: Section IV-C close — flush, drain, backend close.

        On a tiered mount a file with migrations still in flight defers
        the backend close to the pump process that pays its last debt —
        close never waits for deep tiers (mirror of
        ``TieredBackend.close``).  A latched writeback error is raised
        once the file is released, as on the threaded plane."""
        yield from flush(self, f)
        yield from self._wait_drained(f)
        if f.read_cache is not None:
            # Teardown: cached-but-unused prefetches are
            # waste-accounted, pool slots go back.
            readahead.clear(f.read_cache)
            if f in self._cached_files:
                self._cached_files.remove(f)
        if f.staged is not None and sum(f.staged.pending) > 0:
            f.staged.closing = True
        else:
            yield from self.backend.close(f.backend_file)
        self.kernel.file_closed(f.path, tenant=f.tenant)
        f.pipeline.raise_latched()

    def fsync(self, f: SimCRFSFile):
        """Generator: Section IV-D2 fsync — flush, drain, backend fsync.

        On a tiered mount durability is a *level*: wait until the
        file's extents have reached tiers ``0..fsync_tier``, surface
        the shallowest strand error, then fsync exactly those tiers
        (mirror of ``TieredBackend.fsync_through``)."""
        yield from self.flush_drain(f)
        if self.staging is None:
            yield from self.backend.fsync(f.backend_file)
        else:
            yield from self.fsync_through(f, self.staging.fsync_tier)

    def fsync_through(self, f: SimCRFSFile, tier: int):
        """Generator: durability through tier ``tier`` (tiered mounts)."""
        assert self.staging is not None and f.staged is not None
        tier = StagingCore.resolve_tier(tier, self.staging.ntiers)
        sf = f.staged
        while sf.pending_through(tier) > 0:
            yield from _park(self.sim, sf.waiters)
        error = sf.sync_error(tier)
        if error is not None:
            raise error
        for level in range(tier + 1):
            yield from self.backend.tier_fsync(f.backend_file, level)
        self.staging.synced(sf, tier)

    def read(self, f: SimCRFSFile, nbytes: int):
        """Generator: one sequential read() at the file's read cursor —
        the definitions in :mod:`repro.pipeline.readahead` both planes
        run: resident bytes decided and counted by ``read_resident``
        and charged the modelled serving cost, anything else the
        ``read`` flow (passthrough, or the readahead cache with
        prefetches serviced by the IO threads off the queue's low
        band)."""
        t0 = self.sim.now
        served = readahead.read_resident(self, f, nbytes, f.read_pos)
        if served is None:
            yield from readahead.read(self, f, nbytes, f.read_pos)
        else:
            _, slide = served
            if slide is not None:
                yield from slide
            yield from f.read_cache.hand_back(nbytes)
            f.pipeline._observe_read(f.read_pos, nbytes, t0, copied=nbytes)
        f.read_pos += nbytes

    def seek(self, f: SimCRFSFile, pos: int) -> None:
        """Reposition the sequential read cursor (restart replays)."""
        f.read_pos = pos

    # The read flow's mount-level port (timing plane); the per-file half
    # is the file's :class:`SimReadCache`.

    def flush_drain(self, f: SimCRFSFile):
        yield from flush(self, f)
        yield from self._wait_drained(f)
        f.pipeline.raise_latched()

    def read_through(self, f: SimCRFSFile, nbytes: int, offset: int):
        for request in fuse_requests(nbytes, self.hw.fuse_max_request):
            yield self.sim.timeout(self.hw.fuse_request_overhead)
            yield from self.backend.read(f.backend_file, request)

    @staticmethod
    def file_size(f: SimCRFSFile) -> int:
        return max(f.known_size, f.pipeline.planner.size)

    def shed_read_caches(self) -> None:
        """Pool-pressure relief: drop every read-cache lease back to the
        pool (the cache is advisory; a parked writer is not)."""
        for cached in list(self._cached_files):
            readahead.clear(cached.read_cache)

    # -- incremental (delta) checkpoints -----------------------------------------
    # :func:`repro.pipeline.delta.checkpoint` / ``restore`` over this
    # mount as their port.  Data is a stream of sizes here, so the caller
    # declares ``logical_size`` and the dirty chunk indices instead of
    # bytes, and the committed tracker state *is* the manifest.

    def delta_checkpoint(
        self,
        path: str,
        logical_size: int,
        dirty: Iterable[int] | None = None,
        tenant: str | None = None,
    ):
        """Generator: commit one generation of ``path``'s delta chain;
        returns the plan."""
        return (yield from delta.checkpoint(self, path, logical_size, dirty, tenant))

    def delta_restore(self, path: str, tenant: str | None = None):
        """Generator: reassemble the current logical image across the
        chain; returns the reassembled logical size."""
        yield from delta.restore(self, path, tenant)
        return self.kernel.delta(path).logical_size

    def open_generation(self, path: str, generation: int, tenant: str | None, create: bool):
        size = 0 if create else self.kernel.delta(path).gen_size(generation)
        return self.open(generation_path(path, generation), size=size, tenant=tenant)

    def write_extent(self, f: SimCRFSFile, ext: DeltaExtent, image: Any):
        f.pos = ext.file_offset
        yield from self.write(f, ext.length)

    def read_run(self, f: SimCRFSFile, file_offset: int, length: int):
        self.seek(f, file_offset)
        yield from self.read(f, length)

    def write_manifest(self, path: str, raw: bytes):
        mf = self.backend.open(manifest_path(path))
        try:
            yield from self.backend.write(mf, len(raw))
            yield from self.backend.fsync(mf)
        finally:
            yield from self.backend.close(mf)

    def load_manifest(self, path: str):
        """The manifest read is modelled; its content is the committed
        tracker state (the functional plane validates real bytes)."""
        tracker = self.kernel.delta(path)
        manifest = Manifest(
            path=tracker.path,
            generation=tracker.generation,
            chunk_size=tracker.chunk_size,
            logical_size=tracker.logical_size,
            owners=tuple(tracker.owners),
        )
        mf = self.backend.open(manifest_path(path))
        try:
            yield from self.backend.read(mf, len(manifest.to_bytes()))
        finally:
            yield from self.backend.close(mf)
        return manifest

    # -- the writeback engine's port (timing plane) ------------------------------
    # The operations the shared flows in :mod:`repro.pipeline.writeback`
    # drive, as virtual-clock generators; ``retry``, ``health``,
    # ``staging``, ``tier_healths`` and ``pump_depth`` are set up in
    # ``__init__``.  The simulator is single-threaded: no lock.

    lock = nullcontext()

    def acquire(self, f: SimCRFSFile, file_offset: int):
        waited = self.pool_would_wait(f)
        yield self.pool.acquire(f.tenant)
        self._note_pool(f.tenant, waited=waited)
        f.current_chunk = True

    @staticmethod
    def fill(f: SimCRFSFile, op: Any, data: Any):
        return ()  # the copy is costed per FUSE request, in write()

    def seal(self, f: SimCRFSFile, seal: Seal):
        f.pipeline.note_queued(seal)
        f.current_chunk = None
        yield self.sim.timeout(self.hw.crfs_seal_overhead)
        extent = Extent(f, 0, seal.file_offset, seal.length)
        if self.file_affine:
            self._backlog.setdefault(f, []).append(extent)
            yield self.queue.put(None, tenant=f.tenant)  # wake one IO thread
        else:
            yield self.queue.put(extent, tenant=f.tenant)
        self._note_queued(f.tenant)

    def sleep(self, delay: float):
        yield self.sim.timeout(delay)

    def backend_write(self, f: SimCRFSFile, extents: Sequence[Extent], offset: int):
        if len(extents) == 1:
            return self.backend.write(f.backend_file, extents[0].length)
        return self.backend.writev(f.backend_file, [e.length for e in extents])

    def stage(self, f: SimCRFSFile, offset: int, length: int):
        if self.staging is not None:
            yield from stage(self, f, offset, length)

    def complete(self, extent: Extent, error: BaseException | None, t0: float) -> None:
        """Per-chunk completion accounting: drain counters, error latch,
        pool recycle, drain-waiter wakeup."""
        f = extent.file
        drained = f.pipeline.note_complete(
            length=extent.length,
            file_offset=extent.offset,
            error=error,
            start=t0,
        )
        self._pool_release(f.tenant)
        if drained:
            _wake_all(f._drain_waiters)

    def tier_copy(self, f: SimCRFSFile, tier: int, offset: int, lengths: Sequence[int]):
        yield from self.backend.tier_read(f.backend_file, tier - 1, sum(lengths))
        if len(lengths) > 1:
            yield from self.backend.tier_writev(f.backend_file, tier, list(lengths))
        else:
            yield from self.backend.tier_write(f.backend_file, tier, lengths[0])

    def pump_put(self, extent: Extent):
        yield self._pump_queue.put(extent)

    def tier_close(self, f: SimCRFSFile):
        return self.backend.close(f.backend_file)

    def _pump_proc(self, index: int):
        batch_limit = self.config.tier_pump_batch_chunks
        while True:
            try:
                item = yield self._pump_queue.get()
            except ShutdownError:  # pump queue closed at unmount
                return
            extents = self._pump_queue.take_adjacent(item, batch_limit - 1, contiguous)
            yield from migrate(self, [item, *extents])

    def staging_wake(self, sf: StagedFile) -> None:
        """Wake fsync waiters parked on the file plus mount-wide drain
        waiters; all re-check their predicates."""
        _wake_all(sf.waiters)
        _wake_all(self._pump_waiters)

    def drain_staging(self):
        """Generator: block until the pump owes nothing anywhere —
        every extent arrived at the deepest tier or stranded (mirror of
        ``TieredBackend.drain``).  Run this before capturing final
        stats on a tiered mount."""
        if self.staging is None:
            return
        while self.staging.outstanding > 0:
            yield from _park(self.sim, self._pump_waiters)

    # -- pipeline internals ------------------------------------------------------

    def _note_queued(self, tenant: str) -> None:
        """The put-side ``QueuePressure`` event (after the yield)."""
        self.kernel.emit(
            QueuePressure(
                depth=len(self.queue),
                tenant=tenant,
                tenant_depth=self.queue.depth(tenant),
            )
        )

    def _wait_drained(self, f: SimCRFSFile):
        start = self.sim.now
        outstanding = f.pipeline.outstanding
        while not f.pipeline.drained:
            yield from _park(self.sim, f._drain_waiters)
        f.pipeline.note_drained(start, outstanding)

    def _take_affine(self, last: Optional[SimCRFSFile]) -> Extent:
        """Pick the next backlog chunk, preferring the thread's last file."""
        if last is not None and self._backlog.get(last):
            f = last
        else:
            f = next(iter(self._backlog))
        extent = self._backlog[f].pop(0)
        if not self._backlog[f]:
            del self._backlog[f]
        return extent

    def _io_thread(self, index: int):
        last: Optional[SimCRFSFile] = None
        batch_limit = self.config.writeback_batch_chunks
        while True:
            try:
                item = yield self.queue.get()
            except ShutdownError:  # queue closed at unmount
                return
            if isinstance(item, Prefetch):
                # Readahead prefetch off the low band — serviced between
                # writebacks; carries itself even in file_affine mode
                # (the backlog holds only write seals).
                yield from readahead.service_prefetch(item)
                continue
            if self.file_affine:
                # file_affine already drains one file back-to-back via
                # the backlog; coalescing is not applied on top of it.
                item = self._take_affine(last)
                last = item.file
                extents = [item]
            else:
                adjacent = self.queue.take_adjacent(
                    item, batch_limit - 1, contiguous, tenant=item.file.tenant
                )
                extents = [item, *adjacent]
            yield from writeback(self, extents)

    def shutdown(self) -> None:
        self.queue.close()
        if self._pump_queue is not None:
            # Drain-then-stop, like the functional tiered shutdown: the
            # pump processes keep consuming queued extents and exit once
            # the queue is empty.
            self._pump_queue.close()
        # Closing the queue wakes the IO processes at the current virtual
        # instant, so the drain-close itself takes no modelled time.
        self.kernel.emit(WorkersDrained(duration=0.0, t=self.sim.now))
