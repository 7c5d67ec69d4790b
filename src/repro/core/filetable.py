"""Open-file table: the hash table of Section IV-A.

"CRFS maintains a hash table to keep track of opened files.  Each opened
file is associated with an entry that contains metadata to be used in
later I/O operations... If the file is already opened, the reference
counter in its table entry is incremented by one."

The drain counters of Section IV-B/C (``write_chunk_count`` /
``complete_chunk_count``), the error latch, and the raise-once contract
live in the shared :class:`~repro.pipeline.kernel.FilePipeline`; this
module adds only what the *threaded* plane needs on top — the condition
variable that close()/fsync() block on until the pipeline reports
drained.

Multi-tenant mounts shard the table per tenant: every entry lives in
exactly one tenant partition, each with its own membership and drain
accounting, so unmount can drain tenants independently and the stats /
experiments can ask "how much is tenant X still holding?" without
scanning the whole mount.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Optional

from ..errors import FileStateError
from ..pipeline import FilePipeline, PipelineKernel, Seal
from ..pipeline.kernel import EmitFn
from ..pipeline.tenancy import DEFAULT_TENANT
from .chunk import Chunk

__all__ = ["FileEntry", "OpenFileTable"]


class FileEntry:
    """Per-open-file metadata: the shared pipeline state machine plus the
    threaded plane's chunk buffer and drain condition."""

    def __init__(
        self,
        path: str,
        backend_handle: Any,
        chunk_size: int,
        emit: EmitFn | None = None,
        clock: Callable[[], float] | None = None,
        tenant: str = DEFAULT_TENANT,
        kernel: PipelineKernel | None = None,
    ):
        self.path = path
        self.backend_handle = backend_handle
        self.tenant = tenant
        self.refcount = 1
        self.current_chunk: Optional[Chunk] = None
        #: Restart-readahead cache (:class:`~repro.core.readcache.ReadCache`),
        #: attached by the mount when ``config.read_cache_chunks > 0``;
        #: None keeps reads on the paper's passthrough path.  Typed Any
        #: to keep the file table free of read-path dependencies.
        self.read_cache: Any = None
        # Serializes the write path for this file (writers to *different*
        # files proceed in parallel, as on the real mount).
        self.write_lock = threading.Lock()
        # The pipeline's counter lock doubles as the drain condition's
        # lock, so note_chunk_complete can account and notify atomically.
        self._lock = threading.RLock()
        self._drain = threading.Condition(self._lock)
        self.pipeline = FilePipeline(
            path,
            chunk_size,
            emit=emit,
            lock=self._lock,
            clock=clock,
            tenant=tenant,
            kernel=kernel,
        )

    # -- kernel passthrough ----------------------------------------------------

    @property
    def planner(self):
        return self.pipeline.planner

    @property
    def write_chunk_count(self) -> int:
        return self.pipeline.write_chunk_count

    @property
    def complete_chunk_count(self) -> int:
        return self.pipeline.complete_chunk_count

    @property
    def outstanding(self) -> int:
        return self.pipeline.outstanding

    def peek_error(self) -> BaseException | None:
        return self.pipeline.peek_error()

    # -- drain protocol ------------------------------------------------------

    def note_chunk_queued(self, seal: Seal | None = None) -> None:
        with self._drain:
            self.pipeline.note_queued(seal)

    def note_chunk_complete(
        self,
        error: BaseException | None = None,
        nbytes: int = 0,
        file_offset: int = 0,
        start: float | None = None,
    ) -> None:
        """IO-thread callback: one outstanding chunk write finished."""
        with self._drain:
            self.pipeline.note_complete(
                length=nbytes, file_offset=file_offset, error=error, start=start
            )
            self._drain.notify_all()

    def wait_drained(self, timeout: float | None = 60.0) -> None:
        """Block until complete_chunk_count == write_chunk_count, then
        surface any latched writeback error (the POSIX close/fsync
        error-reporting contract, raised exactly once).

        Drain latency is emitted on the event stream
        (``FileDrained``) and accumulated in the stats registry's
        ``drain`` section — callers read it from ``stats()`` instead of
        timing this wait themselves.  ``timeout`` is a deadline for the
        whole wait: wakeups that find chunks still outstanding (each
        completion notifies every waiter) wait only on the remainder,
        so a storm of completions cannot extend a stuck drain forever."""
        with self._drain:
            start = self.pipeline.clock()
            outstanding = self.pipeline.outstanding
            deadline = (
                None if timeout is None else time.monotonic() + timeout
            )
            while not self.pipeline.drained:
                remaining = (
                    None if deadline is None else deadline - time.monotonic()
                )
                stuck = remaining is not None and remaining <= 0
                if stuck or not self._drain.wait(timeout=remaining):
                    raise FileStateError(
                        f"{self.path}: drain stuck "
                        f"({self.pipeline.complete_chunk_count}"
                        f"/{self.pipeline.write_chunk_count})"
                    )
            self.pipeline.note_drained(start, outstanding)
            self.pipeline.raise_latched()


class OpenFileTable:
    """Thread-safe path -> FileEntry map, sharded per tenant.

    Each entry lives in exactly one tenant partition; a flat path index
    keeps lookup O(1) regardless of how many tenants share the mount.
    The partition is fixed at first open: reopening an already-open path
    joins the existing entry (refcount bump) whatever tenant the new
    opener resolved to — one file, one pipeline, one drain accounting.
    """

    def __init__(self) -> None:
        self._index: dict[str, FileEntry] = {}
        self._shards: dict[str, dict[str, FileEntry]] = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._index)

    def lookup(self, path: str) -> Optional[FileEntry]:
        with self._lock:
            return self._index.get(path)

    def open(self, path: str, make_entry: Callable[[], FileEntry]) -> FileEntry:
        """Get-or-create the entry for ``path``; bumps the refcount.

        ``make_entry`` is called (under the table lock) only when the path
        is not already open — it should open the backend file and return a
        FileEntry; the entry's own ``tenant`` decides its partition.
        """
        with self._lock:
            entry = self._index.get(path)
            if entry is not None:
                entry.refcount += 1
                return entry
            entry = make_entry()
            self._index[path] = entry
            shard = self._shards.setdefault(entry.tenant, {})
            shard[path] = entry
            return entry

    def close(self, path: str) -> tuple[FileEntry, bool]:
        """Drop one reference; returns (entry, was_last).  The caller
        performs the drain/backend close outside the table lock."""
        with self._lock:
            entry = self._index.get(path)
            if entry is None:
                raise FileStateError(f"{path} is not open")
            entry.refcount -= 1
            last = entry.refcount == 0
            if last:
                del self._index[path]
                shard = self._shards[entry.tenant]
                del shard[path]
                if not shard:
                    del self._shards[entry.tenant]
            return entry, last

    def paths(self, tenant: str | None = None) -> list[str]:
        """Open paths — all of them, or one tenant partition's."""
        with self._lock:
            if tenant is None:
                return list(self._index)
            return list(self._shards.get(tenant, ()))

    def tenants(self) -> list[str]:
        """Tenants with at least one open file, in sorted order."""
        with self._lock:
            return sorted(self._shards)

    def outstanding(self, tenant: str | None = None) -> int:
        """Chunks still in flight — mount-wide, or one partition's drain
        backlog.  A snapshot: entries are collected under the table lock
        but their counters read without it (each read is atomic)."""
        with self._lock:
            if tenant is None:
                entries = list(self._index.values())
            else:
                entries = list(self._shards.get(tenant, {}).values())
        return sum(e.outstanding for e in entries)
