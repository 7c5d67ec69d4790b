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
drained.  An entry records the tenant its file was opened for; the
per-tenant counters live in ``stats()["tenants"]``, not in the table.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Optional

from .. import waits
from ..errors import FileStateError
from ..pipeline import PipelineKernel, Seal
from ..pipeline.tenancy import DEFAULT_TENANT
from .chunk import Chunk

__all__ = ["FileEntry", "OpenFileTable"]


class FileEntry:
    """Per-open-file metadata: the shared pipeline state machine, built
    by the mount's ``kernel``, plus the threaded plane's chunk buffer
    and drain condition."""

    def __init__(
        self,
        path: str,
        backend_handle: Any,
        kernel: PipelineKernel,
        tenant: str = DEFAULT_TENANT,
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
        self.pipeline = kernel.file(path, lock=self._lock, tenant=tenant)

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

    def wait_drained(self) -> None:
        """Block until complete_chunk_count == write_chunk_count, then
        surface any latched writeback error (the POSIX close/fsync
        error-reporting contract, raised exactly once).

        Drain latency is emitted on the event stream
        (``FileDrained``) and accumulated in the stats registry's
        ``drain`` section — callers read it from ``stats()`` instead of
        timing this wait themselves."""
        with self._drain:
            start = self.pipeline.clock()
            outstanding = self.pipeline.outstanding
            if not self._drain.wait_for(lambda: self.pipeline.drained, waits.bound()):
                raise FileStateError(
                    f"{self.path}: drain stuck "
                    f"({self.pipeline.complete_chunk_count}"
                    f"/{self.pipeline.write_chunk_count})"
                )
            self.pipeline.note_drained(start, outstanding)
            self.pipeline.raise_latched()


class OpenFileTable:
    """Thread-safe path -> FileEntry map.

    Reopening an already-open path joins the existing entry (refcount
    bump) whatever tenant the new opener resolved to — one file, one
    pipeline, one drain accounting.
    """

    def __init__(self) -> None:
        self._index: dict[str, FileEntry] = {}
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
        FileEntry.
        """
        with self._lock:
            entry = self._index.get(path)
            if entry is not None:
                entry.refcount += 1
                return entry
            entry = self._index[path] = make_entry()
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
            return entry, last

    def paths(self) -> list[str]:
        """Open paths, in the order they were first opened."""
        with self._lock:
            return list(self._index)
