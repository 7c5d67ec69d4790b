"""Backend interface: the slice of POSIX a stackable filesystem needs.

Offsets are explicit (pwrite/pread) because CRFS's IO threads write
chunks positionally and concurrently; there is no shared file cursor.
Handles are opaque; each backend chooses its own representation.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Sequence

__all__ = ["Backend", "BackendStat", "byte_view"]


@dataclass(frozen=True)
class BackendStat:
    """Minimal stat result (what checkpoint tooling actually consults)."""

    size: int
    is_dir: bool
    nlink: int = 1


class Backend(ABC):
    """Abstract backing store.

    Methods mirror the operations CRFS routes down (Section IV): data ops
    via handles, namespace ops via paths, everything else passthrough.
    Implementations must be thread-safe: CRFS's IO threads call
    :meth:`pwrite` concurrently with application threads calling
    namespace ops.
    """

    name = "backend"
    #: Whether a read is a copy out of memory the host already holds (a
    #: RAM store, the page cache of a local file), so moving the bytes
    #: is its whole cost.  The threaded read cache then lets the reader
    #: that consumes a chunk fill it itself; over a backend with latency
    #: of its own (the default) the IO workers fetch the window ahead.
    reads_from_memory = False

    # -- data plane ---------------------------------------------------------

    @abstractmethod
    def open(self, path: str, create: bool = True, truncate: bool = False) -> Any:
        """Open (optionally create/truncate) a file; returns a handle."""

    @abstractmethod
    def pwrite(self, handle: Any, data: bytes | memoryview, offset: int) -> int:
        """Write ``data`` at ``offset``; returns bytes written (all of it).

        Aliasing contract: the backend consumes ``data`` before
        returning — the caller may mutate (or recycle) the underlying
        buffer the moment the call returns.  Backends must therefore
        either copy the bytes out synchronously or write them to their
        store within the call; they must never retain a live view of the
        caller's buffer.  (The CRFS mount leans on this: pooled chunk
        buffers are recycled immediately after drain, and the POSIX shim
        extends the same promise to application ``pwrite`` callers —
        the ingest copy into the chunk buffer is the snapshot point.)
        """

    def pwritev(
        self, handle: Any, views: Sequence[bytes | memoryview], offset: int
    ) -> int:
        """Write ``views`` back-to-back starting at ``offset``; returns
        the total bytes written (all of them).

        The coalesced-writeback capability: one vectored call per batch
        of contiguous chunks.  The default loops over :meth:`pwrite`, so
        every backend supports it; backends with a real gather primitive
        (``os.pwritev``, a single buffer splice) override it to make the
        batch one backend operation.
        """
        total = 0
        for view in views:
            total += self.pwrite(handle, view, offset + total)
        return total

    @abstractmethod
    def pread(self, handle: Any, size: int, offset: int) -> bytes:
        """Read up to ``size`` bytes at ``offset`` (short read at EOF).

        Returning ``bytes`` makes one materialization at the backend
        boundary a property of this signature; callers that own a
        destination buffer (the read cache filling a pooled chunk) use
        :meth:`pread_into` instead and skip it.
        """

    def pread_into(self, handle: Any, buf: memoryview | bytearray, offset: int) -> int:
        """Read up to ``len(buf)`` bytes at ``offset`` into ``buf``;
        returns the byte count (short read at EOF).

        The readinto-style path for callers with their own destination
        (pooled cache buffers).  This default routes through
        :meth:`pread` and splices — it still pays the backend-boundary
        copy, but in one place.  Backends with direct access to their
        store (:class:`~repro.backends.mem.MemBackend` splicing from the
        node, :class:`~repro.backends.localdir.LocalDirBackend` via
        ``os.preadv``) override it to fill ``buf`` without the
        intermediate ``bytes``.
        """
        out = memoryview(buf)
        data = self.pread(handle, len(out), offset)
        n = len(data)
        out[:n] = data
        return n

    @abstractmethod
    def fsync(self, handle: Any) -> None:
        """Flush the file's data to stable storage."""

    @abstractmethod
    def close(self, handle: Any) -> None:
        """Release the handle."""

    @abstractmethod
    def file_size(self, handle: Any) -> int:
        """Current size of the open file."""

    # -- namespace plane ------------------------------------------------------

    @abstractmethod
    def exists(self, path: str) -> bool: ...

    @abstractmethod
    def stat(self, path: str) -> BackendStat: ...

    @abstractmethod
    def unlink(self, path: str) -> None: ...

    @abstractmethod
    def mkdir(self, path: str) -> None: ...

    @abstractmethod
    def rmdir(self, path: str) -> None: ...

    @abstractmethod
    def listdir(self, path: str) -> list[str]: ...

    @abstractmethod
    def rename(self, old: str, new: str) -> None: ...

    @abstractmethod
    def truncate(self, path: str, size: int) -> None: ...


def byte_view(data: Any) -> memoryview:
    """``data`` as a flat view of unsigned bytes, sharing its memory.

    The data path copies through ``memoryview`` assignment (one
    ``memcpy``, no temporary), which — unlike the ``bytearray`` slice
    assignment it replaced — insists that both sides have the same item
    format.  So whatever a caller hands ``write()`` or ``pwrite()``
    (``array("d")``, a signed or N-d NumPy shard, a ``ctypes`` array, a
    ``"c"``-format view) is cast here, at the boundary.  Raises
    ``TypeError`` for a buffer that is not C-contiguous.
    """
    view = data if isinstance(data, memoryview) else memoryview(data)
    if view.format != "B" or view.ndim != 1:
        # An empty N-d view is the one thing cast() refuses.
        view = view.cast("B") if view.nbytes else memoryview(b"")
    return view


def normalize_path(path: str) -> str:
    """Canonical form: absolute, no '.', no '..', no duplicate slashes.

    Shared by backends and the CRFS mount so the open-file hash table and
    the backend agree on keys.
    """
    parts: list[str] = []
    for part in path.split("/"):
        if part in ("", "."):
            continue
        if part == "..":
            if parts:
                parts.pop()
            continue
        parts.append(part)
    return "/" + "/".join(parts)


def split_path(path: str) -> tuple[str, str]:
    """(parent, name) of a normalized path; root has parent '/' name ''."""
    norm = normalize_path(path)
    if norm == "/":
        return "/", ""
    parent, _, name = norm.rpartition("/")
    return (parent or "/", name)
