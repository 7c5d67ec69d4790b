"""CRFSFile: a file-object-style handle onto a CRFS mount.

Provides both cursor I/O (``write``/``read``/``seek``/``tell``, enough to
hand to code expecting a binary file object) and positional I/O
(``pwrite``/``pread``, what a checkpoint writer actually uses).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from ..errors import FileStateError
from ..pipeline.writeback import flush, run

if TYPE_CHECKING:  # pragma: no cover
    from .filetable import FileEntry
    from .mount import CRFS

__all__ = ["CRFSFile"]


class CRFSFile:
    """One open reference to a CRFS file.

    Multiple handles may share a path (the open-file table refcounts);
    each handle keeps its own cursor.  Closing flushes and drains per the
    paper's close() semantics.
    """

    def __init__(self, fs: "CRFS", entry: "FileEntry"):
        self._fs = fs
        self._entry = entry
        self._pos = 0
        self._closed = False

    # -- state ---------------------------------------------------------------

    @property
    def path(self) -> str:
        return self._entry.path

    @property
    def closed(self) -> bool:
        return self._closed

    def _closed_error(self) -> FileStateError:
        return FileStateError(f"{self._entry.path}: handle is closed")

    def _check_open(self) -> None:
        if self._closed:
            raise self._closed_error()

    # The per-call methods (write, pwrite, read, pread) test ``_closed``
    # inline, and the mount tests ``_mounted`` inline: each helper call
    # is a Python frame, and a fitting write is three frames in all.

    # -- positional I/O ---------------------------------------------------------

    def pwrite(self, data: bytes | bytearray | memoryview, offset: int) -> int:
        """Write at an explicit offset (does not move the cursor)."""
        if self._closed:
            raise self._closed_error()
        return self._fs._write(self._entry, data, offset) - offset

    def pread(self, size: int, offset: int) -> bytes:
        """Read at an explicit offset (does not move the cursor).

        Passthrough by default; with ``read_cache_chunks`` configured
        the mount serves it from the per-file readahead cache with
        read-your-writes semantics (see :meth:`CRFS._read`)."""
        if self._closed:
            raise self._closed_error()
        return self._fs._read(self._entry, size, offset)

    # -- cursor I/O ----------------------------------------------------------

    def write(self, data: bytes | bytearray | memoryview) -> int:
        if self._closed:
            raise self._closed_error()
        pos = self._pos
        self._pos = end = self._fs._write(self._entry, data, pos)
        return end - pos

    def append(self, data: bytes | bytearray | memoryview) -> int:
        """Write at the end of the file and leave the cursor after it
        (``O_APPEND``).  The end is found under the file's write lock,
        so appends through any number of handles never overlap."""
        if self._closed:
            raise self._closed_error()
        self._pos = self._fs._write(self._entry, data, None)
        return memoryview(data).nbytes

    def read(self, size: int = -1) -> bytes:
        if self._closed:
            raise self._closed_error()
        if size < 0:
            size = max(0, self.size() - self._pos)
        out = self._fs._read(self._entry, size, self._pos)
        self._pos += len(out)
        return out

    def seek(self, offset: int, whence: int = 0) -> int:
        self._check_open()
        if whence == 0:
            new = offset
        elif whence == 1:
            new = self._pos + offset
        elif whence == 2:
            new = self.size() + offset
        else:
            raise ValueError(f"bad whence: {whence}")
        if new < 0:
            raise ValueError("negative seek position")
        self._pos = new
        return new

    def tell(self) -> int:
        return self._pos

    def size(self) -> int:
        """Logical file size: the backend's, or the end of every byte
        written through the mount, whichever is larger (buffered and
        in-flight bytes count)."""
        self._check_open()
        return self._fs.file_size(self._entry)

    # -- durability ---------------------------------------------------------

    def flush(self) -> None:
        """Seal the partial chunk (asynchronous; does not wait)."""
        self._check_open()
        with self._entry.write_lock:
            run(flush(self._fs, self._entry))

    def fsync(self) -> None:
        """Flush, drain, and fsync the backing file (Section IV-D2)."""
        self._check_open()
        self._fs._fsync(self._entry)

    def close(self) -> None:
        """Flush + drain + release (Section IV-C).  Idempotent."""
        if self._closed:
            return
        self._closed = True
        self._fs._close_entry(self._entry)

    # -- protocol sugar ---------------------------------------------------------

    def __enter__(self) -> "CRFSFile":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def writable(self) -> bool:
        return not self._closed

    def readable(self) -> bool:
        return not self._closed

    def seekable(self) -> bool:
        return True

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = "closed" if self._closed else f"pos={self._pos}"
        return f"<CRFSFile {self._entry.path} {state}>"
