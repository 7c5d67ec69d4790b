"""Chunk: one fixed-size aggregation buffer plus its metadata tag.

The paper (Section IV-B): "Each chunk is tagged with metadata information
including target file handler, offset into the file, valid data size in
the chunk, etc."  A chunk's byte buffer is mapped once (pool init) and
reused for its whole life; only the metadata is reset between uses.

The buffer is a private anonymous mapping, not a zero-filled
``bytearray``: the kernel commits each page on the first write or
``pread_into`` that touches it, so a mount holds in memory only the
chunks it has used, not its whole pool (DESIGN.md §3k).  ``MAP_PRIVATE``
(not the shared default) keeps a forked child from sharing the pool.

The ingest copy into that buffer is one ``memcpy`` (DESIGN.md §3k):
:meth:`Chunk.append` writes through a standing ``memoryview``, and
through ``np.copyto`` — which releases the GIL — from
:data:`BULK_COPY_BYTES` up.
"""

from __future__ import annotations

import mmap
from typing import Any

import numpy as np

from ..errors import FileStateError
from ..units import KiB

__all__ = ["BULK_COPY_BYTES", "Chunk"]

#: Appends at least this long copy with the GIL released.  Measured, not
#: guessed (``table1_node`` ``epoch_s``, DESIGN.md §3k): flat from
#: 64 KiB to 1 MiB; at 8 KiB a third slower — a release shorter than a
#: GIL hand-off buys no overlap and only invites the hand-off.
BULK_COPY_BYTES = 64 * KiB


class Chunk:
    """A pooled aggregation buffer.

    Lifecycle: FREE -> (acquire) OPEN -> fills via :meth:`append` ->
    (seal) SEALED, carrying (file, offset, valid length) -> IO thread
    writes it out -> (reset) FREE again.

    :attr:`view` and :attr:`array` are the buffer's two standing
    exports, made once: every copy in or out goes through one of them,
    and while they exist the mapping cannot be closed or resized.
    """

    __slots__ = (
        "index",
        "buffer",
        "view",
        "array",
        "valid",
        "file_offset",
        "owner",
    )

    def __init__(self, index: int, size: int):
        self.index = index
        self.buffer = mmap.mmap(-1, size, flags=mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS)
        self.view = memoryview(self.buffer)
        self.array = np.frombuffer(self.buffer, np.uint8)
        self.valid = 0  # bytes of valid data ("size of valid data in the chunk")
        self.file_offset = 0  # "offset of this chunk in the original file"
        self.owner: Any = None  # "ownership identities" (the file entry)

    @property
    def size(self) -> int:
        return len(self.buffer)

    @property
    def room(self) -> int:
        """Free space after the append point."""
        return len(self.buffer) - self.valid

    def open_for(self, owner: Any, file_offset: int) -> None:
        """Attach a fresh chunk to a file at the given file offset."""
        if self.valid != 0 or self.owner is not None:
            raise FileStateError(f"chunk {self.index} is not clean")
        self.owner = owner
        self.file_offset = file_offset

    def append(self, data: bytes | memoryview, chunk_offset: int, length: int) -> None:
        """Copy ``data`` — exactly ``length`` unsigned bytes — to the
        planner-designated append point, in one ``memcpy``.

        A bulk append (:data:`BULK_COPY_BYTES` and up) runs with the GIL
        released, so two writers copy on two cores and an IO worker back
        from ``pwrite`` can recycle its buffer meanwhile; the source is
        pinned by ``np.frombuffer``'s buffer export for the duration, as
        ``os.pwrite`` pins what it writes.
        """
        start = self.valid
        if chunk_offset != start:
            raise FileStateError(
                f"append at {chunk_offset} but chunk append point is {start}"
            )
        if length > len(self.buffer) - start:
            raise FileStateError(f"append of {length} overflows chunk (room {self.room})")
        if len(data) != length:
            raise FileStateError(f"append of {length} given {len(data)} bytes")
        end = start + length
        if length < BULK_COPY_BYTES:
            self.view[start:end] = data
        else:
            np.copyto(self.array[start:end], np.frombuffer(data, np.uint8))
        self.valid = end

    def fill_external(self, length: int) -> None:
        """Declare ``length`` bytes already written into :attr:`buffer`
        by an external filler (``Backend.pread_into``).

        The zero-copy twin of :meth:`append` for the read-cache fetch
        path: the backend filled the buffer directly, so only the valid
        length advances — no second copy.  The filler reads into the
        buffer *before* :meth:`open_for`, so a failed fetch leaves the
        chunk clean (buffer contents are irrelevant to cleanliness;
        ``reset`` never scrubs them either).
        """
        if self.valid != 0:
            raise FileStateError(
                f"external fill on chunk {self.index} with {self.valid} valid bytes"
            )
        if length > len(self.buffer):
            raise FileStateError(
                f"external fill of {length} overflows chunk (size {len(self.buffer)})"
            )
        self.valid = length

    def payload(self) -> memoryview:
        """The valid bytes, zero-copy."""
        return self.view[: self.valid]

    def reset(self) -> None:
        """Return to the clean state (pool release path)."""
        self.valid = 0
        self.file_offset = 0
        self.owner = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Chunk {self.index}: {self.valid}/{self.size}B "
            f"@file+{self.file_offset} owner={self.owner!r}>"
        )
