"""Chunk: one fixed-size aggregation buffer plus its metadata tag.

The paper (Section IV-B): "Each chunk is tagged with metadata information
including target file handler, offset into the file, valid data size in
the chunk, etc."  A chunk's byte buffer is allocated once (pool init) and
reused for its whole life; only the metadata is reset between uses.
"""

from __future__ import annotations

from typing import Any, Optional

from ..errors import FileStateError
from ..pipeline.planner import SealReason

__all__ = ["Chunk"]


class Chunk:
    """A pooled aggregation buffer.

    Lifecycle: FREE -> (acquire) OPEN -> fills via :meth:`append` ->
    (seal) SEALED, carrying (file, offset, valid length) -> IO thread
    writes it out -> (reset) FREE again.
    """

    __slots__ = ("index", "buffer", "valid", "file_offset", "owner", "seal_reason")

    def __init__(self, index: int, size: int):
        self.index = index
        self.buffer = bytearray(size)
        self.valid = 0  # bytes of valid data ("size of valid data in the chunk")
        self.file_offset = 0  # "offset of this chunk in the original file"
        self.owner: Any = None  # "ownership identities" (the file entry)
        self.seal_reason: Optional[SealReason] = None

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
        self.seal_reason = None

    def append(self, data: bytes | memoryview, chunk_offset: int, length: int) -> None:
        """Copy ``length`` bytes at the planner-designated append point."""
        if chunk_offset != self.valid:
            raise FileStateError(
                f"append at {chunk_offset} but chunk append point is {self.valid}"
            )
        if length > self.room:
            raise FileStateError(f"append of {length} overflows chunk (room {self.room})")
        self.buffer[self.valid : self.valid + length] = data[:length]
        self.valid += length

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

    def seal(self, reason: SealReason) -> None:
        self.seal_reason = reason

    def payload(self) -> memoryview:
        """The valid bytes, zero-copy."""
        return memoryview(self.buffer)[: self.valid]

    def reset(self) -> None:
        """Return to the clean state (pool release path)."""
        self.valid = 0
        self.file_offset = 0
        self.owner = None
        self.seal_reason = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"<Chunk {self.index}: {self.valid}/{self.size}B "
            f"@file+{self.file_offset} owner={self.owner!r}>"
        )
