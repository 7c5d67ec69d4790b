"""Pure write-aggregation state machine.

This is CRFS's essential idea stripped of all runtime concerns: given a
stream of ``write(offset, length)`` calls against one file, decide how
bytes coalesce into fixed-size chunks and when chunks *seal* (become
eligible for asynchronous writeback).

The paper exploits that checkpoint data is written sequentially: "All
subsequent writes to the target file will be coalesced into this chunk
until the chunk becomes full."  The planner implements exactly that, plus
the two correctness cases a real filesystem must handle:

* a write that lands past or before the current append point (a *gap* or
  *rewind*) seals the partial chunk so data for disjoint regions is never
  mixed into one chunk;
* a write larger than the remaining chunk space spans chunks, sealing
  each as it fills.

Both the threaded runtime (:mod:`repro.core.mount`) and the DES model
(:mod:`repro.simcrfs.model`) drive this one class — via the shared
:class:`~repro.pipeline.kernel.FilePipeline` — so a single test can
assert they aggregate identically.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Union

from ..errors import ConfigError

__all__ = ["SealReason", "Fill", "Seal", "WritePlanner", "PlanOp"]


class SealReason(enum.Enum):
    """Why a chunk was handed to the work queue."""

    FULL = "full"  # chunk filled to chunk_size (the common checkpoint case)
    GAP = "gap"  # non-contiguous write forced an early seal
    FLUSH = "flush"  # close()/fsync() flushed a partial chunk


@dataclass(frozen=True)
class Fill:
    """Copy ``length`` bytes of the current write into the open chunk.

    ``file_offset`` is where this piece belongs in the file;
    ``chunk_offset`` is the append point inside the open chunk;
    ``data_offset`` is the position within the caller's buffer.
    """

    file_offset: int
    chunk_offset: int
    data_offset: int
    length: int


@dataclass(frozen=True)
class Seal:
    """The open chunk is complete: write ``length`` bytes at
    ``file_offset`` to the backing file, then recycle the chunk."""

    file_offset: int
    length: int
    reason: SealReason


PlanOp = Union[Fill, Seal]


class WritePlanner:
    """Aggregation bookkeeping for a single open file.

    State: the open chunk's position in the file (``chunk_file_offset``)
    and fill level (``chunk_fill``), plus the expected append point and
    the end of every byte written so far (:attr:`size`).
    The planner never touches bytes — it emits :class:`Fill`/:class:`Seal`
    ops for the runtime to execute against real buffers (functional plane)
    or to cost out (timing plane).
    """

    def __init__(self, chunk_size: int):
        if chunk_size <= 0:
            raise ConfigError(f"chunk_size must be positive, got {chunk_size}")
        self.chunk_size = chunk_size
        self.chunk_file_offset = 0  # file position of the open chunk
        self.chunk_fill = 0  # valid bytes in the open chunk
        #: The highest append point left behind by a jump (a gap, a
        #: rewind, an external write): past it no byte was written
        #: unless the append point itself is further on.
        self.high_water = 0
        self._before = (0, 0)  # (chunk_file_offset, chunk_fill) before a plan
        #: Chunks sealed so far: ``FilePipeline.clean`` compares it with
        #: the completions (``stats()`` counts writes, bytes and seals).
        self.sealed_chunks = 0

    # -- derived ------------------------------------------------------------

    @property
    def append_point(self) -> int:
        """The file offset the next sequential write is expected at."""
        return self.chunk_file_offset + self.chunk_fill

    @property
    def size(self) -> int:
        """The end of the file's bytes as written through this planner —
        sealed and in flight, or still in the open chunk — whichever
        write came last (``O_APPEND`` and ``SEEK_END`` land here)."""
        return max(self.high_water, self.chunk_file_offset + self.chunk_fill)

    def _mark(self) -> None:
        """Record the append point before it may jump."""
        self._before = (self.chunk_file_offset, self.chunk_fill)
        self.high_water = max(self.high_water, self.append_point)

    # -- operations -----------------------------------------------------------

    def write(self, offset: int, length: int) -> list[PlanOp]:
        """Plan one ``write(offset, length)``; returns ordered Fill/Seal ops."""
        if offset < 0:
            raise ValueError(f"negative offset: {offset}")
        if length < 0:
            raise ValueError(f"negative length: {length}")
        if length == 0:
            return []
        self._mark()
        ops: list[PlanOp] = []
        if self.chunk_fill > 0 and offset != self.append_point:
            # Out-of-order write: seal what we have so chunks stay contiguous.
            ops.append(self._seal(SealReason.GAP))
        if self.chunk_fill == 0:
            self.chunk_file_offset = offset
        data_offset = 0
        remaining = length
        while remaining > 0:
            room = self.chunk_size - self.chunk_fill
            take = min(room, remaining)
            ops.append(
                Fill(
                    file_offset=offset + data_offset,
                    chunk_offset=self.chunk_fill,
                    data_offset=data_offset,
                    length=take,
                )
            )
            self.chunk_fill += take
            data_offset += take
            remaining -= take
            if self.chunk_fill == self.chunk_size:
                ops.append(self._seal(SealReason.FULL))
                self.chunk_file_offset = offset + data_offset
        return ops

    def flush(self) -> list[PlanOp]:
        """Seal the partial chunk (close()/fsync() path).  No-op if empty."""
        if self.chunk_fill == 0:
            return []
        return [self._seal(SealReason.FLUSH)]

    def note_external_write(self, offset: int, length: int) -> list[PlanOp]:
        """Record a write that bypassed aggregation (write-through mode).

        Returns the seal ops needed *before* the external write may be
        issued (the partial chunk must go first to preserve issue order),
        and repositions the append point past the external range.
        """
        if offset < 0 or length < 0:
            raise ValueError("negative offset/length")
        self._mark()
        ops: list[PlanOp] = []
        if self.chunk_fill > 0:
            ops.append(self._seal(SealReason.FLUSH))
        self.chunk_file_offset = offset + length
        self.chunk_fill = 0
        return ops

    def rewind(self, ops: list[PlanOp], done: int) -> None:
        """The runtime executed ``ops[:done]`` of the plan :meth:`write`
        last returned, and the op at ``done`` raised having changed
        nothing: put the planner where the runtime is, so the next write
        or flush plans against what exists.  The position moves first:
        the lock-free ``FilePipeline.clean`` must never see a partial
        chunk as sealed."""
        if done == 0:
            self.chunk_file_offset, self.chunk_fill = self._before
        elif type(last := ops[done - 1]) is Seal:
            self.chunk_file_offset, self.chunk_fill = last.file_offset + last.length, 0
        else:
            self.chunk_file_offset = last.file_offset - last.chunk_offset
            self.chunk_fill = last.chunk_offset + last.length
        self.sealed_chunks -= sum(type(op) is Seal for op in ops[done:])

    def _seal(self, reason: SealReason) -> Seal:
        seal = Seal(
            file_offset=self.chunk_file_offset,
            length=self.chunk_fill,
            reason=reason,
        )
        # Counted before ``chunk_fill`` empties below: the lock-free
        # ``FilePipeline.clean`` must never see neither.
        self.sealed_chunks += 1
        self.chunk_file_offset += self.chunk_fill
        self.chunk_fill = 0
        return seal
