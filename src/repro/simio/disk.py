"""Rotational disk model with a block allocator and blktrace-style capture.

Reproduces the mechanism behind paper Figure 10: concurrent writers whose
files allocate blocks interleaved produce scattered disk accesses (seeks);
CRFS's large chunk writes allocate contiguously and stream.

The disk is an active server draining a request queue under a pluggable
scheduler:

* ``fifo`` — requests service in arrival order (the default; what the
  calibrated experiments use);
* ``elevator`` — C-LOOK: the head sweeps ascending block order, wrapping
  to the lowest pending request at the top.  An ablation
  (the ``ablations`` experiment's elevator study) shows request reordering
  recovers some sequentiality for the native path but cannot match
  CRFS's contiguous allocation.

Service time for an access is ``seek(distance) + bytes/bandwidth``; the
trace records (time, block, size, stream) exactly like the paper's
blktrace plots (address vs time).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from ..errors import SimulationError
from ..sim import SimEvent, Simulator
from .params import HardwareParams

__all__ = ["RotationalDisk", "BlockTraceEntry", "ExtentAllocator"]


@dataclass(frozen=True)
class BlockTraceEntry:
    """One block-layer access, as blktrace would log it."""

    time: float
    block: int  # starting block address
    nblocks: int
    kind: str  # 'W' or 'R'
    stream: str  # which file/object this access belongs to


class ExtentAllocator:
    """Bump allocator handing out contiguous block extents.

    Concurrently-growing files calling :meth:`alloc` alternately receive
    interleaved extents — the fragmentation that makes native checkpoint
    writeback seek-heavy (Fig 10a).  One large allocation (a CRFS chunk)
    is a single contiguous extent (Fig 10b).
    """

    def __init__(self, block_size: int, start_block: int = 2048):
        self.block_size = block_size
        self._next = start_block

    def alloc(self, nbytes: int) -> int:
        """Allocate ceil(nbytes/block) contiguous blocks; returns the
        starting block address."""
        nblocks = max(1, -(-nbytes // self.block_size))
        block = self._next
        self._next += nblocks
        return block

    @property
    def next_block(self) -> int:
        return self._next


class _Request:
    __slots__ = ("block", "nblocks", "nbytes", "kind", "stream", "event", "arrival")

    def __init__(self, block, nblocks, nbytes, kind, stream, event, arrival):
        self.block = block
        self.nblocks = nblocks
        self.nbytes = nbytes
        self.kind = kind
        self.stream = stream
        self.event = event
        self.arrival = arrival


class RotationalDisk:
    """Single-head rotational disk with a request queue and scheduler."""

    def __init__(
        self,
        sim: Simulator,
        hw: HardwareParams,
        name: str = "disk",
        bandwidth: float | None = None,
        seek_time: float | None = None,
        scheduler: str = "fifo",
    ):
        if scheduler not in ("fifo", "elevator"):
            raise SimulationError(f"unknown disk scheduler {scheduler!r}")
        self.sim = sim
        self.hw = hw
        self.name = name
        self.bandwidth = bandwidth if bandwidth is not None else hw.disk_bandwidth
        self.seek_time = seek_time if seek_time is not None else hw.disk_seek_time
        self.scheduler = scheduler
        #: When set, seeks are priced by *stream switching* instead of
        #: block distance: continuing the same stream is sequential, any
        #: switch costs a full seek.  Models object stores (Lustre OSTs)
        #: whose per-object layout is contiguous, so sequentiality is
        #: decided by arrival interleaving rather than block addresses.
        self.stream_switch_seek = False
        self._queue: list[_Request] = []
        self._busy = False
        self._head_block = 0
        self._head_stream: Optional[str] = None
        self.trace: list[BlockTraceEntry] = []
        self.capture_trace = True
        # -- stats
        self.total_bytes = 0
        self.total_ios = 0
        self.seeks = 0
        self.sequential_ios = 0
        self.busy_time = 0.0
        self.total_wait = 0.0
        self.max_queue = 0

    # -- seek pricing ---------------------------------------------------------

    def seek_cost(self, from_block: int, to_block: int) -> float:
        """Zero for contiguous continuation; otherwise min_seek..seek_time
        scaled by sqrt of LBA distance (classic seek curve)."""
        if to_block == from_block:
            return 0.0
        distance_bytes = abs(to_block - from_block) * self.hw.disk_block
        span = self.hw.disk_short_seek_span
        frac = min(1.0, (distance_bytes / span) ** 0.5)
        return self.hw.disk_min_seek + (self.seek_time - self.hw.disk_min_seek) * frac

    # -- I/O ------------------------------------------------------------------

    def io(self, block: int, nbytes: int, kind: str = "W", stream: str = "?"):
        """Submit an access at ``block`` of ``nbytes``; yieldable.

        Returns a :class:`~repro.sim.SimEvent` that fires when the
        request completes under the configured scheduler.
        """
        nblocks = max(1, -(-nbytes // self.hw.disk_block))
        event = SimEvent(self.sim)
        req = _Request(block, nblocks, nbytes, kind, stream, event, self.sim.now)
        self._queue.append(req)
        self.max_queue = max(self.max_queue, len(self._queue))
        if not self._busy:
            self._start_next()
        return event

    def _pick(self) -> _Request:
        if self.scheduler == "fifo" or len(self._queue) == 1:
            return self._queue.pop(0)
        # C-LOOK elevator: the nearest request at or above the head,
        # wrapping to the lowest pending request when none are above.
        above = [r for r in self._queue if r.block >= self._head_block]
        pool = above if above else self._queue
        chosen = min(pool, key=lambda r: r.block)
        self._queue.remove(chosen)
        return chosen

    def _start_next(self) -> None:
        if not self._queue:
            self._busy = False
            return
        self._busy = True
        req = self._pick()
        if self.stream_switch_seek:
            seek = 0.0 if req.stream == self._head_stream else self.seek_time
        else:
            seek = self.seek_cost(self._head_block, req.block)
        if seek == 0.0:
            self.sequential_ios += 1
        else:
            self.seeks += 1
        self._head_block = req.block + req.nblocks
        self._head_stream = req.stream
        self.total_bytes += req.nbytes
        self.total_ios += 1
        self.total_wait += self.sim.now - req.arrival
        if self.capture_trace:
            self.trace.append(
                BlockTraceEntry(
                    time=self.sim.now, block=req.block, nblocks=req.nblocks,
                    kind=req.kind, stream=req.stream,
                )
            )
        service = seek + req.nbytes / self.bandwidth
        self.busy_time += service
        self.sim.schedule(service, self._complete, req)

    def _complete(self, req: _Request) -> None:
        req.event.succeed()
        self._start_next()

    # -- introspection -----------------------------------------------------------

    @property
    def queue_len(self) -> int:
        return len(self._queue)

    def utilization(self, elapsed: float) -> float:
        return self.busy_time / elapsed if elapsed > 0 else 0.0

    def trace_blocks(self) -> list[tuple[float, int]]:
        """(time, block) pairs for plotting Fig 10-style address scatter."""
        return [(t.time, t.block) for t in self.trace]
