"""CRFS core — the paper's contribution, functional plane.

A real, thread-based implementation of the CRFS pipeline (Section IV of
the paper): writes are copied into fixed-size chunks from a buffer pool;
full chunks are queued on a work queue; a small pool of IO threads drains
the queue, writing chunks to the backing store; ``close()``/``fsync()``
flush the partial chunk and block until the file's outstanding chunk
writes complete.

The pipeline *state machine* — aggregation planning, drain accounting,
the writeback-error latch, and the event/stats stream — lives in the
plane-agnostic :mod:`repro.pipeline` package and is shared with the
timing-plane model (:mod:`repro.simcrfs`), so both planes provably
aggregate, drain, and count identically.
"""

from ..pipeline.planner import Fill, Seal, SealReason, WritePlanner
from .buffer_pool import BufferPool
from .chunk import Chunk
from .workqueue import WorkQueue, QueueClosed
from .mount import CRFS
from .handle import CRFSFile
from .posix import PosixShim

__all__ = [
    "Fill",
    "Seal",
    "SealReason",
    "WritePlanner",
    "BufferPool",
    "Chunk",
    "WorkQueue",
    "QueueClosed",
    "CRFS",
    "CRFSFile",
    "PosixShim",
]
