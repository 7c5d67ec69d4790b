"""Per-write trace records.

The paper: "We extended the BLCR library to record the information for
all write operations, including number of writes, size of a write and
time cost for each write."  A :class:`WriteTrace` is that log.

:class:`TraceObserver` fills one from the unified pipeline event stream:
subscribe it to a mount's :class:`~repro.pipeline.kernel.PipelineKernel`
(either plane) and every ``WriteObserved`` event becomes a
:class:`WriteRecord` — no manual ``trace.add`` calls around the write
loop.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional

import numpy as np

from ..pipeline import PipelineObserver, WriteObserved

__all__ = ["WriteRecord", "WriteTrace", "TraceObserver"]


@dataclass(frozen=True)
class WriteRecord:
    """One write(): who, how big, when, how long."""

    rank: int
    size: int
    start: float
    duration: float

    @property
    def end(self) -> float:
        return self.start + self.duration


class WriteTrace:
    """An append-only collection of write records with analysis views."""

    def __init__(self, records: Iterable[WriteRecord] = ()):
        self.records: list[WriteRecord] = list(records)

    def add(self, rank: int, size: int, start: float, duration: float) -> None:
        self.records.append(
            WriteRecord(rank=rank, size=size, start=start, duration=duration)
        )

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[WriteRecord]:
        return iter(self.records)

    # -- views -----------------------------------------------------------

    def ranks(self) -> list[int]:
        return sorted({r.rank for r in self.records})

    def for_rank(self, rank: int) -> list[WriteRecord]:
        return [r for r in self.records if r.rank == rank]

    def sizes(self) -> np.ndarray:
        return np.asarray([r.size for r in self.records], dtype=np.int64)

    def durations(self) -> np.ndarray:
        return np.asarray([r.duration for r in self.records], dtype=float)

    @property
    def total_bytes(self) -> int:
        return int(self.sizes().sum()) if self.records else 0

    @property
    def total_time(self) -> float:
        return float(self.durations().sum()) if self.records else 0.0

    def merge(self, other: "WriteTrace") -> "WriteTrace":
        return WriteTrace(self.records + other.records)


_RANK_RE = re.compile(r"rank(\d+)")


def _rank_from_path(path: str) -> int:
    """Default rank extraction: ``.../rank7.img`` -> 7, else 0."""
    m = _RANK_RE.search(path)
    return int(m.group(1)) if m else 0


class TraceObserver(PipelineObserver):
    """Builds a :class:`WriteTrace` from ``WriteObserved`` events.

    ``rank_of`` maps a file path to the writing rank; the default parses
    ``rank<N>`` out of the path (the checkpoint-file naming convention
    used throughout the experiments).
    """

    types = (WriteObserved,)

    def __init__(
        self,
        trace: Optional[WriteTrace] = None,
        rank_of: Optional[Callable[[str], int]] = None,
    ):
        self.trace = trace if trace is not None else WriteTrace()
        self.rank_of = rank_of if rank_of is not None else _rank_from_path

    def on_event(self, event: WriteObserved) -> None:
        self.trace.add(self.rank_of(event.path), event.length, event.start, event.duration)
