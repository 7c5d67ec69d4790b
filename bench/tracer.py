"""Span tracer for the per-layer run.

Everything is recorded from here, outside ``src/``: for the duration of
one round the public methods at each layer boundary are replaced, as
class attributes, by timing wrappers, and restored afterwards.  A span
is (id, name, start, end, parent, thread); a layer's *self* time is its
span minus the part its child spans cover.  Aggregates (calls, total,
self) are kept for every span of the timed epochs; the raw spans of the
first timed epoch are kept too and written out when the round ends.

The chunk lifecycle between the layers (sealed -> dequeued -> written)
crosses threads, so no wrapper can see it; one ``PipelineObserver`` on
``kernel.subscribe`` pairs ``ChunkSealed`` with ``ChunkWritten``.
"""

from __future__ import annotations

import functools
import threading
import time
from array import array
from collections import defaultdict
from typing import Any, Callable

from repro import CRFSFile, PipelineKernel, PipelineObserver
from repro.backends.base import Backend
from repro.checkpoint.sizedist import WriteSizeDistribution
from repro.core.buffer_pool import BufferPool
from repro.core.chunk import Chunk
from repro.core.filetable import FileEntry
from repro.core.readcache import ReadCache
from repro.core.workqueue import WorkQueue
from repro.pipeline import ChunkSealed, ChunkWritten, FilePipeline

__all__ = ["Tracer", "BACKEND_OPS"]

#: span name -> (class, method).  The name is ``<module>.<what>``;
#: the layer is the module.
_BOUNDARIES: tuple[tuple[str, type, str], ...] = (
    ("core.handle.write", CRFSFile, "write"),
    ("core.handle.pread", CRFSFile, "pread"),
    ("core.handle.fsync", CRFSFile, "fsync"),
    ("core.handle.close", CRFSFile, "close"),
    ("pipeline.planner.plan", FilePipeline, "plan_write"),
    ("pipeline.kernel.note_write", FilePipeline, "note_write"),
    ("pipeline.kernel.emit", PipelineKernel, "emit"),
    ("core.chunk.append", Chunk, "append"),
    ("core.buffer_pool.acquire", BufferPool, "acquire"),
    ("core.workqueue.put", WorkQueue, "put"),
    ("core.filetable.wait_drained", FileEntry, "wait_drained"),
    ("core.readcache.read", ReadCache, "read"),
    ("checkpoint.sizedist.plan", WriteSizeDistribution, "plan"),
)

#: Backend data-plane methods, wrapped on the concrete backend class
#: under the instrumented wrapper (spans ``backends.<op>``).
BACKEND_OPS = ("pwrite", "pwritev", "pread", "pread_into", "fsync")

#: Spans whose individual durations are kept (for a p99).
_KEEP_DURATIONS = "core.handle.write"

#: Raw spans kept per thread; a span is kept only if its parent was, so
#: every recorded parent id resolves.
_SPANS_PER_THREAD = 100_000


class _ThreadState:
    __slots__ = ("index", "thread", "stack", "layers", "spans", "durations", "next_id")

    def __init__(self, index: int, thread: str):
        self.index = index
        self.thread = thread
        #: open spans, innermost last: [id, seconds covered by children, recorded?]
        self.stack: list[list[Any]] = []
        self.next_id = index << 32
        self.clear()

    def clear(self) -> None:
        #: name -> [calls, total seconds, self seconds]
        self.layers: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.durations = array("d")


class _ChunkLifecycle(PipelineObserver):
    """Pairs each ``ChunkSealed`` with its ``ChunkWritten``: queue
    residency is seal -> worker start, IO-worker busy time is the
    write's duration.  Called under pipeline locks: appends only."""

    def __init__(self) -> None:
        self._sealed: dict[tuple[str, int], float] = {}
        #: (sealed t, write start, write duration)
        self.chunks: list[tuple[float, float, float]] = []

    def on_event(self, event: Any) -> None:
        kind = type(event)
        if kind is ChunkSealed:
            self._sealed[(event.path, event.file_offset)] = event.t
        elif kind is ChunkWritten:
            sealed = self._sealed.pop((event.path, event.file_offset), event.start)
            self.chunks.append((sealed, event.start, event.duration))


class Tracer:
    """Install with :meth:`install`, always undo with :meth:`uninstall`."""

    def __init__(self) -> None:
        self.observer = _ChunkLifecycle()
        #: While true, raw spans are kept as well as aggregates.
        self.recording = False
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._lock = threading.Lock()
        #: (class, attribute, original or None when it was inherited)
        self._saved: list[tuple[type, str, Any]] = []

    # -- wrapping -----------------------------------------------------------

    def install(self, backend_class: type[Backend] | None = None) -> None:
        """Wrap the layer boundaries (and ``backend_class``'s data ops).

        Must run before the mount is built: the mount binds
        ``kernel.emit`` once, at construction."""
        targets = list(_BOUNDARIES)
        if backend_class is not None:
            targets += [(f"backends.{op}", backend_class, op) for op in BACKEND_OPS]
        for name, cls, attr in targets:
            self._saved.append((cls, attr, cls.__dict__.get(attr)))
            setattr(cls, attr, self._wrap(name, getattr(cls, attr)))

    def uninstall(self) -> None:
        while self._saved:
            cls, attr, original = self._saved.pop()
            if original is None:
                delattr(cls, attr)
            else:
                setattr(cls, attr, original)

    def _state(self) -> _ThreadState:
        with self._lock:
            state = _ThreadState(len(self._states) + 1, threading.current_thread().name)
            self._states.append(state)
        self._local.state = state
        return state

    def _wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        local = self._local
        clock = time.perf_counter
        keep_duration = name == _KEEP_DURATIONS

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            try:
                state = local.state
            except AttributeError:
                state = self._state()
            stack = state.stack
            state.next_id += 1
            if not self.recording:
                record = False
            elif stack:
                record = stack[-1][2]
            else:
                record = len(state.spans) < _SPANS_PER_THREAD
            frame = [state.next_id, 0.0, record]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                layer = state.layers[name]
                layer[0] += 1
                layer[1] += duration
                layer[2] += max(0.0, duration - frame[1])
                if keep_duration:
                    state.durations.append(duration)
                if record:
                    parent = stack[-1][0] if stack else 0
                    state.spans.append((frame[0], name, start, end, parent))

        return traced

    # -- results ------------------------------------------------------------

    def reset(self) -> None:
        """Forget everything so far (set-up and warm-up).  Call while no
        client thread is inside the mount."""
        with self._lock:
            for state in self._states:
                state.clear()
        self.observer.chunks.clear()

    def layers(self) -> dict[str, dict[str, float]]:
        """name -> {calls, total_s, self_s}, summed over threads."""
        total: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        with self._lock:
            for state in self._states:
                for name, (calls, seconds, own) in state.layers.items():
                    layer = total[name]
                    layer[0] += calls
                    layer[1] += seconds
                    layer[2] += own
        return {
            name: {"calls": int(calls), "total_s": seconds, "self_s": own}
            for name, (calls, seconds, own) in sorted(total.items())
        }

    def durations(self) -> list[float]:
        """Every kept per-call duration (``core.handle.write``)."""
        with self._lock:
            return [d for state in self._states for d in state.durations]

    def spans(self) -> dict[str, Any]:
        """The raw spans kept while :attr:`recording` was on.

        ``spans`` rows are ``[id, name, start, end, parent, thread]``
        (``parent`` 0 = a root; times are ``time.perf_counter`` seconds);
        ``chunks`` rows are ``[sealed, write_start, write_end]`` for
        every chunk written in the same window."""
        with self._lock:
            states = list(self._states)
        rows = [
            [sid, name, start, end, parent, state.index]
            for state in states
            for sid, name, start, end, parent in state.spans
        ]
        rows.sort(key=lambda row: row[2])
        window = (rows[0][2], max(row[3] for row in rows)) if rows else (0.0, 0.0)
        return {
            "threads": {str(state.index): state.thread for state in states},
            "spans": rows,
            "chunks": [
                [sealed, start, start + duration]
                for sealed, start, duration in self.observer.chunks
                if window[0] <= sealed <= window[1]
            ],
        }
