"""The threaded plane's one bound on a wait that should end.

Every wait on the threaded plane that should end — a pool acquire, a
quota-blocked put, a drain, a tier sync, a worker join — is one
``Condition.wait_for(predicate, bound())`` call, or :func:`join_all`,
and gives up loudly after :data:`STUCK_S`.  The one wait it does not
bound is an idle worker's ``WorkQueue.get``, which parks until work or
close.  Callers read ``waits.STUCK_S`` at call time, so a test can
shorten it with ``monkeypatch``.

A teardown that waits on many things — ``CRFS.unmount`` draining every
file, then joining the IO workers and the tier pump — runs them inside
:func:`one_deadline`, so the whole teardown gives up after one
:data:`STUCK_S`, not one per stuck file.  This module imports nothing
from the package, so ``core`` and ``backends`` both use it without a
cycle.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from typing import Iterator, Sequence

__all__ = ["STUCK_S", "bound", "join_all", "one_deadline"]

#: Seconds a bounded wait parks before it declares the pipeline stuck.
STUCK_S = 60.0

#: This thread's shared deadline (``deadline``), set by the outermost
#: :func:`one_deadline` only; per thread, so a teardown never shortens
#: another thread's waits.
_scope = threading.local()


@contextmanager
def one_deadline() -> Iterator[None]:
    """Every bounded wait this thread makes inside the block shares one
    deadline, :data:`STUCK_S` from entry.  A nested block keeps the
    outer deadline."""
    if getattr(_scope, "deadline", None) is not None:
        yield
        return
    _scope.deadline = time.monotonic() + STUCK_S
    try:
        yield
    finally:
        _scope.deadline = None


def bound() -> float:
    """Seconds the next wait may park: :data:`STUCK_S`, or what is left
    of the enclosing :func:`one_deadline` (0 once it has passed)."""
    deadline = getattr(_scope, "deadline", None)
    if deadline is None:
        return STUCK_S
    return max(0.0, deadline - time.monotonic())


def join_all(threads: Sequence[threading.Thread]) -> list[str]:
    """Join ``threads`` against one shared deadline (N stuck threads cost
    one bound, not N); the names of those still alive."""
    with one_deadline():
        for thread in threads:
            thread.join(bound())
    return [t.name for t in threads if t.is_alive()]
