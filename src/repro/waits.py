"""The threaded plane's one bound on a wait that should end.

Every wait on the threaded plane that should end — a pool acquire, a
quota-blocked put, a drain, a tier sync, a worker join — is one
``Condition.wait_for(predicate, STUCK_S)`` call, or :func:`join_all`,
and gives up loudly after :data:`STUCK_S`.  The one wait it does not
bound is an idle worker's ``WorkQueue.get``, which parks until work or
close.  Callers read ``waits.STUCK_S`` at call time, so a test can
shorten it with ``monkeypatch``.  This module imports nothing from the
package, so ``core`` and ``backends`` both use it without a cycle.
"""

from __future__ import annotations

import threading
import time
from typing import Sequence

__all__ = ["STUCK_S", "join_all"]

#: Seconds a bounded wait parks before it declares the pipeline stuck.
STUCK_S = 60.0


def join_all(threads: Sequence[threading.Thread]) -> list[str]:
    """Join ``threads`` against one shared deadline of :data:`STUCK_S`
    (N stuck threads cost one bound, not N); the names of those still
    alive."""
    deadline = time.monotonic() + STUCK_S
    for thread in threads:
        thread.join(max(0.0, deadline - time.monotonic()))
    return [t.name for t in threads if t.is_alive()]
