"""Writeback resilience: retry/backoff policy and the backend circuit breaker.

The paper's IO-thread pool (Section IV-B) assumes the backing filesystem
always completes ``write()``; real checkpoint backends (NFS, Lustre,
burst buffers) stall and flake routinely.  This module adds the one
place that failure policy is encoded for both planes:

* :class:`RetryPolicy` — how many attempts a chunk writeback gets,
  exponential backoff between them (with deterministic jitter derived
  from :func:`repro.util.rng.rng_for`, so identical workloads back off
  identically run-to-run and plane-to-plane).
* :class:`BackendHealth` — a per-backend consecutive-failure tracker.
  After ``threshold`` consecutive failed attempts it trips a circuit
  breaker (``BackendDegraded`` on the unified stream); the mount then
  serves writes synchronously (write-through, bypassing the buffer
  pool) until any probe write succeeds, which closes the breaker
  (``BackendRecovered``) and restores asynchronous aggregation.  A
  tiered mount gives each staging tier a breaker of its own, built
  with that ``tier``: its records carry the tier, and the stats
  registry counts them in the tier's slice instead of the mount's.

The attempt loop that drives a backend op under these two objects is
:func:`repro.pipeline.writeback.attempts` — one definition, run by both
planes, so the resilience counters in ``stats()`` stay cross-plane
comparable.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..errors import ConfigError
from ..util.rng import rng_for
from .events import BackendDegraded, BackendRecovered

if TYPE_CHECKING:  # pragma: no cover
    from .kernel import PipelineKernel

__all__ = ["RetryPolicy", "BackendHealth"]

#: Each backoff is this many times the one before it (up to the cap).
BACKOFF_FACTOR = 2.0
#: Root seed of the deterministic jitter streams.
JITTER_SEED = 2011


@dataclass(frozen=True)
class RetryPolicy:
    """Retry/backoff schedule for one backend write attempt chain.

    ``attempts`` counts the first try: 1 means fail-fast (the pre-retry
    behaviour), N allows N-1 retries.  The delay before attempt k+1 is
    ``min(backoff * BACKOFF_FACTOR**(k-1), backoff_max)`` scaled by a
    deterministic jitter factor in ``[1-jitter, 1+jitter]`` derived
    from ``(JITTER_SEED, path, file_offset, attempt)`` — no shared
    mutable RNG state, so concurrent workers and the simulation plane
    draw identical schedules for identical chunks.
    """

    attempts: int = 1
    backoff: float = 0.002
    backoff_max: float = 0.1
    jitter: float = 0.1

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ConfigError(f"attempts must be >= 1, got {self.attempts}")
        if self.backoff < 0:
            raise ConfigError(f"backoff must be >= 0, got {self.backoff}")
        if self.backoff_max < 0:
            raise ConfigError(f"backoff_max must be >= 0, got {self.backoff_max}")
        if not 0.0 <= self.jitter <= 1.0:
            raise ConfigError(f"jitter must be in [0, 1], got {self.jitter}")

    def should_retry(self, attempt: int) -> bool:
        """Whether a failure of 1-based ``attempt`` gets another try."""
        return attempt < self.attempts

    def delay(self, attempt: int, path: str, file_offset: int) -> float:
        """Backoff before the attempt after 1-based ``attempt`` failed."""
        base = min(self.backoff * BACKOFF_FACTOR ** (attempt - 1), self.backoff_max)
        if base <= 0 or self.jitter <= 0:
            return base
        rng = rng_for(JITTER_SEED, f"retry/{path}/{file_offset}/{attempt}")
        return base * float(rng.uniform(1.0 - self.jitter, 1.0 + self.jitter))


class BackendHealth:
    """Consecutive-failure tracker + circuit breaker for one backend.

    State machine (``threshold <= 0`` disables the breaker entirely —
    the tracker still counts, but never degrades)::

        CLOSED (async aggregation)
           │  record_failure() x threshold, consecutive
           ▼  emit BackendDegraded
        OPEN (synchronous write-through; every write is a probe)
           │  record_success()
           ▼  emit BackendRecovered(downtime)
        CLOSED

    ``kernel`` is the mount's :class:`~repro.pipeline.kernel.
    PipelineKernel`, whose stream and clock the records go out on;
    ``tier`` is the tier the breaker guards — 0, the mount's backend,
    or a staging tier's index — stamped on every record it emits.

    Thread-safe: IO workers and degraded application writers record
    outcomes concurrently.  Events are emitted outside the lock.
    """

    def __init__(self, kernel: "PipelineKernel", threshold: int = 0, tier: int = 0):
        if threshold < 0:
            raise ConfigError(f"threshold must be >= 0, got {threshold}")
        self.threshold = threshold
        self.tier = tier
        self._emit = kernel.emit
        self._clock = kernel.clock
        self._lock = threading.Lock()
        self._consecutive_failures = 0
        #: Whether the breaker is open (mount is in write-through).
        #: Changed only under the lock; read on every ``write()`` without
        #: it — a plain attribute read is atomic, and the lock could not
        #: keep the answer fresh past its release anyway.
        self.degraded = False
        self._degraded_since = 0.0
        self.failures = 0
        self.successes = 0

    @property
    def consecutive_failures(self) -> int:
        with self._lock:
            return self._consecutive_failures

    def record_failure(self) -> bool:
        """One backend write attempt failed; returns True if the breaker
        tripped on this failure."""
        now = self._clock()
        with self._lock:
            self.failures += 1
            self._consecutive_failures += 1
            tripped = (
                self.threshold > 0
                and not self.degraded
                and self._consecutive_failures >= self.threshold
            )
            if tripped:
                self.degraded = True
                self._degraded_since = now
                consecutive = self._consecutive_failures
        if tripped:
            self._emit(BackendDegraded(consecutive_failures=consecutive, t=now, tier=self.tier))
        return tripped

    def record_success(self) -> bool:
        """One backend write attempt succeeded; returns True if this was
        the probe that closed the breaker."""
        now = self._clock()
        with self._lock:
            self.successes += 1
            self._consecutive_failures = 0
            recovered = self.degraded
            if recovered:
                self.degraded = False
                downtime = now - self._degraded_since
        if recovered:
            self._emit(BackendRecovered(downtime=downtime, t=now, tier=self.tier))
        return recovered
