"""Fault injection for the timing plane.

:class:`FaultySimFilesystem` wraps any :class:`SimFilesystem` and applies
the same :class:`~repro.backends.faulty.FaultRule` schedules the
functional plane's :class:`~repro.backends.faulty.FaultyBackend` applies
— via the shared :class:`~repro.backends.faulty.FaultSchedule`, so one
rule list produces the identical fault sequence on both planes (op
names match the functional backend's: a simulated chunk write counts as
one ``pwrite``, a simulated read as one ``pread``).

Delays become virtual-clock timeouts instead of real sleeps; errors are
raised into the driving process, where :class:`~repro.simcrfs.model.SimCRFS`'s
resilient writeback loop catches them exactly like the real IO pool does.
"""

from __future__ import annotations

from typing import Iterable

from ..backends.faulty import FaultRule, FaultSchedule
from .fsbase import SimFile, SimFilesystem

__all__ = ["FaultySimFilesystem"]


class FaultySimFilesystem(SimFilesystem):
    """Delegating wrapper: fault-check (in virtual time), then pass through."""

    name = "faulty"

    def __init__(
        self,
        inner: SimFilesystem,
        rules: Iterable[FaultRule] | None = None,
        schedule: FaultSchedule | None = None,
    ):
        # No super().__init__: sim/hw/rng are the inner filesystem's, and
        # the op totals are read-through properties below.
        self.inner = inner
        self.sim = inner.sim
        self.hw = inner.hw
        self.rng = inner.rng
        self.schedule = schedule if schedule is not None else FaultSchedule(rules)
        #: (append position, length) of every single-extent write that
        #: passed the rules — the threaded plane's view of a store
        #: recorded behind its ``FaultyBackend``.
        self.writes: list[tuple[int, int]] = []

    # -- schedule passthrough (same surface as FaultyBackend) ------------------

    @property
    def rules(self) -> list[FaultRule]:
        return self.schedule.rules

    @property
    def faults_fired(self) -> int:
        return self.schedule.faults_fired

    def add_rule(self, rule: FaultRule) -> None:
        self.schedule.add_rule(rule)

    def _check(self, op: str, path: str):
        """Generator: virtual-time delay, then raise if a rule fires."""
        delay, error = self.schedule.decide(op, path)
        if delay:
            yield self.sim.timeout(delay)
        if error is not None:
            raise error

    # -- op totals are the inner filesystem's --------------------------------

    @property
    def total_writes(self) -> int:
        return self.inner.total_writes

    @property
    def total_bytes(self) -> int:
        return self.inner.total_bytes

    @property
    def total_reads(self) -> int:
        return self.inner.total_reads

    # -- SimFilesystem interface ----------------------------------------------

    def open(self, path: str) -> SimFile:
        return self.inner.open(path)

    def write(self, f: SimFile, nbytes: int):
        yield from self._check("pwrite", f.path)
        self.writes.append((f.pos, nbytes))
        yield from self.inner.write(f, nbytes)

    def writev(self, f: SimFile, sizes: "list[int]"):
        # One "pwritev" count per vectored op — the batch is one backend
        # op for fault purposes, matching FaultyBackend.pwritev.
        yield from self._check("pwritev", f.path)
        yield from self.inner.writev(f, sizes)

    def _write(self, f: SimFile, nbytes: int):  # pragma: no cover - write()
        yield from self.inner._write(f, nbytes)  # is fully delegated above

    def read(self, f: SimFile, nbytes: int):
        yield from self._check("pread", f.path)
        yield from self.inner.read(f, nbytes)

    def close(self, f: SimFile):
        yield from self._check("close", f.path)
        yield from self.inner.close(f)

    def fsync(self, f: SimFile):
        yield from self._check("fsync", f.path)
        yield from self.inner.fsync(f)
