"""Tenant storm isolation (repository artifact, not a paper figure).

The multi-tenant mount's contract: one misbehaving tenant — a huge
burst of small chunks — must not blow up well-behaved tenants' drain
latency.  Three arms on the timing plane, identical victim workloads:

* **solo** — the two victims checkpoint alone (their fair-share
  baseline; the storm tenant is configured but idle);
* **fair** — the storm writer runs alongside, weighted DRR + pool
  reservations + queue quota on;
* **one tenant** — the same storm on a mount with no tenant specs:
  every file is ``default``, so the one DRR sub-queue is the paper's
  FIFO work queue and the pool one shared region.

The drain-latency proxy is each victim's mean flush+drain time, read
from its file's ``FileDrained`` records — by path, since on the
one-tenant mount every victim shares the ``default`` tenant's
counters.  It is the time a checkpointing job spends blocked at fsync
while its sealed chunks clear the shared work queue.  With tenant
specs the victims must stay within 25% of their solo baseline; without
them the same storm must degrade them at least 2x — the ablation that
shows the specs are load-bearing, not decorative.

The backend is the null filesystem with a disk-like 1 ms per-chunk
service cost, so queue *order* (the thing DRR controls) dominates
every latency, not backend noise.
"""

from __future__ import annotations

from typing import Any

from ..config import CRFSConfig, TenantSpec
from ..pipeline.events import ChunkWritten, EventLog, FileDrained
from ..sim import SharedBandwidth, Simulator
from ..simcrfs import SimCRFS
from ..simio.nullfs import NullSimFilesystem
from ..simio.params import DEFAULT_HW
from ..units import KiB
from ..util.rng import rng_for
from ..util.tables import TextTable
from .base import Check, ExperimentResult
from .common import DEFAULT_SEED

PAPER = {
    "narrative": "a shared staging area with many writers needs QoS to "
    "keep one tenant from starving the rest (burst-buffer literature; "
    "repo artifact — the paper's CRFS is single-job)"
}

#: Per-chunk backend service time: large against the memcpy/handoff
#: costs, so drain latency is a pure function of queue service order.
_CHUNK_COST = 1e-3

_CHUNK = 64 * KiB
#: Victim checkpoint burst, in chunks — covered by the pool reservation
#: so a victim never competes for the shared pool region.
_BURST_CHUNKS = 6
#: Checkpoint rounds per victim (write burst, fsync, repeat).
_ROUNDS = 4
#: The storm's image: large enough to keep its backlog topped up for
#: the victims' whole run in every arm (bounded so the sim terminates).
_STORM_CHUNKS = 512

_VICTIMS = ("alice", "bob")
_STORM_PATH = "/storm/burst.img"


def _path(victim: str) -> str:
    return f"/{victim[0]}/ckpt.img"


def _storm_config(tenants: bool) -> CRFSConfig:
    """32-chunk pool: with ``tenants``, 6 reserved per victim, 20
    shared, and the storm's queue quota (16) is the binding limit on its
    backlog; without, one tenant and one shared pool."""
    config = CRFSConfig(chunk_size=_CHUNK, pool_size=32 * _CHUNK, io_threads=1)
    if not tenants:
        return config
    return config.with_(
        tenants=(
            TenantSpec("storm", weight=1, queue_quota=16, patterns=("/storm/*",)),
            TenantSpec("alice", weight=8, pool_reserved=_BURST_CHUNKS,
                       patterns=("/a/*",)),
            TenantSpec("bob", weight=8, pool_reserved=_BURST_CHUNKS,
                       patterns=("/b/*",)),
        ),
    )


def _run_arm(mode: str, seed: int, fast: bool) -> tuple[dict[str, Any], EventLog]:
    """One arm; returns the mount's stats() snapshot and its events.

    ``mode``: "solo" (victims only, tenant specs), "fair" (storm +
    victims, tenant specs), "one_tenant" (storm + victims, no specs).
    """
    sim = Simulator()
    hw = DEFAULT_HW
    membus = SharedBandwidth(sim, hw.membus_bandwidth)
    backend = NullSimFilesystem(
        sim, hw, rng_for(seed, f"tenant_storm/{mode}"), op_cost=_CHUNK_COST
    )
    log = EventLog()
    crfs = SimCRFS(
        sim, hw, _storm_config(tenants=mode != "one_tenant"), backend, membus,
        observers=[log],
    )
    rounds = 3 if fast else _ROUNDS

    def victim(name: str):
        f = crfs.open(_path(name))
        for _ in range(rounds):
            for _ in range(_BURST_CHUNKS):
                yield from crfs.write(f, _CHUNK)
            yield from crfs.fsync(f)
        yield from crfs.close(f)

    def storm():
        f = crfs.open(_STORM_PATH)
        for _ in range(_STORM_CHUNKS):
            yield from crfs.write(f, _CHUNK)
        yield from crfs.close(f)

    victims = [sim.spawn(victim(name), name=name) for name in _VICTIMS]
    if mode != "solo":
        sim.spawn(storm(), name="storm")
    # Victims finishing ends the arm; a still-writing storm is abandoned
    # mid-flight (its numbers up to that point are in the snapshot).
    sim.run_until_complete(victims)
    return crfs.stats(), log


def _drain_proxy(log: EventLog) -> float:
    """Worst victim mean drain: the isolation figure of merit."""
    drains: dict[str, list[float]] = {_path(name): [] for name in _VICTIMS}
    for event in log.of(FileDrained):
        if event.path in drains:
            drains[event.path].append(event.duration)
    return max(sum(d) / max(1, len(d)) for d in drains.values())


def _storm_served(log: EventLog) -> int:
    return sum(1 for e in log.of(ChunkWritten) if e.path == _STORM_PATH)


def run(seed: int = DEFAULT_SEED, fast: bool = False) -> ExperimentResult:
    solo, solo_log = _run_arm("solo", seed, fast)
    fair, fair_log = _run_arm("fair", seed, fast)
    _, one_log = _run_arm("one_tenant", seed, fast)

    base = _drain_proxy(solo_log)
    fair_ratio = _drain_proxy(fair_log) / base
    one_tenant_ratio = _drain_proxy(one_log) / base

    table = TextTable(
        ["arm", "victim mean drain (ms)", "vs solo", "storm chunks served"],
        title="Tenant storm: victims' drain latency under a misbehaving tenant",
    )
    for name, log, ratio in (
        ("solo (victims alone)", solo_log, 1.0),
        ("fair (weighted DRR + quotas)", fair_log, fair_ratio),
        ("one tenant (no specs: FIFO)", one_log, one_tenant_ratio),
    ):
        table.add_row(
            [
                name,
                f"{_drain_proxy(log) * 1e3:.2f}",
                f"{ratio:.2f}x",
                str(_storm_served(log)),
            ]
        )

    checks = [
        Check(
            "fairness bounds the victims' degradation (<= 1.25x solo)",
            fair_ratio <= 1.25,
            f"fair arm {fair_ratio:.2f}x solo",
        ),
        Check(
            "without tenant specs the storm demonstrably blows up (>= 2x solo)",
            one_tenant_ratio >= 2.0,
            f"one-tenant arm {one_tenant_ratio:.2f}x solo",
        ),
        Check(
            "fair scheduling is work-conserving (the storm still drains)",
            _storm_served(fair_log) > 0,
            f"storm served {_storm_served(fair_log)} chunks in the fair arm",
        ),
        Check(
            "admission control engaged (storm blocked at its queue quota)",
            fair["queue"]["admission_waits"] > 0
            and fair["tenants"]["storm"]["admission_waits"] > 0,
            f"{fair['tenants']['storm']['admission_waits']} storm admission "
            "wait(s) in the fair arm",
        ),
        Check(
            "per-tenant drain-latency histogram is populated "
            "(p99 >= p50 > 0 for every victim, in every tenanted arm)",
            all(
                arm["tenants"][v]["drain_p99"]
                >= arm["tenants"][v]["drain_p50"]
                > 0.0
                for arm in (solo, fair)
                for v in _VICTIMS
            ),
            "fair arm: "
            + ", ".join(
                f"{v} p50 {fair['tenants'][v]['drain_p50'] * 1e3:.2f}ms "
                f"p99 {fair['tenants'][v]['drain_p99'] * 1e3:.2f}ms"
                for v in _VICTIMS
            ),
        ),
        Check(
            "victims never waited on the buffer pool (reservations held)",
            all(
                fair["tenants"][v]["pool_max_in_use"] <= _BURST_CHUNKS
                for v in _VICTIMS
            ),
            "victim pool usage stayed within the reserved region",
        ),
    ]
    return ExperimentResult(
        name="tenant_storm",
        title="Tenant storm: multi-tenant isolation and the no-specs ablation",
        table=table.render(),
        measured={
            "solo_drain_s": base,
            "fair_ratio": fair_ratio,
            "one_tenant_ratio": one_tenant_ratio,
            "fair_tenants": fair["tenants"],
        },
        paper=PAPER,
        checks=checks,
    )


if __name__ == "__main__":  # pragma: no cover
    print(run().render())
