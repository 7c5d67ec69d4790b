"""Fault sweep: writeback resilience under injected backend faults.

Beyond the paper's artifacts: the paper's IO-thread pool assumes the
backing filesystem never fails a ``write()``; this experiment measures
what the resilience layer (retry/backoff + circuit breaker, see
``pipeline/resilience.py``) and the staging tiers' own breakers buy
when it does.  It reports goodput (fraction of the checkpoint that
landed in the backing store), retries, latched errors, breaker trips
and the recovery downtime.

The sweep is one table of crossplane arms (:func:`arms`), one per cell
of two sweeps — fault mode × retry budget on the backend, and deep-tier
fault × retry budget under tiered staging — and the crossplane players
run each on both planes.  A cell whose every byte should land writes
its checkpoint in one ``write()``, fsyncs and reads it all back (the
threaded player checks each byte); a tier cell's fsync reaches through
the deep tier.  A cell where a chunk may fail for good writes each
chunk to a file of its own instead, so no later write races that
failure to the file's fail-fast latch.  The rows are read off the two
snapshots, and a check passes only if it holds on both planes.
"""

from __future__ import annotations

from dataclasses import replace

from ..backends import FaultRule
from ..backends.faulty import FaultSchedule
from ..config import CRFSConfig, RetryPolicy
from ..units import KiB
from ..util.tables import TextTable
from .base import Check, ExperimentResult
from .common import DEFAULT_SEED
from .crossplane import (
    COMPARED_FIELDS, Arm, Snapshot, mismatches, play_sim, play_threaded, raised, schema
)

PAPER = {
    "narrative": "resilient writeback under backend faults "
    "(beyond the paper: its testbed never fails a write)"
}

CHUNK = 64 * KiB
#: One IO thread and one pump thread keep every fault schedule in seal
#: order on both planes.  Threshold 2: the outage (2 failing ops) trips
#: the breaker exactly when every attempt inside it has failed.
CONFIG = CRFSConfig(chunk_size=CHUNK, pool_size=4 * CHUNK, io_threads=1, breaker_threshold=2)
#: Fast backoff (microseconds of real sleep on the threaded plane).
RETRY = RetryPolicy(backoff=1e-4, backoff_max=1e-3)
ATTEMPTS = (1, 4)
EIO = OSError("EIO")
FIELDS = COMPARED_FIELDS + ("pool.acquires", "queue.puts", "errors", "chunks", "backend_writes")


def checkpoint_bytes(fast: bool) -> int:
    """Whole chunks plus a trailing partial one."""
    return (8 if fast else 24) * CHUNK + CHUNK // 2


def script(nbytes: int, path: str = "/rank0.img", read: bool = False) -> tuple:
    """One ``write()`` of ``nbytes`` and a close; ``read``: fsync, then
    read it all back (a passthrough read does not flush)."""
    steps = [("open", path), ("write", path, nbytes)]
    if read:
        steps += [("fsync", path), ("seek", path, 0), ("read", path, nbytes)]
    return (*steps, ("close", path))


def claims(mode: str, attempts: int, total: int) -> tuple:
    """What a cell must show, as ``(what, predicate)`` pairs over either
    plane's snapshot."""
    nchunks = -(-total // CHUNK)
    image = [(off, min(CHUNK, total - off)) for off in range(0, total, CHUNK)]

    def res(s: Snapshot, key: str) -> int:
        return s["resilience"][key]

    def goodput(s: Snapshot) -> float:
        return (s["bytes_out"] + s["write_through_bytes"]) / total

    def deep(s: Snapshot, key: str) -> int:
        return s["tiers"]["per_tier"]["1"][key]

    clean = (
        "no-fault cells are clean: every byte lands and reads back, nothing "
        "retried or latched",
        lambda s: goodput(s) == 1.0 and not any(s["resilience"].values()) and not s["errors"],
    )
    exhausted = (
        "with retries exhausted each failed chunk latches its file's error, "
        "and close() surfaces it and still releases the file",
        lambda s: res(s, "errors_latched") == len(raised(s)) == (nchunks + 1) // 2
        and set(raised(s)) == {"close"}
        and s["open_files"] == 0,
    )
    recovered = (
        "retries ride out transient faults: every chunk retried once, nothing "
        "latched, every byte reads back as written",
        lambda s: res(s, "chunks_retried") == nchunks
        and res(s, "errors_latched") == 0
        and goodput(s) == 1.0
        and not s["errors"],
    )
    flaky = ("probabilistic faults exercise the retry path", lambda s: res(s, "chunks_retried") > 0)
    probed = (
        "without retries the outage latches, trips the breaker, and a degraded "
        "write-through probe restores async mode",
        lambda s: res(s, "errors_latched") == 2
        and raised(s) == ["close", "close"]
        and res(s, "breaker_trips") == res(s, "breaker_recoveries") == 1
        and res(s, "degraded_writes") >= 1,
    )
    outage = (
        "a bounded outage with retries trips the breaker and recovers: nothing "
        "latched, downtime > 0, goodput 1.0",
        lambda s: res(s, "errors_latched") == 0
        and res(s, "breaker_trips") == res(s, "breaker_recoveries") == 1
        and s["downtime"][0] > 0
        and goodput(s) == 1.0
        and not s["errors"],
    )
    attribution = (
        "breaker attribution stays on the faulty tier: mount-level resilience "
        "counters never move, and only a dead deep tier trips its breaker",
        lambda s: not any(s["resilience"].values())
        and deep(s, "breaker_trips") == (mode == "tier_dead"),
    )
    migrated = (
        "per-tier retries ride out transient deep faults: nothing strands and "
        "every extent of the image lands on the deep tier once",
        lambda s: deep(s, "chunks_stranded") == 0
        and deep(s, "migrate_retries") == nchunks
        and sorted(s["backend_writes"]) == image
        and not s["errors"],
    )
    dead = (
        "a dead deep tier strands every extent at tier 0: fsync surfaces it, "
        "tier 0 reads back the full image, and the mount never writes through",
        lambda s: deep(s, "chunks_stranded") == nchunks
        and s["backend_writes"] == []
        and raised(s) == ["fsync"]
        and s["write_through_bytes"] == 0,
    )
    table = {
        ("none", 1): (clean,),
        ("none", 4): (clean,),
        ("transient", 1): (exhausted,),
        ("transient", 4): (recovered,),
        ("flaky", 4): (flaky,),
        ("outage", 1): (probed,),
        ("outage", 4): (outage,),
        ("tier_transient", 1): (attribution,),
        ("tier_transient", 4): (attribution, migrated),
        ("tier_dead", 1): (attribution, dead),
        ("tier_dead", 4): (attribution, dead),
    }
    return table.get((mode, attempts), ())


def arms(seed: int = DEFAULT_SEED, fast: bool = True) -> dict[str, Arm]:
    """Every cell, by name: ``<fault>_x<attempts>``."""
    total = checkpoint_bytes(fast)
    faults = {
        "none": (),
        # every chunk write fails exactly once, then its retry succeeds
        "transient": (FaultRule("pwrite", period=2, error=EIO),),
        "flaky": (FaultRule("pwrite", p=0.3, seed=seed, error=EIO),),
        # ops 1..2 fail, then the backend heals: a bounded outage
        "outage": (FaultRule("pwrite", until=2, every=True, error=EIO),),
        # Deep-tier faults hit migrations only.  Every odd deep write
        # fails: with retries each migration rides it out; without, odd
        # extents strand and even ones land.
        "tier_transient": (FaultRule("pwrite", period=2, error=EIO),),
        # the deep store never comes back: everything strands at tier 0
        "tier_dead": (FaultRule("pwrite", every=True, error=EIO),),
    }
    table = []
    for mode, rules in faults.items():
        tiered = mode.startswith("tier_")
        # A seeded schedule may exhaust a chunk's retries at some seed.
        promised = all(rule.p is None for rule in rules)
        for attempts in ATTEMPTS:
            # The free-running pump's queue-depth gauge is a race.
            drop = ("tiers.per_tier.*.pump_queue_max",) if tiered else ()
            if tiered and attempts == 1:
                # The timing plane's files are append streams: an extent
                # landing after a stranded one is recorded at the append
                # position, not at its offset.
                drop += ("backend_writes",)
            if tiered or (promised and (attempts > 1 or not rules)):
                # Every byte lands (a tier cell's at tier 0); a strand
                # fails the fsync once.
                steps = script(total, read=True)
                failing = int(tiered and (attempts == 1 or mode == "tier_dead"))
            else:
                # A chunk may fail for good and latch its file, and a later
                # write to that file would race the latch.  So each chunk
                # is a file of its own, closed before the next is written:
                # the outage's first chunk latches, its second trips the
                # breaker, and the third file's write is the degraded
                # probe.  A file whose every attempt fails raises once, at
                # its close (or, as a probe, at its write).
                sizes = [CHUNK] * (total // CHUNK) + [total % CHUNK]
                steps = sum((script(n, f"/rank{i}.img") for i, n in enumerate(sizes)), ())
                schedule = FaultSchedule(rules)
                failing = sum(
                    all(schedule.decide("pwrite")[1] for _ in range(attempts)) for _ in sizes
                )
            table.append(
                Arm(
                    f"{mode}_x{attempts}",
                    CONFIG.with_(retry=replace(RETRY, attempts=attempts)),
                    (steps,),
                    fields=FIELDS,
                    drop=drop,
                    rules=rules,
                    store=("null", "null") if tiered else ("null",),
                    faulty_tier=1 if tiered else 0,
                    expect_errors=failing,
                    checks=claims(mode, attempts, total),
                )
            )
    return {arm.name: arm for arm in table}


def row(arm: Arm, s: Snapshot, total: int) -> dict:
    """A cell's table row, read off one plane's snapshot."""
    res = s["resilience"]
    if len(arm.store) == 1:
        return {
            "goodput": (s["bytes_out"] + s["write_through_bytes"]) / total,
            "retried": res["chunks_retried"],
            "latched": res["errors_latched"],
            "trips": res["breaker_trips"],
            "recoveries": res["breaker_recoveries"],
            "downtime_ms": s["downtime"][0] * 1e3 if s["downtime"] else None,
        }
    deep = s["tiers"]["per_tier"]["1"]
    return {
        "deep_goodput": deep["bytes_staged"] / total,
        "migrate_retries": deep["migrate_retries"],
        "stranded": deep["chunks_stranded"],
        "tier_trips": deep["breaker_trips"],
        "mount_retried": res["chunks_retried"],
        "sync_errors": raised(s).count("fsync"),
    }


def run(seed: int = DEFAULT_SEED, fast: bool = False) -> ExperimentResult:
    total = checkpoint_bytes(fast)
    modes = TextTable(
        ["plane", "fault mode", "attempts", "goodput", "retried", "latched", "trips",
         "recoveries", "recovery downtime (ms)"],
        title="Fault mode x retry budget (goodput = landed/attempted bytes)",
    )
    tiers = TextTable(
        ["plane", "deep-tier fault", "attempts", "deep goodput", "migrate retries",
         "stranded", "tier-1 trips", "mount retried", "sync errors"],
        title="Deep-tier fault x retry budget (tiered staging: a strand means "
        "durable at tier 0, never mount write-through)",
    )
    rows: list[dict] = []
    diverged: dict[str, list[str]] = {}
    held: dict[str, list[bool]] = {}
    for arm in arms(seed, fast).values():
        mode, attempts = arm.name.rsplit("_x", 1)
        func, timing = play_threaded(arm), play_sim(arm, seed)
        bad = mismatches(arm, func, timing)
        if bad or schema(func) != schema(timing):
            diverged[arm.name] = bad or ["schema"]
        for what, ok in arm.checks:
            held.setdefault(what, []).extend(bool(ok(s)) for s in (func, timing))
        for plane, s in (("functional", func), ("timing", timing)):
            fields = row(arm, s, total)
            rows.append({"plane": plane, "mode": mode, "attempts": int(attempts), **fields})
            cells = ["-" if v is None else f"{v:.3f}" if isinstance(v, float) else str(v)
                     for v in fields.values()]
            (modes if len(arm.store) == 1 else tiers).add_row([plane, mode, attempts, *cells])
    checks = [
        Check(
            "every cell: compared stats() fields, steps that raised and IO issued "
            "identical across planes",
            not diverged,
            f"diverged: {diverged}" if diverged else f"{len(rows) // 2} cells match",
        ),
        *(Check(f"{what} (both planes)", all(oks)) for what, oks in held.items()),
    ]
    return ExperimentResult(
        name="faultsweep",
        title="Writeback resilience: fault rate x retry budget",
        table=modes.render() + "\n\n" + tiers.render(),
        measured={"rows": rows},
        paper=PAPER,
        checks=checks,
    )


if __name__ == "__main__":  # pragma: no cover
    print(run().render())
