"""The ``stats()`` schema, pinned: every section's keys, in order, and
their idle values, on both planes — for a default mount and for a
two-tenant mount over two tiers — and the isolation of a returned
snapshot from the registry behind it."""

import json

import pytest

from repro.backends import MemBackend, TieredBackend
from repro.config import CRFSConfig, TenantSpec
from repro.core import CRFS
from repro.sim import SharedBandwidth, Simulator
from repro.simcrfs import SimCRFS
from repro.simio.nullfs import NullSimFilesystem
from repro.simio.params import DEFAULT_HW
from repro.simio.tiered import TieredSimFilesystem
from repro.units import KiB
from repro.util.rng import rng_for

CONFIG = CRFSConfig(chunk_size=64 * KiB, pool_size=256 * KiB, io_threads=1)
TENANTED = CONFIG.with_(tenants=(TenantSpec("a", pool_reserved=1), TenantSpec("b")))

TENANT = {
    "writes": 0, "bytes_in": 0, "reads": 0, "bytes_read": 0,
    "chunks_queued": 0, "chunks_written": 0, "bytes_out": 0, "io_errors": 0,
    "queue_max_depth": 0, "pool_max_in_use": 0, "admission_waits": 0,
    "drain_waits": 0, "drain_waits_blocked": 0, "drain_time_total": 0.0,
    "drain_time_max": 0.0, "drain_p50": 0.0, "drain_p99": 0.0,
}

TIER = {
    "bytes_staged": 0, "chunks_staged": 0, "bytes_migrated": 0,
    "chunks_migrated": 0, "bytes_stranded": 0, "chunks_stranded": 0,
    "migrate_errors": 0, "migrate_retries": 0, "pump_queue_max": 0,
    "breaker_trips": 0, "breaker_recoveries": 0, "syncs": 0, "bytes_resident": 0,
}


def idle(tenants, tiers):
    """The snapshot of a mount that did nothing."""
    return {
        "writes": 0, "bytes_in": 0, "write_through_bytes": 0,
        "chunks_written": 0, "bytes_out": 0, "io_errors": 0,
        "seals": {"full": 0, "gap": 0, "flush": 0},
        "open_files": 0,
        "pool": {"chunks": 4, "chunk_size": 64 * KiB, "acquires": 0, "waits": 0,
                 "max_in_use": 0, "releases": 0},
        "queue": {"puts": 0, "max_depth": 0, "admission_waits": 0},
        "tenants": {name: dict(TENANT) for name in tenants},
        "batch": {"batches": 0, "chunks": 0, "bytes": 0, "errors": 0, "broken": 0,
                  "per_batch": {}},
        "drain": {"waits": 0, "waits_blocked": 0, "time_total": 0.0, "time_max": 0.0,
                  "shutdown_drains": 0, "shutdown_time_total": 0.0},
        "read": {"reads": 0, "bytes_read": 0, "hits": 0, "misses": 0, "prefetched": 0,
                 "prefetch_dropped": 0, "prefetch_wasted": 0, "window_grown": 0,
                 "window_shrunk": 0, "current_window": 0},
        "tiers": {"levels": tiers, "fsync_tier": tiers - 1, "sync_through": -1,
                  "per_tier": {str(k): dict(TIER) for k in range(tiers)}},
        "mem": {"bytes_copied": 0, "copies": 0,
                "by_site": {site: {"copies": 0, "bytes": 0}
                            for site in ("ingest", "read_boundary", "fetch")}},
        "delta": {"generations": 0, "dirty_chunks": 0, "clean_chunks": 0,
                  "bytes_written": 0, "logical_bytes": 0, "manifest_writes": 0,
                  "manifest_bytes": 0, "restores": 0, "reassembly_reads": 0,
                  "reassembly_bytes": 0},
        "resilience": {"chunks_retried": 0, "errors_latched": 0, "breaker_trips": 0,
                       "breaker_recoveries": 0, "degraded_writes": 0,
                       "degraded_bytes": 0},
    }


def threaded(config, tiers):
    backend = TieredBackend([MemBackend() for _ in range(tiers)]) if tiers else MemBackend()
    fs = CRFS(backend, config)
    fs.mount()
    return fs, fs.unmount


def timing(config, tiers):
    sim, hw = Simulator(), DEFAULT_HW
    stores = [NullSimFilesystem(sim, hw, rng_for(1, f"schema/{k}")) for k in range(max(tiers, 1))]
    backend = TieredSimFilesystem(stores) if tiers else stores[0]
    crfs = SimCRFS(sim, hw, config, backend, SharedBandwidth(sim, hw.membus_bandwidth))
    return crfs, crfs.shutdown


PLANES = {"functional": threaded, "timing": timing}
MOUNTS = {
    "default": (CONFIG, 0, ("default",)),
    "two_tenants_two_tiers": (TENANTED, 2, ("a", "b", "default")),
}


@pytest.fixture(params=sorted(PLANES))
def plane(request):
    return PLANES[request.param]


@pytest.mark.parametrize("mount", sorted(MOUNTS))
def test_idle_schema_is_pinned(plane, mount):
    config, tiers, tenants = MOUNTS[mount]
    fs, done = plane(config, tiers)
    try:
        # json.dumps keeps insertion order: keys and their order compared.
        assert json.dumps(fs.stats()) == json.dumps(idle(tenants, tiers))
    finally:
        done()


def test_a_snapshot_is_a_copy(plane):
    fs, done = plane(TENANTED, 2)
    try:
        before = fs.stats()
        snap = fs.stats()
        snap["pool"]["waits"] = 99
        snap["tenants"]["a"]["writes"] = 99
        snap["tiers"]["per_tier"]["0"]["syncs"] = 99
        snap["batch"]["per_batch"]["3"] = 1
        snap["mem"]["by_site"]["ingest"]["copies"] = 99
        assert fs.stats() == before
    finally:
        done()
