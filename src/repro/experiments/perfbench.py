"""The sim gate's table and its self-check (repository artifact, not a
paper figure).

The perf-regression gate (``python -m repro.perf check``) pins
:func:`suite` exactly: :func:`~repro.experiments.crossplane.metrics` of
every arm the repository plays — the crossplane table and the fault
sweep's cells — on the timing plane.  Its golden is itself the proof
that the plane is deterministic.  This experiment shows what a golden
cannot: every arm conserved its byte stream and its copy ledger, the
write path paid one copy per byte, and each optimisation beats its
knocked-out ablation — the same arm with one config knob (or the
cadence's dirty fraction) turned off.  Each subsystem arm's proof that
its machinery engaged is one of the arm's own checks, which
``crossplane`` holds on both planes.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any

from ..util.tables import TextTable
from . import crossplane, faultsweep
from .base import Check, ExperimentResult
from .common import DEFAULT_SEED
from .crossplane import Arm, Snapshot, cadence, cadence_arm, metrics, play_sim

PAPER = {
    "narrative": "deterministic perf-regression gate "
    "(repo artifact; scaffolding every perf PR is judged against)"
}


def table(seed: int = DEFAULT_SEED, fast: bool = False) -> dict[str, Arm]:
    """Every arm the sim gate pins, by name."""
    return {**crossplane.arms(seed, fast), **faultsweep.arms(seed, fast)}


def suite(seed: int = DEFAULT_SEED, fast: bool = False) -> dict[str, Snapshot]:
    """``{arm: metrics}`` of every arm of :func:`table` on the timing plane."""
    return {name: metrics(play_sim(arm, seed)) for name, arm in table(seed, fast).items()}


def summary(rows: dict[str, Snapshot]) -> str:
    """The gate's rows as one table."""
    report = TextTable(
        ["arm", "goodput MiB/s", "write p50 s", "write p95 s", "chunks", "drain s"],
        title="Sim gate: every arm on the timing plane (deterministic, CI-gating)",
    )
    for name, m in rows.items():
        report.add_row(
            [
                name,
                f"{m['goodput_mib_s']:.2f}",
                f"{m['write_latency_p50_s']:.2e}",
                f"{m['write_latency_p95_s']:.2e}",
                str(m["chunks_written"]),
                f"{m['drain_time_s']:.2e}",
            ]
        )
    return report.render()


def run(seed: int = DEFAULT_SEED, fast: bool = False) -> ExperimentResult:
    first = suite(seed, fast)

    def played(arm: Arm, **knobs: Any) -> Snapshot:
        """``arm`` with ``knobs`` set, on the timing plane (the arm's name,
        so its streams, is kept)."""
        return metrics(play_sim(replace(arm, config=arm.config.with_(**knobs)), seed))

    # The restore ablations run at full image size: the fast image is too
    # small for the prefetch pipeline to amortise its fill.
    full = crossplane.arms(seed, fast=False)

    # Readahead: the restart arm with the cache knocked out (pure
    # passthrough reads) must be measurably slower.
    ra_on = played(full["restart_readahead"])
    ra_off = played(full["restart_readahead"], read_cache_chunks=0, readahead_chunks=0)
    ra_gain = ra_on["goodput_mib_s"] / ra_off["goodput_mib_s"] - 1.0
    ra_stats = ra_on["stats"]["read"]

    # Batching: every chunk its own backend op must be measurably slower
    # than the drain-stage gather.
    bw_on = first["batched_writeback"]
    bw_off = played(crossplane.arms(seed, fast)["batched_writeback"], writeback_batch_chunks=1)
    bw_gain = bw_on["goodput_mib_s"] / bw_off["goodput_mib_s"] - 1.0
    bw_batch = bw_on["stats"]["batch"]

    # Delta: with every generation a full rewrite the cadence moves ~3x
    # the bytes; gated at dirty_fraction + 0.1, so the manifest and
    # bookkeeping overhead stays honest.
    wl = cadence(fast)
    lc_on = first["llm_cadence"]
    lc_off = metrics(play_sim(cadence_arm(seed, fast, dirty_fraction=1.0), seed))
    lc_delta, lc_full = lc_on["stats"]["delta"], lc_off["stats"]["delta"]
    lc_bytes_ratio = lc_delta["bytes_written"] / lc_full["bytes_written"]
    lc_restore_ratio = lc_on["restore_span_s"] / lc_off["restore_span_s"]

    # Zero copy: exactly one copy per ingested byte, the Chunk.append
    # snapshot, and no read-side copies on a write-only run.
    zc = first["zero_copy"]
    zc_mem = zc["stats"]["mem"]
    zc_ratio = zc_mem["bytes_copied"] / zc["bytes_in"]

    # Restart storm: under contention (4 ranks, one tight shared cache) a
    # window as wide as the cache allows must still pay for itself:
    # eviction spares the live window, so neither the adaptive nor the
    # static window re-fetches a chunk, and both beat readahead-off —
    # which leaves the fetch latency unhidden — on time-to-last-restore.
    storm = full["restart_storm"]
    st_ad = played(storm)
    st_static = played(storm, readahead_adaptive=False)
    st_off = played(storm, readahead_chunks=0, readahead_adaptive=False)
    adaptive_vs_off = st_off["restore_span_s"] / st_ad["restore_span_s"] - 1.0
    static_vs_off = st_off["restore_span_s"] / st_static["restore_span_s"] - 1.0

    whole = [m for m in first.values() if m["stats"]["io_errors"] == 0]
    checks = [
        Check(
            "every arm that lost no chunk conserved its byte stream",
            all(
                m["stats"]["bytes_out"] == m["bytes_in"] - m["stats"]["write_through_bytes"]
                for m in whole
            ),
            f"bytes_out == bytes_in - write_through_bytes in {len(whole)} arms",
        ),
        Check(
            "drain time is surfaced by the stats registry",
            all(
                m["drain_waits"] >= 1 and m["stats"]["drain"]["shutdown_drains"] == 1
                for m in first.values()
            ),
            "drain section populated in every arm",
        ),
        Check(
            "restart readahead beats passthrough by >= 5%",
            ra_gain >= 0.05,
            f"goodput {ra_on['goodput_mib_s']:.2f} vs "
            f"{ra_off['goodput_mib_s']:.2f} MiB/s ({ra_gain:+.1%})",
        ),
        Check(
            "readahead served the restart from the cache",
            ra_stats["hits"] > 0
            and ra_stats["prefetched"] > 0
            and ra_stats["prefetch_wasted"] == 0,
            f"read section: {ra_stats}",
        ),
        Check(
            "coalesced writeback beats unbatched by >= 10%",
            bw_gain >= 0.10,
            f"goodput {bw_on['goodput_mib_s']:.2f} vs "
            f"{bw_off['goodput_mib_s']:.2f} MiB/s ({bw_gain:+.1%})",
        ),
        Check(
            "the gather actually coalesced multi-chunk batches",
            bw_batch["batches"] > 0
            and bw_batch["chunks"] > bw_batch["batches"]
            and bw_off["stats"]["batch"]["batches"] == 0,
            f"batch section: {bw_batch}",
        ),
        Check(
            "storm restore: both windows beat readahead-off by >= 2% "
            "time-to-last-restore",
            adaptive_vs_off >= 0.02 and static_vs_off >= 0.02,
            f"span off {st_off['restore_span_s']:.4f}s vs adaptive "
            f"{st_ad['restore_span_s']:.4f}s ({adaptive_vs_off:+.1%}), static "
            f"{st_static['restore_span_s']:.4f}s ({static_vs_off:+.1%})",
        ),
        Check(
            "storm restore: no arm wastes a prefetch",
            st_ad["stats"]["read"]["prefetch_wasted"] == 0
            and st_static["stats"]["read"]["prefetch_wasted"] == 0,
            f"wasted prefetches: adaptive "
            f"{st_ad['stats']['read']['prefetch_wasted']}, static "
            f"{st_static['stats']['read']['prefetch_wasted']}",
        ),
        Check(
            "delta checkpointing writes at most dirty_fraction + 0.1 "
            "of the full-rewrite bytes",
            0 < lc_bytes_ratio <= wl.dirty_fraction + 0.1,
            f"{lc_delta['bytes_written']} vs {lc_full['bytes_written']} "
            f"bytes (ratio {lc_bytes_ratio:.4f}, "
            f"gate {wl.dirty_fraction + 0.1:.2f})",
        ),
        Check(
            "the full-rewrite arm really rewrote everything while the "
            "delta arm shared chunks",
            lc_full["bytes_written"] == lc_full["logical_bytes"]
            and lc_full["clean_chunks"] == 0
            and lc_delta["clean_chunks"] > 0,
            f"full-rewrite: {lc_full['bytes_written']} of "
            f"{lc_full['logical_bytes']} logical bytes; delta arm kept "
            f"{lc_delta['clean_chunks']} chunks clean",
        ),
        Check(
            "restore-from-chain stays within 2x of the single-image "
            "restore",
            0 < lc_restore_ratio <= 2.0,
            f"span {lc_on['restore_span_s']:.4f}s across the chain vs "
            f"{lc_off['restore_span_s']:.4f}s single-image "
            f"({lc_restore_ratio:.2f}x)",
        ),
        Check(
            "zero-copy write path: exactly one copy per ingested byte "
            "(bytes_copied/bytes_in <= 1.0 + eps)",
            zc_ratio <= 1.0 + 1e-9
            and zc_mem["bytes_copied"] == zc["bytes_in"]
            and zc_mem["by_site"]["ingest"]["bytes"] == zc["bytes_in"]
            and zc_mem["by_site"]["read_boundary"]["bytes"] == 0
            and zc_mem["by_site"]["fetch"]["bytes"] == 0,
            f"ratio {zc_ratio:.6f}, mem section: {zc_mem}",
        ),
        Check(
            "every arm's copy ledger is conserved "
            "(bytes_copied == sum over sites)",
            all(
                m["stats"]["mem"]["bytes_copied"]
                == sum(s["bytes"] for s in m["stats"]["mem"]["by_site"].values())
                and m["bytes_copied"] == m["stats"]["mem"]["bytes_copied"]
                for m in first.values()
            ),
            "mem.bytes_copied matches its by_site decomposition everywhere",
        ),
    ]
    return ExperimentResult(
        name="perfbench",
        title="Sim gate self-check (conservation, zero copy, ablations)",
        table=summary(first),
        measured={"first": first},
        paper=PAPER,
        checks=checks,
    )


if __name__ == "__main__":  # pragma: no cover
    print(run().render())
