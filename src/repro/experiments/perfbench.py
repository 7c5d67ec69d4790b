"""Perf-harness self-check (repository artifact, not a paper figure).

The perf-regression gate (``python -m repro.perf check``) compares a
fresh run with the committed baseline exactly, so it is only
trustworthy if the sim plane is actually deterministic and each
scenario's machinery actually engaged.  This experiment proves both:
run the scenario suite twice at the same seed and require byte-identical
metric sections, then require each subsystem scenario to have done its
work (tenants drained, tiers staged, prefetches issued, chains restored)
and each optimisation to beat its knocked-out ablation.
"""

from __future__ import annotations

import dataclasses
import json

from ..perf.runner import run_scenario_sim, run_suite
from ..perf.scenarios import SCENARIOS
from ..util.tables import TextTable
from .base import Check, ExperimentResult
from .common import DEFAULT_SEED

PAPER = {
    "narrative": "deterministic perf-regression gate "
    "(repo artifact; scaffolding every perf PR is judged against)"
}


def run(seed: int = DEFAULT_SEED, fast: bool = False) -> ExperimentResult:
    first = run_suite(seed, fast=fast)
    second = run_suite(seed, fast=fast)

    table = TextTable(
        ["scenario", "goodput MiB/s", "write p95 s", "chunks", "drain s"],
        title="Perf harness, sim plane (deterministic, CI-gating)",
    )
    for name, m in first.items():
        table.add_row(
            [
                name,
                f"{m['goodput_mib_s']:.2f}",
                f"{m['write_latency_p95_s']:.2e}",
                str(m["chunks_written"]),
                f"{m['drain_time_s']:.2e}",
            ]
        )

    identical = json.dumps(first, sort_keys=True) == json.dumps(second, sort_keys=True)
    conserved = all(
        m["stats"]["bytes_out"] == m["bytes_in"] - m["stats"]["write_through_bytes"]
        for m in first.values()
    )

    # Readahead ablation: the restart scenario with the cache knocked
    # out (pure passthrough reads) must be measurably slower — the
    # deterministic, virtual-clock proof the read plane optimization
    # pays for itself.  Full image size: the fast image is too small
    # for the prefetch pipeline to amortize its fill.
    ra = SCENARIOS["restart_readahead"]
    ra_on = run_scenario_sim(ra, seed=seed)
    ra_off = run_scenario_sim(
        dataclasses.replace(
            ra, config=ra.config.with_(read_cache_chunks=0, readahead_chunks=0)
        ),
        seed=seed,
    )
    ra_gain = ra_on["goodput_mib_s"] / ra_off["goodput_mib_s"] - 1.0
    ra_stats = ra_on["stats"]["read"]

    # Batching ablation: the coalesced-writeback scenario with the
    # gather knocked out (writeback_batch_chunks=1, every chunk its own
    # backend op) must be measurably slower — the virtual-clock proof
    # the drain-stage gather pays for itself.
    bw = SCENARIOS["batched_writeback"]
    bw_on = run_scenario_sim(bw, seed=seed, fast=fast)
    bw_off = run_scenario_sim(
        dataclasses.replace(
            bw, config=bw.config.with_(writeback_batch_chunks=1)
        ),
        seed=seed,
        fast=fast,
    )
    bw_gain = bw_on["goodput_mib_s"] / bw_off["goodput_mib_s"] - 1.0
    bw_batch = bw_on["stats"]["batch"]

    # Delta ablation: the LLM cadence scenario with incremental
    # checkpointing knocked out (delta_dirty_fraction=1.0 — every
    # generation a full rewrite) must move ~3x the bytes through the
    # pipeline; the virtual-clock proof the delta path pays for itself,
    # gated at dirty_fraction + 0.1 so the manifest/bookkeeping overhead
    # stays honest.
    lc = SCENARIOS["llm_cadence"]
    lc_on = run_scenario_sim(lc, seed=seed, fast=fast)
    lc_off = run_scenario_sim(
        dataclasses.replace(lc, delta_dirty_fraction=1.0), seed=seed, fast=fast
    )
    lc_delta = lc_on["stats"]["delta"]
    lc_full = lc_off["stats"]["delta"]
    lc_bytes_ratio = lc_delta["bytes_written"] / lc_full["bytes_written"]
    lc_restore_ratio = lc_on["restore_span_s"] / lc_off["restore_span_s"]

    # Zero-copy gate: the dedicated sequential-write scenario must pay
    # exactly one copy per ingested byte — the Chunk.append snapshot —
    # so bytes-copied-per-byte-written is 1.0 within ε, with zero
    # read_boundary/fetch traffic on a write-only run.
    zc = first["zero_copy"]
    zc_mem = zc["stats"]["mem"]
    zc_ratio = zc_mem["bytes_copied"] / zc["bytes_in"]

    # Restart-storm ablation: under contention (4 ranks, one tight
    # shared cache) a window as wide as the cache allows (current chunk
    # + window = cache) must still pay for itself: eviction spares the
    # live window, so neither the adaptive nor the static arm re-fetches
    # a chunk, and both must beat readahead-off — which leaves the fetch
    # latency unhidden — on time-to-last-restore.  Full image size, as
    # for the readahead ablation.
    st_scn = SCENARIOS["restart_storm"]
    st_ad = run_scenario_sim(st_scn, seed=seed)
    st_static = run_scenario_sim(
        dataclasses.replace(
            st_scn, config=st_scn.config.with_(readahead_adaptive=False)
        ),
        seed=seed,
    )
    st_off = run_scenario_sim(
        dataclasses.replace(
            st_scn,
            config=st_scn.config.with_(
                readahead_chunks=0, readahead_adaptive=False
            ),
        ),
        seed=seed,
    )
    adaptive_vs_off = st_off["restore_span_s"] / st_ad["restore_span_s"] - 1.0
    static_vs_off = st_off["restore_span_s"] / st_static["restore_span_s"] - 1.0

    # The subsystem scenarios' machinery engaged on the fresh run: an
    # exact check against a baseline pinned with it idle would pass.
    tenants = first["tenant_storm"]["stats"]["tenants"]
    tiers = first["tiered_staging"]["stats"]["tiers"]
    deep = tiers["per_tier"].get("1", {})
    storm_read = first["restart_storm"]["stats"]["read"]
    lc_fresh = first["llm_cadence"]["stats"]["delta"]

    checks = [
        Check(
            "two same-seed sim runs are byte-identical",
            identical,
            "canonical metric sections match"
            if identical
            else "metric sections diverged",
        ),
        Check(
            "every scenario conserved its byte stream",
            conserved,
            "bytes_out == bytes_in - write_through_bytes in all scenarios",
        ),
        Check(
            "drain time is surfaced by the stats registry",
            all(
                m["drain_waits"] >= 1 and m["stats"]["drain"]["shutdown_drains"] == 1
                for m in first.values()
            ),
            "drain section populated in every scenario",
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
            0 < lc_bytes_ratio <= lc.delta_dirty_fraction + 0.1,
            f"{lc_delta['bytes_written']} vs {lc_full['bytes_written']} "
            f"bytes (ratio {lc_bytes_ratio:.4f}, "
            f"gate {lc.delta_dirty_fraction + 0.1:.2f})",
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
            "every scenario's copy ledger is conserved "
            "(bytes_copied == sum over sites)",
            all(
                m["stats"]["mem"]["bytes_copied"]
                == sum(
                    s["bytes"] for s in m["stats"]["mem"]["by_site"].values()
                )
                and m["bytes_copied"] == m["stats"]["mem"]["bytes_copied"]
                for m in first.values()
            ),
            "mem.bytes_copied matches its by_site decomposition everywhere",
        ),
        Check(
            "tenant storm: all three tenants ran and the storm tenant drained",
            {"storm", "alice", "bob"} <= set(tenants)
            and tenants["storm"]["chunks_written"] > 0,
            f"tenants {sorted(tenants)}, storm drained "
            f"{tenants.get('storm', {}).get('chunks_written', 0)} chunk(s)",
        ),
        Check(
            "tiered staging: 2 tiers, the deep tier staged chunks, none stranded",
            tiers["levels"] == 2
            and deep.get("chunks_staged", 0) > 0
            and deep.get("chunks_stranded") == 0,
            f"levels {tiers['levels']}, deep tier: {deep}",
        ),
        Check(
            "storm restore prefetched",
            storm_read["prefetched"] > 0,
            f"{storm_read['prefetched']} prefetch(es)",
        ),
        Check(
            "llm cadence restored from the chain through reassembly runs",
            lc_fresh["restores"] > 0 and lc_fresh["reassembly_reads"] > 0,
            f"{lc_fresh['restores']} restore(s), "
            f"{lc_fresh['reassembly_reads']} reassembly read(s)",
        ),
    ]
    return ExperimentResult(
        name="perfbench",
        title="Perf-regression harness self-check (sim-plane determinism + gate)",
        table=table.render(),
        measured={"first": first, "identical": identical},
        paper=PAPER,
        checks=checks,
    )


if __name__ == "__main__":  # pragma: no cover
    print(run().render())
