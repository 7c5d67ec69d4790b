"""Perf-harness self-check (repository artifact, not a paper figure).

The perf-regression gate (:mod:`repro.perf`) is only trustworthy if the
sim plane is actually deterministic and the comparator actually trips.
This experiment proves both, the same way ``crossplane`` proves kernel
parity: run the scenario suite twice at the same seed and require
byte-identical metric sections, self-compare (must pass the gate), then
inject a 20% goodput drop and require the gate to fail.
"""

from __future__ import annotations

import copy
import dataclasses

from ..perf.compare import compare_artifacts
from ..perf.runner import run_scenario_sim, run_suite
from ..perf.scenarios import SCENARIOS
from ..perf.schema import build_artifact, canonical_metrics
from ..util.tables import TextTable
from .base import Check, ExperimentResult
from .common import DEFAULT_SEED

PAPER = {
    "narrative": "deterministic perf-regression gate "
    "(repo artifact; scaffolding every perf PR is judged against)"
}


def run(seed: int = DEFAULT_SEED, fast: bool = False) -> ExperimentResult:
    first = build_artifact(run_suite(seed, fast=fast), seed=seed, fast=fast)
    second = build_artifact(run_suite(seed, fast=fast), seed=seed, fast=fast)

    table = TextTable(
        ["scenario", "goodput MiB/s", "write p95 s", "chunks", "drain s"],
        title="Perf harness, sim plane (deterministic, CI-gating)",
    )
    for name, m in first["planes"]["sim"].items():
        table.add_row(
            [
                name,
                f"{m['goodput_mib_s']:.2f}",
                f"{m['write_latency_p95_s']:.2e}",
                str(m["chunks_written"]),
                f"{m['drain_time_s']:.2e}",
            ]
        )

    identical = canonical_metrics(first) == canonical_metrics(second)
    self_report = compare_artifacts(second, first)

    injected = copy.deepcopy(second)
    victim = next(iter(injected["planes"]["sim"]))
    injected["planes"]["sim"][victim]["goodput_mib_s"] *= 0.8
    drop_report = compare_artifacts(injected, first)

    conserved = all(
        m["stats"]["bytes_out"]
        == m["bytes_in"] - m["stats"]["write_through_bytes"]
        for m in first["planes"]["sim"].values()
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
    # the drain-stage gather pays for itself.  Substituting the
    # unbatched metrics into the artifact must then trip the gate: the
    # committed baseline really does pin batching on.
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

    unbatched = copy.deepcopy(second)
    unbatched["planes"]["sim"]["batched_writeback"] = bw_off
    unbatched_report = compare_artifacts(unbatched, first)

    # Delta ablation: the LLM cadence scenario with incremental
    # checkpointing knocked out (delta_dirty_fraction=1.0 — every
    # generation a full rewrite) must move ~3x the bytes through the
    # pipeline; the virtual-clock proof the delta path pays for itself,
    # gated at dirty_fraction + 0.1 so the manifest/bookkeeping overhead
    # stays honest.  Substituting the full-rewrite metrics into the
    # artifact must then trip the compare gate (bytes_in is exact):
    # the committed baseline really does pin delta on.
    lc = SCENARIOS["llm_cadence"]
    lc_on = run_scenario_sim(lc, seed=seed, fast=fast)
    lc_off = run_scenario_sim(
        dataclasses.replace(lc, delta_dirty_fraction=1.0), seed=seed, fast=fast
    )
    lc_delta = lc_on["stats"]["delta"]
    lc_full = lc_off["stats"]["delta"]
    lc_bytes_ratio = lc_delta["bytes_written"] / lc_full["bytes_written"]
    lc_restore_ratio = lc_on["restore_span_s"] / lc_off["restore_span_s"]

    full_rewrite = copy.deepcopy(second)
    full_rewrite["planes"]["sim"]["llm_cadence"] = lc_off
    full_rewrite_report = compare_artifacts(full_rewrite, first)

    # Zero-copy gate: the dedicated sequential-write scenario must pay
    # exactly one copy per ingested byte — the Chunk.append snapshot —
    # so bytes-copied-per-byte-written is 1.0 within ε, with zero
    # read_boundary/fetch traffic on a write-only run.  Then prove the
    # gate has teeth: inflate bytes_copied by stats["bytes_out"] (the
    # exact signature of one redundant bytes() per drained chunk
    # sneaking back into the hot path) and require compare to trip on
    # (zero_copy, bytes_copied).
    zc = first["planes"]["sim"]["zero_copy"]
    zc_mem = zc["stats"]["mem"]
    zc_ratio = zc_mem["bytes_copied"] / zc["bytes_in"]

    copy_regressed = copy.deepcopy(second)
    zc_victim = copy_regressed["planes"]["sim"]["zero_copy"]
    zc_victim["bytes_copied"] += zc_victim["stats"]["bytes_out"]
    copy_report = compare_artifacts(copy_regressed, first)

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

    checks = [
        Check(
            "two same-seed sim runs are byte-identical",
            identical,
            "canonical metric sections match"
            if identical
            else "metric sections diverged",
        ),
        Check(
            "self-comparison passes the gate",
            self_report.ok,
            f"{len(self_report.regressions)} regression(s)",
        ),
        Check(
            "an injected 20% goodput drop fails the gate",
            not drop_report.ok
            and any(d.metric == "goodput_mib_s" for d in drop_report.regressions),
            f"regressions: {[(d.scenario, d.metric) for d in drop_report.regressions]}",
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
                for m in first["planes"]["sim"].values()
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
            "substituting the full-rewrite arm trips the compare gate",
            not full_rewrite_report.ok
            and any(
                d.scenario == "llm_cadence" and d.metric == "bytes_in"
                for d in full_rewrite_report.regressions
            ),
            f"regressions: "
            f"{[(d.scenario, d.metric) for d in full_rewrite_report.regressions]}",
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
                for m in first["planes"]["sim"].values()
            ),
            "mem.bytes_copied matches its by_site decomposition everywhere",
        ),
        Check(
            "an injected per-chunk rematerialization trips the copy gate",
            not copy_report.ok
            and any(
                d.scenario == "zero_copy" and d.metric == "bytes_copied"
                for d in copy_report.regressions
            ),
            f"regressions: "
            f"{[(d.scenario, d.metric) for d in copy_report.regressions]}",
        ),
        Check(
            "disabling batching fails the goodput gate",
            not unbatched_report.ok
            and any(
                d.scenario == "batched_writeback" and d.metric == "goodput_mib_s"
                for d in unbatched_report.regressions
            ),
            f"regressions: "
            f"{[(d.scenario, d.metric) for d in unbatched_report.regressions]}",
        ),
    ]
    return ExperimentResult(
        name="perfbench",
        title="Perf-regression harness self-check (sim-plane determinism + gate)",
        table=table.render(),
        measured={"first": first["planes"]["sim"], "identical": identical},
        paper=PAPER,
        checks=checks,
    )


if __name__ == "__main__":  # pragma: no cover
    print(run().render())
