"""Perf-regression harness: schema, determinism, comparator, CLI, and
the drain-time counters it reads from the stats registry.

The contract under test (per ISSUE 3's acceptance criteria): two
sim-plane runs at the same seed produce byte-identical metric sections,
``compare`` passes on identical artifacts, and an injected 20% goodput
drop (or any gated-counter drift) exits nonzero.
"""

import copy
import json

import pytest

from repro.backends import MemBackend
from repro.config import CRFSConfig
from repro.core import CRFS
from repro.perf.cli import check_baseline, main as perf_main
from repro.perf.compare import POLICIES, MetricPolicy, compare_artifacts, render_report
from repro.perf.runner import percentile, run_scenario_sim, run_suite
from repro.perf.scenarios import SCENARIOS, default_scenarios
from repro.perf.schema import (
    REQUIRED_METRICS,
    SCHEMA_VERSION,
    ArtifactError,
    artifact_filename,
    build_artifact,
    canonical_metrics,
    dump_artifact,
    load_artifact,
)
from repro.units import KiB

SEED = 2011


@pytest.fixture(scope="module")
def sim_artifact():
    """One fast sim-plane artifact, shared by the read-only tests."""
    return build_artifact(run_suite(SEED, fast=True), seed=SEED, fast=True)


# -- schema -------------------------------------------------------------------


class TestSchema:
    def test_round_trip(self, sim_artifact, tmp_path):
        path = dump_artifact(sim_artifact, tmp_path / "BENCH_test.json")
        assert load_artifact(path) == sim_artifact

    def test_artifact_filename_is_compact_stamp(self):
        assert artifact_filename("2026-08-05T12:00:00Z") == "BENCH_20260805T120000Z.json"

    def test_every_required_metric_present(self, sim_artifact):
        for name, metrics in sim_artifact["planes"]["sim"].items():
            for metric in REQUIRED_METRICS:
                assert metric in metrics, (name, metric)
            assert "stats" in metrics

    def test_unknown_schema_version_rejected(self, sim_artifact, tmp_path):
        bad = copy.deepcopy(sim_artifact)
        bad["schema_version"] = SCHEMA_VERSION + 1
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        with pytest.raises(ArtifactError, match="schema version"):
            load_artifact(path)

    def test_missing_metric_rejected(self, sim_artifact):
        bad = copy.deepcopy(sim_artifact)
        del bad["planes"]["sim"]["single_writer_seq"]["goodput_mib_s"]
        with pytest.raises(ArtifactError, match="goodput_mib_s"):
            dump_artifact(bad, "/dev/null")

    def test_non_json_rejected(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("not json {")
        with pytest.raises(ArtifactError, match="not JSON"):
            load_artifact(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ArtifactError, match="no such artifact"):
            load_artifact(tmp_path / "absent.json")

    @pytest.mark.parametrize("planes", [["real"], ["sim", "real"], []])
    def test_any_plane_but_sim_rejected(self, sim_artifact, planes):
        bad = copy.deepcopy(sim_artifact)
        bad["planes"] = {p: copy.deepcopy(sim_artifact["planes"]["sim"]) for p in planes}
        with pytest.raises(ArtifactError, match="sim plane alone"):
            dump_artifact(bad, "/dev/null")


# -- determinism --------------------------------------------------------------


class TestDeterminism:
    def test_same_seed_sim_runs_byte_identical(self, sim_artifact):
        again = build_artifact(run_suite(SEED, fast=True), seed=SEED, fast=True)
        assert canonical_metrics(sim_artifact) == canonical_metrics(again)

    def test_different_seed_changes_metrics(self, sim_artifact):
        other = build_artifact(run_suite(SEED + 1, fast=True), seed=SEED + 1, fast=True)
        assert canonical_metrics(sim_artifact) != canonical_metrics(other)

    def test_scenario_sizes_are_seed_deterministic(self):
        s = SCENARIOS["single_writer_seq"]
        assert s.sizes(SEED, 0, True) == s.sizes(SEED, 0, True)
        assert s.sizes(SEED, 0, True) != s.sizes(SEED, 1, True)

    def test_unknown_scenario_rejected(self):
        with pytest.raises(KeyError, match="nonesuch"):
            default_scenarios(["nonesuch"])


# -- comparator ---------------------------------------------------------------


class TestCompare:
    def test_identical_artifacts_pass(self, sim_artifact):
        report = compare_artifacts(sim_artifact, sim_artifact)
        assert report.ok
        assert not report.regressions
        assert "gate: PASS" in render_report(report)

    def test_goodput_drop_20pct_fails(self, sim_artifact):
        slower = copy.deepcopy(sim_artifact)
        slower["planes"]["sim"]["single_writer_seq"]["goodput_mib_s"] *= 0.8
        report = compare_artifacts(slower, sim_artifact)
        assert not report.ok
        assert [(d.scenario, d.metric) for d in report.regressions] == [
            ("single_writer_seq", "goodput_mib_s")
        ]
        assert "REGRESSION" in render_report(report)

    def test_goodput_drop_within_tolerance_passes(self, sim_artifact):
        slightly = copy.deepcopy(sim_artifact)
        slightly["planes"]["sim"]["single_writer_seq"]["goodput_mib_s"] *= 0.95
        assert compare_artifacts(slightly, sim_artifact).ok

    def test_goodput_improvement_passes(self, sim_artifact):
        faster = copy.deepcopy(sim_artifact)
        faster["planes"]["sim"]["single_writer_seq"]["goodput_mib_s"] *= 1.5
        assert compare_artifacts(faster, sim_artifact).ok

    def test_exact_counter_drift_fails(self, sim_artifact):
        drifted = copy.deepcopy(sim_artifact)
        drifted["planes"]["sim"]["fsync_heavy"]["chunks_written"] += 1
        report = compare_artifacts(drifted, sim_artifact)
        assert not report.ok
        assert any(d.metric == "chunks_written" for d in report.regressions)

    def test_copy_counter_drift_fails(self, sim_artifact):
        drifted = copy.deepcopy(sim_artifact)
        drifted["planes"]["sim"]["zero_copy"]["bytes_copied"] += 1
        report = compare_artifacts(drifted, sim_artifact)
        assert [(d.scenario, d.metric) for d in report.regressions] == [
            ("zero_copy", "bytes_copied")
        ]

    def test_missing_scenario_fails_gate(self, sim_artifact):
        shrunk = copy.deepcopy(sim_artifact)
        del shrunk["planes"]["sim"]["degraded_retry"]
        report = compare_artifacts(shrunk, sim_artifact)
        assert not report.ok
        assert report.missing == ["degraded_retry"]

    def test_seed_mismatch_fails_gate(self, sim_artifact):
        other = copy.deepcopy(sim_artifact)
        other["seed"] = SEED + 1
        report = compare_artifacts(other, sim_artifact)
        assert not report.ok
        assert report.mismatches

    def test_every_required_metric_has_a_policy(self):
        assert set(REQUIRED_METRICS) <= set(POLICIES)

    def test_policy_directions(self):
        assert MetricPolicy("higher", 0.1).regressed(100.0, 80.0)
        assert not MetricPolicy("higher", 0.1).regressed(100.0, 95.0)
        assert MetricPolicy("lower", 0.1).regressed(1.0, 1.2)
        assert not MetricPolicy("lower", 0.1, abs_floor=0.5).regressed(1.0, 1.2)
        assert MetricPolicy("exact").regressed(3, 4)
        with pytest.raises(ValueError, match="direction"):
            MetricPolicy("sideways").regressed(1.0, 1.0)


# -- runner internals ---------------------------------------------------------


class TestRunner:
    def test_percentile_nearest_rank(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 50) == 2.0
        assert percentile(values, 95) == 4.0
        assert percentile(values, 100) == 4.0
        assert percentile([], 50) == 0.0
        assert percentile([7.0], 95) == 7.0

    def test_degraded_scenario_exercises_resilience(self):
        metrics = run_scenario_sim(SCENARIOS["degraded_retry"], SEED, fast=True)
        resilience = metrics["stats"]["resilience"]
        assert resilience["chunks_retried"] > 0
        assert resilience["breaker_trips"] >= 1
        assert resilience["breaker_recoveries"] >= 1
        assert metrics["stats"]["io_errors"] == 0  # outage outlasted by retries

    def test_fsync_scenario_counts_extra_drains(self):
        plain = run_scenario_sim(SCENARIOS["single_writer_seq"], SEED, fast=True)
        fsync = run_scenario_sim(SCENARIOS["fsync_heavy"], SEED, fast=True)
        assert fsync["drain_waits"] > plain["drain_waits"]


# -- drain counters (satellite: stats surface, not caller re-timing) ----------


class TestDrainCounters:
    def test_functional_plane_drain_section(self):
        fs = CRFS(MemBackend(), CRFSConfig(chunk_size=16 * KiB, pool_size=64 * KiB))
        with fs:
            with fs.open("/a") as f:
                f.write(b"x" * (40 * KiB))
        stats = fs.stats()
        # one close drain + one unmount sweep; shutdown emitted exactly once
        assert stats["drain"]["waits"] >= 1
        assert stats["drain"]["waits_blocked"] >= 0
        assert stats["drain"]["time_total"] >= 0.0
        assert stats["drain"]["time_max"] <= stats["drain"]["time_total"]
        assert stats["drain"]["shutdown_drains"] == 1

    def test_sim_plane_drain_deterministic(self):
        a = run_scenario_sim(SCENARIOS["fsync_heavy"], SEED, fast=True)
        b = run_scenario_sim(SCENARIOS["fsync_heavy"], SEED, fast=True)
        assert a["drain_time_s"] == b["drain_time_s"]
        assert a["drain_time_s"] > 0.0


# -- CLI ----------------------------------------------------------------------


class TestCLI:
    def test_run_compare_update_baseline_loop(self, tmp_path, capsys):
        out = tmp_path / "artifacts"
        baseline = tmp_path / "baseline.json"
        assert (
            perf_main(
                ["run", "--fast", "--out", str(out), "--scenario", "single_writer_seq"]
            )
            == 0
        )
        artifacts = sorted(out.glob("BENCH_*.json"))
        assert len(artifacts) == 1
        assert (
            perf_main(
                ["update-baseline", "--fast", "--baseline", str(baseline),
                 "--from-artifact", str(artifacts[0])]
            )
            == 0
        )
        assert (
            perf_main(["compare", str(artifacts[0]), "--baseline", str(baseline)])
            == 0
        )
        capsys.readouterr()

    def test_compare_exits_nonzero_on_regression(self, tmp_path, capsys):
        metrics = run_scenario_sim(SCENARIOS["single_writer_seq"], SEED, fast=True)
        base = build_artifact({"single_writer_seq": metrics}, seed=SEED, fast=True)
        slower = copy.deepcopy(base)
        slower["planes"]["sim"]["single_writer_seq"]["goodput_mib_s"] *= 0.8
        base_path = dump_artifact(base, tmp_path / "base.json")
        new_path = dump_artifact(slower, tmp_path / "new.json")
        assert perf_main(["compare", str(new_path), "--baseline", str(base_path)]) == 1
        assert "REGRESSION" in capsys.readouterr().out

    def test_plane_option_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            perf_main(["run", "--plane", "sim"])
        assert exc.value.code == 2
        assert "--plane" in capsys.readouterr().err

    def test_update_baseline_refuses_simless_artifact(self, sim_artifact, tmp_path, capsys):
        realonly = dict(sim_artifact, planes={"real": sim_artifact["planes"]["sim"]})
        path = tmp_path / "realonly.json"
        path.write_text(json.dumps(realonly))
        baseline = tmp_path / "b.json"
        argv = ["update-baseline", "--from-artifact", str(path), "--baseline", str(baseline)]
        assert perf_main(argv) == 2
        assert not baseline.exists()
        assert "sim plane alone" in capsys.readouterr().err

    def test_compare_missing_artifact_exits_2(self, tmp_path, capsys):
        assert perf_main(["compare", str(tmp_path / "absent.json")]) == 2
        assert "no such artifact" in capsys.readouterr().err


# -- check-baseline: structural gate on the committed artifact ----------------


class TestCheckBaseline:
    def test_committed_baseline_is_structurally_sound(self):
        from repro.perf.cli import check_baseline

        baseline = load_artifact("benchmarks/baselines/baseline.json")
        assert check_baseline(baseline) == []

    def test_cli_passes_on_committed_baseline(self, capsys):
        assert perf_main(["check-baseline"]) == 0
        assert "baseline ok" in capsys.readouterr().out

    def test_missing_scenario_is_reported_and_exits_nonzero(
        self, tmp_path, capsys
    ):
        from repro.perf.cli import check_baseline

        baseline = load_artifact("benchmarks/baselines/baseline.json")
        broken = copy.deepcopy(baseline)
        del broken["planes"]["sim"]["restart_storm"]
        problems = check_baseline(broken)
        assert any("restart_storm" in p and "missing" in p for p in problems)
        path = dump_artifact(broken, tmp_path / "broken.json")
        assert perf_main(["check-baseline", "--baseline", str(path)]) == 1
        assert "restart_storm" in capsys.readouterr().err

    def test_unknown_pinned_scenario_is_reported(self):
        from repro.perf.cli import check_baseline

        baseline = copy.deepcopy(
            load_artifact("benchmarks/baselines/baseline.json")
        )
        baseline["planes"]["sim"]["mystery"] = copy.deepcopy(
            baseline["planes"]["sim"]["single_writer_seq"]
        )
        assert any(
            "mystery" in p for p in check_baseline(baseline)
        )

    def test_disengaged_machinery_is_reported(self):
        from repro.perf.cli import check_baseline

        baseline = copy.deepcopy(
            load_artifact("benchmarks/baselines/baseline.json")
        )
        baseline["planes"]["sim"]["batched_writeback"]["stats"]["batch"][
            "batches"
        ] = 0
        del baseline["planes"]["sim"]["restart_storm"]["stats"]["read"][
            "window_grown"
        ]
        problems = check_baseline(baseline)
        assert any("gather never coalesced" in p for p in problems)
        assert any("window_grown" in p for p in problems)

    @pytest.mark.parametrize("scenario", ["restart_readahead", "restart_storm"])
    def test_a_wasted_prefetch_in_a_sequential_restore_is_reported(self, scenario):
        from repro.perf.cli import check_baseline

        baseline = copy.deepcopy(
            load_artifact("benchmarks/baselines/baseline.json")
        )
        read = baseline["planes"]["sim"][scenario]["stats"]["read"]
        assert read["prefetch_wasted"] == 0
        read["prefetch_wasted"] = 3
        problems = check_baseline(baseline)
        assert [p for p in problems if scenario in p and "wasted" in p]

    def test_unreadable_baseline_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "absent.json"
        assert perf_main(["check-baseline", "--baseline", str(missing)]) == 2
        capsys.readouterr()


# -- restart storm: adaptive readahead under contention -----------------------


class TestRestartStorm:
    def test_restore_metrics_surface(self):
        sim = run_scenario_sim(SCENARIOS["restart_storm"], SEED, fast=True)
        assert sim["restore_span_s"] > 0
        assert sim["restore_latency_max_s"] > 0
        # span covers first restart to last byte, so it bounds the
        # slowest single rank's restore from above
        assert sim["restore_span_s"] >= sim["restore_latency_max_s"]
        # every rank's image came back through the read path
        assert sim["stats"]["read"]["bytes_read"] == sim["bytes_in"]

    def test_adaptive_beats_static_and_off_under_contention(self):
        import dataclasses

        storm = SCENARIOS["restart_storm"]
        adaptive = run_scenario_sim(storm, SEED, fast=True)
        static = run_scenario_sim(
            dataclasses.replace(
                storm, config=storm.config.with_(readahead_adaptive=False)
            ),
            SEED,
            fast=True,
        )
        off = run_scenario_sim(
            dataclasses.replace(
                storm,
                config=storm.config.with_(
                    readahead_chunks=0, readahead_adaptive=False
                ),
            ),
            SEED,
            fast=True,
        )
        assert adaptive["restore_span_s"] < static["restore_span_s"]
        assert adaptive["restore_span_s"] < off["restore_span_s"]
        # eviction spares the live window: neither arm re-fetches a chunk
        assert adaptive["stats"]["read"]["prefetch_wasted"] == 0
        assert static["stats"]["read"]["prefetch_wasted"] == 0

    def test_storm_scenario_is_seed_deterministic(self):
        a = run_scenario_sim(SCENARIOS["restart_storm"], SEED, fast=True)
        b = run_scenario_sim(SCENARIOS["restart_storm"], SEED, fast=True)
        assert a["restore_span_s"] == b["restore_span_s"]
        assert a["stats"]["read"] == b["stats"]["read"]


# -- committed baseline stays reproducible ------------------------------------


class TestCommittedBaseline:
    def test_committed_baseline_loads_and_gates_green(self):
        """The repo's own baseline must match what this tree produces —
        the same check CI's perf job runs (full sizes, default seed)."""
        baseline = load_artifact("benchmarks/baselines/baseline.json")
        fresh = build_artifact(
            run_suite(baseline["seed"], fast=baseline["fast"]),
            seed=baseline["seed"],
            fast=baseline["fast"],
        )
        report = compare_artifacts(fresh, baseline)
        assert report.ok, render_report(report)


# -- hierarchical staging acceptance ------------------------------------------


class TestTieredStagingGoodput:
    """The staging hierarchy's reason to exist: writers complete at
    tier-0 (staging) speed while the pump migrates in the background.
    Same scenario, same seed, same workload — only the backend chain
    differs — so the elapsed ratio is a pure staging win."""

    def test_staging_beats_direct_deep_writes_2x(self):
        import dataclasses

        staged_scenario = SCENARIOS["tiered_staging"]
        # identical name => identical seed-derived write streams; the
        # twin just writes straight into the deep NFS model
        direct_scenario = dataclasses.replace(staged_scenario, sim_backend="nfs")
        staged = run_scenario_sim(staged_scenario, SEED, fast=True)
        direct = run_scenario_sim(direct_scenario, SEED, fast=True)
        assert direct["elapsed_s"] / staged["elapsed_s"] >= 2.0

        # the win is real only if the deep tier actually received the
        # image: the drain settled every chunk, none stranded
        tiers = staged["stats"]["tiers"]["per_tier"]
        assert tiers["1"]["chunks_staged"] > 0
        assert tiers["1"]["chunks_stranded"] == 0
        assert staged["stats"]["tiers"]["levels"] == 2

    def test_tiered_scenario_is_seed_deterministic(self):
        a = run_scenario_sim(SCENARIOS["tiered_staging"], SEED, fast=True)
        b = run_scenario_sim(SCENARIOS["tiered_staging"], SEED, fast=True)
        assert a["stats"]["tiers"] == b["stats"]["tiers"]
        assert a["elapsed_s"] == b["elapsed_s"]


# -- check-baseline: the zero_copy pins ---------------------------------------


class TestCheckBaselineZeroCopyPins:
    def _baseline(self):
        return copy.deepcopy(load_artifact("benchmarks/baselines/baseline.json"))

    def test_committed_baseline_pins_zero_copy(self):
        baseline = self._baseline()
        assert check_baseline(baseline) == []
        zc = baseline["planes"]["sim"]["zero_copy"]
        assert zc["stats"]["mem"]["bytes_copied"] == zc["bytes_in"]

    def test_extra_copies_are_reported(self):
        baseline = self._baseline()
        baseline["planes"]["sim"]["zero_copy"]["stats"]["mem"][
            "bytes_copied"
        ] += 1
        problems = check_baseline(baseline)
        assert any("exactly one" in p for p in problems)

    def test_read_side_copies_in_a_write_only_scenario_are_reported(self):
        baseline = self._baseline()
        mem = baseline["planes"]["sim"]["zero_copy"]["stats"]["mem"]
        mem["by_site"]["read_boundary"]["bytes"] = 512
        problems = check_baseline(baseline)
        assert any("read_boundary" in p for p in problems)

    def test_missing_copy_metric_is_reported(self):
        baseline = self._baseline()
        del baseline["planes"]["sim"]["zero_copy"]["copy_ratio"]
        problems = check_baseline(baseline)
        assert any("copy_ratio" in p for p in problems)
