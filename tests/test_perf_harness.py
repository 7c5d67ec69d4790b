"""Perf-regression harness: the artifact file, determinism, the exact
check, the CLI, and the drain-time counters it reads from the stats
registry.

The contract under test: two sim-plane plays of the workload table at
the same seed produce byte-identical artifacts, and ``python -m
repro.perf check`` re-plays the table at the baseline's seed and fails,
naming the path, on any number that differs from the baseline beyond
float summation order.
"""

import copy
import dataclasses
import json

import pytest

from repro.backends import MemBackend
from repro.config import CRFSConfig
from repro.core import CRFS
from repro.perf.artifact import (
    ArtifactError,
    build_artifact,
    check,
    diff,
    dump_artifact,
    load_artifact,
)
from repro.experiments.crossplane import arms, metrics, play_sim
from repro.experiments.perfbench import suite, table
from repro.perf import cli
from repro.perf.cli import main as perf_main
from repro.units import KiB
from repro.util.stats import nearest_rank as percentile

SEED = 2011
COMMITTED = cli.DEFAULT_BASELINE


def played(name, **knobs):
    """Metrics of the fast arm ``name``, with ``knobs`` set, on the sim plane."""
    arm = arms(SEED, fast=True)[name]
    return metrics(play_sim(dataclasses.replace(arm, config=arm.config.with_(**knobs)), SEED))


@pytest.fixture(scope="module")
def sim_artifact():
    """One fast sim-plane artifact, shared by the read-only tests."""
    return build_artifact(suite(SEED, fast=True), seed=SEED, fast=True)


def _planes_diff(new_artifact, baseline):
    return diff(new_artifact["planes"], baseline["planes"], "planes")


def _check_cli(baseline, tmp_path, capsys):
    """``check`` against ``baseline`` written to a file: (exit, stdout)."""
    path = dump_artifact(baseline, tmp_path / "baseline.json")
    code = perf_main(["check", "--baseline", str(path)])
    return code, capsys.readouterr().out


# -- the artifact file --------------------------------------------------------


class TestSchema:
    def test_round_trip(self, sim_artifact, tmp_path):
        path = dump_artifact(sim_artifact, tmp_path / "BENCH_test.json")
        assert load_artifact(path) == sim_artifact

    def test_every_required_metric_present(self, sim_artifact):
        # what the run summary table and perfbench read off every arm
        for name, metrics in sim_artifact["planes"]["sim"].items():
            for metric in (
                "bytes_in",
                "goodput_mib_s",
                "write_latency_p50_s",
                "write_latency_p95_s",
                "chunks_written",
                "drain_waits",
                "drain_time_s",
                "bytes_copied",
                "stats",
            ):
                assert metric in metrics, (name, metric)

    def test_header_is_seed_fast_planes(self, sim_artifact):
        assert set(sim_artifact) == {"seed", "fast", "planes"}
        assert (sim_artifact["seed"], sim_artifact["fast"]) == (SEED, True)

    def test_missing_metric_rejected(self, sim_artifact):
        bad = copy.deepcopy(sim_artifact)
        del bad["planes"]["sim"]["single_writer_seq"]["goodput_mib_s"]
        assert _planes_diff(bad, sim_artifact) == [
            "planes.sim.single_writer_seq.goodput_mib_s: "
            "in the baseline, missing from this run"
        ]

    def test_non_json_rejected(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text("not json {")
        with pytest.raises(ArtifactError, match="not JSON"):
            load_artifact(path)

    @pytest.mark.parametrize("body", [[], {"seed": 1, "fast": False}, {"seed": "1"}])
    def test_json_that_is_not_an_artifact_rejected(self, tmp_path, body):
        path = tmp_path / "other.json"
        path.write_text(json.dumps(body))
        with pytest.raises(ArtifactError, match="not a perf artifact"):
            load_artifact(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(ArtifactError, match="no such artifact"):
            load_artifact(tmp_path / "absent.json")

    @pytest.mark.parametrize("planes", [["real"], ["sim", "real"], []])
    def test_any_plane_but_sim_rejected(self, sim_artifact, planes):
        bad = copy.deepcopy(sim_artifact)
        bad["planes"] = {p: copy.deepcopy(sim_artifact["planes"]["sim"]) for p in planes}
        assert _planes_diff(sim_artifact, bad)


# -- determinism --------------------------------------------------------------


class TestDeterminism:
    def test_same_seed_sim_runs_byte_identical(self, sim_artifact):
        again = build_artifact(suite(SEED, fast=True), seed=SEED, fast=True)
        assert json.dumps(sim_artifact) == json.dumps(again)

    def test_different_seed_changes_metrics(self, sim_artifact):
        other = build_artifact(suite(SEED + 1, fast=True), seed=SEED + 1, fast=True)
        assert json.dumps(sim_artifact) != json.dumps(other)

    def test_scenario_sizes_are_seed_deterministic(self):
        # full size: a fast rank's 512 KiB is a single Table I draw
        writers = arms(SEED, fast=False)["concurrent_writers"].writers
        assert writers == arms(SEED, fast=False)["concurrent_writers"].writers
        assert writers != arms(SEED + 1, fast=False)["concurrent_writers"].writers
        sizes = [[step[2] for step in script if step[0] == "write"] for script in writers]
        assert sizes[0] != sizes[1]


# -- the exact comparison -----------------------------------------------------


class TestCompare:
    def test_identical_artifacts_pass(self, sim_artifact):
        assert _planes_diff(sim_artifact, copy.deepcopy(sim_artifact)) == []

    def test_goodput_drop_20pct_fails(self, sim_artifact):
        slower = copy.deepcopy(sim_artifact)
        metrics = slower["planes"]["sim"]["single_writer_seq"]
        metrics["goodput_mib_s"] *= 0.8
        assert _planes_diff(slower, sim_artifact) == [
            f"planes.sim.single_writer_seq.goodput_mib_s: baseline "
            f"{sim_artifact['planes']['sim']['single_writer_seq']['goodput_mib_s']!r}, "
            f"this run {metrics['goodput_mib_s']!r}"
        ]

    def test_exact_counter_drift_fails(self, sim_artifact):
        drifted = copy.deepcopy(sim_artifact)
        drifted["planes"]["sim"]["fsync_heavy"]["chunks_written"] += 1
        [line] = _planes_diff(drifted, sim_artifact)
        assert line.startswith("planes.sim.fsync_heavy.chunks_written: ")

    def test_copy_counter_drift_fails(self, sim_artifact):
        drifted = copy.deepcopy(sim_artifact)
        drifted["planes"]["sim"]["zero_copy"]["bytes_copied"] += 1
        [line] = _planes_diff(drifted, sim_artifact)
        assert line.startswith("planes.sim.zero_copy.bytes_copied: ")

    def test_missing_scenario_fails_gate(self, sim_artifact):
        shrunk = copy.deepcopy(sim_artifact)
        del shrunk["planes"]["sim"]["degraded_retry"]
        assert _planes_diff(shrunk, sim_artifact) == [
            "planes.sim.degraded_retry: in the baseline, missing from this run"
        ]

    def test_seed_mismatch_fails_gate(self, sim_artifact):
        # check runs at the baseline's seed: numbers pinned at another
        # seed than the header says cannot pass
        other = copy.deepcopy(sim_artifact)
        other["seed"] = SEED + 1
        assert check(other)

    def test_a_float_within_summation_order_passes(self):
        assert diff(0.1 + 0.2 + 0.3, 0.3 + 0.2 + 0.1, "x") == []
        assert diff(1.0 * (1 + 1e-12), 1.0, "x") == []
        assert diff(1.0 * (1 + 1e-6), 1.0, "x") != []
        assert diff(0.0, 1e-300, "x") != []

    def test_ints_bools_and_strings_must_be_equal(self):
        big = 10**12
        assert diff(big + 1, big, "x") == ["x: baseline 1000000000000, this run 1000000000001"]
        assert diff(True, 1, "x") != []
        assert diff("a", "b", "x") != []
        assert diff([1, 2], [1, 2, 3], "x") != []
        assert diff([1, 2.0], [1, 2.0 * (1 + 1e-12)], "x") == []
        assert diff({"k": [0, 1]}, {"k": [0, 2]}, "x") == ["x.k[1]: baseline 2, this run 1"]


# -- check: the drifts a tolerance table let through --------------------------


class TestCheck:
    """A drift edited into a baseline fails ``check``, which names its
    path.  Both drifts here passed the old per-metric tolerance table
    (goodput -10 %, latencies +15 %, no ``restore_span_s``, no
    ``stats`` field); a wasted prefetch and a missing or extra scenario
    are in :class:`TestCheckBaseline`."""

    @pytest.mark.parametrize(
        "scenario, metric, factor",
        [("restart_storm", "restore_span_s", 1.5), ("batched_writeback", "goodput_mib_s", 0.91)],
    )
    def test_drift_fails_check_and_names_its_path(
        self, sim_artifact, tmp_path, capsys, scenario, metric, factor
    ):
        # the run reads `factor` times what the baseline pins
        baseline = copy.deepcopy(sim_artifact)
        baseline["planes"]["sim"][scenario][metric] /= factor
        code, out = _check_cli(baseline, tmp_path, capsys)
        assert code == 1
        assert f"planes.sim.{scenario}.{metric}: " in out
        assert "check: FAIL, 1 path(s) differ" in out

    def test_a_float_off_by_1e12_relative_passes(self, sim_artifact, tmp_path, capsys):
        baseline = copy.deepcopy(sim_artifact)
        baseline["planes"]["sim"]["batched_writeback"]["goodput_mib_s"] *= 1 + 1e-12
        code, out = _check_cli(baseline, tmp_path, capsys)
        assert code == 0, out
        assert "check: PASS" in out


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
        degraded = played("degraded_retry")
        resilience = degraded["stats"]["resilience"]
        assert resilience["chunks_retried"] > 0
        assert resilience["breaker_trips"] >= 1
        assert resilience["breaker_recoveries"] >= 1
        assert degraded["stats"]["io_errors"] == 0  # outage outlasted by retries

    def test_fsync_scenario_counts_extra_drains(self):
        assert played("fsync_heavy")["drain_waits"] > played("single_writer_seq")["drain_waits"]


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
        a, b = played("fsync_heavy"), played("fsync_heavy")
        assert a["drain_time_s"] == b["drain_time_s"]
        assert a["drain_time_s"] > 0.0


# -- CLI ----------------------------------------------------------------------


class TestCLI:
    def test_run_check_loop(self, tmp_path, capsys):
        out = tmp_path / "perf" / "BENCH.json"
        assert perf_main(["run", "--fast", "--out", str(out)]) == 0
        first = out.read_bytes()
        # no timestamp: a second run writes the same bytes, so a re-pin
        # of the committed baseline is a reviewable diff
        assert perf_main(["run", "--fast", "--out", str(out)]) == 0
        assert out.read_bytes() == first
        capsys.readouterr()

        assert perf_main(["check", "--baseline", str(out)]) == 0
        assert "check: PASS" in capsys.readouterr().out

        artifact = json.loads(first)
        artifact["planes"]["sim"]["fsync_heavy"]["stats"]["drain"]["waits"] += 1
        out.write_text(json.dumps(artifact))
        assert perf_main(["check", "--baseline", str(out)]) == 1
        printed = capsys.readouterr().out
        assert "planes.sim.fsync_heavy.stats.drain.waits: " in printed
        assert "check: FAIL, 1 path(s) differ" in printed

    def test_run_compare_update_baseline_loop(self, tmp_path, capsys):
        # compare is now check, and update-baseline is now run --out onto
        # the baseline: a stale pin fails check until the re-pin
        baseline = tmp_path / "baseline.json"
        assert perf_main(["run", "--fast", "--out", str(baseline)]) == 0
        stale = json.loads(baseline.read_text())
        stale["planes"]["sim"]["restart_storm"]["restore_span_s"] *= 2
        baseline.write_text(json.dumps(stale))
        capsys.readouterr()
        assert perf_main(["check", "--baseline", str(baseline)]) == 1
        assert "planes.sim.restart_storm.restore_span_s: " in capsys.readouterr().out

        assert perf_main(["run", "--fast", "--out", str(baseline)]) == 0
        capsys.readouterr()
        assert perf_main(["check", "--baseline", str(baseline)]) == 0
        assert "check: PASS" in capsys.readouterr().out

    def test_compare_exits_nonzero_on_regression(self, sim_artifact, tmp_path, capsys):
        # llm_cadence's p95 write latency 14 % slower than pinned: inside
        # the old +15 % latency tolerance, a failure for check
        baseline = copy.deepcopy(sim_artifact)
        baseline["planes"]["sim"]["llm_cadence"]["write_latency_p95_s"] /= 1.14
        code, out = _check_cli(baseline, tmp_path, capsys)
        assert code == 1
        assert "planes.sim.llm_cadence.write_latency_p95_s: " in out

    def test_compare_missing_artifact_exits_2(self, tmp_path, monkeypatch, capsys):
        # the default baseline path, pointed where no file is
        monkeypatch.setattr(cli, "DEFAULT_BASELINE", tmp_path / "absent.json")
        assert perf_main(["check"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("cannot load baseline: ") and "no such artifact" in err
        assert "Traceback" not in err

    def test_plane_option_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            perf_main(["run", "--plane", "sim"])
        assert exc.value.code == 2
        assert "--plane" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["compare", "x.json"],
            ["check-baseline"],
            ["update-baseline"],
            ["run", "--scenario", "zero_copy"],
        ],
    )
    def test_only_run_and_check_remain(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            perf_main(argv)
        assert exc.value.code == 2
        capsys.readouterr()


# -- check against the baseline -----------------------------------------------


class TestCheckBaseline:
    def test_committed_baseline_is_structurally_sound(self):
        baseline = load_artifact(COMMITTED)
        assert set(baseline) == {"seed", "fast", "planes"}
        assert set(baseline["planes"]) == {"sim"}

    def test_committed_baseline_has_one_row_per_arm(self):
        baseline = load_artifact(COMMITTED)
        names = list(table(baseline["seed"], baseline["fast"]))
        assert len(names) == len(set(names))
        assert sorted(baseline["planes"]["sim"]) == sorted(names)

    def test_default_baseline_resolves_beside_the_module(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert cli.DEFAULT_BASELINE.is_absolute()
        assert load_artifact(cli.DEFAULT_BASELINE)["seed"] == SEED

    def test_cli_passes_on_committed_baseline(self, capsys):
        assert perf_main(["check"]) == 0
        assert "check: PASS" in capsys.readouterr().out

    def test_missing_scenario_is_reported_and_exits_nonzero(
        self, sim_artifact, tmp_path, capsys
    ):
        broken = copy.deepcopy(sim_artifact)
        del broken["planes"]["sim"]["restart_storm"]
        code, out = _check_cli(broken, tmp_path, capsys)
        assert code == 1
        assert "planes.sim.restart_storm: in this run, missing from the baseline" in out

    def test_unknown_pinned_scenario_is_reported(self, sim_artifact, tmp_path, capsys):
        baseline = copy.deepcopy(sim_artifact)
        baseline["planes"]["sim"]["mystery"] = copy.deepcopy(
            baseline["planes"]["sim"]["single_writer_seq"]
        )
        code, out = _check_cli(baseline, tmp_path, capsys)
        assert code == 1
        assert "planes.sim.mystery: in the baseline, missing from this run" in out

    def test_disengaged_machinery_is_reported(self, sim_artifact):
        baseline = copy.deepcopy(sim_artifact)
        sim = baseline["planes"]["sim"]
        sim["batched_writeback"]["stats"]["batch"]["batches"] = 0
        del sim["restart_storm"]["stats"]["read"]["window_grown"]
        problems = _planes_diff(sim_artifact, baseline)
        assert [p.split(":")[0] for p in problems] == [
            "planes.sim.batched_writeback.stats.batch.batches",
            "planes.sim.restart_storm.stats.read.window_grown",
        ]

    @pytest.mark.parametrize("scenario", ["restart_readahead", "restart_storm"])
    def test_a_wasted_prefetch_in_a_sequential_restore_is_reported(
        self, sim_artifact, tmp_path, capsys, scenario
    ):
        # one wasted prefetch pinned in the baseline: the fresh run's 0
        # differs from it
        baseline = copy.deepcopy(sim_artifact)
        read = baseline["planes"]["sim"][scenario]["stats"]["read"]
        assert read["prefetch_wasted"] == 0
        read["prefetch_wasted"] += 1
        code, out = _check_cli(baseline, tmp_path, capsys)
        assert code == 1
        assert f"planes.sim.{scenario}.stats.read.prefetch_wasted: baseline 1, this run 0" in out

    def test_unreadable_baseline_exits_2(self, tmp_path, capsys):
        junk = tmp_path / "junk.json"
        junk.write_text("not json {")
        for path, reason in [
            (tmp_path / "absent.json", "no such artifact"),
            (junk, "not JSON"),
        ]:
            assert perf_main(["check", "--baseline", str(path)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("cannot load baseline: ") and reason in err
            assert "Traceback" not in err


# -- restart storm: adaptive readahead under contention -----------------------


class TestRestartStorm:
    def test_restore_metrics_surface(self):
        sim = played("restart_storm")
        assert sim["restore_span_s"] > 0
        assert sim["restore_latency_max_s"] > 0
        # span covers first restart to last byte, so it bounds the
        # slowest single rank's restore from above
        assert sim["restore_span_s"] >= sim["restore_latency_max_s"]
        # every rank's image came back through the read path
        assert sim["stats"]["read"]["bytes_read"] == sim["bytes_in"]

    def test_adaptive_beats_static_and_off_under_contention(self):
        adaptive = played("restart_storm")
        static = played("restart_storm", readahead_adaptive=False)
        off = played("restart_storm", readahead_chunks=0, readahead_adaptive=False)
        assert adaptive["restore_span_s"] < static["restore_span_s"]
        assert adaptive["restore_span_s"] < off["restore_span_s"]
        # eviction spares the live window: neither arm re-fetches a chunk
        assert adaptive["stats"]["read"]["prefetch_wasted"] == 0
        assert static["stats"]["read"]["prefetch_wasted"] == 0

    def test_storm_scenario_is_seed_deterministic(self):
        a, b = played("restart_storm"), played("restart_storm")
        assert a["restore_span_s"] == b["restore_span_s"]
        assert a["stats"]["read"] == b["stats"]["read"]


# -- committed baseline stays reproducible ------------------------------------


class TestCommittedBaseline:
    def test_committed_baseline_loads_and_gates_green(self):
        """The repo's own baseline must equal what this tree produces —
        ``python -m repro.perf check`` (full sizes, default seed)."""
        differences = check(load_artifact(COMMITTED))
        assert differences == [], "\n".join(differences)


# -- hierarchical staging acceptance ------------------------------------------


class TestTieredStagingGoodput:
    """The staging hierarchy's reason to exist: writers complete at
    tier-0 (staging) speed while the pump migrates in the background.
    Same arm, same seed, same workload — only the store chain differs —
    so the elapsed ratio is a pure staging win."""

    def test_staging_beats_direct_deep_writes_2x(self):
        staged_arm = arms(SEED, fast=True)["tiered_staging"]
        # identical name => identical streams; the twin just writes
        # straight into the deep NFS model
        direct_arm = dataclasses.replace(staged_arm, store=("nfs",))
        staged = metrics(play_sim(staged_arm, SEED))
        direct = metrics(play_sim(direct_arm, SEED))
        assert direct["elapsed_s"] / staged["elapsed_s"] >= 2.0

        # the win is real only if the deep tier actually received the
        # image: the drain settled every chunk, none stranded
        tiers = staged["stats"]["tiers"]["per_tier"]
        assert tiers["1"]["chunks_staged"] > 0
        assert tiers["1"]["chunks_stranded"] == 0
        assert staged["stats"]["tiers"]["levels"] == 2

    def test_tiered_scenario_is_seed_deterministic(self):
        a, b = played("tiered_staging"), played("tiered_staging")
        assert a["stats"]["tiers"] == b["stats"]["tiers"]
        assert a["elapsed_s"] == b["elapsed_s"]


# -- check: the zero_copy pins ------------------------------------------------


class TestCheckBaselineZeroCopyPins:
    def test_committed_baseline_pins_zero_copy(self):
        zc = load_artifact(COMMITTED)["planes"]["sim"]["zero_copy"]
        assert zc["stats"]["mem"]["bytes_copied"] == zc["bytes_in"]
        assert zc["stats"]["mem"]["by_site"]["read_boundary"]["bytes"] == 0

    def _reported(self, sim_artifact, edit):
        baseline = copy.deepcopy(sim_artifact)
        edit(baseline["planes"]["sim"]["zero_copy"])
        return [p.split(":")[0] for p in _planes_diff(sim_artifact, baseline)]

    def test_extra_copies_are_reported(self, sim_artifact):
        def edit(zc):
            zc["stats"]["mem"]["bytes_copied"] -= 1

        assert self._reported(sim_artifact, edit) == [
            "planes.sim.zero_copy.stats.mem.bytes_copied"
        ]

    def test_read_side_copies_in_a_write_only_scenario_are_reported(self, sim_artifact):
        def edit(zc):
            zc["stats"]["mem"]["by_site"]["read_boundary"]["bytes"] = 512

        assert self._reported(sim_artifact, edit) == [
            "planes.sim.zero_copy.stats.mem.by_site.read_boundary.bytes"
        ]

    def test_missing_copy_metric_is_reported(self, sim_artifact):
        def edit(zc):
            del zc["copy_ratio"]

        assert self._reported(sim_artifact, edit) == ["planes.sim.zero_copy.copy_ratio"]
