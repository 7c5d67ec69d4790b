"""The harness's own tests (quick profile): ``pytest bench/tests``."""

from __future__ import annotations

import json
import re
import subprocess
import sys
import time

import pytest

import bench
from bench import run
from bench.child import RoundSpec, _Round, run_round
from bench.metrics import END_TO_END, PER_LAYER, manifest, per_layer
from bench.workloads import WORKLOADS, build_plans, call_stream_digest
from repro import (
    CRFS,
    BackendIOError,
    CRFSFile,
    FaultRule,
    FaultyBackend,
    NullBackend,
    PipelineKernel,
)
from repro.core.chunk import Chunk

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
WRITE_WORKLOADS = ("table1_node", "tiny_records", "bulk_contend")


def _round(name: str, seed: int, tmp_path, **kw) -> dict:
    spec = RoundSpec(
        workload=name, seed=seed, profile="quick", fixed_epochs=4,
        data_root=str(tmp_path / f"{name}-{seed}"), spawn_t=time.time(), **kw,
    )
    return run_round(spec)


@pytest.fixture(scope="module")
def quick_run() -> dict:
    """One quick end-to-end run of all four workloads."""
    return run.run_workloads(list(WORKLOADS), seed=2011, seconds=1.0, profile="quick")


def test_benchmark_json_is_the_manifest_and_within_the_contract():
    with open(bench.ROOT / "BENCHMARK.json") as f:
        on_disk = json.load(f)
    assert on_disk == manifest()
    assert set(on_disk) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    names = [w["name"] for w in on_disk["workloads"]]
    names += [m["name"] for m in on_disk["end_to_end"] + on_disk["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert all(UNIT.fullmatch(m["unit"]) for m in on_disk["end_to_end"] + on_disk["per_layer"])
    assert 2 <= len(on_disk["workloads"]) <= 8
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in on_disk["workloads"])
    assert 1 <= len(on_disk["end_to_end"]) <= 16
    assert 1 <= len(on_disk["per_layer"]) <= 128
    bounds = {m["name"]: m["bound"] for m in on_disk["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert 1 <= on_disk["run_seconds"] <= 60


def test_result_schema_all_metrics_for_all_workloads(quick_run):
    assert set(quick_run["workloads"]) == set(WORKLOADS)
    for name, w in quick_run["workloads"].items():
        assert set(w["metrics"]) == {m.name for m in END_TO_END}
        assert all(value > 0 for value in w["metrics"].values()), (name, w["metrics"])
        assert w["attempted"] > 0 and w["failed"] == 0 and w["errors"] == []
        assert w["info"]["epochs_per_round"] == [4]
    fingerprint = quick_run["fingerprint"]
    assert fingerprint["profile"] == "quick"  # never comparable with a full run
    for key in ("nproc", "python", "gil", "load1_at_start", "git_sha", "harness_digest"):
        assert key in fingerprint
    media = {w["info"]["medium"].split("/")[0] for w in quick_run["workloads"].values()}
    assert media <= {"tmpfs", "disk", "null", "unknown"}


def test_command_line_prints_the_result_as_its_last_line():
    done = subprocess.run(
        [sys.executable, "-m", "bench.run", "--workload", "bulk_contend", "--seed", "3",
         "--seconds", "1", "--trace", "0", "--quick"],
        cwd=bench.ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    assert set(last["metrics"]) == {m.name for m in END_TO_END}
    assert all(set(v) == {"value", "unit"} for v in last["metrics"].values())


def test_same_seed_same_calls_and_backend_counts(tmp_path):
    for name in WRITE_WORKLOADS:
        first = _round(name, 7, tmp_path)
        second = _round(name, 7, tmp_path)
        assert first["call_stream_digest"] == second["call_stream_digest"]
        assert first["backend"] == second["backend"]
        assert first["logical_bytes_per_epoch"] == second["logical_bytes_per_epoch"]
        assert first["ops"] == second["ops"] and first["ops"]["failed"] == 0


def test_a_second_seed_changes_the_streams_but_not_their_totals():
    for name in ("table1_node", "tiny_records"):
        a = build_plans(WORKLOADS[name], 7, "quick")
        b = build_plans(WORKLOADS[name], 8, "quick")
        assert call_stream_digest(a) != call_stream_digest(b)
        assert [len(p.sizes) for p in a] == [len(p.sizes) for p in b]
        assert [p.image_bytes for p in a] == [p.image_bytes for p in b]
        assert a[0].image_digest() != b[0].image_digest()
    sizes = build_plans(WORKLOADS["tiny_records"], 8, "quick")[0].sizes
    assert min(sizes) >= 8 and max(sizes) <= 63


def test_injected_corruption_is_exactly_one_failed_op(capsys):
    code = run.main(["--workload", "table1_node", "--quick", "--inject-corruption"])
    last = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code != 0
    assert last["correct"] is False and last["failed"] == 1


def test_corrupted_image_fails_the_restore_check_once(tmp_path):
    result = _round("restart_readback", 7, tmp_path, inject_corruption=True)
    assert result["ops"]["failed"] == 1
    assert "digest" in result["errors"][0]


def test_traced_round_restores_the_methods_and_its_spans_nest(tmp_path):
    originals = (CRFSFile.write, PipelineKernel.emit, Chunk.append, NullBackend.pwrite)
    assert "pread_into" not in NullBackend.__dict__
    trace_path = tmp_path / "trace.json"
    traced = _round("tiny_records", 7, tmp_path, trace_path=str(trace_path))
    assert (CRFSFile.write, PipelineKernel.emit, Chunk.append, NullBackend.pwrite) == originals
    assert "pread_into" not in NullBackend.__dict__

    trace = json.loads(trace_path.read_text())
    spans = {row[0]: row for row in trace["spans"]}
    assert len(spans) == len(trace["spans"]) > 1000
    covered: dict[int, float] = {}
    for sid, _name, start, end, parent, thread in trace["spans"]:
        assert end >= start
        if parent:
            assert parent in spans, "every recorded parent id resolves"
            p = spans[parent]
            assert p[5] == thread and p[2] <= start and end <= p[3]
            covered[parent] = covered.get(parent, 0.0) + (end - start)
    for sid, covered_s in covered.items():
        _, _, start, end, _, _ = spans[sid]
        assert (end - start) - covered_s >= -1e-9, "self time is never negative"
    assert {"core.handle.write", "pipeline.kernel.emit"} <= {row[1] for row in trace["spans"]}
    for layer in traced["layers"].values():
        assert 0.0 <= layer["self_s"] <= layer["total_s"] + 1e-9

    untraced = _round("tiny_records", 7, tmp_path, ceilings=True)
    layers = per_layer(traced, untraced)
    assert list(layers) == [m.name for m in PER_LAYER]
    calls = len(build_plans(WORKLOADS["tiny_records"], 7, "quick")[0].sizes)
    assert layers["core.handle.write_calls"] == calls
    assert layers["trace.overhead_ratio"] > 0 and layers["ceiling.memcpy_mib_s"] > 0


def test_a_client_thread_that_raises_is_counted_as_failed_ops():
    workload = WORKLOADS["tiny_records"]
    plans = build_plans(workload, 7, "quick")
    rule = FaultRule(op="pwrite", every=True, error=BackendIOError("injected"))
    with CRFS(FaultyBackend(NullBackend(), rules=[rule]), workload.crfs_config()) as fs:
        rnd = _Round(workload, plans, fs)
        rnd.epoch()
    assert rnd.attempted == len(plans[0].sizes) + 2
    assert 1 <= rnd.failed <= 2  # the fsync that raised, and the close after it
    assert len(rnd.errors) == 1 and "BackendIOError" in rnd.errors[0]
