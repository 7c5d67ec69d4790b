"""Artifact diffing and the regression gate.

``compare`` diffs a fresh artifact against the committed baseline,
scenario by scenario and metric by metric.  Deltas beyond a metric's
tolerance are **regressions** (nonzero exit in the CLI — the CI gate).

Tolerance policy (see :data:`POLICIES`): counters that are a pure
function of the workload (writes, chunks, bytes, copies) must match exactly —
any drift means the pipeline changed shape, which is exactly what a
perf PR must own up to by re-running ``update-baseline``.  Rates and
times get a relative tolerance, plus an absolute floor so microsecond
noise on near-zero values cannot trip the gate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..util.tables import TextTable
from .schema import REQUIRED_METRICS

__all__ = [
    "ComparisonReport",
    "MetricDelta",
    "MetricPolicy",
    "POLICIES",
    "compare_artifacts",
    "render_report",
]


@dataclass(frozen=True)
class MetricPolicy:
    """How one metric is judged.

    ``direction`` — which way is worse: ``"higher"`` means bigger is
    better (goodput), ``"lower"`` means smaller is better (latencies),
    ``"exact"`` means any change is a regression.  ``tolerance`` is the
    allowed relative change against the baseline; ``abs_floor`` is the
    absolute slack always granted (for near-zero times).
    """

    direction: str
    tolerance: float = 0.0
    abs_floor: float = 0.0

    def regressed(self, baseline: float, new: float) -> bool:
        if self.direction == "exact":
            return new != baseline
        allowance = max(abs(baseline) * self.tolerance, self.abs_floor)
        if self.direction == "higher":
            return new < baseline - allowance
        if self.direction == "lower":
            return new > baseline + allowance
        raise ValueError(f"unknown direction {self.direction!r}")


#: Per-metric gate policy; every schema-required metric has one.
POLICIES: dict[str, MetricPolicy] = {
    "bytes_in": MetricPolicy("exact"),
    "writes": MetricPolicy("exact"),
    "chunks_queued": MetricPolicy("exact"),
    "chunks_written": MetricPolicy("exact"),
    "drain_waits": MetricPolicy("exact"),
    "bytes_copied": MetricPolicy("exact"),
    "copies": MetricPolicy("exact"),
    "elapsed_s": MetricPolicy("lower", tolerance=0.10, abs_floor=1e-6),
    "goodput_mib_s": MetricPolicy("higher", tolerance=0.10),
    "write_latency_p50_s": MetricPolicy("lower", tolerance=0.15, abs_floor=1e-6),
    "write_latency_p95_s": MetricPolicy("lower", tolerance=0.15, abs_floor=1e-6),
    "chunk_write_p50_s": MetricPolicy("lower", tolerance=0.15, abs_floor=1e-6),
    "chunk_write_p95_s": MetricPolicy("lower", tolerance=0.15, abs_floor=1e-6),
    "drain_time_s": MetricPolicy("lower", tolerance=0.15, abs_floor=1e-6),
}


@dataclass(frozen=True)
class MetricDelta:
    """One (scenario, metric) comparison outcome."""

    scenario: str
    metric: str
    baseline: float
    new: float
    regressed: bool

    @property
    def change(self) -> float:
        """Relative change vs. the baseline (0.0 when baseline is 0)."""
        if self.baseline == 0:
            return 0.0
        return (self.new - self.baseline) / self.baseline


@dataclass
class ComparisonReport:
    """Everything ``compare`` found."""

    deltas: list[MetricDelta] = field(default_factory=list)
    #: Scenarios present in the baseline but absent from the new
    #: artifact — coverage loss fails the gate too.
    missing: list[str] = field(default_factory=list)
    #: Header disagreements (seed/fast) that make the diff
    #: apples-to-oranges — these fail the gate outright.
    mismatches: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def regressions(self) -> list[MetricDelta]:
        return [d for d in self.deltas if d.regressed]

    @property
    def ok(self) -> bool:
        return not self.regressions and not self.missing and not self.mismatches


def compare_artifacts(
    new: dict[str, Any], baseline: dict[str, Any]
) -> ComparisonReport:
    """Diff two artifacts: every required metric of every baseline scenario.

    Artifacts measured at a different seed or size class than the
    baseline are not comparable; that mismatch fails the gate before
    any metric is looked at.
    """
    report = ComparisonReport()
    for key in ("seed", "fast"):
        if new.get(key) != baseline.get(key):
            report.mismatches.append(
                f"{key}: new={new.get(key)!r} baseline={baseline.get(key)!r}"
            )
    if report.mismatches:
        return report
    new_sim, base_sim = new["planes"]["sim"], baseline["planes"]["sim"]
    for scenario, base_metrics in base_sim.items():
        if scenario not in new_sim:
            report.missing.append(scenario)
            continue
        new_metrics = new_sim[scenario]
        for metric in REQUIRED_METRICS:
            b, n = base_metrics[metric], new_metrics[metric]
            report.deltas.append(
                MetricDelta(scenario, metric, b, n, POLICIES[metric].regressed(b, n))
            )
    for scenario in new_sim:
        if scenario not in base_sim:
            report.notes.append(f"{scenario}: new scenario, no baseline yet")
    return report


def render_report(report: ComparisonReport, verbose: bool = False) -> str:
    """Human-readable comparison: regressions first."""
    table = TextTable(
        ["scenario", "metric", "baseline", "new", "change", "verdict"],
        title="Perf comparison (sim plane)",
    )
    shown = [d for d in report.deltas if verbose or d.regressed]
    for d in sorted(shown, key=lambda d: (not d.regressed, d.scenario, d.metric)):
        table.add_row(
            [
                d.scenario,
                d.metric,
                f"{d.baseline:.6g}",
                f"{d.new:.6g}",
                f"{d.change:+.1%}",
                "REGRESSION" if d.regressed else "ok",
            ]
        )
    lines = [table.render()]
    if not shown:
        lines.append("no metric drift beyond tolerance")
    for missing in report.missing:
        lines.append(f"MISSING: {missing} (baseline scenario not measured)")
    for mismatch in report.mismatches:
        lines.append(f"MISMATCH: {mismatch} (artifacts are not comparable)")
    for note in report.notes:
        lines.append(f"note: {note}")
    lines.append(
        "gate: PASS"
        if report.ok
        else f"gate: FAIL ({len(report.regressions)} regression(s), "
        f"{len(report.missing)} missing, {len(report.mismatches)} mismatch(es))"
    )
    return "\n".join(lines)
