"""The BENCH artifact schema.

One ``BENCH_<timestamp>.json`` is one harness run:

.. code-block:: text

    {
      "schema_version": 1,
      "kind": "crfs-perf-bench",
      "created": "2026-08-05T12:00:00Z",   # excluded from determinism
      "seed": 2011,
      "fast": false,
      "planes": {
        "sim": {"<scenario>": {<metrics>, "stats": {<snapshot>}}, ...}
      }
    }

Everything under ``planes`` is the *metric section*, a pure function of
(code, seed, scenario set): it is what :func:`canonical_metrics`
serializes for byte-identity checks and what ``compare`` gates CI on.
``sim`` is its only plane.  ``created`` and the header fields exist for
humans and provenance only.
"""

from __future__ import annotations

import datetime
import json
import pathlib
from typing import Any

__all__ = [
    "ArtifactError",
    "SCHEMA_VERSION",
    "ARTIFACT_KIND",
    "REQUIRED_METRICS",
    "artifact_filename",
    "build_artifact",
    "canonical_metrics",
    "dump_artifact",
    "load_artifact",
    "validate_artifact",
]

SCHEMA_VERSION = 1
ARTIFACT_KIND = "crfs-perf-bench"

#: Scalar metrics every scenario block must carry (``stats`` rides along
#: as the full snapshot).  ``compare`` has a gating policy for each.
REQUIRED_METRICS = (
    "bytes_in",
    "writes",
    "elapsed_s",
    "goodput_mib_s",
    "write_latency_p50_s",
    "write_latency_p95_s",
    "chunk_write_p50_s",
    "chunk_write_p95_s",
    "chunks_queued",
    "chunks_written",
    "drain_waits",
    "drain_time_s",
    "bytes_copied",
    "copies",
)


class ArtifactError(ValueError):
    """A BENCH artifact is malformed or from an unknown schema version."""


def artifact_filename(created: str) -> str:
    """``BENCH_<compact-utc-stamp>.json`` for a ``created`` ISO string."""
    stamp = created.replace("-", "").replace(":", "")
    return f"BENCH_{stamp}.json"


def utc_now() -> str:
    """Second-resolution UTC timestamp, Z-suffixed."""
    return (
        datetime.datetime.now(datetime.timezone.utc)
        .replace(microsecond=0)
        .isoformat()
        .replace("+00:00", "Z")
    )


def build_artifact(
    scenarios: dict[str, Any],
    seed: int,
    fast: bool = False,
    created: str | None = None,
) -> dict[str, Any]:
    """Assemble and validate one artifact from ``{scenario: metrics}``."""
    artifact = {
        "schema_version": SCHEMA_VERSION,
        "kind": ARTIFACT_KIND,
        "created": created if created is not None else utc_now(),
        "seed": seed,
        "fast": fast,
        "planes": {"sim": scenarios},
    }
    validate_artifact(artifact)
    return artifact


def validate_artifact(artifact: Any) -> None:
    """Raise :class:`ArtifactError` unless ``artifact`` is well-formed."""
    if not isinstance(artifact, dict):
        raise ArtifactError(f"artifact must be an object, got {type(artifact).__name__}")
    for key in ("schema_version", "kind", "created", "seed", "planes"):
        if key not in artifact:
            raise ArtifactError(f"artifact missing required key {key!r}")
    if artifact["kind"] != ARTIFACT_KIND:
        raise ArtifactError(f"not a perf artifact: kind={artifact['kind']!r}")
    if artifact["schema_version"] != SCHEMA_VERSION:
        raise ArtifactError(
            f"schema version {artifact['schema_version']!r} unsupported "
            f"(this harness speaks {SCHEMA_VERSION})"
        )
    planes = artifact["planes"]
    if not isinstance(planes, dict) or set(planes) != {"sim"}:
        found = sorted(planes) if isinstance(planes, dict) else type(planes).__name__
        raise ArtifactError(f"artifact 'planes' must hold the sim plane alone, got {found}")
    scenarios = planes["sim"]
    if not isinstance(scenarios, dict) or not scenarios:
        raise ArtifactError("the sim plane has no scenarios")
    for name, metrics in scenarios.items():
        missing = [m for m in REQUIRED_METRICS if m not in metrics]
        if missing:
            raise ArtifactError(f"{name}: missing metric(s) {missing}")
        if "stats" not in metrics:
            raise ArtifactError(f"{name}: missing stats snapshot")


def canonical_metrics(artifact: dict[str, Any]) -> str:
    """The metric section as canonical (sorted, compact) JSON.

    Two runs at the same seed must produce byte-identical strings — the
    determinism contract the tests and the ``perfbench`` experiment
    assert.
    """
    return json.dumps(artifact["planes"]["sim"], sort_keys=True, separators=(",", ":"))


def dump_artifact(artifact: dict[str, Any], path: str | pathlib.Path) -> pathlib.Path:
    """Validate and write one artifact; returns the path written."""
    validate_artifact(artifact)
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(artifact, indent=2, sort_keys=True) + "\n")
    return path


def load_artifact(path: str | pathlib.Path) -> dict[str, Any]:
    """Read and validate one artifact."""
    path = pathlib.Path(path)
    try:
        artifact = json.loads(path.read_text())
    except FileNotFoundError:
        raise ArtifactError(f"no such artifact: {path}") from None
    except json.JSONDecodeError as exc:
        raise ArtifactError(f"{path}: not JSON ({exc})") from None
    validate_artifact(artifact)
    return artifact
