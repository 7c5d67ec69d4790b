"""The perf artifact and the exact check that gates it.

One artifact is one ``python -m repro.perf run``: every arm of the
workload table (:func:`repro.experiments.perfbench.table`) played on the
timing plane, as :func:`repro.experiments.crossplane.metrics` reads it:

.. code-block:: text

    {
      "seed": 2011,
      "fast": false,
      "planes": {
        "sim": {"<arm>": {<metrics>, "stats": {<snapshot>}}, ...}
      }
    }

The sim plane runs on a virtual clock, so everything under ``planes`` is
a pure function of (code, seed, size class), and two runs write
byte-identical files.  The gate is therefore equality, not a tolerance:
:func:`check` re-plays the table at the baseline's own seed and size
class and :func:`diff` lists every path where the two ``planes``
sections differ.  Ints, bools, strings and ``None`` must be equal;
floats must agree within ``REL_TOL``, which covers summation order
(CPython 3.12's ``sum()`` of floats differs from 3.11's) and nothing a
model change could produce.
"""

from __future__ import annotations

import json
import math
import pathlib
from typing import Any

from ..experiments.perfbench import suite

__all__ = [
    "REL_TOL",
    "ArtifactError",
    "build_artifact",
    "check",
    "diff",
    "dump_artifact",
    "load_artifact",
]

REL_TOL = 1e-9


class ArtifactError(ValueError):
    """A perf artifact cannot be read."""


def build_artifact(arms: dict[str, Any], seed: int, fast: bool) -> dict[str, Any]:
    """One artifact from ``{arm: metrics}``, as it reads back from its
    file (JSON object keys are strings, tuples are lists)."""
    return json.loads(json.dumps({"seed": seed, "fast": fast, "planes": {"sim": arms}}))


def dump_artifact(artifact: dict[str, Any], path: str | pathlib.Path) -> pathlib.Path:
    """Write one artifact; returns the path written."""
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(artifact, indent=2, sort_keys=True) + "\n")
    return path


def load_artifact(path: str | pathlib.Path) -> dict[str, Any]:
    """Read one artifact; :class:`ArtifactError` says why it cannot be."""
    path = pathlib.Path(path)
    try:
        artifact = json.loads(path.read_text())
    except FileNotFoundError:
        raise ArtifactError(f"no such artifact: {path}") from None
    except json.JSONDecodeError as exc:
        raise ArtifactError(f"{path}: not JSON ({exc})") from None
    if not (
        isinstance(artifact, dict)
        and type(artifact.get("seed")) is int
        and type(artifact.get("fast")) is bool
        and isinstance(artifact.get("planes"), dict)
    ):
        raise ArtifactError(f"{path}: not a perf artifact (wants int seed, bool fast, planes)")
    return artifact


def _equal(new: Any, base: Any) -> bool:
    if float in (type(new), type(base)):
        return {type(new), type(base)} <= {int, float} and math.isclose(new, base, rel_tol=REL_TOL)
    return type(new) is type(base) and new == base


def diff(new: Any, base: Any, path: str) -> list[str]:
    """Every path under ``path`` where ``new`` differs from ``base``,
    with both values."""
    if isinstance(new, dict) and isinstance(base, dict):
        out = []
        for key in sorted(base.keys() | new.keys()):
            where = f"{path}.{key}"
            if key not in new:
                out.append(f"{where}: in the baseline, missing from this run")
            elif key not in base:
                out.append(f"{where}: in this run, missing from the baseline")
            else:
                out += diff(new[key], base[key], where)
        return out
    if isinstance(new, list) and isinstance(base, list) and len(new) == len(base):
        return [d for i, pair in enumerate(zip(new, base)) for d in diff(*pair, f"{path}[{i}]")]
    return [] if _equal(new, base) else [f"{path}: baseline {base!r}, this run {new!r}"]


def check(baseline: dict[str, Any]) -> list[str]:
    """Play the table at ``baseline``'s seed and size class; every path
    of ``planes`` that differs from it (empty: the check passes)."""
    seed, fast = baseline["seed"], baseline["fast"]
    fresh = build_artifact(suite(seed, fast), seed, fast)
    return diff(fresh["planes"], baseline["planes"], "planes")
