"""The benchmark's one command.

    python -m bench.run [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]]

Without ``--workload`` all four workloads run, their rounds interleaved
round-robin so each samples several time windows.  Every metric is
printed by name and unit, outputs are verified, and the exit code is
non-zero if any operation failed.  The last line of standard output is
one JSON object (``correct``, ``attempted``, ``failed``, ``metrics``).

``--trace 0`` (default) measures the end-to-end metrics with tracing
off.  ``--trace 1`` is a separate run — one untraced round beside one
traced round — that prints the per-layer metrics and writes
``bench/out/trace_<workload>.json``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

from . import OUT_DIR, ROOT

__all__ = ["main", "run_workloads"]

_ROUNDS = 3
#: Fresh launches that only set up, so ``setup_s`` is a minimum of
#: ``_ROUNDS + _SETUP_ONLY`` launches.
_SETUP_ONLY = 4
#: Seconds a child may take beyond its timed budget before it is killed.
_CHILD_GRACE_S = 120


def _launch(spec: Any) -> dict[str, Any]:
    """Run one round in a fresh interpreter and return its result."""
    spec = dataclasses.replace(spec, spawn_t=time.time())
    try:
        done = subprocess.run(
            [sys.executable, "-m", "bench.child", json.dumps(dataclasses.asdict(spec))],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
            timeout=spec.budget_s + _CHILD_GRACE_S,
        )
    finally:
        # The child removes its own data; this covers a killed child.
        shutil.rmtree(spec.data_root, ignore_errors=True)
    if done.returncode != 0:
        raise RuntimeError(f"bench.child exited with {done.returncode} for {spec.workload}")
    return json.loads(done.stdout.splitlines()[-1])


def _git_sha() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT, capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _harness_digest() -> str:
    """Identifies the harness code where there is no git to ask."""
    h = hashlib.blake2b(digest_size=8)
    for path in sorted(Path(__file__).parent.glob("*.py")):
        h.update(path.read_bytes())
    return h.hexdigest()


def _fingerprint(seed: int, seconds: float, profile: str) -> dict[str, Any]:
    gil = getattr(sys, "_is_gil_enabled", lambda: True)()
    return {
        "nproc": os.cpu_count(),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "python_build": " ".join(platform.python_build()),
        "gil": "enabled" if gil else "free-threaded",
        "load1_at_start": os.getloadavg()[0],
        "git_sha": _git_sha(),
        "harness_digest": _harness_digest(),
        "seed": seed,
        "seconds": seconds,
        "profile": profile,
    }


def run_workloads(
    names: list[str],
    seed: int,
    seconds: float,
    profile: str = "full",
    trace: bool = False,
    inject_corruption: bool = False,
) -> dict[str, Any]:
    """Run the named workloads; returns ``{"fingerprint", "workloads"}``
    with, per workload, its metrics, info and op counts."""
    # Imported here, not at module level: in a directory without the
    # program's source the command must fail before printing a result.
    from .child import RoundSpec
    from .metrics import end_to_end, per_layer

    quick = profile == "quick"
    fingerprint = _fingerprint(seed, seconds, profile)
    data = OUT_DIR / "data"
    data.mkdir(parents=True, exist_ok=True)
    launches = 0

    def spec(name: str, budget_s: float, **kw: Any) -> Any:
        nonlocal launches
        launches += 1
        # The quick profile runs exactly 4 epochs so the tests see fixed work.
        return RoundSpec(
            workload=name, seed=seed, profile=profile, budget_s=budget_s,
            fixed_epochs=4 if quick else 0,
            data_root=str(data / f"{os.getpid()}-{launches}"), **kw,
        )

    rounds: dict[str, list[dict[str, Any]]] = {name: [] for name in names}
    setups: dict[str, list[float]] = {name: [] for name in names}
    out: dict[str, Any] = {}
    if trace:
        for name in names:
            untraced = _launch(spec(name, seconds / 2, ceilings=True))
            traced = _launch(
                spec(name, seconds / 2, trace_path=str(OUT_DIR / f"trace_{name}.json"))
            )
            rounds[name] = [untraced, traced]
            out[name] = {"metrics": per_layer(traced, untraced), "info": {}}
    else:
        n_rounds, n_setups = (1, 1) if quick else (_ROUNDS, _SETUP_ONLY)
        corrupt = inject_corruption
        for i in range(max(n_rounds, n_setups)):
            for name in names:
                if i < n_rounds:
                    result = _launch(
                        spec(name, seconds / n_rounds, inject_corruption=corrupt)
                    )
                    corrupt = False  # exactly one file of one round
                    rounds[name].append(result)
                    setups[name].append(result["setup_s"])
                if i < n_setups:
                    setups[name].append(
                        _launch(spec(name, 0.0, setup_only=True))["setup_s"]
                    )
        for name in names:
            out[name] = end_to_end(rounds[name], setups[name])
    for name in names:
        out[name]["attempted"] = sum(r["ops"]["attempted"] for r in rounds[name])
        out[name]["failed"] = sum(r["ops"]["failed"] for r in rounds[name])
        out[name]["errors"] = [e for r in rounds[name] for e in r["errors"]]
        out[name]["info"]["medium"] = "/".join(rounds[name][0]["medium"])
        out[name]["info"]["call_stream_digest"] = rounds[name][0]["call_stream_digest"]
    return {"fingerprint": fingerprint, "workloads": out}


def _print_report(result: dict[str, Any], metrics: tuple[Any, ...]) -> None:
    for name, w in result["workloads"].items():
        print(f"== {name}  attempted={w['attempted']} failed={w['failed']}")
        for m in metrics:
            bound = f"  (bound {m.bound:.0%})" if m.bound is not None else ""
            print(f"  {m.name:<34} {w['metrics'][m.name]:>16.6g} {m.unit}{bound}")
        for key, value in w["info"].items():
            print(f"  . {key} = {value}")
        for error in w["errors"][:5]:
            print(f"  ! {error.strip().splitlines()[-1]}")
    print(f"fingerprint: {json.dumps(result['fingerprint'])}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m bench.run", description=__doc__.split("\n")[0]
    )
    parser.add_argument("--workload", help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=2011, help="drives input generation only")
    parser.add_argument("--seconds", type=float, help="timed seconds per workload")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument(
        "--quick", action="store_true",
        help="1 round, 4 epochs, images / 8: for the harness's own tests only",
    )
    parser.add_argument(
        "--inject-corruption", action="store_true",
        help="flip one byte of one backend file before the output check",
    )
    args = parser.parse_args(argv)
    try:
        from .metrics import END_TO_END, PER_LAYER, RUN_SECONDS
        from .workloads import WORKLOADS
    except ImportError as exc:
        print(f"bench: cannot import the program under test: {exc}", file=sys.stderr)
        return 2
    if args.workload is not None and args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    names = [args.workload] if args.workload else list(WORKLOADS)
    if args.inject_corruption and WORKLOADS[names[0]].backend != "localdir":
        parser.error(f"{names[0]} keeps no backend file to corrupt")
    seconds = args.seconds if args.seconds is not None else RUN_SECONDS
    result = run_workloads(
        names, args.seed, seconds,
        profile="quick" if args.quick else "full",
        trace=bool(args.trace), inject_corruption=args.inject_corruption,
    )
    metrics = PER_LAYER if args.trace else END_TO_END
    _print_report(result, metrics)
    workloads = result["workloads"]
    failed = sum(w["failed"] for w in workloads.values())
    summary: dict[str, Any] = {
        "correct": failed == 0,
        "attempted": sum(w["attempted"] for w in workloads.values()),
        "failed": failed,
    }

    def block(w: dict[str, Any]) -> dict[str, Any]:
        return {m.name: {"value": w["metrics"][m.name], "unit": m.unit} for m in metrics}

    if args.workload:
        summary["metrics"] = block(workloads[args.workload])
    else:
        summary["metrics"] = {name: block(w) for name, w in workloads.items()}
    print(json.dumps(summary))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
