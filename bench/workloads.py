"""The four paper-shaped workloads and their seeded inputs.

A workload fixes *what each client thread is told to do* in one epoch:
the sequence of ``write()`` (or ``pread()``) sizes, and the bytes behind
them.  ``--seed`` reaches nothing else: every size plan, record size and
payload byte comes from ``rng_for(seed, "bench/<workload>/...")``, and
CRFS receives only the generated calls.

Sizes are the *full* profile's; the ``quick`` profile (harness tests
only) divides every image by 8.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from repro import CRFSConfig
from repro.checkpoint.sizedist import WriteSizeDistribution
from repro.units import KiB, MiB
from repro.util.rng import rng_for

__all__ = ["ClientPlan", "PROFILES", "WORKLOADS", "Workload", "build_plans", "call_stream_digest"]

#: profile name -> image divisor.  ``quick`` exists so the harness's own
#: tests finish in seconds; its numbers are never comparable with ``full``.
PROFILES = {"full": 1, "quick": 8}

#: Extra payload bytes past the largest call, so consecutive calls can
#: take their bytes from different offsets of the one reused buffer (a
#: chunk that lands at the wrong file offset then changes the digest).
_PAYLOAD_SLACK = 64 * KiB
_PAYLOAD_STRIDE = 257

#: Block size the restore workload's images are laid down with in set-up.
_IMAGE_BLOCK = 4 * MiB


def _table1_sizes(rng: np.random.Generator, image: int) -> list[int]:
    return WriteSizeDistribution().plan(image, rng)


def _tiny_sizes(rng: np.random.Generator, image: int) -> list[int]:
    """``image // 36`` records of 8..63 B summing to ``image`` exactly."""
    sizes = rng.integers(8, 64, size=image // 36)
    # Call and byte totals must not depend on the seed: nudge single
    # bytes, in seeded order, until the stream sums to the image.
    delta = image - int(sizes.sum())
    step = 1 if delta > 0 else -1
    room = np.flatnonzero(sizes < 63 if step > 0 else sizes > 8)
    if abs(delta) > len(room):
        raise ValueError(f"cannot fit {image} bytes into {len(sizes)} records of 8..63 B")
    sizes[rng.permutation(room)[: abs(delta)]] += step
    return [int(n) for n in sizes]


def _fixed_sizes(size: int) -> Callable[[np.random.Generator, int], list[int]]:
    def sizes(rng: np.random.Generator, image: int) -> list[int]:
        return [size] * (image // size)

    return sizes


@dataclass(frozen=True)
class Workload:
    """One benchmark workload (closed loop: ``clients`` threads, each
    issuing its next call when the previous one returned)."""

    name: str
    why: str
    kind: str  # "write": checkpoint epochs; "read": restore epochs
    clients: int
    image_bytes: int  # per client, full profile
    backend: str  # "localdir" or "null"
    sizes: Callable[[np.random.Generator, int], list[int]]
    pool: str = "16M"
    config: dict[str, Any] = field(default_factory=dict)

    def crfs_config(self) -> CRFSConfig:
        """The paper's operating point (4 MiB chunks, 4 IO threads)
        unless the workload says otherwise."""
        return CRFSConfig.from_sizes("4M", self.pool, io_threads=4, **self.config)


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="table1_node",
            why=(
                "Paper Table I write mix at one node's byte volume: half the calls <64 B, "
                "61% of bytes in >1 MiB writes; every layer works, none dominates - the headline"
            ),
            kind="write",
            clients=2,
            image_bytes=96 * MiB,
            backend="localdir",
            sizes=_table1_sizes,
        ),
        Workload(
            name="tiny_records",
            why=(
                "25k writes of 8-63 B into a discarding backend (Fig 5 rig): per-call cost only - "
                "handle, planner, event/stats bookkeeping; copy, pool, queue and backend idle"
            ),
            kind="write",
            clients=1,
            image_bytes=25_000 * 36,
            backend="null",
            sizes=_tiny_sizes,
        ),
        Workload(
            name="bulk_contend",
            why=(
                "2 writers of 8 MiB writes (LLM-shard shape) through a 4-chunk pool: per-call cost "
                "nil; chunk copy, pool waits, work queue, IO workers and backend do the work"
            ),
            kind="write",
            clients=2,
            image_bytes=128 * MiB,
            backend="localdir",
            sizes=_fixed_sizes(8 * MiB),
        ),
        Workload(
            name="restart_readback",
            why=(
                "2 readers restore 128 MiB images in 256 KiB preads through the readahead cache: "
                "the same pool, queue and IO workers run the other way, so a write-path gain "
                "that costs restart shows"
            ),
            kind="read",
            clients=2,
            image_bytes=128 * MiB,
            backend="localdir",
            sizes=_fixed_sizes(256 * KiB),
            pool="32M",
            config={"read_cache_chunks": 3, "readahead_chunks": 2},
        ),
    )
}


def _payload(rng: np.random.Generator, size: int) -> memoryview:
    """``size`` seeded bytes, filled a block at a time: ``rng.bytes``
    holds several transient copies of what it returns, and one 12 MiB
    call would put the harness, not the pool, in the child's peak RSS."""
    payload = bytearray(size)
    block = 256 * KiB
    for start in range(0, size, block):
        n = min(block, size - start)
        payload[start : start + n] = rng.bytes(n)
    return memoryview(payload)


@dataclass
class ClientPlan:
    """One client's generated inputs for an epoch."""

    path: str
    #: Sizes of the timed calls, in issue order at sequential offsets
    #: (``write()`` sizes, or ``pread()`` sizes for a restore).
    sizes: list[int]
    #: The image as a stream of views into the one reused payload buffer.
    #: For a write workload there is one view per call; a restore
    #: workload lays its image down with these in set-up.
    views: list[memoryview]
    image_bytes: int

    def image_digest(self) -> str:
        """blake2b of the image the backend must hold after an epoch."""
        h = hashlib.blake2b()
        for view in self.views:
            h.update(view)
        return h.hexdigest()


def build_plans(workload: Workload, seed: int, profile: str = "full") -> list[ClientPlan]:
    """Generate every client's calls and payload from ``seed``."""
    image = workload.image_bytes // PROFILES[profile]
    plans = []
    for client in range(workload.clients):
        label = f"bench/{workload.name}/client{client}"
        sizes = workload.sizes(rng_for(seed, label + "/sizes"), image)
        total = sum(sizes)
        if workload.kind == "write":
            stream = sizes
        else:
            stream = [_IMAGE_BLOCK] * (total // _IMAGE_BLOCK)
            if total % _IMAGE_BLOCK:
                stream.append(total % _IMAGE_BLOCK)
        payload = _payload(rng_for(seed, label + "/payload"), max(stream) + _PAYLOAD_SLACK)
        views = []
        for i, n in enumerate(stream):
            start = (i * _PAYLOAD_STRIDE) % (_PAYLOAD_SLACK + 1)
            views.append(payload[start : start + n])
        plans.append(
            ClientPlan(path=f"/client{client}.img", sizes=sizes, views=views, image_bytes=total)
        )
    return plans


def call_stream_digest(plans: list[ClientPlan]) -> str:
    """Digest of the timed call stream: (client, offset, size) in issue
    order.  Same seed, same digest; the determinism tests compare it."""
    h = hashlib.blake2b(digest_size=16)
    for client, plan in enumerate(plans):
        offset = 0
        for n in plan.sizes:
            h.update(struct.pack("<IQQ", client, offset, n))
            offset += n
    return h.hexdigest()
