"""MICRO-METACACHE — cost of the metadata-cache plane on the socket path.

PR 9 added a client metadata cache (TTL leases + invalidation on every
local mutation) and a daemon hot-key plane (per-key access accounting,
adaptive replication).  Both ride every metadata RPC, and the client
plane additionally hooks the data path (size updates must invalidate
leases), so two bounds keep it honest:

* **enabled, uncached traffic** — every path in the workload is touched
  once, so the lease cache never converts a stat into a hit and the
  daemon tracker accounts each key without ever promoting it.  That is
  the worst case: all of the bookkeeping, none of the payoff.  It must
  cost < 10 % over the identical workload with the plane off.
* **disabled** (the default) — zero cost by construction: no cache on
  the client, no tracker or replica table on the daemon, the original
  ``gkfs_stat`` handler path.  A structural test pins this, immune to
  timing noise.

Methodology matches ``test_micro_observability.py``: interleaved off/on
runs across fresh cluster pairs (the baseline itself drifts tens of
percent between blocks, so only paired runs compare fairly), pooled
minima (noise is one-sided), one repeat on a budget miss to damp
sustained machine-load bursts.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/test_micro_metacache.py --benchmark-only -s

Set ``BENCH_METACACHE_JSON=/path/out.json`` to export the measured
overhead (CI uploads it as the ``BENCH_METACACHE.json`` artifact).
"""

import gc
import json
import os
import time

from repro.analysis.report import render_table
from repro.core import FSConfig
from repro.net import LocalSocketCluster

CHUNK = 131072
FILES = 30
CHUNKS_PER_FILE = 4
DATA = b"m" * (CHUNK * CHUNKS_PER_FILE)
NODES = 3
BLOCKS = 3  # fresh cluster pairs, against per-instance placement bias
REPS = 5  # alternating workload runs per block
BUDGET = 1.10  # the full plane must stay below 10 %

_round = 0  # distinct paths every run keep the lease cache cold


def _workload(cluster) -> None:
    global _round
    _round += 1
    client = cluster.client(0)
    paths = [f"/gkfs/m{_round}_{i}" for i in range(FILES)]
    for path in paths:
        fd = client.open(path, os.O_CREAT | os.O_RDWR)
        client.pwrite(fd, DATA, 0)
        client.pread(fd, len(DATA), 0)
        client.close(fd)
    for path in paths:
        client.stat(path)  # one stat per path: always a miss, never a hit
    for path in paths:
        client.unlink(path)


def _timed(cluster) -> float:
    gc.collect()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _workload(cluster)
        return time.perf_counter() - t0
    finally:
        gc.enable()


def _sweep() -> float:
    off_config = FSConfig(chunk_size=CHUNK)
    # Hot plane on with the default (high) threshold: the tracker
    # accounts every key on the timed path, but single-touch paths never
    # promote — pure bookkeeping cost, no replication payoff.
    on_config = FSConfig(
        chunk_size=CHUNK,
        metacache_enabled=True,
        metacache_hot_enabled=True,
    )
    pairs = []
    for _ in range(BLOCKS):
        with LocalSocketCluster(NODES, off_config) as off_fs:
            with LocalSocketCluster(NODES, on_config) as on_fs:
                _workload(off_fs)  # warm-up, both code paths compiled
                _workload(on_fs)
                for _ in range(REPS):
                    pairs.append((_timed(off_fs), _timed(on_fs)))
    off_best = min(o for o, _ in pairs)
    on_best = min(t for _, t in pairs)
    ratio = on_best / off_best
    print()
    print(
        render_table(
            ["configuration", "best wall-clock", "vs metacache off"],
            [
                ["metacache off", f"{off_best * 1e3:.1f} ms", "1.00x"],
                [
                    "lease cache + hot plane, all misses",
                    f"{on_best * 1e3:.1f} ms",
                    f"{ratio:.2f}x (best of {BLOCKS}x{REPS} interleaved reps)",
                ],
            ],
            title=(
                f"MICRO-METACACHE: {FILES} files x {CHUNKS_PER_FILE} chunks "
                f"+ 1 cold stat each over sockets, {NODES} daemons"
            ),
        )
    )
    out = os.environ.get("BENCH_METACACHE_JSON")
    if out:
        with open(out, "w") as fh:
            json.dump(
                {
                    "daemons": NODES,
                    "files": FILES,
                    "chunk_bytes": CHUNK,
                    "chunks_per_file": CHUNKS_PER_FILE,
                    "budget": BUDGET,
                    "metacache_off_ms": round(off_best * 1e3, 3),
                    "metacache_on_ms": round(on_best * 1e3, 3),
                    "overhead_ratio": round(ratio, 4),
                },
                fh,
                indent=2,
            )
    return ratio


def test_micro_metacache_enabled_overhead(benchmark):
    ratio = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    if ratio >= BUDGET:
        ratio = min(ratio, _sweep())
    assert ratio < BUDGET, f"metacache overhead {ratio:.3f}x exceeds {BUDGET}x"


def test_disabled_is_structurally_free():
    """Off means off: a default-config deployment wires none of the
    plane — no lease cache on the client, no tracker or replica table on
    the daemon, and no metacache gauges exporting zeros."""
    with LocalSocketCluster(2, FSConfig(chunk_size=CHUNK)) as fs:
        for served in fs.served:
            assert served.daemon.hotmeta is None
        client = fs.client(0)
        assert client.meta.leases is None
        client.write_bytes("/gkfs/free", b"x" * CHUNK)
        client.stat("/gkfs/free")
        gauges = client.metrics_registry.snapshot()["gauges"]
        assert not any(name.startswith("metacache.") for name in gauges)
