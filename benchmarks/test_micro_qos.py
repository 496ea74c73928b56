"""MICRO-QOS — cost of the scheduling/QoS plane, on and off.

The QoS plane touches every RPC twice: the client port stamps an
identity, takes an AIMD window slot, and inspects the outcome; the
daemon pool pushes the request through a weighted-fair queue, a token
bucket, and per-client accounting before a lane worker executes it.
Two bounds keep it honest:

* **disabled** (the default) — zero cost by construction, not by
  measurement: no ``ClientPort`` wrapper, the loopback transport on the
  network, no pools, no qos metrics registered.  A structural test pins
  this, immune to timing noise — and it is the bound that matters,
  because the paper's baseline numbers are produced with QoS off.
* **enabled** — the full fairness machinery (WFQ heap ops, token
  buckets, window bookkeeping, share ledgers, wait/depth histograms)
  must stay below 60 % over the same workload on the *threaded*
  transport with the same worker count.  That baseline already pays
  the queue hand-off into a handler thread, so the measured delta is
  the scheduling plane itself, not the cost of leaving the inline
  loopback path (which is a concurrency decision, priced by the
  threaded transport's own benchmark).

The workload is chunk-sized pwrite/pread (128 KiB), matching the other
micro benchmarks: per-RPC scheduling cost is fixed, so the bound is
meaningful relative to RPCs carrying real payloads.  Methodology
matches ``test_micro_telemetry.py``: interleaved runs across fresh
cluster pairs, pooled minima (noise is one-sided), one repeat on a
budget miss.
"""

import gc
import os
import time

from repro.analysis.report import render_table
from repro.core import FSConfig, GekkoFSCluster
from repro.qos import ClientPort

CHUNK = 131072
FILES = 30
CHUNKS_PER_FILE = 8
DATA = b"q" * (CHUNK * CHUNKS_PER_FILE)
NODES = 4
BLOCKS = 3  # fresh cluster pairs, against per-instance placement bias
REPS = 5  # alternating workload runs per block
BUDGET = 1.60  # scheduling + fairness accounting must stay below 60 %


def _workload(cluster) -> None:
    client = cluster.client(0)
    for i in range(FILES):
        fd = client.open(f"/gkfs/q{i}", os.O_CREAT | os.O_RDWR)
        client.pwrite(fd, DATA, 0)
        client.pread(fd, len(DATA), 0)
        client.close(fd)
    for i in range(FILES):
        client.unlink(f"/gkfs/q{i}")


def _timed(cluster) -> float:
    gc.collect()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _workload(cluster)
        return time.perf_counter() - t0
    finally:
        gc.enable()


def _sweep():
    # Matched concurrency: 4 threaded handlers vs 2 meta + 2 data workers.
    off_config = FSConfig(chunk_size=CHUNK)
    on_config = FSConfig(chunk_size=CHUNK, qos_enabled=True)
    pairs = []
    for _ in range(BLOCKS):
        with GekkoFSCluster(
            num_nodes=NODES, config=off_config, threaded=True, handlers_per_daemon=4
        ) as off_fs:
            with GekkoFSCluster(num_nodes=NODES, config=on_config) as on_fs:
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
            ["configuration", "best wall-clock", "vs threaded baseline"],
            [
                ["threaded, no qos", f"{off_best * 1e3:.1f} ms", "1.00x"],
                [
                    "pools+wfq+windows",
                    f"{on_best * 1e3:.1f} ms",
                    f"{ratio:.2f}x (best of {BLOCKS}x{REPS} interleaved reps)",
                ],
            ],
            title=(
                f"MICRO-QOS: {FILES} files x {CHUNKS_PER_FILE} chunks, "
                f"{NODES} daemons, full scheduling + fairness accounting"
            ),
        )
    )
    return ratio


def test_micro_qos_enabled_overhead(benchmark):
    ratio = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    if ratio >= BUDGET:
        ratio = min(ratio, _sweep())
    assert ratio < BUDGET, f"qos overhead {ratio:.3f}x exceeds {BUDGET}x"


def test_disabled_is_structurally_free():
    """Off means off: the default config wires no scheduling plane, so
    the per-RPC cost is an attribute-is-None branch at cluster build."""
    from repro.rpc.transport import LoopbackTransport

    with GekkoFSCluster(num_nodes=2, config=FSConfig(chunk_size=CHUNK)) as fs:
        # The network keeps the inline loopback transport...
        assert type(fs.network.transport) is LoopbackTransport
        client = fs.client(0)
        # ...clients talk to it directly, with no retry/window wrapper
        # (the freeze gate is one attribute read in the client itself)...
        assert not isinstance(client.network, ClientPort)
        assert client.network is fs.network
        client.write_bytes("/gkfs/free", b"x" * CHUNK)
        # ...no daemon registers qos gauges or histograms...
        for daemon in fs.daemons:
            assert not any("qos" in n for n in daemon.metrics.names())
        # ...and the share ledger has nothing to report.
        assert fs.client_shares() == {}
