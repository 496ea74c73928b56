"""MICRO-ASYNC — what RPC pipelining buys on real handler pools.

The paper's client forwards every chunk of a transfer concurrently
(non-blocking ``margo_iforward``, §III-B) instead of one blocking RPC at
a time.  This bench makes the difference observable in wall-clock: the
chunk backends are slowed to storage-like latencies, then the same 16
chunks move twice across daemon counts — serialized by the *caller*, as
sixteen chunk-sized pwrite/pread calls one after another, and as one
16-chunk call the client fans out.  Serialized pays chunk-count × delay;
pipelined pays roughly chunks-per-daemon × delay — the fan-out overlaps
across daemons, so speedup tracks the daemon count.  (The serialized
baseline also pays one size update / one stat per call; both are small
against the 2 ms/chunk backend.)
"""

import os
import time

import pytest

from repro.analysis.report import render_table
from repro.core import FSConfig, GekkoFSCluster

CHUNK = 4096
CHUNKS = 16
DATA = b"p" * (CHUNK * CHUNKS)
DELAY = 0.002  # per-chunk storage latency injected below
DAEMON_COUNTS = (1, 2, 4, 8)
REPS = 3


class SlowStorage:
    """Delegating chunk-storage proxy that sleeps per chunk access."""

    def __init__(self, inner, delay: float):
        self._inner = inner
        self._delay = delay

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def write_chunk(self, *args, **kwargs):
        time.sleep(self._delay)
        return self._inner.write_chunk(*args, **kwargs)

    def read_chunk_verified(self, *args, **kwargs):
        time.sleep(self._delay)
        return self._inner.read_chunk_verified(*args, **kwargs)


def _measure(num_nodes: int) -> tuple[float, float, float, float]:
    """Best-of-REPS wall-clock for the 16 chunks written and read, chunk
    by chunk and as one call:
    ``(serial_write, pipelined_write, serial_read, pipelined_read)``."""
    config = FSConfig(chunk_size=CHUNK)
    with GekkoFSCluster(
        num_nodes=num_nodes, config=config, threaded=True, handlers_per_daemon=4
    ) as fs:
        for daemon in fs.daemons:
            daemon.storage = SlowStorage(daemon.storage, DELAY)
        client = fs.client(0)
        fd = client.open("/gkfs/bench", os.O_CREAT | os.O_RDWR)
        offsets = range(0, len(DATA), CHUNK)

        def serial_write():
            for offset in offsets:
                client.pwrite(fd, DATA[offset : offset + CHUNK], offset)

        def serial_read():
            for offset in offsets:
                client.pread(fd, CHUNK, offset)

        times = (
            min(_timed(serial_write) for _ in range(REPS)),
            min(_timed(client.pwrite, fd, DATA, 0) for _ in range(REPS)),
            min(_timed(serial_read) for _ in range(REPS)),
            min(_timed(client.pread, fd, len(DATA), 0) for _ in range(REPS)),
        )
        client.close(fd)
        return times


def _timed(fn, *args) -> float:
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


def _sweep():
    rows = []
    results = {}
    for nodes in DAEMON_COUNTS:
        serial_w, pipe_w, serial_r, pipe_r = _measure(nodes)
        results[nodes] = (serial_w / pipe_w, serial_r / pipe_r)
        rows.append(
            [
                str(nodes),
                f"{serial_w * 1e3:.1f} ms",
                f"{pipe_w * 1e3:.1f} ms",
                f"{serial_w / pipe_w:.1f}x",
                f"{serial_r * 1e3:.1f} ms",
                f"{pipe_r * 1e3:.1f} ms",
                f"{serial_r / pipe_r:.1f}x",
            ]
        )
    print()
    print(
        render_table(
            [
                "daemons",
                "serial write",
                "pipelined write",
                "speedup",
                "serial read",
                "pipelined read",
                "speedup",
            ],
            rows,
            title=f"MICRO-ASYNC: {CHUNKS}-chunk transfer, {DELAY * 1e3:.0f} ms/chunk backend",
        )
    )
    return results


def test_micro_async_pipelining_speedup(benchmark):
    results = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    # The paper's concurrency claim, scaled down: with >= 4 daemons the
    # pipelined fan-out must beat the chunk-by-chunk caller at least 2x
    # on both data directions.
    for nodes in DAEMON_COUNTS:
        if nodes >= 4:
            write_speedup, read_speedup = results[nodes]
            assert write_speedup >= 2.0, (nodes, write_speedup)
            assert read_speedup >= 2.0, (nodes, read_speedup)
