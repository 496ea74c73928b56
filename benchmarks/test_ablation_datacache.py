"""ABL-CACHE-DATA — client chunk cache (§V future work #2, data side).

The paper's system is deliberately cache-less; §V names "evaluate
benefits of caching" as future work.  This bench measures the first
step — an LRU chunk cache with intra-chunk readahead — on the functional
stack: RPC savings for re-read working sets, and the miss penalty for
streaming (read-once) workloads.
"""

import os

import pytest

from repro.analysis.report import render_table
from repro.core import FSConfig, GekkoFSCluster

CHUNK = 4096
FILE_BYTES = 32 * CHUNK
SMALL_READ = 512


def _run(cache_enabled: bool, passes: int) -> tuple[int, int]:
    """Return (read RPCs, bulk+inline bytes moved) for ``passes`` sweeps
    of small reads over one file."""
    config = FSConfig(
        chunk_size=CHUNK,
        data_cache_enabled=cache_enabled,
        data_cache_bytes=4 * FILE_BYTES,
    )
    with GekkoFSCluster(num_nodes=4, config=config, instrument=True) as fs:
        client = fs.client(0)
        fd = client.open("/gkfs/hot.dat", os.O_CREAT | os.O_RDWR)
        client.write(fd, b"h" * FILE_BYTES)
        fs.transport.reset()
        for _ in range(passes):
            for offset in range(0, FILE_BYTES, SMALL_READ):
                client.pread(fd, SMALL_READ, offset)
        client.close(fd)
        rpcs = fs.transport.rpcs_by_handler.get("gkfs_read_chunks", 0)
        return rpcs, fs.transport.wire_bytes + fs.transport.bulk_bytes


def _ablation():
    reads_per_pass = FILE_BYTES // SMALL_READ
    rows = []
    results = {}
    for label, cached, passes in (
        ("uncached, 1 pass", False, 1),
        ("cached, 1 pass", True, 1),
        ("uncached, 4 passes", False, 4),
        ("cached, 4 passes", True, 4),
    ):
        rpcs, traffic = _run(cached, passes)
        results[label] = (rpcs, traffic)
        rows.append([label, str(passes * reads_per_pass), str(rpcs), f"{traffic:,} B"])
    print()
    print(
        render_table(
            ["configuration", "application reads", "read RPCs", "network traffic"],
            rows,
            title="ABL-CACHE-DATA: chunk cache on small re-reads",
        )
    )
    return results


def test_ablation_data_cache(benchmark):
    results = benchmark.pedantic(_ablation, rounds=1, iterations=1)
    chunks = FILE_BYTES // CHUNK
    reads_per_pass = FILE_BYTES // SMALL_READ
    # Uncached: one RPC per application read, every pass.
    assert results["uncached, 1 pass"][0] == reads_per_pass
    assert results["uncached, 4 passes"][0] == 4 * reads_per_pass
    # Cached: one whole-chunk fetch per chunk, ever (readahead + reuse).
    assert results["cached, 1 pass"][0] == chunks
    assert results["cached, 4 passes"][0] == chunks
    # Re-read traffic collapses by the pass count.
    assert (
        results["uncached, 4 passes"][0] / results["cached, 4 passes"][0]
        == 4 * reads_per_pass / chunks
    )


def test_ablation_data_cache_streaming_not_hurt(benchmark):
    """Read-once streaming with chunk-sized reads: the cache fetches each
    chunk exactly once, same as the cache-less path — no regression."""

    def run(cached: bool) -> int:
        config = FSConfig(
            chunk_size=CHUNK, data_cache_enabled=cached, data_cache_bytes=2 * CHUNK
        )
        with GekkoFSCluster(num_nodes=4, config=config, instrument=True) as fs:
            client = fs.client(0)
            fd = client.open("/gkfs/stream.dat", os.O_CREAT | os.O_RDWR)
            client.write(fd, b"s" * FILE_BYTES)
            fs.transport.reset()
            for offset in range(0, FILE_BYTES, CHUNK):
                client.pread(fd, CHUNK, offset)
            client.close(fd)
            return fs.transport.rpcs_by_handler.get("gkfs_read_chunks", 0)

    cached_rpcs = benchmark.pedantic(lambda: run(True), rounds=1, iterations=1)
    assert cached_rpcs == run(False) == FILE_BYTES // CHUNK
