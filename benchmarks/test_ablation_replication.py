"""ABL-REPL — the price of fault tolerance the paper chose not to pay.

§I: "many POSIX features are not required ... Similar argumentations
hold for other advanced features like fault tolerance."  This bench
quantifies that argument on the functional stack: replication R costs
exactly R× the write RPCs and storage while leaving reads untouched —
and buys survival of R-1 crash-stop daemon losses (verified).
"""

import os

import pytest

from repro.analysis.report import render_table
from repro.core import FSConfig, GekkoFSCluster

CHUNK = 1024
FILE_BYTES = 16 * CHUNK
FILES = 8


def _measure(replication: int):
    # Chunk-sized transfers: this ablation counts one gkfs_write_chunks /
    # gkfs_read_chunks call per chunk, and the client coalesces the chunks
    # of a larger transfer into one RPC per daemon.
    config = FSConfig(chunk_size=CHUNK, replication=replication)
    with GekkoFSCluster(num_nodes=4, config=config, instrument=True) as fs:
        client = fs.client(0)
        fds = [
            client.open(f"/gkfs/f{i}", os.O_CREAT | os.O_RDWR) for i in range(FILES)
        ]
        for fd in fds:
            for offset in range(0, FILE_BYTES, CHUNK):
                client.pwrite(fd, b"r" * CHUNK, offset)
        write_rpcs = fs.transport.rpcs_by_handler["gkfs_write_chunks"]
        stored = fs.used_bytes()
        fs.transport.reset()
        for fd in fds:
            for offset in range(0, FILE_BYTES, CHUNK):
                client.pread(fd, CHUNK, offset)
            client.close(fd)
        read_rpcs = fs.transport.rpcs_by_handler["gkfs_read_chunks"]
        # Survivability check: kill daemons up to the budget and re-read.
        survives = True
        for victim in range(replication - 1):
            fs.network.remove_engine(victim)
        try:
            for i in range(FILES):
                client.read_bytes(f"/gkfs/f{i}")
        except LookupError:
            survives = False
        return write_rpcs, read_rpcs, stored, survives


def _ablation():
    rows = []
    results = {}
    for replication in (1, 2, 3):
        write_rpcs, read_rpcs, stored, survives = _measure(replication)
        results[replication] = (write_rpcs, read_rpcs, stored, survives)
        rows.append(
            [
                f"R={replication}",
                str(write_rpcs),
                str(read_rpcs),
                f"{stored:,} B",
                f"{replication - 1} losses" if survives else "none",
            ]
        )
    print()
    print(
        render_table(
            ["replication", "write RPCs", "read RPCs", "stored", "survives"],
            rows,
            title="ABL-REPL: redundancy cost on the functional stack",
        )
    )
    return results


def test_ablation_replication(benchmark):
    results = benchmark.pedantic(_ablation, rounds=1, iterations=1)
    base_writes, base_reads, base_stored, _ = results[1]
    chunks = FILES * FILE_BYTES // CHUNK
    assert base_writes == chunks
    for replication in (2, 3):
        writes, reads, stored, survives = results[replication]
        assert writes == replication * base_writes  # the write amplification
        assert reads == base_reads  # reads hit one replica only
        assert stored == replication * base_stored
        assert survives  # R-1 crash-stop losses tolerated
