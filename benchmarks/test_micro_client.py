"""MICRO — functional client hot paths: the real mdtest/IOR inner loops."""

import os

import pytest

from repro.core import FSConfig, GekkoFSCluster
from repro.common.units import KiB


@pytest.fixture
def fs():
    with GekkoFSCluster(num_nodes=4) as cluster:
        yield cluster


def test_micro_create_close(benchmark, fs):
    client = fs.client(0)
    counter = iter(range(10_000_000))

    def create():
        fd = client.open(f"/gkfs/bench{next(counter):08d}", os.O_CREAT | os.O_WRONLY)
        client.close(fd)

    benchmark(create)


def test_micro_stat(benchmark, fs):
    client = fs.client(0)
    client.close(client.creat("/gkfs/target"))
    benchmark(client.stat, "/gkfs/target")


def test_micro_unlink(benchmark):
    """Create + unlink of an empty file; gated on the RPC count, not time:
    the unlink is one RPC to the record's owner (no type-check stat)."""
    with GekkoFSCluster(num_nodes=4, instrument=True) as fs:
        client = fs.client(0)
        counter = iter(range(10_000_000))

        def cycle():
            path = f"/gkfs/doomed{next(counter):08d}"
            client.close(client.creat(path))
            client.unlink(path)

        benchmark(cycle)
        sent = dict(fs.transport.rpcs_by_handler)
    unlinks = client.stats.removes
    per_unlink = (sum(sent.values()) - sent["gkfs_create"]) / unlinks
    print(f"\n[micro-client] unlink(empty): {per_unlink:.2f} RPCs per unlink "
          f"over {unlinks} unlinks {sent}")
    assert sent == {"gkfs_create": unlinks, "gkfs_remove_metadata": unlinks}


def test_micro_pwrite_8k(benchmark, fs):
    client = fs.client(0)
    fd = client.open("/gkfs/io", os.O_CREAT | os.O_RDWR)
    payload = b"w" * (8 * KiB)
    benchmark(client.pwrite, fd, payload, 0)
    client.close(fd)


def test_micro_pwrite_multichunk(benchmark, fs):
    client = fs.client(0)
    fd = client.open("/gkfs/io2", os.O_CREAT | os.O_RDWR)
    payload = b"w" * (2 * 1024 * KiB)  # 4 chunks of 512 KiB
    benchmark(client.pwrite, fd, payload, 0)
    client.close(fd)


def test_micro_pread_8k(benchmark):
    """8 KiB read inside a size the descriptor has seen; gated on the RPC
    count, not time: the read is its one chunk RPC (no size-probe stat)."""
    with GekkoFSCluster(num_nodes=4, instrument=True) as fs:
        client = fs.client(0)
        fd = client.open("/gkfs/io3", os.O_CREAT | os.O_RDWR)
        client.pwrite(fd, b"r" * (64 * KiB), 0)
        fs.transport.reset()  # count the reads alone
        benchmark(client.pread, fd, 8 * KiB, 0)
        sent = dict(fs.transport.rpcs_by_handler)
        client.close(fd)
    reads = client.stats.reads
    print(f"\n[micro-client] pread(8 KiB): {sum(sent.values()) / reads:.2f} RPCs "
          f"per pread over {reads} preads {sent}")
    assert sent == {"gkfs_read_chunks": reads}


def test_micro_listdir_1000_entries(benchmark, fs):
    client = fs.client(0)
    client.mkdir("/gkfs/bigdir")
    for i in range(1000):
        client.close(client.creat(f"/gkfs/bigdir/e{i:05d}"))
    result = benchmark(client.listdir, "/gkfs/bigdir")
    assert len(result) == 1000


def test_micro_write_with_size_cache(benchmark):
    config = FSConfig(size_cache_enabled=True, size_cache_flush_every=64)
    with GekkoFSCluster(num_nodes=4, config=config) as fs:
        client = fs.client(0)
        fd = client.open("/gkfs/cached", os.O_CREAT | os.O_WRONLY)
        payload = b"c" * (8 * KiB)
        benchmark(client.pwrite, fd, payload, 0)
        client.close(fd)
