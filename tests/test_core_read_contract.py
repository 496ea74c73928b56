"""The read contract, on both kinds of deployment.

``pread`` lands a read in one pass: it groups the spans by their first
target, issues every group, gathers, lands, and counts the bytes that
landed.  Around that pass the contract stays what it was — replica
fail-over, end-to-end proofs, read-repair, the chunk cache's whole-chunk
units, the dual-epoch read rule and the "full span inside ``size_seen``"
rule — and every case below runs in process (:class:`GekkoFSCluster`) and
over sockets (:class:`LocalSocketCluster`).
"""

import contextlib
import os

import pytest

from repro.core import FSConfig, GekkoFSCluster
from repro.core.chunking import INLINE_THRESHOLD
from repro.core.distributor import RendezvousDistributor
from repro.net import LocalSocketCluster

CHUNK = 64 * 1024
PATH, REL = "/gkfs/f", "/f"
KINDS = {"in-process": GekkoFSCluster, "sockets": LocalSocketCluster}


def payload(size: int) -> bytes:
    return (bytes(range(251)) * (size // 251 + 1))[:size]


@pytest.fixture(params=list(KINDS))
def deploy(request):
    """``deploy(nodes, **config)`` starts a deployment of the parametrised
    kind at a 64 KiB chunk; every one started is stopped after the test."""
    with contextlib.ExitStack() as stack:
        def start(nodes: int = 2, distributor=None, **config):
            kind = KINDS[request.param]
            config = FSConfig(chunk_size=CHUNK, **config)
            return stack.enter_context(kind(nodes, config, distributor))

        yield start


def daemons(fs) -> list:
    if isinstance(fs, LocalSocketCluster):
        return [served.daemon for served in fs.served]
    return fs.daemons


def served(fs, handler: str) -> int:
    """``handler`` RPCs the deployment's daemons have served so far."""
    return sum(daemon.engine.calls_served[handler] for daemon in daemons(fs))


# (count, offset) of a read of a 3-chunk file, by the route it takes.
ROUTES = {
    "one inline span": (8192, 8192),
    "several spans": (8192, CHUNK - 4096),
    "bulk": (INLINE_THRESHOLD + 8192, 0),
    "a tail clamped at the end": (8192, 3 * CHUNK - 100),
}


@pytest.mark.parametrize("route", list(ROUTES))
def test_pread_returns_bytes_on_every_route(deploy, route):
    fs = deploy()
    client = fs.client(0)
    data = payload(3 * CHUNK)
    client.write_bytes(PATH, data)
    fd = client.open(PATH, os.O_RDONLY)
    count, offset = ROUTES[route]
    got = client.pread(fd, count, offset)
    assert type(got) is bytes
    assert got == data[offset : offset + count]


def test_pread_returns_bytes_on_a_cache_hit(deploy):
    fs = deploy(data_cache_enabled=True, data_cache_bytes=8 * CHUNK)
    client = fs.client(0)
    data = payload(3 * CHUNK)
    client.write_bytes(PATH, data)
    fd = client.open(PATH, os.O_RDONLY)
    assert client.pread(fd, 8192, 8192) == data[8192:16384]  # chunk 0 now cached
    before = served(fs, "gkfs_read_chunks")
    got = client.pread(fd, 8192, 4096)
    assert served(fs, "gkfs_read_chunks") == before
    assert type(got) is bytes
    assert got == data[4096:12288]


def sparse_file(client, size: int) -> int:
    """``PATH`` holding 100 bytes at 0 and a ``size`` the owner reports,
    so chunk 0 comes back short; returns a descriptor that saw the size."""
    fd = client.open(PATH, os.O_CREAT | os.O_RDWR)
    client.pwrite(fd, b"a" * 100, 0)
    client.truncate(PATH, size)
    client.close(fd)
    fd = client.open(PATH, os.O_RDWR)
    assert client.filemap.get(fd).size_seen == size
    return fd


def test_a_short_inline_span_inside_size_seen_asks_the_owner(deploy):
    """Short is a hole or a shrink: the owner's size tells which, and the
    hole reads as zeros.  A span that lands full asks nobody."""
    fs = deploy()
    client = fs.client(0)
    fd = sparse_file(client, 8192)
    before = served(fs, "gkfs_stat")
    assert client.pread(fd, 100, 0) == b"a" * 100
    assert served(fs, "gkfs_stat") == before
    got = client.pread(fd, 8192, 0)
    assert served(fs, "gkfs_stat") == before + 1
    assert type(got) is bytes
    assert got == b"a" * 100 + bytes(8092)


def test_with_a_size_given_a_short_span_is_padded_and_nobody_is_asked(deploy):
    """``read_bytes`` and ``copy`` clamp at the size their open saw: a short
    span is padded with zeros on the spot, at no stat beyond the open's."""
    fs = deploy()
    client = fs.client(0)
    client.close(sparse_file(client, 8192))
    before = served(fs, "gkfs_stat")
    got = client.read_bytes(PATH)
    assert served(fs, "gkfs_stat") == before + 1  # the open's
    assert type(got) is bytes
    assert got == b"a" * 100 + bytes(8092)
    client.write_bytes("/gkfs/full", payload(8192))
    before = served(fs, "gkfs_stat")
    client.copy("/gkfs/full", "/gkfs/full-copy")
    full_copy = served(fs, "gkfs_stat") - before
    before = served(fs, "gkfs_stat")
    assert client.copy(PATH, "/gkfs/copy") == 8192
    assert served(fs, "gkfs_stat") - before == full_copy
    assert client.read_bytes("/gkfs/copy") == got


@pytest.mark.parametrize("where", ["edge", "run"])
def test_under_replication_only_the_corrupt_unit_fails_over(deploy, where):
    """Chunks 0 and 2 share a primary at two daemons, so they travel as one
    coalesced group.  Rot in a block the read covers only in part (``edge``)
    fails the whole group on the daemon, which re-reads unit by unit; rot in
    a block it covers whole (``run``) fails one unit's proof at the client.
    Either way one unit fails over, the read is right, and read-repair
    mends the rotten copy."""
    fs = deploy(replication=2, integrity_enabled=True)
    client = fs.client(0)
    data = payload(4 * CHUNK)
    client.write_bytes(PATH, data)
    locate = client.distributor.locate_chunk
    primary = locate(REL, 0)
    assert locate(REL, 2) == primary
    store = daemons(fs)[primary].storage
    assert store.corrupt_chunk(REL, 0, 17 if where == "edge" else 8192 + 17)
    count, offset = (4 * CHUNK - 200, 100) if where == "edge" else (4 * CHUNK, 0)
    fd = client.open(PATH, os.O_RDONLY)
    got = client.pread(fd, count, offset)
    assert type(got) is bytes
    assert got == data[offset : offset + count]
    assert client.stats.integrity_failovers == 1
    assert client.stats.read_repairs == 1
    assert store.verify_chunk(REL, 0)


def test_read_repair_never_rolls_back_a_write_that_beat_its_replace(deploy):
    """The rotten replica takes a second client's whole-chunk write just
    before its daemon runs the read-repair's replace.  The replace was
    judged against a copy that failed verification, the healed copy no
    longer does, and the daemon refuses it: the acked bytes stay on both
    replicas."""
    fs = deploy(replication=2, integrity_enabled=True)
    client, writer = fs.client(0), fs.client(1)
    data, fresh = payload(2 * CHUNK), bytes(reversed(payload(CHUNK)))
    client.write_bytes(PATH, data)
    primary = client.distributor.locate_chunk(REL, 1)
    daemon = daemons(fs)[primary]
    assert daemon.storage.corrupt_chunk(REL, 1, 17)

    def replace(*args):
        daemon.engine.deregister("gkfs_replace_chunk")
        daemon.engine.register("gkfs_replace_chunk", daemon.replace_chunk)
        fd = writer.open(PATH, os.O_WRONLY)
        writer.pwrite(fd, fresh, CHUNK)
        writer.close(fd)
        return daemon.replace_chunk(*args)

    daemon.engine.deregister("gkfs_replace_chunk")
    daemon.engine.register("gkfs_replace_chunk", replace)
    fd = client.open(PATH, os.O_RDONLY)
    assert client.pread(fd, 8192, CHUNK + 100) == data[CHUNK + 100 : CHUNK + 8292]
    assert client.stats.integrity_failovers == 1
    assert client.stats.read_repairs == 0
    for replica in daemons(fs):
        assert replica.storage.read_chunk(REL, 1, 0, CHUNK) == fresh
        assert replica.storage.verify_chunk(REL, 1)


def test_while_a_resize_releases_a_read_falls_over_to_the_retiring_owner(deploy):
    """The chunk's new owner is down and never held it; the retiring
    epoch's owner still does, and the read's chain reaches it."""
    fs = deploy(3)
    client = fs.client(0)
    data = payload(8192)
    old, new = fs.view.distributor, RendezvousDistributor(3)
    rel = next(f"/f{i}" for i in range(64)
               if new.locate_chunk(f"/f{i}", 0) != old.locate_chunk(f"/f{i}", 0))
    client.write_bytes("/gkfs" + rel, data)
    fd = client.open("/gkfs" + rel, os.O_RDONLY)
    fs.view.begin_change(new)
    fs.view.commit_change()  # RELEASING: reads may fall back to the old owners
    try:
        fs.crash_daemon(new.locate_chunk(rel, 0))
        got = client.pread(fd, len(data), 0)
    finally:
        fs.view.seal()
    assert type(got) is bytes
    assert got == data
