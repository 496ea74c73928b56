"""Every mutation of a client reaches every one of its caches.

A client's caches hear its mutations at one point
(:class:`~repro.core.cache.Mutations`).  The matrix below runs each local
mutation under each cache, and under all three together, on a client
whose caches were warmed first (a stat, a whole-file read and a listing),
then checks that the same client's next ``stat``, ``pread`` and
``listdir`` answer what the owners hold — read by a cache-less client of
the same deployment.

Two cross-client cases of ``open(O_TRUNC)`` come first: the truncate is
heard by the caches and decided by the owner, whatever size the opener
last saw.
"""

import dataclasses
import os

import pytest

from repro.common.errors import NotFoundError
from repro.core import FSConfig, GekkoFSCluster
from repro.core.client import GekkoFSClient

CHUNK = 1024
BASE = dict(chunk_size=CHUNK, rename_emulation=True)
CACHES = {
    "size": dict(size_cache_enabled=True, size_cache_flush_every=1000),
    "data": dict(data_cache_enabled=True, data_cache_bytes=64 * CHUNK),
    "meta": dict(metacache_enabled=True, metacache_ttl=3600.0),
}
CACHES["all"] = {**CACHES["size"], **CACHES["data"], **CACHES["meta"]}


def _cluster(caches: dict) -> GekkoFSCluster:
    return GekkoFSCluster(num_nodes=4, config=FSConfig(**BASE, **caches))


def _plain(fs, node_id: int = 1) -> GekkoFSClient:
    """A cache-less client of ``fs``: it reads what the owners hold."""
    client = fs.client(node_id)
    config = dataclasses.replace(
        fs.config, size_cache_enabled=False, data_cache_enabled=False,
        metacache_enabled=False,
    )
    return GekkoFSClient(client.network, client.distributor, config, node_id)


class TestOpenTruncIsHeard:
    def test_o_trunc_drops_a_chunk_cached_before_a_recreate(self):
        with _cluster(CACHES["data"]) as fs:
            a, b = fs.client(0), fs.client(1)
            b.write_bytes("/gkfs/f", b"A" * 200)
            assert a.read_bytes("/gkfs/f") == b"A" * 200  # chunk 0 cached
            b.unlink("/gkfs/f")
            b.close(b.open("/gkfs/f", os.O_CREAT | os.O_WRONLY))
            fd = a.open("/gkfs/f", os.O_CREAT | os.O_TRUNC | os.O_RDWR)
            a.pwrite(fd, b"x", 100)
            assert a.pread(fd, 101, 0) == bytes(100) + b"x"
            assert b.read_bytes("/gkfs/f") == bytes(100) + b"x"
            a.close(fd)

    def test_o_trunc_is_sent_whatever_the_lease_says(self):
        with _cluster(CACHES["meta"]) as fs:
            a, b = fs.client(0), fs.client(1)
            a.close(a.open("/gkfs/f", os.O_CREAT | os.O_WRONLY))
            assert a.stat("/gkfs/f").size == 0  # leased at size 0
            fd = b.open("/gkfs/f", os.O_WRONLY)
            b.pwrite(fd, b"b" * 100, 0)
            b.close(fd)
            a.close(a.open("/gkfs/f", os.O_TRUNC | os.O_WRONLY))
            assert b.stat("/gkfs/f").size == 0
            assert a.stat("/gkfs/f").size == 0


class TestPathsReadTheClientsNetwork:
    def test_a_network_and_distributor_set_after_construction_carry_everything(self):
        """A deployment may wrap ``client.network`` / ``client.distributor``
        after the client is built (a tracing proxy does): both paths must
        read them through the client on every call, never a copy."""

        class Counting:
            def __init__(self, inner, names):
                self.inner, self.names, self.calls = inner, names, 0

            def __getattr__(self, name):
                attr = getattr(self.inner, name)
                if name in self.names:
                    self.calls += 1
                return attr

        config = FSConfig(**BASE, **CACHES["all"], replication=2)
        with GekkoFSCluster(num_nodes=4, config=config, instrument=True) as fs:
            client = fs.client(0)
            network = client.network = Counting(client.network, {"call", "call_async"})
            placement = client.distributor = Counting(
                client.distributor, {"locate_metadata", "locate_chunk"}
            )
            fs.transport.reset()
            client.mkdir("/gkfs/d")
            client.write_bytes("/gkfs/d/f", b"n" * 3000)
            assert client.read_bytes("/gkfs/d/f") == b"n" * 3000
            assert client.listdir("/gkfs/d") == [("f", False)]
            client.truncate("/gkfs/d/f", 10)
            client.unlink("/gkfs/d/f")
            assert network.calls == sum(fs.transport.rpcs_by_handler.values())
            assert placement.calls > 0


# -- the mutation x cache matrix --------------------------------------------


def _mutate_pwrite(c):
    fd = c.open("/gkfs/d/f", os.O_RDWR)
    c.pwrite(fd, b"x" * 500, 2800)
    return fd


def _mutate_append(c):
    fd = c.open("/gkfs/d/f", os.O_WRONLY | os.O_APPEND)
    c.write(fd, b"y" * 700)
    return fd


def _mutate_ftruncate(c):
    fd = c.open("/gkfs/d/f", os.O_RDWR)
    c.ftruncate(fd, 100)
    return fd


def _mutate_o_trunc(c):
    fd = c.open("/gkfs/d/f", os.O_WRONLY | os.O_TRUNC)
    return fd


def _mutate_o_creat(c):
    return c.open("/gkfs/d/g", os.O_CREAT | os.O_WRONLY)


#: mutation -> (what it does, the file it left for another client to grow).
#: An fd it returns stays open through the checks (closing would publish a
#: held size and hide a missed one).
MUTATIONS = {
    "pwrite": (_mutate_pwrite, "/gkfs/d/f"),
    "append": (_mutate_append, "/gkfs/d/f"),
    "truncate": (lambda c: c.truncate("/gkfs/d/f", 1500), "/gkfs/d/f"),
    "ftruncate": (_mutate_ftruncate, "/gkfs/d/f"),
    "open(O_TRUNC)": (_mutate_o_trunc, "/gkfs/d/f"),
    "open(O_CREAT)": (_mutate_o_creat, None),
    "unlink": (lambda c: c.unlink("/gkfs/d/f"), None),
    "mkdir": (lambda c: c.mkdir("/gkfs/d/sub"), None),
    "rmdir": (lambda c: c.rmdir("/gkfs/d/empty"), None),
    "rename": (lambda c: c.rename("/gkfs/d/f", "/gkfs/d/h"), "/gkfs/d/h"),
}
PATHS = ("/gkfs/d/f", "/gkfs/d/g", "/gkfs/d/h", "/gkfs/d/sub", "/gkfs/d/empty")


def _observe(client, path):
    """``(is_dir, size, bytes)`` of ``path`` through ``client``, or ENOENT."""
    try:
        md = client.stat(path)
    except NotFoundError:
        return "ENOENT"
    if md.is_dir:
        return True, None, None
    fd = client.open(path, os.O_RDONLY)
    try:
        return False, md.size, client.pread(fd, 5 * CHUNK, 0)
    finally:
        client.close(fd)


def _grow(plain, path):
    """Grow ``path`` past every size the mutations leave, from the
    cache-less client: a chunk the mutating client should have dropped or
    updated would now serve stale bytes where the owners hold a hole.
    (Only a path the mutation rewrote: another client's change to a path
    this client still leases is the lease cache's documented staleness.)"""
    fd = plain.open(path, os.O_WRONLY)
    plain.pwrite(fd, b"z", 4000)
    plain.close(fd)


def _warm(client):
    for path in PATHS:
        _observe(client, path)
    client.listdir("/gkfs/d")
    client.listdir_plus("/gkfs/d")


@pytest.mark.parametrize("caches", list(CACHES))
@pytest.mark.parametrize("mutation", list(MUTATIONS))
def test_own_mutation_reaches_every_cache(mutation, caches):
    with _cluster(CACHES[caches]) as fs:
        client, plain = fs.client(0), _plain(fs)
        client.mkdir("/gkfs/d")
        client.mkdir("/gkfs/d/empty")
        client.write_bytes("/gkfs/d/f", b"A" * 3000)
        _warm(client)
        mutate, grown = MUTATIONS[mutation]
        fd = mutate(client)
        if grown is not None:
            _grow(plain, grown)
        for path in PATHS:
            assert _observe(client, path) == _observe(plain, path), path
        assert client.listdir("/gkfs/d") == plain.listdir("/gkfs/d")
        assert [(name, md.is_dir, md.size) for name, md in client.listdir_plus("/gkfs/d")] == [
            (name, md.is_dir, md.size) for name, md in plain.listdir_plus("/gkfs/d")
        ]
        if fd is not None:
            client.close(fd)
