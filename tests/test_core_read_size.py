"""What a read does with a size its descriptor saw earlier.

``pread`` plans its spans from ``OpenFile.size_seen`` and asks the owner
only when a span comes back short, so each case below changes the file
behind descriptor A's back (client B, or A's own second route) and reads
through A: the bytes must be the file as it is now, under every plane
that touches the read path.
"""

import os

import pytest

from repro.common.errors import NotFoundError
from repro.core import FSConfig, GekkoFSCluster

DAEMONS = 4
CHUNK = 1024
DATA = bytes(i * 7 % 251 for i in range(3 * CHUNK + 500))  # ends mid-chunk
PATH = "/gkfs/f"

CONFIGS = {
    "plain": {},
    "r2": {"replication": 2},
    "integrity": {"integrity_enabled": True, "integrity_block_size": 256},
    "r2-integrity": {
        "replication": 2, "integrity_enabled": True, "integrity_block_size": 256,
    },
    "datacache": {"data_cache_enabled": True, "data_cache_bytes": 64 * CHUNK},
    "sizecache": {"size_cache_enabled": True},
    # A lease this short is revalidated by every stat: the cache's RPCs run,
    # its staleness window (docs/semantics.md) stays out of the assertions.
    "metacache": {"metacache_enabled": True, "metacache_ttl": 1e-6},
}


@pytest.fixture(params=list(CONFIGS))
def fs(request):
    config = FSConfig(chunk_size=CHUNK, **CONFIGS[request.param])
    with GekkoFSCluster(DAEMONS, config, instrument=True) as cluster:
        yield cluster


@pytest.fixture
def a(fs):
    client = fs.client(0)
    client.write_bytes(PATH, DATA)
    return client


@pytest.fixture
def fd(a):
    """A's descriptor, opened when the file was ``len(DATA)`` bytes."""
    return a.open(PATH, os.O_RDWR)


@pytest.fixture
def b(fs):
    return fs.client(1)


def sent(fs, call):
    """``(what call returned, the RPCs it put on the wire by handler)``."""
    fs.transport.reset()
    return call(), dict(fs.transport.rpcs_by_handler)


def holders(client, first, last):
    """Daemons a read of chunks ``first..last`` asks (primary replicas)."""
    locate = client.distributor.locate_chunk
    return len({locate("/f", cid) for cid in range(first, last + 1)})


def test_shrink_by_another_client_clamps_with_no_stale_tail(fs, a, fd, b):
    new_size = CHUNK + 100
    b.truncate(PATH, new_size)
    assert a.pread(fd, len(DATA), 0) == DATA[:new_size]
    assert a.pread(fd, CHUNK, CHUNK) == DATA[CHUNK:new_size]
    # ... and the descriptor learned the new size: the clamped range is
    # chunk RPCs alone again (none at all out of the chunk cache).
    got, rpcs = sent(fs, lambda: a.pread(fd, new_size, 0))
    assert got == DATA[:new_size]
    cached = fs.config.data_cache_enabled
    assert rpcs == ({} if cached else {"gkfs_read_chunks": holders(a, 0, 1)})


def test_truncate_to_zero_and_sparse_rewrite_reads_zeros_in_the_hole(a, fd, b):
    b.truncate(PATH, 0)
    b_fd = b.open(PATH, os.O_WRONLY)
    b.pwrite(b_fd, b"tail", 2 * CHUNK + 10)
    b.close(b_fd)
    assert a.pread(fd, len(DATA), 0) == bytes(2 * CHUNK + 10) + b"tail"
    assert a.pread(fd, CHUNK, 0) == bytes(CHUNK)  # a chunk nobody holds


def test_unlink_by_another_client_is_enoent(a, fd, b):
    b.unlink(PATH)
    with pytest.raises(NotFoundError):
        a.pread(fd, len(DATA), 0)
    with pytest.raises(NotFoundError):
        a.pread(fd, 10, 0)


def test_append_beyond_size_seen_shows_on_the_next_read(a, fd, b):
    b_fd = b.open(PATH, os.O_WRONLY | os.O_APPEND)
    b.write(b_fd, b"more" * 100)
    b.close(b_fd)
    assert a.pread(fd, len(DATA) + 400, 0) == DATA + b"more" * 100
    a.lseek(fd, len(DATA), os.SEEK_SET)
    assert a.read(fd, 1 << 20) == b"more" * 100
    assert a.read(fd, 10) == b""


def test_overwrite_by_another_client_inside_size_seen(a, fd, b):
    b_fd = b.open(PATH, os.O_WRONLY)
    b.pwrite(b_fd, b"Z" * 50, CHUNK - 25)  # across a chunk boundary
    b.close(b_fd)
    expected = DATA[: CHUNK - 25] + b"Z" * 50 + DATA[CHUNK + 25 :]
    assert a.pread(fd, len(DATA), 0) == expected


def test_own_ftruncate_then_pread(a, fd):
    second = a.open(PATH, os.O_RDONLY)  # saw len(DATA), told nothing since
    a.ftruncate(fd, 100)
    for each in (fd, second):
        assert a.pread(each, len(DATA), 0) == DATA[:100]
    a.ftruncate(fd, 2 * CHUNK)
    for each in (fd, second):
        assert a.pread(each, len(DATA), 0) == DATA[:100] + bytes(2 * CHUNK - 100)
    a.close(second)


def test_read_ending_at_eof_inside_the_last_chunk_is_chunk_rpcs_alone(fs, a, fd):
    tail = CHUNK + 500  # the last full chunk and the partial one after it
    got, rpcs = sent(fs, lambda: a.pread(fd, tail, len(DATA) - tail))
    assert got == DATA[-tail:]
    assert rpcs == {"gkfs_read_chunks": holders(a, 2, 3)}
    got, rpcs = sent(fs, lambda: a.pread(fd, 500, 3 * CHUNK))
    assert got == DATA[3 * CHUNK :]
    cached = fs.config.data_cache_enabled  # by the whole-chunk fetch above
    assert rpcs == ({} if cached else {"gkfs_read_chunks": 1})


def test_own_write_reads_back_before_anything_is_published(fs):
    """Read-your-writes does not lean on ``size_seen``: with the size cache
    the owner has not heard of these bytes when the read asks for them."""
    client = fs.client(0)
    fd = client.open("/gkfs/fresh", os.O_CREAT | os.O_RDWR)
    client.pwrite(fd, DATA, 0)
    assert client.pread(fd, len(DATA), 0) == DATA
    assert client.pread(fd, len(DATA) + 10, 0) == DATA
    client.pwrite(fd, b"!", len(DATA) + 9)
    assert client.pread(fd, 1 << 20, 0) == DATA + bytes(9) + b"!"
    client.close(fd)


def test_size_seen_answers_no_size_question(a, fd, b):
    """It bounds what a read plans; stat, fstat, lseek and EOF ask the owner."""
    b_fd = b.open(PATH, os.O_WRONLY | os.O_APPEND)
    b.write(b_fd, b"x")
    b.close(b_fd)
    grown = len(DATA) + 1
    assert a.filemap.get(fd).size_seen == len(DATA)
    assert a.lseek(fd, 0, os.SEEK_END) == grown
    b.truncate(PATH, 7)
    assert a.fstat(fd).size == 7
    assert a.pread(fd, 10, 7) == b""


@pytest.mark.parametrize("integrity", [False, True], ids=["plain", "integrity"])
def test_a_span_a_replica_served_full_needs_no_stat(integrity):
    """Fail-over is not a reason to ask for the size: with a daemon gone the
    read is the chunk RPCs (the dead legs and their second tries) alone, and
    a shrink behind the descriptor still shows as a short span."""
    config = FSConfig(
        chunk_size=CHUNK, replication=2,
        integrity_enabled=integrity, integrity_block_size=256,
    )
    with GekkoFSCluster(DAEMONS, config, instrument=True) as fs:
        a, b = fs.client(0), fs.client(1)
        a.write_bytes(PATH, DATA)
        fd = a.open(PATH, os.O_RDONLY)
        dead = a.distributor.locate_chunk("/f", 1)
        fs.network.remove_engine(dead)
        got, rpcs = sent(fs, lambda: a.pread(fd, len(DATA), 0))
        assert got == DATA
        assert set(rpcs) == {"gkfs_read_chunks"}
        b.truncate(PATH, CHUNK + 100)
        assert a.pread(fd, len(DATA), 0) == DATA[: CHUNK + 100]


def test_a_cached_chunk_is_as_fresh_as_the_chunk_cache():
    """The chunk cache's price (docs/semantics.md): a chunk A cached by
    reading it is served from the cache whatever another client did since —
    its truncate too, now that a full span is not stat-ed first.  A range
    the cache does not cover still meets the owner."""
    config = FSConfig(chunk_size=CHUNK, data_cache_enabled=True, data_cache_bytes=64 * CHUNK)
    with GekkoFSCluster(DAEMONS, config) as fs:
        a, b = fs.client(0), fs.client(1)
        a.write_bytes(PATH, DATA)
        fd = a.open(PATH, os.O_RDONLY)
        assert a.pread(fd, CHUNK, 0) == DATA[:CHUNK]  # chunk 0 cached
        b.truncate(PATH, 10)
        assert a.pread(fd, CHUNK, 0) == DATA[:CHUNK]
        assert a.pread(fd, 2 * CHUNK, 0) == DATA[:10]  # chunk 1 is short: ask
        assert a.fstat(fd).size == 10
