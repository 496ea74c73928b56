"""RPC budget of every POSIX call the client offers, by count, not clock.

One table, one instrumented in-process cluster per row: the call runs
against a fixed starting state and the RPCs it put on the wire must equal
the row exactly, handler by handler — so the next round trip someone adds
fails here by name.  A transfer costs one chunk RPC per daemon holding a
span of it.  A single-file metadata mutation (create, unlink,
rmdir, truncate, open with ``O_TRUNC``) is one RPC to the record's
owner; only the bytes a file actually holds add a chunk multicast, and
none of the five stats first.
A write owes one size update to the record's owner; when its only chunk
group goes to that owner (chunk 0 of a file always does at 4 daemons) the
update rides in the chunk RPC, otherwise it is a ``gkfs_update_size`` of
its own.
A read inside a size its descriptor has seen is the chunk RPCs alone; the
owner is asked (one stat, then the clamped read) only when a span comes
back short or the range reaches past that size.

The second half pins what moved into that one RPC: the type check, run
by the owner under its lock, answers ``EISDIR``/``ENOTDIR``/``ENOENT``
and leaves every record where it was — on every metadata replica, with
the metadata cache on or off.
"""

import os

import pytest

from repro.common.errors import (
    IsADirectoryError_,
    NotADirectoryError_,
    NotFoundError,
)
from repro.core import FSConfig, GekkoFSCluster

DAEMONS = 4
CHUNK = 4096
BIG = 8  # chunks in /gkfs/big: >= DAEMONS, so its multicasts reach every daemon


class _State:
    """The starting state every row sees (built before counting starts)."""

    def __init__(self, fs):
        self.c = c = fs.client(0)
        self.other = fs.client(1)  # no descriptor, no knowledge of self.c's
        c.close(c.open("/gkfs/empty", os.O_CREAT | os.O_EXCL | os.O_WRONLY))
        c.write_bytes("/gkfs/one", b"a" * 100)
        c.write_bytes("/gkfs/big", b"b" * (BIG * CHUNK))
        c.mkdir("/gkfs/dir")
        self.one = c.open("/gkfs/one", os.O_RDWR)
        self.big = c.open("/gkfs/big", os.O_RDWR)
        self.dir = c.opendir("/gkfs/dir")
        #: Daemons holding a chunk of /gkfs/big (what a whole-file transfer costs).
        self.big_holders = self.holders("/big", BIG)
        locate = fs.distributor.locate_chunk
        #: Offset of the first chunk of /gkfs/big its metadata owner does not hold.
        self.remote = CHUNK * next(cid for cid in range(BIG) if locate("/big", cid) != (
            fs.distributor.locate_metadata("/big")))
        # The rows on /gkfs/one write chunk 0, which its owner holds.
        assert locate("/one", 0) == fs.distributor.locate_metadata("/one")

    def holders(self, rel, nchunks):
        """Daemons holding one of the first ``nchunks`` chunks of ``rel``."""
        locate = self.c.distributor.locate_chunk
        return len({locate(rel, cid) for cid in range(nchunks)})


def _create(s):
    s.c.close(s.c.open("/gkfs/new", os.O_CREAT | os.O_EXCL | os.O_WRONLY))


def _open_close(s):
    s.c.close(s.c.open("/gkfs/one"))


def _open_trunc(s):
    s.c.close(s.c.open("/gkfs/one", os.O_WRONLY | os.O_TRUNC))


def _write_at_cursor(s):
    s.c.write(s.one, b"w" * 10)


def _write_off_the_owner(s):
    s.c.write(s.big, b"w" * 10)


def _read_at_cursor(s):
    s.c.read(s.one, 10)


def _grow_one(s):
    fd = s.other.open("/gkfs/one", os.O_WRONLY)
    s.other.pwrite(fd, b"g" * 100, 100)
    s.other.close(fd)


def _fstat_then_pread(s):
    assert len(s.c.pread(s.one, s.c.fstat(s.one).size, 0)) == 200


def _big_holders(s):
    return s.big_holders


# (call, what it does, RPCs by handler[, what another client did just before]);
# a count is a number or a function of the state (_big_holders = one per
# daemon holding /gkfs/big).
BUDGET = [
    ("create", _create, {"gkfs_create": 1}),
    ("open", _open_close, {"gkfs_stat": 1}),
    ("close", lambda s: s.c.close(s.one), {}),
    ("stat", lambda s: s.c.stat("/gkfs/one"), {"gkfs_stat": 1}),
    ("fstat", lambda s: s.c.fstat(s.one), {"gkfs_stat": 1}),
    ("exists", lambda s: s.c.exists("/gkfs/none"), {"gkfs_stat": 1}),
    ("unlink(empty)", lambda s: s.c.unlink("/gkfs/empty"), {"gkfs_remove_metadata": 1}),
    ("unlink(one chunk)", lambda s: s.c.unlink("/gkfs/one"),
     {"gkfs_remove_metadata": 1, "gkfs_remove_chunks": 1}),
    ("unlink(big)", lambda s: s.c.unlink("/gkfs/big"),
     {"gkfs_remove_metadata": 1, "gkfs_remove_chunks": DAEMONS}),
    ("truncate(grow)", lambda s: s.c.truncate("/gkfs/one", 3 * CHUNK),
     {"gkfs_truncate_metadata": 1}),
    ("truncate(same)", lambda s: s.c.truncate("/gkfs/one", 100),
     {"gkfs_truncate_metadata": 1}),
    ("truncate(shrink)", lambda s: s.c.truncate("/gkfs/big", CHUNK),
     {"gkfs_truncate_metadata": 1, "gkfs_truncate_chunks": DAEMONS}),
    ("ftruncate(grow)", lambda s: s.c.ftruncate(s.one, 3 * CHUNK),
     {"gkfs_truncate_metadata": 1}),
    ("ftruncate(shrink)", lambda s: s.c.ftruncate(s.one, 10),
     {"gkfs_truncate_metadata": 1, "gkfs_truncate_chunks": 1}),
    ("open(O_TRUNC)", _open_trunc,
     {"gkfs_truncate_metadata": 1, "gkfs_truncate_chunks": 1}),
    ("mkdir", lambda s: s.c.mkdir("/gkfs/dir2"), {"gkfs_create": 1}),
    ("rmdir", lambda s: s.c.rmdir("/gkfs/dir"),
     {"gkfs_stat": 1, "gkfs_readdir": DAEMONS, "gkfs_remove_metadata": 1}),
    ("listdir", lambda s: s.c.listdir("/gkfs/dir"),
     {"gkfs_stat": 1, "gkfs_readdir": DAEMONS}),
    ("listdir_plus", lambda s: s.c.listdir_plus("/gkfs/dir"),
     {"gkfs_stat": 1, "gkfs_readdir_plus": DAEMONS}),
    ("opendir", lambda s: s.c.opendir("/gkfs/dir"),
     {"gkfs_stat": 1, "gkfs_readdir": DAEMONS}),
    ("readdir", lambda s: s.c.readdir(s.dir), {}),
    ("pwrite(one chunk)", lambda s: s.c.pwrite(s.one, b"p" * 50, 10),
     {"gkfs_write_chunks": 1}),
    ("pwrite(one chunk off the owner)", lambda s: s.c.pwrite(s.big, b"p" * 50, s.remote + 10),
     {"gkfs_write_chunks": 1, "gkfs_update_size": 1}),
    ("pwrite(big)", lambda s: s.c.pwrite(s.big, b"p" * (BIG * CHUNK), 0),
     {"gkfs_write_chunks": _big_holders, "gkfs_update_size": 1}),
    ("pread(one chunk)", lambda s: s.c.pread(s.one, 50, 10), {"gkfs_read_chunks": 1}),
    ("pread(big)", lambda s: s.c.pread(s.big, BIG * CHUNK, 0),
     {"gkfs_read_chunks": _big_holders}),
    ("pread(to EOF)", lambda s: s.c.pread(s.one, 100, 0), {"gkfs_read_chunks": 1}),
    ("pread(zero bytes)", lambda s: s.c.pread(s.one, 0, 10), {}),
    ("pread(past EOF)", lambda s: s.c.pread(s.one, 10, 5000), {"gkfs_stat": 1}),
    ("pread(across EOF)", lambda s: s.c.pread(s.one, 1 << 30, 0),
     {"gkfs_stat": 1, "gkfs_read_chunks": 1}),
    ("pread(grown by another client)", lambda s: s.c.pread(s.one, 200, 0),
     {"gkfs_stat": 1, "gkfs_read_chunks": 1}, _grow_one),
    ("pread(hole inside size_seen)", lambda s: s.c.pread(s.one, 3 * CHUNK, 0),
     {"gkfs_stat": 1, "gkfs_read_chunks": lambda s: 2 * s.holders("/one", 3)},
     lambda s: s.c.ftruncate(s.one, 3 * CHUNK)),
    ("pread(shrunk by another client)", lambda s: s.c.pread(s.big, BIG * CHUNK, 0),
     {"gkfs_stat": 1, "gkfs_read_chunks": lambda s: s.big_holders + 1},
     lambda s: s.other.truncate("/gkfs/big", CHUNK)),
    ("fstat+pread(grown by another client)", _fstat_then_pread,
     {"gkfs_stat": 1, "gkfs_read_chunks": 1}, _grow_one),
    ("write", _write_at_cursor, {"gkfs_write_chunks": 1}),
    ("write(off the owner)", _write_off_the_owner,
     {"gkfs_write_chunks": 1, "gkfs_update_size": 1},
     lambda s: s.c.lseek(s.big, s.remote, os.SEEK_SET)),
    ("read", _read_at_cursor, {"gkfs_read_chunks": 1}),
    ("lseek(SEEK_END)", lambda s: s.c.lseek(s.one, 0, os.SEEK_END), {"gkfs_stat": 1}),
    ("lseek(SEEK_SET)", lambda s: s.c.lseek(s.one, 5, os.SEEK_SET), {}),
    ("fsync", lambda s: s.c.fsync(s.one), {}),
    ("statfs", lambda s: s.c.statfs(), {"gkfs_statfs": DAEMONS}),
]


@pytest.mark.parametrize(
    "call,run,budget,prepare",
    [(row + (None,))[:4] for row in BUDGET],
    ids=[row[0] for row in BUDGET],
)
def test_rpc_budget(call, run, budget, prepare):
    with GekkoFSCluster(DAEMONS, FSConfig(chunk_size=CHUNK), instrument=True) as fs:
        state = _State(fs)
        if prepare is not None:
            prepare(state)
        fs.transport.reset()
        run(state)
        sent = dict(fs.transport.rpcs_by_handler)
        expected = {
            handler: count(state) if callable(count) else count
            for handler, count in budget.items()
        }
        assert sent == expected, f"{call} sent {sent}, budget is {expected}"


# -- the check that moved into the RPC -------------------------------------


@pytest.fixture(
    params=[(1, False), (1, True), (2, False), (2, True)],
    ids=["r1", "r1-metacache", "r2", "r2-metacache"],
)
def checked_fs(request):
    replication, metacache = request.param
    config = FSConfig(replication=replication, metacache_enabled=metacache)
    with GekkoFSCluster(DAEMONS, config) as fs:
        c = fs.client(0)
        c.mkdir("/gkfs/d")
        c.write_bytes("/gkfs/f", b"payload")
        yield fs


@pytest.mark.parametrize(
    "refused,error",
    [
        (lambda c: c.unlink("/gkfs/d"), IsADirectoryError_),
        (lambda c: c.rmdir("/gkfs/f"), NotADirectoryError_),
        (lambda c: c.truncate("/gkfs/d", 0), IsADirectoryError_),
        (lambda c: c.unlink("/gkfs/ghost"), NotFoundError),
        (lambda c: c.rmdir("/gkfs/ghost"), NotFoundError),
        (lambda c: c.truncate("/gkfs/ghost", 0), NotFoundError),
    ],
    ids=["unlink-dir", "rmdir-file", "truncate-dir",
         "unlink-missing", "rmdir-missing", "truncate-missing"],
)
def test_refused_mutation_leaves_every_record(checked_fs, refused, error):
    c = checked_fs.client(0)
    records = [len(daemon.kv) for daemon in checked_fs.daemons]
    used = checked_fs.used_bytes()
    with pytest.raises(error):
        refused(c)
    assert [len(daemon.kv) for daemon in checked_fs.daemons] == records
    assert checked_fs.used_bytes() == used
    # A second client (no cache of the first's) still sees both records.
    other = checked_fs.client(1)
    assert other.stat("/gkfs/d").is_dir
    assert other.read_bytes("/gkfs/f") == b"payload"


def test_accepted_mutations_still_apply(checked_fs):
    """The same four calls on the right type go through on every replica."""
    c = checked_fs.client(0)
    records = checked_fs.metadata_records()
    c.truncate("/gkfs/f", 3)
    assert checked_fs.client(1).read_bytes("/gkfs/f") == b"pay"
    c.unlink("/gkfs/f")
    c.rmdir("/gkfs/d")
    replication = checked_fs.config.replication
    assert checked_fs.metadata_records() == records - 2 * replication
    assert checked_fs.used_bytes() == 0
    assert checked_fs.client(1).listdir("/gkfs") == []


def test_owner_refuses_what_a_stale_lease_let_through():
    """The client-side sweep can pass on stale knowledge (a metadata lease
    from before another client replaced the directory with a file); the
    owner's check is the one that counts, and the file survives."""
    config = FSConfig(metacache_enabled=True, metacache_ttl=3600.0)
    with GekkoFSCluster(DAEMONS, config) as fs:
        stale, other = fs.client(0), fs.client(1)
        stale.mkdir("/gkfs/x")
        assert stale.listdir("/gkfs/x") == []  # lease + empty listing cached
        other.rmdir("/gkfs/x")
        other.write_bytes("/gkfs/x", b"now a file")
        with pytest.raises(NotADirectoryError_):
            stale.rmdir("/gkfs/x")
        assert other.read_bytes("/gkfs/x") == b"now a file"
