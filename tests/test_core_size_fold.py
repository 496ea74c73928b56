"""A write the metadata owner stores publishes its size in the same RPC.

When a write's only chunk group goes to the record's only owner, the
client passes the size the write owes as the trailing argument of that
``gkfs_write_chunks``; the owner stores every span, then merges the size
as ``gkfs_update_size`` would, and answers with the file's size.  Every
other write — one that spans two daemons, has replicas, appends or has
its size held by the size cache — keeps the separate size-update RPC.

Each check runs in process and over real sockets, and counts what the
writes published on each daemon with the ``size_spies`` fixture.
"""

import os

import pytest

from repro.common.errors import IntegrityError, NotFoundError
from repro.core import FSConfig, GekkoFSCluster, fsck
from repro.core.daemon import GekkoDaemon
from repro.faults.chaos import ChaosController
from repro.net import LocalSocketCluster

CHUNK = 4096
SUBSTRATES = {"in-process": GekkoFSCluster, "sockets": LocalSocketCluster}
WRITE = os.O_CREAT | os.O_RDWR


@pytest.fixture(params=list(SUBSTRATES))
def substrate(request):
    return SUBSTRATES[request.param]


def chunk_on(fs, rel, owner_held: bool) -> int:
    """The first chunk id of ``rel`` that is (or is not) on its metadata owner."""
    owner = fs.distributor.locate_metadata(rel)
    return next(cid for cid in range(64)
                if (fs.distributor.locate_chunk(rel, cid) == owner) == owner_held)


class TestTheFold:
    def test_another_client_sees_the_size_once_the_write_returns(self, substrate, size_spies):
        with substrate(4, FSConfig(chunk_size=CHUNK)) as fs:
            writer, other = fs.client(0), fs.client(1)
            fd = writer.open("/gkfs/f", WRITE)
            cid = chunk_on(fs, "/f", owner_held=True)
            end = cid * CHUNK + 100
            assert writer.pwrite(fd, b"s" * 50, end - 50) == 50
            owner = fs.distributor.locate_metadata("/f")
            assert size_spies["folded"] == {owner: 1}
            assert size_spies["published"] == {owner: 1}  # no second size update
            assert other.stat("/gkfs/f").size == end
            assert writer.filemap.get(fd).size_seen == end  # the owner's answer
            # A smaller write folds too and never lowers the size (max merge).
            writer.pwrite(fd, b"t" * 10, cid * CHUNK)
            assert other.stat("/gkfs/f").size == end
            assert writer.filemap.get(fd).size_seen == end
            assert other.read_bytes("/gkfs/f")[cid * CHUNK :] == b"t" * 10 + b"\0" * 40 + b"s" * 50

    def test_every_write_folds_on_one_daemon(self, substrate, size_spies):
        with substrate(1, FSConfig(chunk_size=CHUNK)) as fs:
            client = fs.client(0)
            fd = client.open("/gkfs/f", WRITE)
            payload = os.urandom(3 * CHUNK + 7)  # four chunks, one daemon
            client.pwrite(fd, payload, 0)
            assert size_spies["folded"] == size_spies["published"] == {0: 1}
            assert fs.client(0).stat("/gkfs/f").size == len(payload)  # a new client
            assert client.pread(fd, len(payload), 0) == payload

    def test_a_failed_span_publishes_no_size(self, substrate, size_spies, monkeypatch):
        check = GekkoDaemon._check_wire_digest

        def fail_last_span(self, path, chunk_id, piece, crc):
            if chunk_id == 2:
                raise IntegrityError(f"chunk {chunk_id} of {path!r}: corrupted in transit")
            check(self, path, chunk_id, piece, crc)

        monkeypatch.setattr(GekkoDaemon, "_check_wire_digest", fail_last_span)
        config = FSConfig(chunk_size=CHUNK, integrity_enabled=True, integrity_verify_writes=True)
        with substrate(1, config) as fs:
            client = fs.client(0)
            fd = client.open("/gkfs/f", WRITE)
            with pytest.raises(IntegrityError):
                client.pwrite(fd, b"p" * (3 * CHUNK), 0)  # chunks 0 and 1 land first
            assert size_spies["folded"] == {0: 1}
            assert not size_spies["published"]
            assert client.stat("/gkfs/f").size == 0

    def test_a_folded_write_to_an_unlinked_path_raises_enoent(self, substrate, size_spies):
        with substrate(4, FSConfig(chunk_size=CHUNK)) as fs:
            writer = fs.client(0)
            fd = writer.open("/gkfs/f", WRITE)
            fs.client(1).unlink("/gkfs/f")
            offset = chunk_on(fs, "/f", owner_held=True) * CHUNK
            with pytest.raises(NotFoundError):
                writer.pwrite(fd, b"late", offset)
            assert sum(size_spies["folded"].values()) == 1
            assert not fs.client(1).exists("/gkfs/f")

    def test_a_crash_on_the_folded_write_leaves_an_unacked_write(self, substrate, tmp_path):
        config = FSConfig(chunk_size=CHUNK, kv_dir=str(tmp_path / "kv"),
                          data_dir=str(tmp_path / "data"))
        with substrate(4, config) as fs:
            client = fs.client(0)
            fd = client.open("/gkfs/f", WRITE)
            cid = chunk_on(fs, "/f", owner_held=True)
            client.pwrite(fd, b"before", cid * CHUNK)
            owner = fs.distributor.locate_metadata("/f")
            # The owner dies as the write (and with it the size) arrives:
            # neither the bytes nor the size land, and the write is not acked.
            ChaosController(fs, seed=1).crash_on("gkfs_write_chunks", owner)
            with pytest.raises((ConnectionError, OSError)):
                client.pwrite(fd, b"x" * 100, cid * CHUNK + 6)
            assert owner in fs.crashed_daemons

            fs.restart_daemon(owner, recover=False)
            report = fsck.check(fs)
            assert report.clean, report
            assert (report.size_overruns, report.orphaned_chunks) == ([], [])
            assert fs.client(1).stat("/gkfs/f").size == cid * CHUNK + 6
            assert fs.client(1).read_bytes("/gkfs/f")[cid * CHUNK :] == b"before"


class TestWhatDoesNotFold:
    """Each write below owes a size and publishes it by its own RPC."""

    def _writes(self, fs, rel, offset, length, writes=3):
        client = fs.client(0)
        fd = client.open("/gkfs" + rel, WRITE)
        for i in range(writes):
            client.pwrite(fd, bytes([i + 1]) * length, offset)
        client.close(fd)
        return client

    def test_replication_2(self, substrate, size_spies):
        with substrate(4, FSConfig(chunk_size=CHUNK, replication=2)) as fs:
            cid = chunk_on(fs, "/f", owner_held=True)
            self._writes(fs, "/f", cid * CHUNK, 100)
            assert not size_spies["folded"]
            # One merge per write on each of the record's two replicas.
            assert sorted(size_spies["published"].values()) == [3, 3]

    def test_an_append(self, substrate, size_spies):
        with substrate(4, FSConfig(chunk_size=CHUNK)) as fs:
            client = fs.client(0)
            fd = client.open("/gkfs/f", WRITE | os.O_APPEND)
            for _ in range(3):
                client.write(fd, b"a" * 10)  # chunk 0, which its owner holds
            assert chunk_on(fs, "/f", owner_held=True) == 0
            assert not size_spies["folded"]
            owner = fs.distributor.locate_metadata("/f")
            assert size_spies["published"] == {owner: 3}  # the three reservations
            assert fs.client(1).stat("/gkfs/f").size == 30

    def test_the_size_cache(self, substrate, size_spies):
        config = FSConfig(chunk_size=CHUNK, size_cache_enabled=True, size_cache_flush_every=2)
        with substrate(4, config) as fs:
            cid = chunk_on(fs, "/f", owner_held=True)
            client = self._writes(fs, "/f", cid * CHUNK, 100, writes=4)
            assert not size_spies["folded"]
            owner = fs.distributor.locate_metadata("/f")
            assert size_spies["published"] == {owner: 2}  # 4 writes / flush_every 2
            assert client.meta.mutations.hooks[0].stats.updates_buffered == 4

    def test_a_write_across_two_daemons(self, substrate, size_spies):
        with substrate(4, FSConfig(chunk_size=CHUNK)) as fs:
            cid = chunk_on(fs, "/f", owner_held=True)
            # The write's second span lands on another daemon.
            assert fs.distributor.locate_chunk("/f", cid + 1) != (
                fs.distributor.locate_metadata("/f"))
            self._writes(fs, "/f", cid * CHUNK + CHUNK - 50, 100)
            assert not size_spies["folded"]
            owner = fs.distributor.locate_metadata("/f")
            assert size_spies["published"] == {owner: 3}
            assert fs.client(1).stat("/gkfs/f").size == cid * CHUNK + CHUNK + 50
