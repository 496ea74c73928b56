"""Daemon metadata memory under create/delete churn, and the WAL's own bound.

A delete that no sealed run can shadow drops the key from the memtable
instead of leaving a tombstone, so an mdtest-shaped loop (create, stat,
unlink) leaves the memtable as small as the live namespace.  The WAL,
which the memtable budget then no longer truncates, flushes on its own
once its stale bytes reach ``WAL_STALE_MULTIPLE`` × the flush budget.
"""

import os

import pytest

from repro import FSConfig
from repro.common.errors import NotFoundError
from repro.kvstore.lsm import WAL_STALE_MULTIPLE, LSMStore
from repro.kvstore.wal import RECORD_OVERHEAD
from repro.net import LocalSocketCluster

ROUNDS = 20
FILES = 500


def reflected_bytes(store):
    """Log bytes of the records the memtable holds (one record each)."""
    return sum(RECORD_OVERHEAD + len(key) + (len(value) if isinstance(value, bytes) else 0)
               for key, value in store._memtable.items())


def wal_bound(store, flush_bytes):
    """What the WAL may hold: the stale allowance plus what the memtable holds."""
    return WAL_STALE_MULTIPLE * flush_bytes + reflected_bytes(store)


@pytest.fixture
def cluster(tmp_path):
    config = FSConfig(kv_dir=str(tmp_path / "kv"), data_dir=str(tmp_path / "data"))
    fs = LocalSocketCluster(2, config)
    yield fs
    fs.shutdown()


def kvs(fs):
    return [served.daemon.kv for served in fs.served]


def churn_round(client, round_no):
    names = [f"/gkfs/churn/r{round_no:02d}.{i:04d}" for i in range(FILES)]
    for name in names:
        client.close(client.open(name, os.O_CREAT | os.O_WRONLY))
    for name in names:
        client.stat(name)
    for name in names:
        client.unlink(name)


class TestChurnOverSockets:
    def test_memtable_tracks_the_live_namespace(self, cluster):
        """(a) Twenty rounds of create/stat/unlink: after each, every
        daemon's memtable holds no more than its live records, and its
        WAL stays inside its bound."""
        client = cluster.client(0)
        client.mkdir("/gkfs/churn")
        for round_no in range(ROUNDS):
            churn_round(client, round_no)
            for kv in kvs(cluster):
                assert kv.memtable_entries <= len(kv)  # "/" and "/churn" live
                assert kv.memtable_tombstones == 0
                assert kv.wal_bytes <= wal_bound(kv, kv._flush_bytes)
        wal_total = sum(kv.wal_bytes for kv in kvs(cluster))
        assert wal_total > ROUNDS * FILES * 2 * RECORD_OVERHEAD  # every op still logged

    def test_gauges_mirror_the_store(self, cluster):
        client = cluster.client(0)
        client.mkdir("/gkfs/churn")
        churn_round(client, 0)
        for served in cluster.served:
            daemon = served.daemon
            snapshot = daemon.metrics.snapshot()["gauges"]
            assert snapshot["kv.memtable_entries"] == daemon.kv.memtable_entries
            assert snapshot["kv.memtable_tombstones"] == 0
            assert snapshot["kv.wal_bytes"] == daemon.kv.wal_bytes > 0

    def test_restart_replays_the_live_namespace_without_tombstones(self, cluster):
        """(b) A crash-stop and restart on the same kv_dir replays the WAL
        to the same live records, and no never-flushed key comes back as
        a tombstone."""
        client = cluster.client(0)
        client.mkdir("/gkfs/churn")
        churn_round(client, 0)
        kept = [f"/gkfs/churn/kept.{i}" for i in range(40)]
        for name in kept:
            client.close(client.open(name, os.O_CREAT | os.O_WRONLY))
        for name in kept[::2]:
            client.unlink(name)
        before = [sorted(kv.range_iter()) for kv in kvs(cluster)]
        for address in range(2):
            cluster.crash_daemon(address)
            cluster.restart_daemon(address)
        for kv, records in zip(kvs(cluster), before):
            assert kv.num_runs == 0
            assert sorted(kv.range_iter()) == records
            assert kv.memtable_tombstones == 0
            assert kv.memtable_entries == len(records)
        assert sorted(client.listdir("/gkfs/churn")) == sorted(
            (name.rsplit("/", 1)[1], False) for name in kept[1::2]
        )

    def test_a_flushed_key_stays_unlinked(self, cluster):
        """(c) A record sealed into a run and then unlinked keeps its
        tombstone, and stays gone across flush, compaction and restart."""
        client = cluster.client(0)
        client.mkdir("/gkfs/churn")
        client.close(client.open("/gkfs/churn/sealed", os.O_CREAT | os.O_WRONLY))
        for kv in kvs(cluster):
            kv.flush()
        client.unlink("/gkfs/churn/sealed")
        key = b"/churn/sealed"
        (owner,) = [a for a, kv in enumerate(kvs(cluster)) if kv._memtable.get(key) is not None]

        def still_gone():
            kv = kvs(cluster)[owner]
            assert kv.get(key) is None
            with pytest.raises(NotFoundError):
                client.stat("/gkfs/churn/sealed")
            return kv

        assert still_gone().memtable_tombstones == 1
        cluster.crash_daemon(owner)
        cluster.restart_daemon(owner)
        assert still_gone().memtable_tombstones == 1  # the run still admits the key
        still_gone().flush()
        kv = still_gone()
        assert kv.num_runs == 2
        kv.compact()  # the record and its tombstone cancel out
        assert still_gone().num_runs <= 1
        cluster.crash_daemon(owner)
        cluster.restart_daemon(owner)
        still_gone()


class TestWalBound:
    FLUSH = 4096

    def test_churn_keeps_the_wal_bounded(self, tmp_path):
        path = str(tmp_path / "db")
        store = LSMStore(path, memtable_flush_bytes=self.FLUSH)
        for i in range(3000):
            key = b"/churn/file.%08d" % i
            store.put(key, b"m" * 40)
            store.get(key)
            store.delete(key)
            assert store.wal_bytes <= wal_bound(store, self.FLUSH)
        assert store.stats.flushes == 0  # nothing live to seal
        assert store.memtable_entries == 0 and store.num_runs == 0
        store.crash()
        # Replay after a crash covers no more than the bound.
        assert os.path.getsize(os.path.join(path, "wal.log")) <= WAL_STALE_MULTIPLE * self.FLUSH
        with LSMStore(path, memtable_flush_bytes=self.FLUSH) as reopened:
            assert list(reopened.range_iter()) == []

    def test_one_growing_file_keeps_the_wal_bounded(self, tmp_path):
        """A size that keeps growing logs a record per update against one
        memtable entry; the stale allowance flushes it."""
        path = str(tmp_path / "db")
        store = LSMStore(path, memtable_flush_bytes=self.FLUSH)
        for size in range(1, 2000):
            store.merge(b"/grows", lambda old, size=size: b"%016d" % size)
            assert store.wal_bytes <= wal_bound(store, self.FLUSH)
        assert store.stats.flushes >= 1
        store.crash()
        assert os.path.getsize(os.path.join(path, "wal.log")) <= (
            WAL_STALE_MULTIPLE * self.FLUSH + RECORD_OVERHEAD + len(b"/grows") + 16
        )
        with LSMStore(path) as reopened:
            assert reopened.get(b"/grows") == b"%016d" % 1999

    def test_put_only_flushes_on_the_memtable_budget_alone(self, tmp_path):
        """No stale bytes without overwrites or deletes: flush points are
        the memtable budget's, with or without a WAL."""
        on_disk = LSMStore(str(tmp_path / "db"), memtable_flush_bytes=self.FLUSH)
        in_memory = LSMStore(memtable_flush_bytes=self.FLUSH)
        for i in range(2000):
            on_disk.put(b"k%06d" % i, b"")
            in_memory.put(b"k%06d" % i, b"")
            assert on_disk.stats.flushes == in_memory.stats.flushes
        assert on_disk.stats.flushes == in_memory.stats.flushes > 0
        on_disk.close()
        in_memory.close()

    def test_emptied_memtable_resets_the_wal_without_a_run(self, tmp_path):
        store = LSMStore(str(tmp_path / "db"), memtable_flush_bytes=self.FLUSH)
        store.put(b"k", b"v")
        store.delete(b"k")
        assert store.memtable_entries == 0 and store.wal_bytes > 0
        store.flush()
        assert store.wal_bytes == 0 and store.num_runs == 0
        assert store.stats.flushes == 0
        store.close()
