"""LSM store: CRUD across runs, merge atomicity, compaction, recovery."""

import os
import threading

import pytest

from repro.kvstore.lsm import LSMStore, prefix_upper_bound


class TestPrefixUpperBound:
    def test_simple(self):
        assert prefix_upper_bound(b"/dir/") == b"/dir0"

    def test_trailing_ff_carries(self):
        assert prefix_upper_bound(b"a\xff") == b"b"

    def test_all_ff_unbounded(self):
        assert prefix_upper_bound(b"\xff\xff") is None

    def test_empty_unbounded(self):
        assert prefix_upper_bound(b"") is None


class TestCrud:
    def test_get_absent(self):
        with LSMStore() as store:
            assert store.get(b"nope") is None
            assert b"nope" not in store

    def test_put_get_delete(self):
        with LSMStore() as store:
            store.put(b"k", b"v")
            assert store.get(b"k") == b"v"
            store.delete(b"k")
            assert store.get(b"k") is None

    def test_overwrite(self):
        with LSMStore() as store:
            store.put(b"k", b"1")
            store.put(b"k", b"2")
            assert store.get(b"k") == b"2"

    def test_empty_key_rejected(self):
        with LSMStore() as store:
            with pytest.raises(ValueError):
                store.put(b"", b"v")

    def test_non_bytes_rejected(self):
        with LSMStore() as store:
            with pytest.raises(TypeError):
                store.put("str", b"v")
            with pytest.raises(TypeError):
                store.put(b"k", "str")

    def test_use_after_close_rejected(self):
        store = LSMStore()
        store.close()
        with pytest.raises(RuntimeError):
            store.put(b"k", b"v")

    def test_len_counts_live_keys(self):
        with LSMStore() as store:
            for i in range(10):
                store.put(f"k{i}".encode(), b"v")
            store.delete(b"k3")
            assert len(store) == 9


class TestRunsAndCompaction:
    def make_store(self):
        return LSMStore(memtable_flush_bytes=256, compaction_fanout=3)

    def test_reads_span_memtable_and_runs(self):
        with self.make_store() as store:
            for i in range(100):
                store.put(f"key{i:04d}".encode(), f"v{i}".encode())
            assert store.num_runs >= 1
            for i in range(100):
                assert store.get(f"key{i:04d}".encode()) == f"v{i}".encode()

    def test_newest_run_wins(self):
        with self.make_store() as store:
            store.put(b"k", b"old")
            store.flush()
            store.put(b"k", b"new")
            store.flush()
            assert store.get(b"k") == b"new"

    def test_tombstone_shadows_older_run(self):
        with self.make_store() as store:
            store.put(b"k", b"v")
            store.flush()
            store.delete(b"k")
            store.flush()
            assert store.get(b"k") is None

    def test_compaction_collapses_runs_and_drops_tombstones(self):
        with self.make_store() as store:
            for i in range(20):
                store.put(f"k{i:02d}".encode(), b"v")
            store.delete(b"k05")
            store.flush()
            store.compact()
            assert store.num_runs == 1
            assert store.get(b"k05") is None
            assert store.get(b"k06") == b"v"

    def test_automatic_compaction_bounds_runs(self):
        with self.make_store() as store:
            for i in range(2000):
                store.put(f"key{i:06d}".encode(), b"x" * 32)
            assert store.num_runs <= 4  # fanout 3 + the one being built
            assert len(store) == 2000

    def test_range_iter_merges_runs_in_order(self):
        with self.make_store() as store:
            for i in range(0, 50, 2):
                store.put(f"k{i:02d}".encode(), b"even")
            store.flush()
            for i in range(1, 50, 2):
                store.put(f"k{i:02d}".encode(), b"odd")
            keys = [k for k, _ in store.range_iter()]
            assert keys == sorted(keys)
            assert len(keys) == 50

    def test_prefix_iter(self):
        with LSMStore() as store:
            store.put(b"/a/1", b"x")
            store.put(b"/a/2", b"y")
            store.put(b"/b/1", b"z")
            assert [k for k, _ in store.prefix_iter(b"/a/")] == [b"/a/1", b"/a/2"]


class TestMerge:
    def test_merge_creates_and_updates(self):
        with LSMStore() as store:
            result = store.merge(b"size", lambda old: b"1" if old is None else old + b"1")
            assert result == b"1"
            result = store.merge(b"size", lambda old: old + b"1")
            assert result == b"11"

    def test_merge_exception_leaves_store_unchanged(self):
        with LSMStore() as store:
            store.put(b"k", b"v")

            def boom(old):
                raise RuntimeError("merge fn failed")

            with pytest.raises(RuntimeError):
                store.merge(b"k", boom)
            assert store.get(b"k") == b"v"

    def test_merge_non_bytes_result_rejected(self):
        with LSMStore() as store:
            with pytest.raises(TypeError):
                store.merge(b"k", lambda old: 42)

    def test_concurrent_merges_all_apply(self):
        """The size-update path: racing merges must serialise, not lose."""
        with LSMStore() as store:
            store.put(b"ctr", (0).to_bytes(8, "little"))

            def bump():
                for _ in range(200):
                    store.merge(
                        b"ctr",
                        lambda old: (int.from_bytes(old, "little") + 1).to_bytes(8, "little"),
                    )

            threads = [threading.Thread(target=bump) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert int.from_bytes(store.get(b"ctr"), "little") == 800


class TestPersistence:
    def test_recovery_from_wal(self, tmp_path):
        path = str(tmp_path / "db")
        store = LSMStore(path)
        store.put(b"a", b"1")
        store.delete(b"a")
        store.put(b"b", b"2")
        store.crash()  # no clean close
        reopened = LSMStore(path)
        assert reopened.get(b"a") is None
        assert reopened.get(b"b") == b"2"
        reopened.close()

    def test_acked_records_replay_after_crash(self, tmp_path):
        path = str(tmp_path / "db")
        store = LSMStore(path)
        for i in range(300):
            store.put(b"k%03d" % i, b"v%d" % i)
        store.delete(b"k007")
        store.merge(b"k008", lambda old: old + b"!")
        store.crash()  # no close: nothing flushed or truncated
        with LSMStore(path) as reopened:
            assert len(reopened) == 299
            assert reopened.get(b"k007") is None
            assert reopened.get(b"k008") == b"v8!"
            assert reopened.get(b"k299") == b"v299"

    def test_torn_tail_after_crash_loses_only_the_last_record(self, tmp_path):
        path = str(tmp_path / "db")
        store = LSMStore(path)
        for i in range(20):
            store.put(b"k%02d" % i, b"v")
        store.crash()
        wal = tmp_path / "db" / "wal.log"
        os.truncate(wal, wal.stat().st_size - 2)
        with LSMStore(path) as reopened:
            assert len(reopened) == 19
            assert reopened.get(b"k19") is None

    def test_noop_merge_writes_nothing(self, tmp_path):
        path = str(tmp_path / "db")
        wal = tmp_path / "db" / "wal.log"
        store = LSMStore(path)
        store.put(b"size", b"\x05")
        appends, logged = store.stats.wal_appends, wal.stat().st_size
        assert store.merge(b"size", lambda old: bytes(old)) == b"\x05"
        assert (store.stats.wal_appends, wal.stat().st_size) == (appends, logged)
        store.merge(b"size", lambda old: b"\x06")
        assert store.stats.wal_appends == appends + 1
        store.crash()
        with LSMStore(path) as reopened:
            assert reopened.get(b"size") == b"\x06"
            assert len(reopened) == 1

    def test_recovery_from_sstables_and_wal(self, tmp_path):
        path = str(tmp_path / "db")
        with LSMStore(path, memtable_flush_bytes=64) as store:
            for i in range(50):
                store.put(f"key{i:03d}".encode(), f"v{i}".encode())
        with LSMStore(path) as reopened:
            assert len(reopened) == 50
            assert reopened.get(b"key025") == b"v25"

    def test_compaction_removes_old_files(self, tmp_path):
        path = str(tmp_path / "db")
        with LSMStore(path, memtable_flush_bytes=64, compaction_fanout=2) as store:
            for i in range(500):
                store.put(f"key{i:05d}".encode(), b"x" * 16)
            sst_files = [p for p in (tmp_path / "db").iterdir() if p.suffix == ".sst"]
            assert len(sst_files) == store.num_runs

    def test_stats_counters(self):
        with LSMStore() as store:
            store.put(b"a", b"1")
            store.get(b"a")
            store.get(b"missing")
            store.delete(b"a")
            assert store.stats.puts == 1
            assert store.stats.gets == 2
            assert store.stats.deletes == 1


class _Killed(BaseException):
    """The process died at this point (nothing below it runs)."""


class TestKillWhileSealing:
    """A daemon killed while it writes an SSTable run leaves the file it
    was writing cut short: empty just after the create, or truncated.
    A restart on the directory must come back with every record flushed
    before the kill (and, from the WAL, the ones being sealed)."""

    @staticmethod
    def _kill_sealing_writes(monkeypatch, keep):
        """Cut every run write after ``keep(total)`` bytes, then die."""
        from repro.kvstore import lsm

        real_open = open

        def killing_open(path, mode="r", *args, **kwargs):
            fh = real_open(path, mode, *args, **kwargs)
            if "w" not in mode or not os.path.basename(path).startswith("sst_"):
                return fh

            def write(data):
                os.write(fh.fileno(), bytes(data[: keep(len(data))]))
                raise _Killed()

            fh.write = write
            return fh

        monkeypatch.setattr(lsm, "open", killing_open, raising=False)

    def _flushed_then_killed(self, tmp_path, monkeypatch, keep):
        store = LSMStore(str(tmp_path), memtable_flush_bytes=1 << 20)
        for i in range(50):
            store.put(f"early{i:03d}".encode(), b"e" * 40)
        store.flush()  # sealed intact
        for i in range(50):
            store.put(f"late{i:03d}".encode(), b"l" * 40)
        self._kill_sealing_writes(monkeypatch, keep)
        with pytest.raises(_Killed):
            store.flush()
        monkeypatch.undo()
        store.crash()
        return LSMStore(str(tmp_path))

    def _check(self, store):
        for i in range(50):
            assert store.get(f"early{i:03d}".encode()) == b"e" * 40
            assert store.get(f"late{i:03d}".encode()) == b"l" * 40
        assert not [n for n in os.listdir(store._path) if n.endswith(".tmp")]
        store.close()

    def test_an_empty_run_left_just_after_the_create(self, tmp_path, monkeypatch):
        self._check(self._flushed_then_killed(tmp_path, monkeypatch, lambda n: 0))

    def test_a_truncated_run(self, tmp_path, monkeypatch):
        self._check(self._flushed_then_killed(tmp_path, monkeypatch, lambda n: n // 2))

    def test_a_compaction_killed_mid_write(self, tmp_path, monkeypatch):
        store = LSMStore(str(tmp_path), memtable_flush_bytes=1 << 20)
        for run in range(3):
            for i in range(20):
                store.put(f"k{run}-{i:03d}".encode(), b"c" * 40)
            store.flush()
        self._kill_sealing_writes(monkeypatch, lambda n: n // 3)
        with pytest.raises(_Killed):
            store.compact()
        monkeypatch.undo()
        store.crash()
        reopened = LSMStore(str(tmp_path))
        for run in range(3):
            for i in range(20):
                assert reopened.get(f"k{run}-{i:03d}".encode()) == b"c" * 40
        reopened.close()
