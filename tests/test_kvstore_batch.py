"""Atomic write batches (RocksDB WriteBatch semantics)."""

import threading

import pytest

from repro.kvstore.lsm import LSMStore
from repro.kvstore.wal import OP_DELETE, OP_PUT, WriteAheadLog


class TestEncoding:
    def test_roundtrip(self):
        ops = [(OP_PUT, b"a", b"1"), (OP_DELETE, b"b", b""), (OP_PUT, b"c", b"")]
        blob = WriteAheadLog.encode_batch(ops)
        decoded = list(WriteAheadLog.decode_batch(blob))
        assert decoded == [(OP_PUT, b"a", b"1"), (OP_DELETE, b"b", None), (OP_PUT, b"c", b"")]

    def test_empty_batch(self):
        assert list(WriteAheadLog.decode_batch(WriteAheadLog.encode_batch([]))) == []

    def test_nested_batches_rejected(self):
        from repro.kvstore.wal import OP_BATCH

        with pytest.raises(ValueError):
            WriteAheadLog.encode_batch([(OP_BATCH, b"k", b"v")])


class TestApply:
    def test_mixed_batch(self):
        with LSMStore() as store:
            store.put(b"old", b"x")
            store.write_batch(
                [("put", b"a", b"1"), ("put", b"b", b"2"), ("delete", b"old", None)]
            )
            assert store.get(b"a") == b"1"
            assert store.get(b"b") == b"2"
            assert store.get(b"old") is None

    def test_empty_batch_is_noop(self):
        with LSMStore() as store:
            store.write_batch([])
            assert len(store) == 0

    def test_validation(self):
        with LSMStore() as store:
            with pytest.raises(ValueError):
                store.write_batch([("merge", b"k", b"v")])
            with pytest.raises(TypeError):
                store.write_batch([("put", b"k", None)])
            with pytest.raises(ValueError):
                store.write_batch([("put", b"", b"v")])

    def test_stats_counted(self):
        with LSMStore() as store:
            store.write_batch([("put", b"a", b"1"), ("delete", b"b", None)])
            assert store.stats.puts == 1
            assert store.stats.deletes == 1

    def test_readers_see_all_or_nothing(self):
        """A scanning thread must never observe half a batch."""
        store = LSMStore()
        store.write_batch([("put", b"x", b"0"), ("put", b"y", b"0")])
        stop = threading.Event()
        violations = []

        def scan():
            while not stop.is_set():
                snapshot = dict(store.range_iter())
                if snapshot[b"x"] != snapshot[b"y"]:
                    violations.append(snapshot)

        def write():
            for i in range(300):
                v = str(i).encode()
                store.write_batch([("put", b"x", v), ("put", b"y", v)])

        scanner = threading.Thread(target=scan)
        scanner.start()
        write()
        stop.set()
        scanner.join()
        store.close()
        assert violations == []


class TestBatchRecovery:
    def test_batch_survives_crash(self, tmp_path):
        path = str(tmp_path / "db")
        store = LSMStore(path)
        store.write_batch([("put", b"a", b"1"), ("put", b"b", b"2"), ("delete", b"a", None)])
        store.crash()  # no clean close
        reopened = LSMStore(path)
        assert reopened.get(b"a") is None
        assert reopened.get(b"b") == b"2"
        reopened.close()

    def test_torn_batch_replays_nothing(self, tmp_path):
        """Tearing the tail of a batch record drops the WHOLE batch —
        never a prefix of it."""
        path = str(tmp_path / "db")
        store = LSMStore(path)
        store.put(b"before", b"ok")
        store.write_batch([("put", b"p1", b"v1"), ("put", b"p2", b"v2")])
        store.crash()
        wal_file = str(tmp_path / "db" / "wal.log")
        with open(wal_file, "r+b") as fh:
            fh.seek(0, 2)
            fh.truncate(fh.tell() - 3)  # tear into the batch record
        reopened = LSMStore(path)
        assert reopened.get(b"before") == b"ok"
        assert reopened.get(b"p1") is None  # all-or-nothing
        assert reopened.get(b"p2") is None
        reopened.close()
