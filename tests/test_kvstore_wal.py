"""Write-ahead log: framing, replay, torn/corrupt tail handling."""

import os

import pytest

from repro.kvstore.wal import OP_DELETE, OP_PUT, WriteAheadLog


@pytest.fixture
def wal_path(tmp_path):
    return str(tmp_path / "wal.log")


class TestAppendReplay:
    def test_empty_log_replays_nothing(self, wal_path):
        WriteAheadLog(wal_path).close()
        assert list(WriteAheadLog.replay(wal_path)) == []

    def test_missing_file_replays_nothing(self, tmp_path):
        assert list(WriteAheadLog.replay(str(tmp_path / "absent.log"))) == []

    def test_put_and_delete_roundtrip(self, wal_path):
        with WriteAheadLog(wal_path) as wal:
            wal.append(OP_PUT, b"alpha", b"1")
            wal.append(OP_DELETE, b"beta")
            wal.append(OP_PUT, b"gamma", b"x" * 1000)
        records = list(WriteAheadLog.replay(wal_path))
        assert records == [
            (OP_PUT, b"alpha", b"1"),
            (OP_DELETE, b"beta", None),
            (OP_PUT, b"gamma", b"x" * 1000),
        ]

    def test_append_survives_reopen(self, wal_path):
        with WriteAheadLog(wal_path) as wal:
            wal.append(OP_PUT, b"a", b"1")
        with WriteAheadLog(wal_path) as wal:
            wal.append(OP_PUT, b"b", b"2")
        assert len(list(WriteAheadLog.replay(wal_path))) == 2

    def test_unknown_op_rejected(self, wal_path):
        with WriteAheadLog(wal_path) as wal:
            with pytest.raises(ValueError):
                wal.append(7, b"k", b"v")

    def test_empty_value_put(self, wal_path):
        with WriteAheadLog(wal_path) as wal:
            wal.append(OP_PUT, b"k", b"")
        assert list(WriteAheadLog.replay(wal_path)) == [(OP_PUT, b"k", b"")]


class TestCrashTails:
    def _write_two(self, wal_path):
        with WriteAheadLog(wal_path) as wal:
            wal.append(OP_PUT, b"good-1", b"v1")
            wal.append(OP_PUT, b"good-2", b"v2")

    def test_torn_tail_dropped(self, wal_path):
        self._write_two(wal_path)
        with open(wal_path, "r+b") as fh:
            fh.seek(0, 2)
            size = fh.tell()
            fh.truncate(size - 3)  # tear the last record
        records = list(WriteAheadLog.replay(wal_path))
        assert records == [(OP_PUT, b"good-1", b"v1")]

    def test_corrupt_crc_stops_replay(self, wal_path):
        self._write_two(wal_path)
        with open(wal_path, "r+b") as fh:
            fh.seek(-1, 2)
            last = fh.read(1)
            fh.seek(-1, 2)
            fh.write(bytes([last[0] ^ 0xFF]))
        records = list(WriteAheadLog.replay(wal_path))
        assert records == [(OP_PUT, b"good-1", b"v1")]

    def test_truncate_resets(self, wal_path):
        self._write_two(wal_path)
        WriteAheadLog.truncate(wal_path)
        assert list(WriteAheadLog.replay(wal_path)) == []


class TestOneWritePerRecord:
    def test_each_append_is_one_write(self, wal_path, monkeypatch):
        writes = []
        real = os.write
        monkeypatch.setattr(os, "write", lambda fd, data: writes.append(1) or real(fd, data))
        with WriteAheadLog(wal_path) as wal:
            for i in range(10):
                wal.append(OP_PUT, b"k%d" % i, b"v" * i)
        assert len(writes) == 10
        assert len(list(WriteAheadLog.replay(wal_path))) == 10

    @pytest.mark.parametrize("sync, fsyncs", [(True, 7), (False, 0)])
    def test_sync_fsyncs_once_per_append(self, wal_path, monkeypatch, sync, fsyncs):
        calls = []
        monkeypatch.setattr(os, "fsync", lambda fd: calls.append(fd))
        with WriteAheadLog(wal_path, sync=sync) as wal:
            for i in range(7):
                wal.append(OP_PUT, b"k", b"v")
        assert len(calls) == fsyncs

    def test_short_write_is_completed(self, wal_path, monkeypatch):
        real = os.write
        monkeypatch.setattr(os, "write", lambda fd, data: real(fd, bytes(data[:3])))
        with WriteAheadLog(wal_path) as wal:
            wal.append(OP_PUT, b"alpha", b"x" * 100)
            wal.append(OP_DELETE, b"beta")
        assert list(WriteAheadLog.replay(wal_path)) == [
            (OP_PUT, b"alpha", b"x" * 100), (OP_DELETE, b"beta", None)]

    def test_write_without_progress_raises(self, wal_path, monkeypatch):
        real = os.write

        def stalling(fd, data):  # 3 bytes a call, then none for the last 20
            return real(fd, bytes(data[:3])) if len(data) > 20 else 0

        monkeypatch.setattr(os, "write", stalling)
        with WriteAheadLog(wal_path) as wal:
            with pytest.raises(OSError, match="no progress"):
                wal.append(OP_PUT, b"alpha", b"x" * 100)
