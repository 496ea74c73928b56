"""Daemon handlers, exercised directly (no client in between)."""

import pytest

from repro.common.errors import (
    ExistsError,
    IsADirectoryError_,
    NotADirectoryError_,
    NotFoundError,
)
from repro.core.daemon import HANDLER_NAMES, GekkoDaemon
from repro.core.metadata import Metadata, new_dir_metadata, new_file_metadata
from repro.rpc import BulkHandle, RpcNetwork
from repro.storage import MemoryChunkStorage


@pytest.fixture
def daemon():
    network = RpcNetwork()
    return GekkoDaemon(0, network.create_engine(0), chunk_size=128)


def file_md(**kw):
    return new_file_metadata(**kw).encode()


class TestSetup:
    def test_all_handlers_registered(self, daemon):
        assert set(daemon.engine.handler_names) == set(HANDLER_NAMES)

    def test_storage_chunk_size_must_match(self):
        network = RpcNetwork()
        with pytest.raises(ValueError):
            GekkoDaemon(
                0, network.create_engine(0), chunk_size=128,
                storage=MemoryChunkStorage(256),
            )


class TestMetadataHandlers:
    def test_create_then_stat(self, daemon):
        record = file_md()
        daemon.create("/f", record, exclusive=True)
        assert daemon.stat("/f") == record

    def test_exclusive_create_conflict(self, daemon):
        daemon.create("/f", file_md(), exclusive=True)
        with pytest.raises(ExistsError):
            daemon.create("/f", file_md(), exclusive=True)

    def test_nonexclusive_create_returns_existing(self, daemon):
        first = file_md()
        daemon.create("/f", first, exclusive=False)
        returned = daemon.create("/f", file_md(), exclusive=False)
        assert returned == first  # the original record, untouched

    def test_stat_missing(self, daemon):
        with pytest.raises(NotFoundError):
            daemon.stat("/ghost")

    def test_remove_returns_record(self, daemon):
        record = file_md()
        daemon.create("/f", record, exclusive=True)
        assert daemon.remove_metadata("/f", False) == record
        with pytest.raises(NotFoundError):
            daemon.stat("/f")

    def test_remove_missing(self, daemon):
        with pytest.raises(NotFoundError):
            daemon.remove_metadata("/ghost", False)

    def test_remove_refuses_the_other_type_and_keeps_the_record(self, daemon):
        """The type check and the delete are one step under the daemon's
        lock, so the check-and-remove atomicity needs no race to test: a
        refused remove leaves the record exactly as it was."""
        directory = new_dir_metadata().encode()
        daemon.create("/d", directory, exclusive=True)
        daemon.create("/f", file_md(), exclusive=True)
        with pytest.raises(IsADirectoryError_):
            daemon.remove_metadata("/d", False)
        with pytest.raises(NotADirectoryError_):
            daemon.remove_metadata("/f", True)
        assert daemon.stat("/d") == directory
        assert len(daemon.kv) == 2
        assert daemon.remove_metadata("/d", True) == directory


class TestSizeUpdates:
    def test_update_size_is_max(self, daemon):
        daemon.create("/f", file_md(), exclusive=True)
        assert daemon.update_size("/f", 100) == 100
        assert daemon.update_size("/f", 50) == 100  # late small update loses
        assert daemon.update_size("/f", 150) == 150

    def test_append_mode_accumulates(self, daemon):
        daemon.create("/f", file_md(), exclusive=True)
        daemon.update_size("/f", 10, append=True)
        assert daemon.update_size("/f", 10, append=True) == 20

    def test_update_size_missing_file(self, daemon):
        with pytest.raises(NotFoundError):
            daemon.update_size("/ghost", 10)

    def test_update_size_on_directory(self, daemon):
        daemon.create("/d", new_dir_metadata().encode(), exclusive=True)
        with pytest.raises(IsADirectoryError_):
            daemon.update_size("/d", 10)

    def test_update_size_maintains_blocks(self, daemon):
        daemon.create("/f", file_md(), exclusive=True)
        daemon.update_size("/f", 300)
        md = Metadata.decode(daemon.stat("/f"))
        assert md.blocks == 3  # 300 bytes / 128-byte chunks

    def test_truncate_metadata_sets_exactly(self, daemon):
        daemon.create("/f", file_md(), exclusive=True)
        daemon.update_size("/f", 500)
        old = daemon.truncate_metadata("/f", 100)
        assert old == 500
        assert Metadata.decode(daemon.stat("/f")).size == 100


class TestReaddir:
    def test_lists_direct_children_only(self, daemon):
        daemon.create("/d", new_dir_metadata().encode(), exclusive=True)
        daemon.create("/d/a", file_md(), exclusive=True)
        daemon.create("/d/sub", new_dir_metadata().encode(), exclusive=True)
        daemon.create("/d/sub/deep", file_md(), exclusive=True)
        daemon.create("/other", file_md(), exclusive=True)
        assert sorted(daemon.readdir("/d")) == [("a", False), ("sub", True)]

    def test_root_listing(self, daemon):
        daemon.create("/x", file_md(), exclusive=True)
        daemon.create("/y/z", file_md(), exclusive=True)
        assert daemon.readdir("/") == [("x", False)]  # /y/z is not a direct child

    def test_empty_dir(self, daemon):
        assert daemon.readdir("/nothing") == []


class TestDataHandlers:
    def test_write_inline_then_read(self, daemon):
        daemon.write_chunk("/f", 0, 0, data=b"hello")
        assert daemon.read_chunk("/f", 0, 0, 5) == b"hello"

    def test_write_via_bulk_pull(self, daemon):
        payload = BulkHandle(b"bulk-bytes", readonly=True)
        assert daemon.write_chunk("/f", 1, 0, bulk=payload) == 10
        assert daemon.read_chunk("/f", 1, 0, 10) == b"bulk-bytes"

    def test_read_via_bulk_push(self, daemon):
        daemon.write_chunk("/f", 0, 0, data=b"abcd")
        sink = bytearray(4)
        pushed = daemon.read_chunk("/f", 0, 0, 4, bulk=BulkHandle(sink))
        assert pushed == 4
        assert bytes(sink) == b"abcd"

    def test_write_needs_payload(self, daemon):
        with pytest.raises(ValueError):
            daemon.write_chunk("/f", 0, 0)

    def test_truncate_chunks_drops_tail(self, daemon):
        for cid in range(4):
            daemon.write_chunk("/f", cid, 0, data=b"x" * 128)
        daemon.truncate_chunks("/f", 200)  # keep chunk 0 + 72 bytes of chunk 1
        assert list(daemon.storage.chunk_ids("/f")) == [0, 1]
        assert daemon.read_chunk("/f", 1, 0, 128) == b"x" * 72

    def test_truncate_chunks_on_boundary(self, daemon):
        for cid in range(2):
            daemon.write_chunk("/f", cid, 0, data=b"x" * 128)
        daemon.truncate_chunks("/f", 128)
        assert list(daemon.storage.chunk_ids("/f")) == [0]
        assert daemon.read_chunk("/f", 0, 0, 128) == b"x" * 128

    def test_remove_chunks(self, daemon):
        daemon.write_chunk("/f", 0, 0, data=b"x")
        daemon.write_chunk("/f", 1, 0, data=b"y")
        assert daemon.remove_chunks("/f") == 2


class TestStatfs:
    def test_snapshot_fields(self, daemon):
        daemon.create("/f", file_md(), exclusive=True)
        daemon.write_chunk("/f", 0, 0, data=b"12345")
        snap = daemon.statfs()
        assert snap["used_bytes"] == 5
        assert snap["metadata_records"] == 1
        assert daemon.storage.stats.write_ops == 1
        assert daemon.kv.stats.puts >= 1
