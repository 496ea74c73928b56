"""Daemon handlers, exercised directly (no client in between)."""

import os
import re

import pytest

from repro.common.errors import (
    ExistsError,
    IsADirectoryError_,
    NotADirectoryError_,
    NotFoundError,
)
from repro.core import daemon as daemon_module
from repro.core.daemon import (
    DATA_HANDLER_NAMES,
    HANDLER_NAMES,
    GekkoDaemon,
    read_chunks,
    read_records,
)
from repro.core.chunking import pack_spans, reply_proofs
from repro.core.membership import READONLY_HANDLERS
from repro.core.metadata import Metadata, new_dir_metadata, new_file_metadata
from repro.rpc import BulkHandle, RpcEngine, RpcNetwork
from repro.storage import LocalFSChunkStorage, MemoryChunkStorage
from repro.telemetry.slo import DEFAULT_SLOS


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


def write_one(daemon, path, chunk_id, data):
    """One span, inline — a single-chunk write is a table of one."""
    return daemon.write_chunks(path, pack_spans([(chunk_id, 0, len(data), 0)]), data=data)


def read_one(daemon, path, chunk_id, length, bulk=None):
    return daemon.read_chunks(path, pack_spans([(chunk_id, 0, length, 0)]), bulk)


class TestDataHandlers:
    def test_write_inline_then_read(self, daemon):
        write_one(daemon, "/f", 0, b"hello")
        # (n, runs, digests, payload...): no proofs with integrity off
        assert read_one(daemon, "/f", 0, 5) == (5, b"", b"", b"hello")

    def test_write_via_bulk_pull(self, daemon):
        payload = BulkHandle(b"bulk-bytes", readonly=True)
        assert daemon.write_chunks("/f", pack_spans([(1, 0, 10, 0)]), bulk=payload) == 10
        assert read_one(daemon, "/f", 1, 10)[3:] == (b"bulk-bytes",)

    def test_read_via_bulk_push(self, daemon):
        write_one(daemon, "/f", 0, b"abcd")
        sink = bytearray(4)
        reply = read_one(daemon, "/f", 0, 4, bulk=BulkHandle(sink))
        assert reply == (4, b"", b"", None)
        assert bytes(sink) == b"abcd"

    def test_several_spans_share_one_payload_region(self, daemon):
        region = b"AAAA....BBBB"  # the bytes between the spans belong elsewhere
        table = pack_spans([(0, 0, 4, 0), (2, 8, 4, 8)])
        assert daemon.write_chunks("/f", table, data=region) == 8
        sink = bytearray(12)
        reply = daemon.read_chunks("/f", table, BulkHandle(sink))
        assert reply[0] == 8
        assert bytes(sink) == b"AAAA" + bytes(4) + b"BBBB"

    def test_write_needs_payload(self, daemon):
        with pytest.raises(ValueError):
            daemon.write_chunks("/f", pack_spans([(0, 0, 1, 0)]))

    def test_truncate_chunks_drops_tail(self, daemon):
        for cid in range(4):
            write_one(daemon, "/f", cid, b"x" * 128)
        daemon.truncate_chunks("/f", 200)  # keep chunk 0 + 72 bytes of chunk 1
        assert list(daemon.storage.chunk_ids("/f")) == [0, 1]
        assert read_one(daemon, "/f", 1, 128)[3:] == (b"x" * 72,)

    def test_truncate_chunks_on_boundary(self, daemon):
        for cid in range(2):
            write_one(daemon, "/f", cid, b"x" * 128)
        daemon.truncate_chunks("/f", 128)
        assert list(daemon.storage.chunk_ids("/f")) == [0]
        assert read_one(daemon, "/f", 0, 128)[3:] == (b"x" * 128,)

    def test_remove_chunks(self, daemon):
        write_one(daemon, "/f", 0, b"x")
        write_one(daemon, "/f", 1, b"y")
        assert daemon.remove_chunks("/f") == 2


class TestOneReadReplyShape:
    """Integrity on/off x bulk/inline x any span count: one structure, so
    no caller has to look at the type of what came back."""

    @pytest.mark.parametrize("integrity", [False, True])
    @pytest.mark.parametrize("bulk", [False, True])
    @pytest.mark.parametrize("spans", [[(0, 0, 64, 0)], [(0, 0, 64, 0), (1, 0, 32, 64)]])
    def test_same_structure_everywhere(self, integrity, bulk, spans):
        storage = MemoryChunkStorage(64, integrity=integrity, integrity_block_size=32)
        daemon = GekkoDaemon(0, RpcEngine(0), 64, storage=storage)
        daemon.write_chunks(
            "/f", pack_spans([(0, 0, 64, 0), (1, 0, 32, 64)]), data=b"r" * 96
        )
        sink = bytearray(96)
        reply = daemon.read_chunks(
            "/f", pack_spans(spans), BulkHandle(sink) if bulk else None
        )
        assert type(reply) is tuple and len(reply) == 3 + len(spans)
        assert reply[0] == sum(length for _c, _o, length, _b in spans)
        for (_c, _o, length, at), payload, proof in zip(
            spans, reply[3:], reply_proofs(reply, 32)
        ):
            if bulk:
                assert payload is None and bytes(sink[at : at + length]) == b"r" * length
            else:
                assert payload == b"r" * length
            # one packed digest per fully covered 32-byte block, or no proof
            assert (len(proof[2]) // 8 if proof else 0) == (length // 32 if integrity else 0)

    def test_no_caller_sniffs_the_reply_type(self):
        root = os.path.join(os.path.dirname(__file__), "..", "src", "repro")
        for name in ("core/client.py", "core/resize.py", "selfheal/repair.py"):
            with open(os.path.join(root, name)) as f:
                assert not re.search(r"isinstance\(.*dict\)", f.read()), name


class TestHandlerTables:
    def test_every_table_names_registered_handlers(self, daemon):
        registered = set(daemon.engine.handler_names)
        assert DATA_HANDLER_NAMES <= set(HANDLER_NAMES) <= registered
        assert READONLY_HANDLERS <= set(HANDLER_NAMES)
        # exactly two span handlers, plus the whole-chunk repair RPC
        assert DATA_HANDLER_NAMES == {
            "gkfs_write_chunks", "gkfs_read_chunks", "gkfs_replace_chunk"
        }

    def test_every_default_slo_watches_a_registered_handler(self, daemon):
        prefix = "rpc.latency."
        for slo in DEFAULT_SLOS:
            if slo.kind == "latency":
                assert slo.source.startswith(prefix)
                assert slo.source[len(prefix):] in daemon.engine.handler_names, slo.name


class TestInventory:
    def _populate(self, daemon):
        daemon.create("/", new_dir_metadata().encode(), exclusive=True)
        # Flat namespace: no record for "/never_made" is needed.
        daemon.create("/never_made/f", file_md(), exclusive=True)
        write_one(daemon, "/never_made/f", 0, b"abc")
        write_one(daemon, "/never_made/f", 2, b"x" * 128)
        write_one(daemon, "/orphan", 1, b"12345")

    def test_records_then_chunks_in_order(self, daemon):
        self._populate(daemon)
        records = list(read_records(daemon.inventory))
        assert [path for path, _ in records] == ["/", "/never_made/f"]
        assert records[1][1] == daemon.stat("/never_made/f")
        assert list(read_chunks(daemon.inventory)) == [
            ("/never_made/f", 0, 3, False),
            ("/never_made/f", 2, 128, False),
            ("/orphan", 1, 5, False),
        ]

    @pytest.mark.parametrize("limit", [1, 2, 3, 5, 100])
    def test_any_page_size_lists_the_same(self, daemon, limit):
        """A page holds records or chunks, never both; the last records
        page hands over to the first chunk."""
        self._populate(daemon)
        records = list(read_records(daemon.inventory))
        chunks = list(read_chunks(daemon.inventory))
        paged, after, pages = [], None, 0
        while True:
            page = daemon.inventory(after, limit)
            assert not (page["records"] and page["chunks"])
            assert len(page["records"]) + len(page["chunks"]) <= limit
            paged += page["records"] + page["chunks"]
            pages += 1
            after = page["after"]
            if after is None:
                break
        assert paged == records + chunks
        # No empty trailing page in either phase.
        assert pages == -(-len(records) // limit) + -(-len(chunks) // limit)

    def test_empty_daemon_is_two_empty_pages(self, daemon):
        first = daemon.inventory(None, 4)
        assert first == {"records": [], "chunks": [], "after": ("chunks", None, -1)}
        assert daemon.inventory(first["after"], 4) == {"records": [], "chunks": [], "after": None}
        assert list(read_records(daemon.inventory)) == []
        assert list(read_chunks(daemon.inventory)) == []

    def test_a_paged_pass_lists_each_directory_about_once(self, tmp_path, monkeypatch, request):
        """A chunks page resumes from its path cursor, so a full pass over a
        disk store costs one direct scan (the root, then each directory's
        chunk check and chunk list) plus, per further page, the root again
        and at most three repeats where the boundary fell — not every
        directory on every page."""
        storage = LocalFSChunkStorage(128, str(tmp_path / "chunks"))
        # Its 60 open chunks must not wait for a garbage collection: later
        # tests count this process's descriptors.
        request.addfinalizer(storage.close)
        daemon = GekkoDaemon(0, RpcNetwork().create_engine(0), chunk_size=128,
                             storage=storage)
        directories = 30
        for i in range(directories):
            write_one(daemon, f"/f{i:02d}", 0, b"a")
            write_one(daemon, f"/f{i:02d}", 1, b"b")
        monkeypatch.setattr(daemon_module, "INVENTORY_PAGE", 20)
        listings = []
        real_listdir = os.listdir
        monkeypatch.setattr(os, "listdir", lambda p: listings.append(p) or real_listdir(p))
        chunks = list(read_chunks(daemon.inventory))
        pages = 3  # 60 chunks at 20 a page
        assert [chunk[:2] for chunk in chunks] == [
            (f"/f{i:02d}", cid) for i in range(directories) for cid in (0, 1)
        ]
        assert listings.count(storage.root) == pages
        direct_scan = 1 + 2 * directories
        assert len(listings) <= direct_scan + 4 * (pages - 1)

    def test_read_only_and_one_more_handler(self):
        assert "gkfs_inventory" in READONLY_HANDLERS
        assert len(HANDLER_NAMES) == 27


class TestStatfs:
    def test_snapshot_fields(self, daemon):
        daemon.create("/f", file_md(), exclusive=True)
        write_one(daemon, "/f", 0, b"12345")
        snap = daemon.statfs()
        assert snap["used_bytes"] == 5
        assert snap["metadata_records"] == 1
        assert daemon.storage.stats.write_ops == 1
        assert daemon.kv.stats.puts >= 1
