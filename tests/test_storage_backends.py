"""Chunk-storage contract, exercised against both backends.

One parametrised suite: everything the daemon's persistence layer
guarantees must hold identically in memory and on a real directory.
"""

import os

import pytest

from repro.storage.localfs import LocalFSChunkStorage, decode_path, encode_path
from repro.storage.memory import MemoryChunkStorage

CHUNK = 256


@pytest.fixture(params=["memory", "localfs"])
def storage(request, tmp_path):
    if request.param == "memory":
        return MemoryChunkStorage(CHUNK)
    return LocalFSChunkStorage(CHUNK, str(tmp_path / "chunks"))


class TestWriteRead:
    def test_roundtrip(self, storage):
        storage.write_chunk("/f", 0, 0, b"hello")
        assert storage.read_chunk("/f", 0, 0, 5) == b"hello"

    def test_read_missing_chunk_is_empty(self, storage):
        assert storage.read_chunk("/f", 7, 0, 10) == b""

    def test_read_beyond_data_is_short(self, storage):
        storage.write_chunk("/f", 0, 0, b"abc")
        assert storage.read_chunk("/f", 0, 0, CHUNK) == b"abc"

    def test_sparse_write_zero_fills_hole(self, storage):
        storage.write_chunk("/f", 0, 10, b"xy")
        assert storage.read_chunk("/f", 0, 0, 12) == b"\x00" * 10 + b"xy"

    def test_overwrite_within_chunk(self, storage):
        storage.write_chunk("/f", 0, 0, b"aaaaaa")
        storage.write_chunk("/f", 0, 2, b"BB")
        assert storage.read_chunk("/f", 0, 0, 6) == b"aaBBaa"

    def test_independent_chunks(self, storage):
        storage.write_chunk("/f", 0, 0, b"zero")
        storage.write_chunk("/f", 3, 0, b"three")
        assert storage.read_chunk("/f", 0, 0, 4) == b"zero"
        assert storage.read_chunk("/f", 3, 0, 5) == b"three"

    def test_independent_paths(self, storage):
        storage.write_chunk("/a", 0, 0, b"A")
        storage.write_chunk("/b", 0, 0, b"B")
        assert storage.read_chunk("/a", 0, 0, 1) == b"A"
        assert storage.read_chunk("/b", 0, 0, 1) == b"B"

    def test_write_past_chunk_boundary_rejected(self, storage):
        with pytest.raises(ValueError):
            storage.write_chunk("/f", 0, CHUNK - 2, b"abc")

    def test_negative_offset_rejected(self, storage):
        with pytest.raises(ValueError):
            storage.read_chunk("/f", 0, -1, 4)


class TestTruncateRemove:
    def test_truncate_chunk_shrinks(self, storage):
        storage.write_chunk("/f", 0, 0, b"abcdef")
        storage.truncate_chunk("/f", 0, 3)
        assert storage.read_chunk("/f", 0, 0, CHUNK) == b"abc"

    def test_truncate_never_grows(self, storage):
        # Shrink-only on both backends: bytes between the payload and the
        # file size are a hole the client zero-fills, not stored zeros.
        storage.write_chunk("/f", 0, 0, b"abcdef")
        storage.truncate_chunk("/f", 0, 6)
        storage.truncate_chunk("/f", 0, 100)
        assert storage.read_chunk("/f", 0, 0, CHUNK) == b"abcdef"
        assert storage.used_bytes() == 6

    def test_truncate_to_zero_drops_chunk(self, storage):
        storage.write_chunk("/f", 0, 0, b"abc")
        storage.truncate_chunk("/f", 0, 0)
        assert list(storage.chunk_ids("/f")) == []

    def test_truncate_missing_chunk_is_noop(self, storage):
        storage.truncate_chunk("/f", 5, 10)

    def test_remove_chunks_counts(self, storage):
        for cid in range(4):
            storage.write_chunk("/f", cid, 0, b"x")
        assert storage.remove_chunks("/f") == 4
        assert list(storage.chunk_ids("/f")) == []

    def test_remove_missing_path_is_zero(self, storage):
        assert storage.remove_chunks("/ghost") == 0

    def test_remove_chunks_from_tail(self, storage):
        for cid in range(5):
            storage.write_chunk("/f", cid, 0, b"x")
        assert storage.remove_chunks_from("/f", 2) == 3
        assert list(storage.chunk_ids("/f")) == [0, 1]

    @pytest.mark.parametrize("backend", ["memory", "localfs"])
    @pytest.mark.parametrize("integrity", [False, True])
    def test_last_chunk_takes_its_container_along(self, backend, integrity, tmp_path):
        """One empty-container rule: once a path's last chunk goes — by
        truncation to zero or by a tail cut — no per-path container (the
        memory backend's dict, the disk backend's directory, a digest
        table) is left behind for a sweep to find."""
        if backend == "memory":
            storage = MemoryChunkStorage(CHUNK, integrity=integrity)
        else:
            storage = LocalFSChunkStorage(CHUNK, str(tmp_path / "c"), integrity=integrity)
        for cid in range(3):
            storage.write_chunk("/f", cid, 0, b"x")
        storage.truncate_chunk("/f", 0, 0)
        storage.remove_chunks_from("/f", 1)
        assert list(storage.paths()) == [] and list(storage.chunk_ids("/f")) == []
        assert "/f" not in storage._sums
        if isinstance(storage, MemoryChunkStorage):
            assert "/f" not in storage._files
        else:
            assert not os.path.exists(storage._dir_for("/f"))

    def test_chunk_lengths_list_stored_payloads(self, storage):
        storage.write_chunk("/f", 2, 10, b"abc")
        storage.write_chunk("/f", 0, 0, b"x")
        assert storage.chunk_lengths("/f") == [(0, 1), (2, 13)]
        assert storage.chunk_lengths("/ghost") == []


class TestAccounting:
    def test_chunk_ids_sorted(self, storage):
        for cid in (5, 1, 3):
            storage.write_chunk("/f", cid, 0, b"x")
        assert list(storage.chunk_ids("/f")) == [1, 3, 5]

    def test_used_bytes(self, storage):
        storage.write_chunk("/f", 0, 0, b"x" * 100)
        storage.write_chunk("/g", 0, 0, b"y" * 50)
        assert storage.used_bytes() == 150

    def test_stats_counters(self, storage):
        storage.write_chunk("/f", 0, 0, b"abcd")
        storage.read_chunk("/f", 0, 0, 4)
        storage.remove_chunks("/f")
        assert storage.stats.bytes_written == 4
        assert storage.stats.bytes_read == 4
        assert storage.stats.chunks_created == 1
        assert storage.stats.chunks_removed == 1


class TestPathEncoding:
    @pytest.mark.parametrize(
        "path", ["/a/b/c", "/with%percent", "/%2F-literal", "/x" * 20]
    )
    def test_roundtrip(self, path):
        encoded = encode_path(path)
        assert "/" not in encoded
        assert decode_path(encoded) == path

    def test_distinct_paths_never_collide(self):
        # '/a%2Fb' (literal) and '/a/b' (nested) must encode differently.
        assert encode_path("/a%2Fb") != encode_path("/a/b")
