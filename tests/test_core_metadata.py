"""Metadata records: the KV values that replace inodes."""

import pytest
from hypothesis import given, strategies as st

from repro.core.daemon import GekkoDaemon
from repro.core.metadata import (
    Metadata,
    new_dir_metadata,
    new_file_metadata,
    record_head,
)
from repro.rpc import RpcEngine


class TestEncodeDecode:
    def test_roundtrip_file(self):
        md = Metadata(is_dir=False, size=4096, mode=0o600, ctime=1.5, mtime=2.5, atime=3.5, blocks=8)
        assert Metadata.decode(md.encode()) == md

    def test_roundtrip_dir(self):
        md = Metadata(is_dir=True, mode=0o755)
        assert Metadata.decode(md.encode()).is_dir

    def test_fixed_width(self):
        a = Metadata(is_dir=False).encode()
        b = Metadata(is_dir=True, size=2**40, blocks=2**20).encode()
        assert len(a) == len(b)

    @given(
        is_dir=st.booleans(),
        size=st.integers(0, 2**60),
        mode=st.integers(0, 0o7777),
        blocks=st.integers(0, 2**40),
    )
    def test_roundtrip_property(self, is_dir, size, mode, blocks):
        md = Metadata(is_dir=is_dir, size=size, mode=mode, blocks=blocks)
        assert Metadata.decode(md.encode()) == md

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            Metadata(is_dir=False, size=-1)


class TestWithSize:
    def test_updates_size_and_blocks(self):
        md = Metadata(is_dir=False, size=0, blocks=0)
        grown = md.with_size(1025, chunk_size=512)
        assert grown.size == 1025
        assert grown.blocks == 3

    def test_mtime_optional(self):
        md = Metadata(is_dir=False, mtime=1.0)
        assert md.with_size(10, 512).mtime == 1.0
        assert md.with_size(10, 512, mtime=9.0).mtime == 9.0

    def test_immutability(self):
        md = Metadata(is_dir=False, size=5)
        md.with_size(100, 512)
        assert md.size == 5


class TestConstructors:
    def test_new_file_defaults(self):
        md = new_file_metadata()
        assert not md.is_dir
        assert md.size == 0
        assert md.mode == 0o644
        assert md.ctime > 0

    def test_new_dir(self):
        md = new_dir_metadata(0o700)
        assert md.is_dir
        assert md.mode == 0o700

    def test_times_disabled(self):
        md = new_file_metadata(maintain_times=False)
        assert md.ctime == 0.0
        assert md.mtime == 0.0


_files = st.builds(
    Metadata, is_dir=st.just(False), size=st.integers(0, 2**62),
    mode=st.integers(0, 2**32 - 1), ctime=st.floats(allow_nan=False),
    mtime=st.floats(allow_nan=False), atime=st.floats(allow_nan=False),
    blocks=st.integers(0, 2**64 - 1),
)
_chunks = st.sampled_from([1, 512, 4096, 524288])


class TestRecordPatch:
    """The daemon patches size and blocks as bytes; the result must be the
    bytes the record class would have built."""

    @given(md=_files, size=st.integers(0, 2**62), chunk_size=_chunks, append=st.booleans())
    def test_size_update_equals_decode_with_size_encode(self, md, size, chunk_size, append):
        daemon = GekkoDaemon(0, RpcEngine(0), chunk_size)
        record = md.encode()
        daemon.kv.put(b"/f", record)
        expected = md.size + size if append else max(md.size, size)
        assert daemon.update_size("/f", size, append) == expected
        assert daemon.kv.get(b"/f") == (
            Metadata.decode(record).with_size(expected, chunk_size).encode())

    @given(md=_files, size=st.integers(0, 2**62), chunk_size=_chunks)
    def test_truncate_equals_decode_with_size_encode(self, md, size, chunk_size):
        daemon = GekkoDaemon(0, RpcEngine(0), chunk_size)
        record = md.encode()
        daemon.kv.put(b"/f", record)
        assert daemon.truncate_metadata("/f", size) == md.size
        assert daemon.kv.get(b"/f") == (
            Metadata.decode(record).with_size(size, chunk_size).encode())

    @given(md=_files, is_dir=st.booleans())
    def test_head_reads_type_and_size_in_place(self, md, is_dir):
        record = Metadata(is_dir, md.size, md.mode, blocks=md.blocks).encode()
        assert record_head(record) == (is_dir, md.size)

    def test_decode_builds_the_record_without_init(self, monkeypatch):
        record = Metadata(is_dir=True, size=7, blocks=1).encode()
        monkeypatch.setattr(Metadata, "__init__", None)
        md = Metadata.decode(record)
        assert (md.is_dir, md.size, md.blocks) == (True, 7, 1)
        with pytest.raises(AttributeError):
            md.size = 8  # still frozen
