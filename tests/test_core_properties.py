"""Property-based tests of the full data path.

A stateful machine drives random pwrite/pread/truncate sequences against
one GekkoFS file and mirrors them on a plain bytearray model: the
distributed, chunked, hash-placed implementation must be byte-identical
to a local file, no matter how operations straddle chunk boundaries.
"""

import os

import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.core import FSConfig, GekkoFSCluster


class FileVsBytearray(RuleBasedStateMachine):
    CHUNK = 32  # tiny chunks: every operation exercises multi-chunk paths

    def __init__(self):
        super().__init__()
        self.fs = GekkoFSCluster(num_nodes=3, config=FSConfig(chunk_size=self.CHUNK))
        self.client = self.fs.client(0)
        self.fd = self.client.open("/gkfs/model", os.O_CREAT | os.O_RDWR)
        # Other ways to the same file: this client's second descriptor and
        # another client's.  What they do, ``self.fd`` has not seen.
        other = self.fs.client(1)
        self.elsewhere = [
            (self.client, self.client.open("/gkfs/model", os.O_RDWR)),
            (other, other.open("/gkfs/model", os.O_RDWR)),
        ]
        self.model = bytearray()

    @rule(offset=st.integers(0, 300), data=st.binary(min_size=1, max_size=150))
    def pwrite(self, offset, data):
        self.client.pwrite(self.fd, data, offset)
        if offset > len(self.model):
            self.model.extend(b"\x00" * (offset - len(self.model)))
        end = offset + len(data)
        if end > len(self.model):
            self.model.extend(b"\x00" * (end - len(self.model)))
        self.model[offset:end] = data

    @rule(offset=st.integers(0, 400), count=st.integers(0, 200))
    def pread_matches(self, offset, count):
        expected = bytes(self.model[offset : offset + count])
        assert self.client.pread(self.fd, count, offset) == expected

    @rule(size=st.integers(0, 350))
    def truncate(self, size):
        self.client.ftruncate(self.fd, size)
        self._resize_model(size)

    def _resize_model(self, size):
        if size <= len(self.model):
            del self.model[size:]
        else:
            self.model.extend(b"\x00" * (size - len(self.model)))

    @rule(
        via=st.integers(0, 1),
        size=st.integers(0, 350),
        offset=st.integers(0, 400),
        count=st.integers(0, 200),
    )
    def truncate_elsewhere_then_pread(self, via, size, offset, count):
        """``self.fd`` planned its last read from a size that no longer
        holds; its next read must still be the file as it is now."""
        client, fd = self.elsewhere[via]
        client.ftruncate(fd, size)
        self._resize_model(size)
        expected = bytes(self.model[offset : offset + count])
        assert self.client.pread(self.fd, count, offset) == expected

    @invariant()
    def size_matches(self):
        assert self.client.fstat(self.fd).size == len(self.model)

    @invariant()
    def full_content_matches(self):
        n = len(self.model)
        assert self.client.pread(self.fd, n + 10, 0) == bytes(self.model)

    def teardown(self):
        self.client.close(self.fd)
        for client, fd in self.elsewhere:
            client.close(fd)
        self.fs.shutdown()


TestFileVsBytearray = FileVsBytearray.TestCase
TestFileVsBytearray.settings = settings(max_examples=20, stateful_step_count=25)


@given(
    chunk_size=st.integers(1, 100),
    writes=st.lists(
        st.tuples(st.integers(0, 500), st.binary(min_size=1, max_size=200)),
        min_size=1,
        max_size=12,
    ),
)
@settings(max_examples=40, deadline=None)
def test_overlapping_writes_last_wins(chunk_size, writes):
    """Sequential overlapping writes from one client resolve exactly like
    a local file regardless of chunk size."""
    with GekkoFSCluster(num_nodes=2, config=FSConfig(chunk_size=chunk_size)) as fs:
        client = fs.client(0)
        fd = client.open("/gkfs/f", os.O_CREAT | os.O_RDWR)
        model = bytearray()
        for offset, data in writes:
            client.pwrite(fd, data, offset)
            end = offset + len(data)
            if end > len(model):
                model.extend(b"\x00" * (end - len(model)))
            model[offset:end] = data
        assert client.pread(fd, len(model) + 1, 0) == bytes(model)
        client.close(fd)


@given(names=st.sets(st.text(alphabet="abcdef0123456789_", min_size=1, max_size=12), min_size=1, max_size=25))
@settings(max_examples=25, deadline=None)
def test_create_list_remove_cycle(names):
    """Any set of names survives a create → list → remove-all cycle."""
    with GekkoFSCluster(num_nodes=3) as fs:
        client = fs.client(0)
        client.mkdir("/gkfs/d")
        for name in names:
            client.close(client.creat(f"/gkfs/d/{name}"))
        assert [n for n, _ in client.listdir("/gkfs/d")] == sorted(names)
        for name in names:
            client.unlink(f"/gkfs/d/{name}")
        assert client.listdir("/gkfs/d") == []
        client.rmdir("/gkfs/d")
