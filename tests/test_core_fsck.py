"""Consistency checker: detection and safe repair."""

import functools
import os

import pytest

from repro.core import FSConfig, GekkoFSCluster
from repro.core import daemon as daemon_module
from repro.core.chunking import pack_spans
from repro.core.daemon import read_chunks
from repro.core.fsck import check, repair
from repro.faults import splice_faults
from repro.net.cluster import LocalSocketCluster


@pytest.fixture
def fs():
    with GekkoFSCluster(num_nodes=3, config=FSConfig(chunk_size=128)) as cluster:
        yield cluster


def write_file(fs, path, payload):
    client = fs.client(0)
    fd = client.open(path, os.O_CREAT | os.O_WRONLY)
    client.write(fd, payload)
    client.close(fd)
    return client


class TestCleanDeployments:
    def test_empty_cluster_is_clean(self, fs):
        report = check(fs)
        assert report.clean
        assert report.files_checked == 1  # the root record

    def test_healthy_files_are_clean(self, fs):
        write_file(fs, "/gkfs/a", b"x" * 500)
        write_file(fs, "/gkfs/b", b"y" * 10)
        report = check(fs)
        assert report.clean
        assert report.files_checked == 3
        assert report.chunks_checked == 5  # 4 + 1

    def test_sparse_files_are_clean(self, fs):
        """Holes mean size > stored bytes — never a finding."""
        client = fs.client(0)
        fd = client.open("/gkfs/sparse", os.O_CREAT | os.O_WRONLY)
        client.pwrite(fd, b"end", 1000)
        client.close(fd)
        assert check(fs).clean

    def test_phantom_parents_reported_but_clean(self, fs):
        write_file(fs, "/gkfs/nodir/f", b"z")
        report = check(fs)
        assert report.clean  # informational only
        assert report.phantom_parents == ["/nodir/f"]

    def test_str_summary(self, fs):
        assert "clean" in str(check(fs))


class TestOrphanedChunks:
    def _orphan(self, fs):
        """Simulate a client that died between chunk write and create."""
        for daemon in fs.daemons:
            daemon.storage.write_chunk("/never_created", 0, 0, b"lost write")
        return fs

    def test_detected(self, fs):
        self._orphan(fs)
        report = check(fs)
        assert not report.clean
        assert len(report.orphaned_chunks) == 3  # one per daemon
        assert report.orphaned_chunks[0][0] == "/never_created"

    def test_repair_drops_them(self, fs):
        self._orphan(fs)
        after = repair(fs)
        assert after.clean
        assert all(
            "/never_created" not in d.storage.paths() for d in fs.daemons
        )

    def test_repair_leaves_healthy_files(self, fs):
        write_file(fs, "/gkfs/keep", b"k" * 300)
        self._orphan(fs)
        repair(fs)
        client = fs.client(0)
        fd = client.open("/gkfs/keep")
        assert client.read(fd, 300) == b"k" * 300
        client.close(fd)


class TestUnreachableDaemons:
    """A daemon that cannot list its holdings may hold the record of
    chunks on the others: no chunk is orphaned until every daemon has
    answered in full."""

    PAYLOAD = bytes(range(256)) * 4  # 8 chunks of 128 bytes

    def _spread_file(self, fs):
        write_file(fs, "/gkfs/f", self.PAYLOAD)
        owner = fs.distributor.locate_metadata("/f")
        elsewhere = {fs.distributor.locate_chunk("/f", c) for c in range(8)} - {owner}
        assert elsewhere  # some chunks live away from the record
        return owner

    def test_partitioned_record_owner_keeps_its_files_data(self, fs):
        owner = self._spread_file(fs)
        faults = splice_faults(fs.network)
        faults.partition([owner])
        report = repair(fs)
        assert report.unreachable == [owner]
        assert report.orphaned_chunks == []
        faults.heal()
        assert fs.client(0).read_bytes("/gkfs/f") == self.PAYLOAD
        assert check(fs).clean

    def test_listing_cut_short_judges_no_orphan(self, fs, monkeypatch):
        owner = self._spread_file(fs)
        # A record the owner lists before "/f": the cut falls between them.
        first = next(
            f"/a{i}" for i in range(100) if fs.distributor.locate_metadata(f"/a{i}") == owner
        )
        write_file(fs, "/gkfs" + first, b"a" * 10)
        monkeypatch.setattr(daemon_module, "INVENTORY_PAGE", 1)
        splice_faults(fs.network).arm(
            lambda request: request.handler == "gkfs_inventory"
            and request.target == owner
            and request.args[0] is not None  # a page after the first
        )
        findings = check(fs)
        assert findings.unreachable == [owner]
        assert findings.orphaned_chunks == []
        assert repair(fs, findings).clean
        assert fs.client(0).read_bytes("/gkfs/f") == self.PAYLOAD


class TestSizeOverruns:
    def _lose_size_update(self, fs):
        """Write data, then knock the metadata size back (the state left
        by a crash between chunk write and size publication)."""
        write_file(fs, "/gkfs/f", b"d" * 500)
        owner = fs.distributor.locate_metadata("/f")
        fs.daemons[owner].truncate_metadata("/f", 100)

    def test_detected(self, fs):
        self._lose_size_update(fs)
        report = check(fs)
        assert not report.clean
        assert report.size_overruns == [("/f", 100, 500)]

    def test_repair_restores_size(self, fs):
        self._lose_size_update(fs)
        after = repair(fs)
        assert after.clean
        client = fs.client(0)
        md = client.stat("/gkfs/f")
        assert md.size == 500
        fd = client.open("/gkfs/f")
        assert client.read(fd, 500) == b"d" * 500
        client.close(fd)

    def test_repair_accepts_precomputed_report(self, fs):
        self._lose_size_update(fs)
        findings = check(fs)
        after = repair(fs, findings)
        assert after.clean


class TestOverSockets:
    """fsck needs nothing but RPCs: the same checks and fixes on a
    deployment whose daemons sit behind real sockets."""

    def test_orphan_dropped_and_understated_size_raised(self):
        with LocalSocketCluster(3, config=FSConfig(chunk_size=128)) as fs:
            client = fs.client(0)
            client.write_bytes("/gkfs/f", b"d" * 500)
            call = fs.network.call
            owner = fs.distributor.locate_metadata("/f")
            call(owner, "gkfs_truncate_metadata", "/f", 100)
            call(1, "gkfs_write_chunks", "/never_created", pack_spans([(0, 0, 10, 0)]), b"lost write")
            report = check(fs)
            assert report.orphaned_chunks == [("/never_created", 1, 0)]
            assert report.size_overruns == [("/f", 100, 500)]
            after = repair(fs)
            assert after.clean and after.chunks_checked == 4
            held = read_chunks(functools.partial(call, 1, "gkfs_inventory"))
            assert all(entry[0] != "/never_created" for entry in held)
            assert client.stat("/gkfs/f").size == 500
            assert client.read_bytes("/gkfs/f") == b"d" * 500
