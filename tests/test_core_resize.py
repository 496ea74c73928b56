"""Deployment resize: migration correctness and movement volume."""

import os

import pytest

from repro.core import (
    FSConfig,
    GekkoFSCluster,
    RendezvousDistributor,
    SimpleHashDistributor,
)


def populate(fs, files=30, file_bytes=600):
    client = fs.client(0)
    client.mkdir("/gkfs/data")
    contents = {}
    for i in range(files):
        path = f"/gkfs/data/f{i:03d}"
        payload = bytes([i & 0xFF]) * file_bytes
        fd = client.open(path, os.O_CREAT | os.O_WRONLY)
        client.write(fd, payload)
        client.close(fd)
        contents[path] = payload
    return contents


def verify(fs, contents):
    client = fs.client(0)
    assert len(client.listdir("/gkfs/data")) == len(contents)
    for path, payload in contents.items():
        fd = client.open(path)
        assert client.read(fd, len(payload) + 1) == payload
        client.close(fd)


class TestGrow:
    def test_grow_preserves_everything(self):
        with GekkoFSCluster(num_nodes=2, config=FSConfig(chunk_size=128)) as fs:
            contents = populate(fs)
            report = fs.resize_live(6)
            assert fs.num_nodes == 6
            assert len(fs.daemons) == 6
            assert report.new_nodes == 6
            verify(fs, contents)

    def test_grow_spreads_data_onto_new_daemons(self):
        with GekkoFSCluster(num_nodes=2, config=FSConfig(chunk_size=64)) as fs:
            populate(fs, files=40)
            fs.resize_live(8)
            loaded = [d.address for d in fs.daemons if d.storage.used_bytes() > 0]
            assert len(loaded) == 8  # wide-striping now spans all 8

    def test_new_clients_resolve_new_placement(self):
        with GekkoFSCluster(num_nodes=2) as fs:
            contents = populate(fs, files=10)
            fs.resize_live(4)
            fresh = fs.client(3)  # a node that did not exist before
            assert fresh.stat("/gkfs/data/f000").size == 600


class TestShrink:
    def test_shrink_preserves_everything(self):
        with GekkoFSCluster(num_nodes=6, config=FSConfig(chunk_size=128)) as fs:
            contents = populate(fs)
            report = fs.resize_live(2)
            assert fs.num_nodes == 2
            assert len(fs.daemons) == 2
            verify(fs, contents)

    def test_removed_daemons_unreachable(self):
        with GekkoFSCluster(num_nodes=4) as fs:
            populate(fs, files=5)
            fs.resize_live(2)
            assert fs.network.addresses == [0, 1]

    def test_shrink_to_one(self):
        with GekkoFSCluster(num_nodes=5, config=FSConfig(chunk_size=64)) as fs:
            contents = populate(fs, files=12, file_bytes=200)
            fs.resize_live(1)
            verify(fs, contents)
            assert fs.daemons[0].storage.used_bytes() == 12 * 200


class TestMovementVolume:
    def _report(self, distributor_cls, old, new):
        with GekkoFSCluster(
            num_nodes=old,
            config=FSConfig(chunk_size=64),
            distributor=distributor_cls(old),
        ) as fs:
            populate(fs, files=60, file_bytes=640)  # 600 chunks
            return fs.resize_live(new, distributor_factory=distributor_cls)

    def test_rendezvous_moves_about_one_nth(self):
        report = self._report(RendezvousDistributor, 8, 9)
        # Ideal: 1/9 of chunks move to the new daemon.  Allow slack for
        # hash variance at this sample size.
        assert report.chunks_moved_fraction < 0.25
        assert report.metadata_moved_fraction < 0.25
        assert report.chunks_moved > 0

    def test_modulo_moves_most(self):
        report = self._report(SimpleHashDistributor, 8, 9)
        assert report.chunks_moved_fraction > 0.5

    def test_report_str(self):
        report = self._report(RendezvousDistributor, 2, 3)
        text = str(report)
        assert "resize 2->3 nodes" in text
        assert "records" in text


class TestValidation:
    def test_resize_stopped_cluster_rejected(self):
        fs = GekkoFSCluster(2)
        fs.shutdown()
        with pytest.raises(RuntimeError):
            fs.resize_live(4)

    def test_invalid_target_rejected(self, cluster):
        with pytest.raises(ValueError):
            cluster.resize_live(0)

    def test_mismatched_factory_rejected(self, cluster):
        with pytest.raises(ValueError):
            cluster.resize_live(8, distributor_factory=lambda n: SimpleHashDistributor(n + 1))

    def test_noop_resize(self, cluster):
        client = cluster.client(0)
        client.close(client.creat("/gkfs/f"))
        report = cluster.resize_live(4)
        assert report.metadata_moved == 0
        assert report.chunks_moved == 0
        # The pre-resize client follows the view, as a fresh one does.
        assert client.exists("/gkfs/f")
        assert cluster.client(0).exists("/gkfs/f")
