"""Daemon crash-stop, restart, WAL replay, anti-entropy, and fsck repair."""

import os

import pytest

from repro.common.errors import NotFoundError
from repro.core.cluster import GekkoFSCluster
from repro.core.config import FSConfig
from repro.core import fsck
from repro.faults import ChaosController

WRITE = os.O_CREAT | os.O_WRONLY
READ = os.O_RDONLY


class TestCrashStop:
    def test_crash_removes_daemon_from_address_book(self):
        with GekkoFSCluster(4) as cluster:
            cluster.crash_daemon(2)
            assert not cluster.daemon_alive(2)
            assert cluster.crashed_daemons == {2}
            assert [d.address for d in cluster.live_daemons()] == [0, 1, 3]
            with pytest.raises(LookupError):
                cluster.network.call(2, "gkfs_stat", "/")

    def test_crash_loses_volatile_state(self):
        with GekkoFSCluster(2) as cluster:
            client = cluster.client()
            for i in range(8):
                fd = client.open(f"/gkfs/f{i}", WRITE)
                client.pwrite(fd, b"x" * 64, 0)
                client.close(fd)
            before = cluster.metadata_records()
            cluster.crash_daemon(1)
            assert cluster.metadata_records() < before  # in-memory shard gone

    def test_crash_twice_is_an_error(self):
        with GekkoFSCluster(2) as cluster:
            cluster.crash_daemon(0)
            with pytest.raises(RuntimeError):
                cluster.crash_daemon(0)

    def test_restart_of_live_daemon_is_an_error(self):
        with GekkoFSCluster(2) as cluster:
            with pytest.raises(RuntimeError):
                cluster.restart_daemon(0)

    def test_crash_address_out_of_range(self):
        with GekkoFSCluster(2) as cluster:
            with pytest.raises(ValueError):
                cluster.crash_daemon(5)

    def test_introspection_skips_crashed_daemons(self):
        with GekkoFSCluster(3) as cluster:
            client = cluster.client()
            fd = client.open("/gkfs/a", WRITE)
            client.pwrite(fd, b"z" * 4096, 0)
            cluster.crash_daemon(1)
            assert cluster.used_bytes() >= 0  # must not touch closed stores
            assert cluster.metadata_records() >= 0
            assert 1 not in cluster.daemon_load()

    def test_resize_refused_while_crashed(self):
        with GekkoFSCluster(3) as cluster:
            cluster.crash_daemon(0)
            with pytest.raises(RuntimeError):
                cluster.resize_live(4)

    def test_shutdown_tolerates_crashed_daemons(self):
        cluster = GekkoFSCluster(3)
        cluster.crash_daemon(1)
        cluster.shutdown()
        assert not cluster.running


class TestWalReplayRestart:
    def _disk_config(self, tmp_path, **kwargs):
        return FSConfig(
            kv_dir=str(tmp_path / "kv"), data_dir=str(tmp_path / "data"), **kwargs
        )

    def test_disk_backed_daemon_recovers_from_wal(self, tmp_path):
        with GekkoFSCluster(4, self._disk_config(tmp_path)) as cluster:
            client = cluster.client()
            payload = bytes(range(256)) * 64
            for i in range(12):
                fd = client.open(f"/gkfs/file{i}", WRITE)
                client.pwrite(fd, payload, 0)
                client.close(fd)
            records_before = cluster.metadata_records()

            cluster.crash_daemon(1)
            report = cluster.restart_daemon(1)

            # The WAL was never truncated, so the crash lost nothing.
            assert cluster.metadata_records() == records_before
            assert report.fsck.clean
            for i in range(12):
                fd = client.open(f"/gkfs/file{i}", READ)
                assert client.pread(fd, len(payload), 0) == payload

    def test_unreplicated_memory_daemon_loses_its_shard(self):
        """In-memory + replication=1: the crash is genuinely lossy, and
        recovery's fsck removes the now-unaddressable orphan chunks."""
        with GekkoFSCluster(4) as cluster:
            client = cluster.client()
            for i in range(16):
                fd = client.open(f"/gkfs/doc{i}", WRITE)
                client.pwrite(fd, b"d" * 512, 0)
                client.close(fd)
            records_before = cluster.metadata_records()
            cluster.crash_daemon(2)
            report = cluster.restart_daemon(2)
            assert cluster.metadata_records() < records_before
            assert report.records_recovered == 0
            assert report.fsck.clean  # orphans were dropped, not left behind

    def test_root_record_recreated_on_recovery(self):
        with GekkoFSCluster(4) as cluster:
            owner = cluster.distributor.locate_metadata("/")
            cluster.crash_daemon(owner)
            report = cluster.restart_daemon(owner)
            assert report.root_recreated
            client = cluster.client()
            assert client.stat("/gkfs").is_dir  # namespace stays mountable


class TestReplicaResync:
    def test_restarted_daemon_refilled_from_replicas(self):
        with GekkoFSCluster(4, FSConfig(replication=2)) as cluster:
            client = cluster.client()
            payload = b"r" * 2048
            for i in range(10):
                fd = client.open(f"/gkfs/rep{i}", WRITE)
                client.pwrite(fd, payload, 0)
                client.close(fd)
            cluster.crash_daemon(1)
            report = cluster.restart_daemon(1)
            assert report.records_resynced > 0
            assert report.chunks_resynced > 0
            assert report.fsck.clean
            # Every record the restarted daemon should replicate is back.
            for i in range(10):
                fd = client.open(f"/gkfs/rep{i}", READ)
                assert client.pread(fd, len(payload), 0) == payload

    def test_resync_preserves_newer_local_state(self, tmp_path):
        """Disk-backed restart + replication: anti-entropy must not
        clobber WAL-replayed records with stale replica versions."""
        config = FSConfig(
            replication=2,
            kv_dir=str(tmp_path / "kv"),
            data_dir=str(tmp_path / "data"),
        )
        with GekkoFSCluster(4, config) as cluster:
            client = cluster.client()
            fd = client.open("/gkfs/grow", WRITE)
            client.pwrite(fd, b"a" * 4096, 0)
            cluster.crash_daemon(3)
            cluster.restart_daemon(3)
            fd = client.open("/gkfs/grow", READ)
            assert client.pread(fd, 4096, 0) == b"a" * 4096

    def test_breaker_state_reset_on_restart(self):
        config = FSConfig(
            replication=2, breaker_enabled=True, breaker_failure_threshold=2
        )
        with GekkoFSCluster(4, config) as cluster:
            client = cluster.client()
            fd = client.open("/gkfs/hot", WRITE)
            client.pwrite(fd, b"h" * 128, 0)
            cluster.crash_daemon(1)
            for i in range(12):  # trip the breaker on daemon 1
                rfd = client.open("/gkfs/hot", READ)
                client.pread(rfd, 128, 0)
            cluster.restart_daemon(1)
            assert cluster.health.state(1) == "closed"
            rfd = client.open("/gkfs/hot", READ)
            assert client.pread(rfd, 128, 0) == b"h" * 128


    @pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 4 (versions on records): an unlink acked "
        "while a replica is down comes back from that replica's WAL",
    )
    def test_unlink_acked_with_replica_down_stays_unlinked(self, tmp_path):
        """Why a first owner's ENOENT is final (docs/semantics.md, "read
        rule under replication"): the replica that missed the unlink
        replays its record on restart, and nothing orders that copy
        below the acknowledged removal."""
        config = FSConfig(
            replication=2,
            kv_dir=str(tmp_path / "kv"),
            data_dir=str(tmp_path / "data"),
        )
        with GekkoFSCluster(4, config) as cluster:
            rel = next(
                f"/f{i}" for i in range(100)
                if cluster.distributor.locate_metadata(f"/f{i}") == 3
            )  # owners [3, 0]: daemon 0 is the replica
            client = cluster.client()
            client.write_bytes("/gkfs" + rel, b"v" * 100)
            cluster.crash_daemon(0)
            client.unlink("/gkfs" + rel)  # acked by the primary alone
            cluster.restart_daemon(0)
            held = [d.address for d in cluster.daemons if d.kv.get(rel.encode())]
            assert held == [] and not client.exists("/gkfs" + rel)


class TestCrashConsistencyFsck:
    """Satellite: kill a daemon mid-``pwrite`` fan-out, then let fsck
    classify and repair what the interrupted operation left behind."""

    def test_lost_size_update_is_a_size_overrun(self, tmp_path):
        config = FSConfig(
            kv_dir=str(tmp_path / "kv"), data_dir=str(tmp_path / "data")
        )
        with GekkoFSCluster(4, config) as cluster:
            client = cluster.client()
            chaos = ChaosController(cluster, seed=1)
            path = "/gkfs/interrupted"
            fd = client.open(path, WRITE)
            owner = cluster.distributor.locate_metadata("/interrupted")

            # Kill the metadata owner the moment the size update arrives:
            # the chunk fan-out has landed, the size publish has not.
            chaos.crash_on("gkfs_update_size", owner)
            payload = b"c" * (cluster.config.chunk_size * 2)
            # A group off the owner keeps the size update a separate RPC
            # (a write the owner stores alone carries its size with it).
            assert any(cluster.distributor.locate_chunk("/interrupted", cid) != owner
                       for cid in range(2))
            with pytest.raises((ConnectionError, OSError)):
                client.pwrite(fd, payload, 0)
            assert owner in cluster.crashed_daemons

            cluster.restart_daemon(owner, recover=False)
            report = fsck.check(cluster)
            assert [(p, rec) for p, rec, _obs in report.size_overruns] == [
                ("/interrupted", 0)
            ]

            repaired = fsck.repair(cluster, report)
            assert repaired.clean
            assert client.stat(path).size == len(payload)
            rfd = client.open(path, READ)
            assert client.pread(rfd, len(payload), 0) == payload

    def test_orphaned_chunks_classified_and_dropped(self, tmp_path):
        config = FSConfig(
            kv_dir=str(tmp_path / "kv"),
            data_dir=str(tmp_path / "data"),
            degraded_mode=True,
        )
        with GekkoFSCluster(4, config) as cluster:
            client = cluster.client()
            path = "/gkfs/orphaned"
            payload = b"o" * (cluster.config.chunk_size * 4)
            fd = client.open(path, WRITE)
            client.pwrite(fd, payload, 0)
            client.close(fd)

            # Crash one chunk holder, then unlink: metadata goes, but the
            # removal broadcast cannot reach the dead daemon's chunks.
            rel = "/orphaned"
            holders = {
                cluster.distributor.locate_chunk(rel, c)
                for c in range(4)
            }
            victim = next(
                a for a in sorted(holders)
                if a != cluster.distributor.locate_metadata(rel)
            )
            cluster.crash_daemon(victim)
            client.unlink(path)
            assert client.stats.degraded_ops >= 1

            cluster.restart_daemon(victim, recover=False)
            report = fsck.check(cluster)
            assert any(p == rel for p, _d, _c in report.orphaned_chunks)
            repaired = fsck.repair(cluster, report)
            assert repaired.clean
            with pytest.raises(NotFoundError):
                client.stat(path)
