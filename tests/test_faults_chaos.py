"""Chaos harness acceptance: seeded fault plans against live clusters.

The seed comes from ``CHAOS_SEED`` (CI runs a small matrix of fixed
seeds), so every run of this file is one deterministic, replayable fault
schedule — a failure reproduces with ``CHAOS_SEED=<seed> pytest
tests/test_faults_chaos.py``.
"""

import errno
import os
import time

import pytest

from repro.common.errors import DaemonUnavailableError
from repro.core.cluster import GekkoFSCluster
from repro.core.config import FSConfig
from repro.faults import ChaosController, FaultEvent
from repro.net import ProcessCluster

CHAOS_SEED = int(os.environ.get("CHAOS_SEED", "101"))

WRITE = os.O_CREAT | os.O_WRONLY
READ = os.O_RDONLY


def ior_write(client, tag, files, block, blocks_per_file):
    payload = bytes(range(256)) * (block // 256)
    for f in range(files):
        fd = client.open(f"/gkfs/{tag}{f}", WRITE)
        for b in range(blocks_per_file):
            client.pwrite(fd, payload, b * block)
        client.close(fd)
    return payload


def ior_verify(client, tag, files, block, blocks_per_file, payload):
    for f in range(files):
        fd = client.open(f"/gkfs/{tag}{f}", READ)
        for b in range(blocks_per_file):
            assert client.pread(fd, block, b * block) == payload, (
                f"corrupt read: {tag}{f} block {b} (seed {CHAOS_SEED})"
            )
        client.close(fd)


class TestReplicatedSurvivesCrash:
    """Acceptance: with replication 2, an IOR-style workload completes
    correctly while 1 of 4 daemons is crashed and later restarted."""

    def test_workload_spans_crash_and_recovery(self):
        config = FSConfig(replication=2, degraded_mode=True)
        with GekkoFSCluster(4, config) as cluster:
            client = cluster.client()
            chaos = ChaosController(cluster, seed=CHAOS_SEED)
            block, per_file = 8192, 4

            before = ior_write(client, "pre", 4, block, per_file)
            victim = chaos.rng.randrange(4)
            chaos.crash(victim)

            # During the outage: old data stays readable, new data lands.
            ior_verify(client, "pre", 4, block, per_file, before)
            during = ior_write(client, "mid", 4, block, per_file)
            ior_verify(client, "mid", 4, block, per_file, during)

            report = chaos.restart(victim)
            assert report.fsck.clean

            after = ior_write(client, "post", 4, block, per_file)
            for tag, payload in (("pre", before), ("mid", during), ("post", after)):
                ior_verify(client, tag, 4, block, per_file, payload)
            assert chaos.log[0] == FaultEvent("crash", victim)

    def test_scripted_plan_with_latency_and_drops(self):
        config = FSConfig(replication=2, rpc_retries=3, degraded_mode=True)
        with GekkoFSCluster(4, config) as cluster:
            client = cluster.client()
            chaos = ChaosController(cluster, seed=CHAOS_SEED)
            chaos.run_scripted(
                [
                    FaultEvent("slow", 0, 0.0002),
                    FaultEvent("drop", 2, 0.3),
                ]
            )
            payload = ior_write(client, "noisy", 6, 4096, 3)
            ior_verify(client, "noisy", 6, 4096, 3, payload)
            chaos.run_scripted(
                [FaultEvent("clear_slow", 0), FaultEvent("clear_drop", 2)]
            )
            assert cluster.retrying.retries > 0  # drops were actually retried

    def test_partition_heals_without_recovery(self):
        config = FSConfig(replication=2, degraded_mode=True)
        with GekkoFSCluster(4, config) as cluster:
            client = cluster.client()
            chaos = ChaosController(cluster, seed=CHAOS_SEED)
            payload = ior_write(client, "part", 4, 4096, 2)
            chaos.partition([3])
            ior_verify(client, "part", 4, 4096, 2, payload)  # replicas answer
            chaos.heal()
            ior_verify(client, "part", 4, 4096, 2, payload)
            assert cluster.crashed_daemons == set()  # nothing ever died


class TestSeededRandomChaos:
    def test_random_plan_preserves_data(self):
        config = FSConfig(replication=2, rpc_retries=2, degraded_mode=True)
        with GekkoFSCluster(4, config) as cluster:
            client = cluster.client()
            chaos = ChaosController(
                cluster, seed=CHAOS_SEED, crash_prob=0.15, restart_prob=0.3
            )
            payload = bytes(range(256)) * 16
            written = []
            for i in range(40):
                chaos.step()
                fd = client.open(f"/gkfs/c{i}", WRITE)
                client.pwrite(fd, payload, 0)
                client.close(fd)
                written.append(f"/gkfs/c{i}")
            for address in sorted(chaos.crashed()):
                chaos.restart(address)
            for path in written:
                fd = client.open(path, READ)
                assert client.pread(fd, len(payload), 0) == payload, (
                    f"lost {path} under seed {CHAOS_SEED}: {chaos.log}"
                )
            assert chaos.log  # the plan actually did something

    def test_same_seed_same_fault_schedule(self):
        def run(seed):
            config = FSConfig(replication=2, degraded_mode=True)
            with GekkoFSCluster(4, config) as cluster:
                client = cluster.client()
                chaos = ChaosController(
                    cluster, seed=seed, crash_prob=0.2, restart_prob=0.3
                )
                for i in range(30):
                    chaos.step()
                    fd = client.open(f"/gkfs/d{i}", WRITE)
                    client.pwrite(fd, b"s" * 256, 0)
                return list(chaos.log)

        first = run(CHAOS_SEED)
        assert run(CHAOS_SEED) == first
        assert run(CHAOS_SEED + 1) != first

    def test_max_down_bounds_simultaneous_crashes(self):
        config = FSConfig(replication=2, degraded_mode=True)
        with GekkoFSCluster(4, config) as cluster:
            chaos = ChaosController(
                cluster, seed=CHAOS_SEED, crash_prob=0.9, restart_prob=0.05,
                max_down=1,
            )
            for _ in range(60):
                chaos.step()
                assert len(cluster.crashed_daemons) <= 1


class TestUnreplicatedFailsFast:
    """Acceptance: without replication, operations against dead shards
    fail fast with EIO, bounded by the configured deadline."""

    def _dead_shard_path(self, cluster, victim):
        for i in range(1000):
            rel = f"/solo{i}"
            if cluster.distributor.locate_metadata(rel) == victim:
                return f"/gkfs{rel}"
        raise AssertionError("no path hashed to the victim daemon")

    def test_eio_with_bounded_latency(self):
        config = FSConfig(
            replication=1,
            rpc_retries=2,
            rpc_deadline=0.05,
            breaker_enabled=True,
            breaker_failure_threshold=2,
            degraded_mode=True,
        )
        with GekkoFSCluster(4, config) as cluster:
            client = cluster.client()
            chaos = ChaosController(cluster, seed=CHAOS_SEED)
            victim = 2
            path = self._dead_shard_path(cluster, victim)
            chaos.crash(victim)

            for _ in range(3):  # trip the breaker
                with pytest.raises(DaemonUnavailableError) as excinfo:
                    client.stat(path)
                assert excinfo.value.errno == errno.EIO

            started = time.monotonic()
            with pytest.raises(DaemonUnavailableError):
                client.stat(path)
            assert time.monotonic() - started < 0.05  # breaker: no wire, no wait
            assert cluster.health.state(victim) == "open"
            assert cluster.health.fast_fails > 0

    def test_live_shards_unaffected(self):
        config = FSConfig(
            replication=1, breaker_enabled=True, degraded_mode=True
        )
        with GekkoFSCluster(4, config) as cluster:
            client = cluster.client()
            cluster.crash_daemon(1)
            survivors = 0
            for i in range(20):
                rel = f"/mix{i}"
                if cluster.distributor.locate_metadata(rel) == 1:
                    continue
                fd = client.open(f"/gkfs{rel}", WRITE)
                client.pwrite(fd, b"ok", 0)
                survivors += 1
            assert survivors > 0


class TestDegradedBroadcasts:
    def test_listdir_returns_partial_results(self):
        config = FSConfig(replication=1, degraded_mode=True)
        with GekkoFSCluster(4, config) as cluster:
            client = cluster.client()
            for i in range(20):
                client.open(f"/gkfs/e{i}", WRITE)
            full = {name for name, _ in client.listdir("/gkfs")}
            assert len(full) == 20
            cluster.crash_daemon(3)
            partial = {name for name, _ in client.listdir("/gkfs")}
            assert partial < full  # degraded, not empty and not failing
            assert client.stats.degraded_ops >= 1
            assert client.stats.leg_failures >= 1
            assert client.degraded_events[-1]["handler"] == "gkfs_readdir"
            assert 3 in {int(a) for a in client.degraded_events[-1]["failed"]}

    def test_statfs_reports_missing_daemons(self):
        config = FSConfig(replication=1, degraded_mode=True)
        with GekkoFSCluster(4, config) as cluster:
            client = cluster.client()
            assert client.statfs()["degraded"] is False
            cluster.crash_daemon(2)
            info = client.statfs()
            assert info["degraded"] is True
            assert info["missing_daemons"] == [2]
            assert info["daemons"] == 4

    def test_without_degraded_mode_broadcasts_stay_fatal(self):
        config = FSConfig(replication=1, degraded_mode=False)
        with GekkoFSCluster(4, config) as cluster:
            client = cluster.client()
            client.open("/gkfs/x", WRITE)
            cluster.crash_daemon(3)
            with pytest.raises(LookupError):
                client.listdir("/gkfs")


class TestHang:
    def test_a_probe_fails_while_hung_and_answers_after_resume(self):
        config = FSConfig(rpc_call_timeout=0.3)
        with ProcessCluster(2, config) as fs:
            chaos = ChaosController(fs)
            chaos.hang(1)
            assert not fs.probe(1, timeout=0.3)
            assert fs.daemon_alive(1)  # hung, not dead
            chaos.apply(FaultEvent("resume", 1))
            assert fs.probe(1, timeout=5.0)
            assert chaos.log == [FaultEvent("hang", 1), FaultEvent("resume", 1)]
