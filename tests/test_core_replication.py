"""Optional replication: surviving crash-stop daemon loss (extension).

The paper's design has no fault tolerance (§I); ``replication=R`` is the
prototype of the group's follow-on reliability work — R copies of every
metadata record and chunk on successor daemons, consensus-free.
"""

import os

import pytest

from repro.core import FSConfig, GekkoFSCluster


def replicated_cluster(nodes=4, replication=2, chunk_size=256):
    return GekkoFSCluster(
        num_nodes=nodes,
        config=FSConfig(chunk_size=chunk_size, replication=replication),
        instrument=True,
    )


def kill(fs, address):
    """Crash-stop one daemon: unreachable from now on."""
    fs.network.remove_engine(address)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            FSConfig(replication=0)

    def test_replication_one_is_paper_default(self):
        assert FSConfig().replication == 1


class TestReplicaPlacement:
    def test_targets_are_distinct_successors(self):
        with replicated_cluster(nodes=5, replication=3) as fs:
            client = fs.client(0)
            targets = client.meta._targets("/some/file")
            assert len(set(targets)) == 3
            assert targets[1] == (targets[0] + 1) % 5
            chunk_targets = client.data._targets("/some/file", 7)
            assert len(set(chunk_targets)) == 3

    def test_replication_capped_at_deployment_size(self):
        with replicated_cluster(nodes=2, replication=5) as fs:
            client = fs.client(0)
            assert len(client.meta._targets("/f")) == 2

    def test_records_and_chunks_are_duplicated(self):
        with replicated_cluster() as fs:
            client = fs.client(0)
            client.write_bytes("/gkfs/r.dat", b"r" * 1000)  # 4 chunks
            holders = sum(
                1 for d in fs.daemons if b"/r.dat" in [k for k, _ in d.kv.range_iter()]
            )
            assert holders == 2
            assert fs.used_bytes() == 2000  # every chunk twice


class TestDegradedOperation:
    def test_reads_survive_one_daemon_loss(self):
        with replicated_cluster() as fs:
            client = fs.client(0)
            payloads = {}
            for i in range(12):
                path = f"/gkfs/f{i:02d}"
                payloads[path] = bytes([i]) * 700
                client.write_bytes(path, payloads[path])
            kill(fs, 2)
            fresh = fs.client(1)
            for path, payload in payloads.items():
                assert fresh.stat(path).size == len(payload)
                assert fresh.read_bytes(path) == payload

    def test_listings_survive(self):
        with replicated_cluster() as fs:
            client = fs.client(0)
            client.mkdir("/gkfs/d")
            for i in range(10):
                client.close(client.creat(f"/gkfs/d/e{i}"))
            before = client.listdir("/gkfs/d")
            kill(fs, 1)
            assert client.listdir("/gkfs/d") == before

    def test_writes_survive_and_remain_readable(self):
        with replicated_cluster() as fs:
            client = fs.client(0)
            kill(fs, 3)
            client.write_bytes("/gkfs/after_loss", b"written degraded" * 50)
            assert client.read_bytes("/gkfs/after_loss") == b"written degraded" * 50

    def test_unlink_survives(self):
        with replicated_cluster() as fs:
            client = fs.client(0)
            client.write_bytes("/gkfs/doomed", b"x" * 600)
            kill(fs, 0)
            client.unlink("/gkfs/doomed")
            assert not client.exists("/gkfs/doomed")

    def test_two_losses_with_r2_break_loudly(self):
        """R-1 losses are the budget: losing two daemons of an R=2
        four-node deployment makes some path pair unreachable."""
        with replicated_cluster() as fs:
            client = fs.client(0)
            for i in range(20):
                client.close(client.creat(f"/gkfs/g{i:02d}"))
            kill(fs, 0)
            kill(fs, 1)
            with pytest.raises((LookupError,)):
                for i in range(20):
                    client.stat(f"/gkfs/g{i:02d}")


class TestNoDuplicateListings:
    def test_listdir_deduplicates_replicated_records(self):
        with replicated_cluster() as fs:
            client = fs.client(0)
            client.mkdir("/gkfs/d")
            client.close(client.creat("/gkfs/d/once"))
            assert client.listdir("/gkfs/d") == [("once", False)]
            assert [n for n, _ in client.listdir_plus("/gkfs/d")] == ["once"]

    def test_statfs_counts_raw_records(self):
        with replicated_cluster(nodes=3, replication=2) as fs:
            client = fs.client(0)
            client.close(client.creat("/gkfs/one"))
            # root + file, each twice: raw capacity accounting.
            assert client.statfs()["metadata_records"] == 4


class TestUnsupportedCombinations:
    def test_stress_oracle_under_replication(self):
        """The full churn mix must stay byte-exact with R=2."""
        from repro.workloads.stress import StressSpec, run_stress

        with replicated_cluster(nodes=4, replication=2, chunk_size=128) as fs:
            run_stress(fs, StressSpec(operations=250, seed=42))


class TestUnreplicatedStaysFatal:
    def test_replication_one_raises_on_loss(self, cluster):
        client = cluster.client(0)
        for i in range(8):
            client.close(client.creat(f"/gkfs/h{i}"))
        cluster.network.remove_engine(1)
        with pytest.raises(LookupError):
            for i in range(8):
                client.stat(f"/gkfs/h{i}")
