"""Pipelined client fan-out: coalescing, equivalence, fail-over, telemetry."""

import os
import threading

import pytest

from repro.core import FSConfig, GekkoFSCluster


def run_threads(workers):
    threads = [threading.Thread(target=w) for w in workers]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


class TestCoalescedWrites:
    def test_multi_chunk_write_coalesces_per_daemon(self):
        """A 16-chunk write over 4 daemons is <= 4 write RPCs, vectored."""
        config = FSConfig(chunk_size=1024)
        with GekkoFSCluster(num_nodes=4, config=config, instrument=True) as fs:
            client = fs.client(0)
            data = bytes(range(256)) * 64  # 16 KiB = 16 chunks
            client.write_bytes("/gkfs/wide", data)
            by_handler = fs.transport.rpcs_by_handler
            # one per involved daemon, not per chunk
            assert 1 <= by_handler["gkfs_write_chunks"] <= 4
            assert client.read_bytes("/gkfs/wide") == data

    def test_single_span_write_is_a_list_of_one(self):
        config = FSConfig(chunk_size=1024)
        with GekkoFSCluster(num_nodes=4, config=config, instrument=True) as fs:
            client = fs.client(0)
            client.write_bytes("/gkfs/small", b"z" * 100)
            assert fs.transport.rpcs_by_handler["gkfs_write_chunks"] == 1

    def test_multi_chunk_read_coalesces_per_daemon(self):
        config = FSConfig(chunk_size=1024)
        with GekkoFSCluster(num_nodes=4, config=config, instrument=True) as fs:
            client = fs.client(0)
            data = b"r" * (8 * 1024)
            client.write_bytes("/gkfs/rd", data)
            fs.transport.reset()
            assert client.read_bytes("/gkfs/rd") == data
            by_handler = fs.transport.rpcs_by_handler
            assert 1 <= by_handler["gkfs_read_chunks"] <= 4

    @pytest.mark.parametrize(
        "replication,data_cache", [(1, False), (1, True), (2, False), (2, True)]
    )
    def test_overlapping_writes_match_byte_model(self, replication, data_cache):
        """Overlapping multi-chunk writes end in the contents a plain
        ``bytearray`` predicts — coalescing, replication and the chunk
        cache are transport optimisations only."""
        writes = [
            (b"A" * 5000, 0),
            (b"B" * 3000, 2500),
            (b"C" * 128, 9000),
            (b"D" * 4096, 700),
        ]
        model = bytearray()
        config = FSConfig(
            chunk_size=1024, replication=replication, data_cache_enabled=data_cache
        )
        with GekkoFSCluster(num_nodes=3, config=config) as fs:
            client = fs.client(0)
            fd = client.open("/gkfs/f", os.O_CREAT | os.O_RDWR)
            for data, offset in writes:
                client.pwrite(fd, data, offset)
                end = offset + len(data)
                model.extend(bytes(max(0, end - len(model))))
                model[offset:end] = data
                # With the cache on, the next write patches chunks this
                # read cached (read-your-writes) and extends short ones.
                assert client.pread(fd, len(model), 0) == bytes(model)
            assert client.fstat(fd).size == len(model) == 9128
            # Unaligned, across chunk boundaries and the hole at 5500..9000.
            assert client.pread(fd, 5000, 3000) == bytes(model[3000:8000])
            client.close(fd)

    def test_sparse_read_zero_fills_between_spans(self):
        config = FSConfig(chunk_size=1024)
        with GekkoFSCluster(num_nodes=4, config=config) as fs:
            client = fs.client(0)
            fd = client.open("/gkfs/sparse", os.O_CREAT | os.O_RDWR)
            client.pwrite(fd, b"end", 5000)  # chunks 0..3 are holes
            blob = client.pread(fd, 5003, 0)
            client.close(fd)
            assert blob == b"\0" * 5000 + b"end"


class TestInternalStatAccounting:
    def test_pread_size_probe_is_not_an_application_stat(self, cluster):
        client = cluster.client(0)
        fd = client.open("/gkfs/x", os.O_CREAT | os.O_RDWR)
        client.pwrite(fd, b"data", 0)
        before = client.stats.stats_
        client.pread(fd, 4, 0)
        client.close(fd)
        assert client.stats.stats_ == before  # no count, no decrement hack
        assert client.stats.stats_ >= 0

    def test_read_bytes_pays_one_stat_before_data(self):
        config = FSConfig(chunk_size=1024)
        with GekkoFSCluster(num_nodes=4, config=config, instrument=True) as fs:
            client = fs.client(0)
            client.write_bytes("/gkfs/one", b"q" * 4096)
            fs.transport.reset()
            assert client.read_bytes("/gkfs/one") == b"q" * 4096
            assert fs.transport.rpcs_by_handler["gkfs_stat"] == 1


class TestPipelinedFanoutThreaded:
    @pytest.fixture
    def threaded_cluster(self):
        config = FSConfig(chunk_size=1024)
        with GekkoFSCluster(
            num_nodes=4, config=config, threaded=True, handlers_per_daemon=4
        ) as fs:
            yield fs

    def test_racing_appenders_with_parallel_fanout(self, threaded_cluster):
        """Atomic append reservation must hold when each append's chunk
        fan-out is issued concurrently across daemon pools."""
        writers, per_writer, record = 4, 12, 2048  # 2 chunks per record
        path = "/gkfs/alog"
        setup = threaded_cluster.client(0)
        setup.close(setup.creat(path))

        def appender(rank):
            client = threaded_cluster.client(rank)
            fd = client.open(path, os.O_WRONLY | os.O_APPEND)
            for _ in range(per_writer):
                client.write(fd, bytes([ord("a") + rank]) * record)
            client.close(fd)

        run_threads([lambda r=r: appender(r) for r in range(writers)])
        reader = threaded_cluster.client(0)
        blob = reader.read_bytes(path)
        assert len(blob) == writers * per_writer * record
        counts = {bytes([ord("a") + r]): 0 for r in range(writers)}
        for start in range(0, len(blob), record):
            segment = blob[start : start + record]
            assert len(set(segment)) == 1, f"torn record at offset {start}"
            counts[segment[:1]] += 1
        assert all(c == per_writer for c in counts.values())

    def test_concurrent_multi_chunk_writers_disjoint_regions(self, threaded_cluster):
        path = "/gkfs/regions"
        setup = threaded_cluster.client(0)
        setup.close(setup.creat(path))
        region = 8 * 1024  # 8 chunks each

        def writer(rank):
            client = threaded_cluster.client(rank)
            fd = client.open(path, os.O_WRONLY)
            client.pwrite(fd, bytes([ord("A") + rank]) * region, rank * region)
            client.close(fd)

        run_threads([lambda r=r: writer(r) for r in range(4)])
        blob = threaded_cluster.client(0).read_bytes(path)
        assert blob == b"".join(bytes([ord("A") + r]) * region for r in range(4))


class TestReplicaFailover:
    def test_reads_fail_over_after_daemon_loss(self):
        config = FSConfig(chunk_size=1024, replication=2)
        with GekkoFSCluster(
            num_nodes=4, config=config, threaded=True, handlers_per_daemon=4
        ) as fs:
            client = fs.client(0)
            payloads = {
                f"/gkfs/r{i}": bytes([i]) * (4 * 1024 + i) for i in range(6)
            }
            for path, data in payloads.items():
                client.write_bytes(path, data)
            fs.network.remove_engine(0)  # crash-stop one daemon
            for path, data in payloads.items():
                assert client.read_bytes(path) == data

    def test_writes_tolerate_one_lost_replica(self):
        config = FSConfig(chunk_size=1024, replication=2)
        with GekkoFSCluster(num_nodes=4, config=config, threaded=True) as fs:
            client = fs.client(0)
            fs.network.remove_engine(1)
            data = b"survivor" * 1024  # multi-chunk
            client.write_bytes("/gkfs/tolerant", data)
            assert client.read_bytes("/gkfs/tolerant") == data

    def test_unreplicated_loss_is_fatal_for_pipelined_writes(self):
        config = FSConfig(chunk_size=1024, replication=1)
        with GekkoFSCluster(num_nodes=4, config=config) as fs:
            client = fs.client(0)
            fd = client.open("/gkfs/frail", os.O_CREAT | os.O_WRONLY)
            fs.network.remove_engine(2)
            with pytest.raises(LookupError):
                client.pwrite(fd, b"x" * (16 * 1024), 0)  # touches daemon 2


class TestFanoutTelemetry:
    def test_max_fanout_and_inflight_accounting(self):
        config = FSConfig(chunk_size=1024)
        with GekkoFSCluster(num_nodes=4, config=config) as fs:
            client = fs.client(0)
            client.write_bytes("/gkfs/t", b"t" * (16 * 1024))
            assert client.stats.max_fanout >= 2  # spans spread over daemons
            snap = fs.network.inflight.as_dict()
            assert snap["launched"] == snap["landed"]
            assert snap["current"] == 0

    def test_broadcasts_fan_out(self):
        config = FSConfig(chunk_size=1024)
        with GekkoFSCluster(num_nodes=4, config=config) as fs:
            client = fs.client(0)
            client.mkdir("/gkfs/d")
            client.write_bytes("/gkfs/d/f", b"x")
            client.listdir("/gkfs/d")
            assert client.stats.max_fanout == 4  # one readdir leg per daemon
            client.statfs()
            assert client.stats.max_fanout == 4
