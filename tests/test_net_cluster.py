"""Process-per-daemon clusters: boot, I/O over the wire, signals, teardown."""

from __future__ import annotations

import os
import threading
import time

import pytest

from repro.common.errors import DaemonUnavailableError
from repro.core import chunking
from repro.core.config import FSConfig
from repro.net import LocalSocketCluster, ProcessCluster
from repro.net.serve import config_from_json, config_to_json
from repro.rpc.transport import DELIVERY_FAILURES


class TestConfigShipping:
    def test_round_trip_defaults(self):
        config = FSConfig()
        assert config_from_json(config_to_json(config)) == config

    def test_qos_client_maps_keep_int_keys(self):
        config = FSConfig(
            qos_enabled=True,
            qos_client_weights={0: 2.0, 7: 1.0},
            qos_rate_limits={3: 100.0},
        )
        restored = config_from_json(config_to_json(config))
        assert restored.qos_client_weights == {0: 2.0, 7: 1.0}
        assert restored.qos_rate_limits == {3: 100.0}

    def test_full_feature_config_survives(self):
        config = FSConfig(
            chunk_size=4096,
            integrity_enabled=True,
            telemetry_enabled=True,
            rpc_retries=2,
            breaker_enabled=True,
            degraded_mode=True,
        )
        assert config_from_json(config_to_json(config)) == config

    def test_retired_or_unknown_key_is_named(self):
        text = config_to_json(FSConfig())[:-1] + ', "maintain_blocks": true}'
        with pytest.raises(ValueError, match="maintain_blocks"):
            config_from_json(text)


@pytest.fixture(scope="module")
def process_cluster():
    """One 2-process cluster shared by the read-only tests below
    (forking a Python per daemon is the expensive part)."""
    with ProcessCluster(2, FSConfig(chunk_size=4096)) as cluster:
        yield cluster


class TestProcessCluster:
    def test_daemons_are_real_processes(self, process_cluster):
        pids = {process_cluster.daemon_pid(i) for i in range(2)}
        assert len(pids) == 2
        assert os.getpid() not in pids
        for pid in pids:
            os.kill(pid, 0)  # raises if the process is gone

    def test_io_round_trip_over_the_wire(self, process_cluster):
        client = process_cluster.client(0)
        fd = client.open("/gkfs/proc.bin", os.O_CREAT | os.O_RDWR)
        data = os.urandom(3 * 4096 + 123)  # spans chunks on both daemons
        assert client.pwrite(fd, data, 0) == len(data)
        assert client.pread(fd, len(data), 0) == data
        assert client.stat("/gkfs/proc.bin").size == len(data)
        client.close(fd)

    def test_two_clients_see_each_other(self, process_cluster):
        writer = process_cluster.client(0)
        reader = process_cluster.client(1)
        fd = writer.open("/gkfs/shared.txt", os.O_CREAT | os.O_WRONLY)
        writer.pwrite(fd, b"cross-process", 0)
        writer.close(fd)
        fd = reader.open("/gkfs/shared.txt", os.O_RDONLY)
        assert reader.pread(fd, 13, 0) == b"cross-process"
        reader.close(fd)

    def test_listdir_broadcast(self, process_cluster):
        client = process_cluster.client(0)
        names = {name for name, _is_dir in client.listdir("/gkfs")}
        assert {"proc.bin", "shared.txt"} <= names


    def test_one_connection_per_daemon_and_no_client_thread(self, process_cluster):
        # The whole client side of a 2-daemon deployment is two sockets:
        # whoever waits on a future receives, so there is nobody to spawn.
        client = process_cluster.client(0)
        client.stat("/gkfs/proc.bin")
        transport = process_cluster.deployment.socket_transport
        assert sorted(transport._channels) == [0, 1]
        assert not [
            t.name for t in threading.enumerate() if t.name.startswith("gkfs-net-")
        ]


class TestWireStructure:
    """Which thread serves what, and how many connections carry it — looked
    at from inside an in-process socket cluster."""

    @staticmethod
    def _record_handler_threads(cluster):
        seen: dict = {}
        for served in cluster.served:
            engine = served.daemon.engine
            real = engine.handle

            def handle(request, real=real):
                seen.setdefault(request.handler, set()).add(
                    threading.current_thread().name.rsplit("-", 1)[0]
                )
                return real(request)

            engine.handle = handle  # looked up per call by the server
        return seen

    def test_metadata_and_small_data_inline_large_data_on_the_pool_one_connection(self):
        """Three chunks a transfer: at most 12 KiB a daemon with 4 KiB chunks
        (inline), at least 64 KiB a daemon with 64 KiB chunks (an exposure).
        The id comes from the size rule the server no longer has: both are
        served where they were read, by the connection's reader."""
        assert 3 * 4096 <= chunking.INLINE_THRESHOLD < 65536
        self._two_clients_one_connection(4096, "gkfs-net-d")
        self._two_clients_one_connection(65536, "gkfs-net-d")

    def _two_clients_one_connection(self, chunk, runs_on):
        with LocalSocketCluster(2, FSConfig(chunk_size=chunk)) as cluster:
            seen = self._record_handler_threads(cluster)
            payload = os.urandom(3 * chunk)
            outcomes: list = []

            def work(node):
                client = cluster.client(node)
                path = f"/gkfs/shared-channel-{node}.bin"
                fd = client.open(path, os.O_CREAT | os.O_RDWR)
                for _ in range(20):
                    client.pwrite(fd, payload, 0)
                    outcomes.append(client.pread(fd, len(payload), 0) == payload)
                    client.stat(path)
                client.close(fd)

            threads = [threading.Thread(target=work, args=(node,)) for node in (0, 1)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
            assert not [t for t in threads if t.is_alive()]
            assert outcomes == [True] * 40
            # Both clients (two threads) share the deployment's transport:
            # one multiplexed connection per daemon, not a socket pair each.
            assert [s.server.connections_accepted for s in cluster.served] == [1, 1]
            assert all(name.startswith("gkfs-net-d") for name in seen["gkfs_stat"])
            assert all(name.startswith(runs_on) for name in seen["gkfs_write_chunks"])
            assert all(name.startswith(runs_on) for name in seen["gkfs_read_chunks"])

    def test_write_ships_each_daemon_only_its_own_slice(self):
        """A read-only exposure crosses the socket whole, so what a write
        group exposes is what its daemon receives: its own chunk, not the
        op buffer.  At or under the inline threshold the same slice rides
        in the request instead."""
        chunk = 65536
        with LocalSocketCluster(2, FSConfig(chunk_size=chunk)) as cluster:
            shipped: dict = {0: [], 1: []}
            for served in cluster.served:
                engine = served.daemon.engine
                real = engine.handle

                def handle(request, real=real, address=engine.address):
                    if request.handler == "gkfs_write_chunks":
                        inline = request.args[2]
                        assert (inline is None) != (request.bulk is None)
                        shipped[address].append(
                            len(request.bulk) if inline is None else -len(inline))
                    return real(request)

                engine.handle = handle
            client = cluster.client(0)
            locate = cluster.distributor.locate_chunk
            name = next(
                f"/two-{i}" for i in range(64)
                if locate(f"/two-{i}", 0) != locate(f"/two-{i}", 1)
            )
            fd = client.open("/gkfs" + name, os.O_CREAT | os.O_RDWR)
            client.pwrite(fd, os.urandom(2 * chunk), 0)
            assert shipped == {0: [chunk], 1: [chunk]}
            edge = chunking.INLINE_THRESHOLD
            client.pwrite(fd, b"s" * (edge + 1), 0)  # one byte over: still exposed
            client.pwrite(fd, b"s" * edge, 0)  # inline (negative here)
            client.pwrite(fd, b"s" * 8192, chunk - 4096)  # 4 KiB to each daemon
            assert sorted(shipped[0] + shipped[1]) == [
                -edge, -4096, -4096, edge + 1, chunk, chunk]
            client.close(fd)

    def test_breaker_transitions_reach_the_trace_over_sockets(self):
        config = FSConfig(
            chunk_size=4096,
            telemetry_enabled=True,
            degraded_mode=True,
            breaker_enabled=True,
            breaker_failure_threshold=1,
        )
        with LocalSocketCluster(2, config) as cluster:
            client = cluster.client(0)
            client.write_bytes("/gkfs/h.bin", b"h" * 4096)
            cluster.crash_daemon(1)
            client.statfs()  # hits the dead daemon: trips its breaker
            transitions = [
                event for event in cluster.deployment.trace_collector.events
                if event.name == "health.transition"
            ]
            assert transitions
            assert transitions[0].args["address"] == 1
            assert transitions[0].args["to_state"] == "open"

    def test_qos_lends_an_idle_lane_and_queues_data_and_bulk(self):
        chunk = 2 * chunking.INLINE_THRESHOLD  # a whole chunk: a bulk transfer
        config = FSConfig(chunk_size=chunk, qos_enabled=True, qos_data_workers=1)
        with LocalSocketCluster(2, config) as cluster:
            seen = self._record_handler_threads(cluster)
            client = cluster.client(0)
            fd = client.open("/gkfs/q.bin", os.O_CREAT | os.O_RDWR)
            client.pwrite(fd, b"q" * chunk, 0)
            assert client.pread(fd, chunk, 0) == b"q" * chunk
            client.stat("/gkfs/q.bin")
            client.pwrite(fd, b"s" * 4096, 0)
            assert client.pread(fd, 4096, 0) == b"s" * 4096
            # One client, nothing queued: a lane's slot goes to the
            # connection thread whatever the request moves — the meta lane's
            # for a stat, the data lane's for a transfer, inline or exposed.
            for handler in ("gkfs_stat", "gkfs_write_chunks", "gkfs_read_chunks"):
                assert seen[handler] and all(
                    name.startswith("gkfs-net-d") for name in seen.pop(handler))
            # The data lane's one slot held by a parked read: a bulk write
            # behind it is read by a relief reader and queues for a worker.
            owner = cluster.distributor.locate_chunk("/q.bin", 0)
            served = cluster.served[owner]
            engine = served.daemon.engine
            entered, release = threading.Event(), threading.Event()

            def handle(request, real=engine.handle):
                if request.handler == "gkfs_read_chunks":
                    entered.set()
                    assert release.wait(10)
                return real(request)

            engine.handle = handle
            reader = threading.Thread(target=client.pread, args=(fd, chunk, 0))
            reader.start()
            assert entered.wait(10)
            other = cluster.client(1)
            writer = threading.Thread(target=other.write_bytes, args=("/gkfs/q.bin", b"w" * chunk))
            writer.start()
            deadline = time.monotonic() + 10
            while served._dispatch.queue_depth(owner) == 0:
                assert time.monotonic() < deadline
                time.sleep(0.001)
            release.set()
            for thread in (reader, writer):
                thread.join(10)
                assert not thread.is_alive()
            client.close(fd)
            assert served.server.relief_started >= 1
            assert seen["gkfs_write_chunks"] == {f"gkfs-qos-d{owner}"}  # -data0, cut


class TestSignals:
    def test_sigterm_drains_to_exit_zero(self):
        with ProcessCluster(1, FSConfig(chunk_size=4096)) as cluster:
            client = cluster.client(0)
            fd = client.open("/gkfs/drain.txt", os.O_CREAT | os.O_WRONLY)
            client.pwrite(fd, b"flushed", 0)
            client.close(fd)
            assert cluster.terminate_daemon(0) == 0

    def test_sigkill_mid_traffic_surfaces_unavailable_not_hang(self):
        """The crash-mid-RPC satellite at full scale: SIGKILL a daemon
        process while a degraded-mode client talks to it.  Every
        subsequent operation must fail bounded (DaemonUnavailableError)
        — never hang on a dead socket."""
        config = FSConfig(chunk_size=4096, degraded_mode=True)
        with ProcessCluster(2, config) as cluster:
            client = cluster.client(0)
            fd = client.open("/gkfs/crash.bin", os.O_CREAT | os.O_RDWR)
            data = os.urandom(4 * 4096)
            client.pwrite(fd, data, 0)
            cluster.crash_daemon(1)
            start = time.monotonic()
            with pytest.raises((DaemonUnavailableError,) + DELIVERY_FAILURES):
                deadline = start + 60
                while time.monotonic() < deadline:
                    client.pwrite(fd, data, 0)
                    client.pread(fd, len(data), 0)
            # Bounded failure: well under the watchdog, no multi-minute hang.
            assert time.monotonic() - start < 45

    def test_surviving_daemon_keeps_serving_after_neighbour_dies(self):
        config = FSConfig(chunk_size=4096, degraded_mode=True)
        with ProcessCluster(2, config) as cluster:
            client = cluster.client(0)
            cluster.crash_daemon(1)
            # Broadcasts degrade instead of failing.
            entries = client.listdir("/gkfs")
            assert isinstance(entries, list)


class TestRestartAndJoin:
    def test_sigkill_restart_replays_wal_over_sockets(self, tmp_path):
        """Satellite: SIGKILL a daemon process, respawn it under the same
        identity, and read everything back — the child reopens the same
        kv_dir/data_dir, so the LSM WAL replays and chunks rescan."""
        config = FSConfig(
            chunk_size=4096,
            kv_dir=str(tmp_path / "kv"),
            data_dir=str(tmp_path / "data"),
        )
        with ProcessCluster(2, config) as cluster:
            client = cluster.client(0)
            payload = os.urandom(3 * 4096)
            fd = client.open("/gkfs/durable.bin", os.O_CREAT | os.O_WRONLY)
            client.pwrite(fd, payload, 0)
            client.close(fd)
            old_pids = {cluster.daemon_pid(0), cluster.daemon_pid(1)}
            cluster.crash_daemon(0)
            cluster.crash_daemon(1)
            cluster.restart_daemon(0)
            cluster.restart_daemon(1)
            assert {cluster.daemon_pid(0), cluster.daemon_pid(1)}.isdisjoint(
                old_pids
            )
            fresh = cluster.client(0)
            fd = fresh.open("/gkfs/durable.bin", os.O_RDONLY)
            assert fresh.pread(fd, len(payload), 0) == payload
            fresh.close(fd)
            # The respawned daemons take new writes too.
            fd = fresh.open("/gkfs/after.bin", os.O_CREAT | os.O_WRONLY)
            fresh.pwrite(fd, b"post-restart", 0)
            fresh.close(fd)

    def test_restart_refuses_running_daemon(self):
        with ProcessCluster(1, FSConfig(chunk_size=4096)) as cluster:
            with pytest.raises(RuntimeError):
                cluster.restart_daemon(0)

    def test_live_join_registers_new_process(self):
        """add_daemon forks one more `repro serve` child and re-points the
        address book; the joiner answers RPCs immediately (placement
        unchanged until the owner migrates)."""
        with ProcessCluster(2, FSConfig(chunk_size=4096)) as cluster:
            address = cluster.add_daemon()
            assert address == 2
            assert cluster.num_nodes == 3
            assert cluster.daemon_pid(2) != os.getpid()
            stats = cluster.network.call(2, "gkfs_statfs")
            assert isinstance(stats, dict)
