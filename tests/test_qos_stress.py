"""QoS soak: the stress oracle must hold while admission control pushes back.

The point of these runs is that throttling is *transparent*: with tight
queue limits the daemons reject work mid-stream, the client ports retry
with backoff, and every byte must still verify against the shadow model.
"""

import contextlib
import sys
import threading

from repro.common.errors import AgainError
from repro.core import FSConfig, GekkoFSCluster
from repro.qos import ClientPort, ScheduledTransport
from repro.rpc import RpcNetwork
from repro.rpc.transport import Transport
from repro.telemetry.inflight import InflightGauge
from repro.workloads.stress import StressSpec, run_stress


def _qos_config(**overrides):
    base = dict(
        qos_enabled=True,
        qos_meta_workers=2,
        qos_data_workers=2,
        chunk_size=256,
    )
    base.update(overrides)
    return FSConfig(**base)


@contextlib.contextmanager
def _noise(cluster, threads_per_daemon=3):
    """Keep every daemon's meta queue busy with competing statfs callers.

    Issued on the raw network (no retry wrapper): rejections are expected
    and simply retried, so the stress clients see genuinely full queues.
    """
    stop = threading.Event()

    def pump(target):
        while not stop.is_set():
            with contextlib.suppress(Exception):
                cluster.network.call(target, "gkfs_statfs")

    workers = [
        threading.Thread(target=pump, args=(daemon.address,), daemon=True)
        for daemon in cluster.daemons
        for _ in range(threads_per_daemon)
    ]
    for worker in workers:
        worker.start()
    try:
        yield
    finally:
        stop.set()
        for worker in workers:
            worker.join(5.0)


class _InFlightPerDaemon(Transport):
    """Below the port: how many of its calls each daemon has in flight."""

    def __init__(self, inner):
        self.inner = inner
        self.gauges = {address: InflightGauge() for address in (0, 1)}

    def send_async(self, request):
        self.gauges[request.target].launch()
        return self.inner.send_async(request if request.chain else self.dressed(request))

    def stage(self, future, value, exc):
        return self.gauges[future.request.target].land()


class TestQosSoak:
    def test_soak_under_tight_queue_limit(self):
        # queue_limit=2 on every lane while a background pump keeps the
        # queues full: the stress clients constantly trip admission
        # control, so correctness here proves the full throttle ->
        # EAGAIN -> backoff -> retry loop is lossless.
        config = _qos_config(qos_queue_limit=2, qos_throttle_retries=4096)
        with GekkoFSCluster(num_nodes=3, config=config) as fs:
            with _noise(fs):
                result = run_stress(fs, StressSpec(operations=400, seed=77))
            assert result.bytes_verified > 0
            throttles = sum(
                daemon.metrics.snapshot()["gauges"].get(f"qos.throttles.{lane}", 0)
                for daemon in fs.daemons
                for lane in ("meta", "data")
            )
            assert throttles > 0  # admission control actually fired
            # run_stress raising nothing proves zero giveups: an exhausted
            # retry budget would have surfaced AgainError mid-oracle.

    def test_soak_matches_unthrottled_run(self):
        # Same seed with and without QoS: admission control may delay
        # operations but must never change their outcome.
        spec = StressSpec(operations=300, seed=91)
        with GekkoFSCluster(num_nodes=3, config=_qos_config(qos_queue_limit=2)) as fs:
            throttled = run_stress(fs, spec)
        with GekkoFSCluster(num_nodes=3, config=FSConfig(chunk_size=256)) as fs:
            plain = run_stress(fs, spec)
        assert throttled.executed == plain.executed
        assert throttled.bytes_verified == plain.bytes_verified
        assert throttled.live_files_at_end == plain.live_files_at_end

    def test_soak_with_tiny_client_windows(self):
        # Window of 1 serialises each client's RPCs; the oracle must
        # still hold when backpressure is at its most aggressive.
        config = _qos_config(
            qos_queue_limit=4, qos_window_initial=1, qos_window_max=2
        )
        with GekkoFSCluster(num_nodes=2, config=config) as fs:
            result = run_stress(fs, StressSpec(operations=250, seed=42))
            assert result.bytes_verified > 0

    def test_soak_with_rate_capped_client(self):
        # Cap one tenant hard; a generous retry budget means its ops
        # slow down rather than fail, and the data still verifies.
        config = _qos_config(
            qos_queue_limit=64,
            qos_rate_limits={1: 200.0},
            qos_throttle_retries=512,
        )
        with GekkoFSCluster(num_nodes=2, config=config) as fs:
            result = run_stress(
                fs, StressSpec(operations=200, seed=55, clients=2)
            )
            assert result.bytes_verified > 0

    def test_shared_port_fast_paths_under_contention(self):
        # Eight threads share one port whose windows (2 per daemon) they keep
        # full, so every claim races a release; its client is rate-capped,
        # so throttles take the slow path in the middle of the fast one.
        network = RpcNetwork()
        for address in (0, 1):
            engine = network.create_engine(address)
            engine.register("echo", lambda value: value)
            engine.register("gkfs_read_chunks", lambda value: value)  # data lane
        scheduled = ScheduledTransport(
            network.engine_table, meta_workers=2, data_workers=2, queue_limit=2,
            rate_limits={1: 40.0},
        )
        network.transport = below = _InFlightPerDaemon(scheduled)
        port = ClientPort(network, 1, window_initial=2, window_max=2, throttle_retries=3)
        outcomes: list = []

        def caller(n):
            for i in range(20):
                value = (n, i)
                try:
                    got = port.call(i % 2, ("echo", "gkfs_read_chunks")[n % 2], value)
                    outcomes.append(got == value)
                except AgainError:
                    outcomes.append("throttled")

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=caller, args=(n,)) for n in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
            assert not [thread for thread in threads if thread.is_alive()]
            pools = dict(scheduled._pools)
        finally:
            sys.setswitchinterval(interval)
            scheduled.shutdown()
        assert len(outcomes) == 8 * 20
        assert set(outcomes) <= {True, "throttled"} and True in outcomes
        assert port.qos_stats.throttles > 0
        assert outcomes.count("throttled") == port.qos_stats.giveups
        for address in (0, 1):
            assert 1 <= below.gauges[address].peak <= 2
            window = port.window_for(address)
            assert window.inflight == 0 and window.outstanding == {}
            pool = pools[address]
            lanes = pool.lanes.values()
            assert all(lane._free == lane.workers for lane in lanes)
            assert sum(s["ops"] for s in pool.client_shares().values()) == sum(
                lane.served for lane in lanes
            )

    def test_soak_survives_daemon_restart(self):
        # Phase 1 churn, crash/restart a daemon (retiring its pool),
        # phase 2 churn against the recreated pool.
        config = _qos_config(qos_queue_limit=8, replication=2)
        with GekkoFSCluster(num_nodes=3, config=config) as fs:
            run_stress(fs, StressSpec(operations=150, seed=60, workdir="/phase1"))
            fs.crash_daemon(2)
            fs.restart_daemon(2)
            run_stress(fs, StressSpec(operations=150, seed=61, workdir="/phase2"))
