"""Request scheduling & QoS plane: WFQ, admission, pools, client windows."""

import errno
import threading
import time

import pytest

from repro.common.errors import AgainError
from repro.qos import (
    AimdWindow,
    ClientPort,
    ExecutionPool,
    ScheduledTransport,
    TokenBucket,
    WeightedFairQueue,
)
from repro.rpc import RpcNetwork
from repro.rpc.message import RpcRequest, RpcResponse


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


# -- weighted fair queue ------------------------------------------------------


class TestWeightedFairQueue:
    def test_fifo_for_single_client(self):
        wfq = WeightedFairQueue()
        for i in range(5):
            wfq.push("a", 1.0, i)
        assert [wfq.pop()[1] for _ in range(5)] == [0, 1, 2, 3, 4]

    def test_equal_weights_interleave_backlogged_clients(self):
        # Client "a" queues 4 unit-cost items, "b" queues 4: service must
        # alternate rather than drain "a" first (the FIFO failure mode).
        wfq = WeightedFairQueue()
        for i in range(4):
            wfq.push("a", 1.0, f"a{i}")
        for i in range(4):
            wfq.push("b", 1.0, f"b{i}")
        order = [wfq.pop()[0] for _ in range(8)]
        # In every adjacent pair, both clients appear once.
        for i in range(0, 8, 2):
            assert set(order[i : i + 2]) == {"a", "b"}

    def test_weights_bias_service_proportionally(self):
        wfq = WeightedFairQueue(weights={"heavy": 2.0})
        for i in range(8):
            wfq.push("heavy", 1.0, i)
            wfq.push("light", 1.0, i)
        first_six = [wfq.pop()[0] for _ in range(6)]
        assert first_six.count("heavy") == 4  # 2:1 service ratio
        assert first_six.count("light") == 2

    def test_cost_counts_against_share(self):
        # One expensive item from "big" lets several cheap "small" items
        # through before big's second item: byte-fairness, not op-fairness.
        wfq = WeightedFairQueue()
        wfq.push("big", 8.0, "B0")
        wfq.push("big", 8.0, "B1")
        for i in range(4):
            wfq.push("small", 1.0, f"s{i}")
        order = [wfq.pop()[1] for _ in range(6)]
        assert order.index("B1") > order.index("s3")

    def test_new_client_starts_at_virtual_time(self):
        # A late joiner cannot claim credit for its idle past.
        wfq = WeightedFairQueue()
        for i in range(10):
            wfq.push("old", 1.0, i)
        for _ in range(6):
            wfq.pop()
        wfq.push("new", 1.0, "n0")
        wfq.push("new", 1.0, "n1")
        order = [wfq.pop()[0] for _ in range(6)]
        assert order.count("new") == 2  # interleaved, not 6 in a row

    def test_len_bool_and_drain(self):
        wfq = WeightedFairQueue()
        assert not wfq and len(wfq) == 0
        wfq.push("a", 1.0, 1)
        wfq.push("b", 1.0, 2)
        assert wfq and len(wfq) == 2
        assert sorted(item for _, item in wfq.drain()) == [1, 2]
        assert len(wfq) == 0

    def test_pop_empty_raises(self):
        with pytest.raises(IndexError):
            WeightedFairQueue().pop()

    def test_set_weight_validation(self):
        wfq = WeightedFairQueue()
        with pytest.raises(ValueError):
            wfq.set_weight("a", 0.0)
        with pytest.raises(ValueError):
            WeightedFairQueue(default_weight=-1.0)


# -- token bucket -------------------------------------------------------------


class TestTokenBucket:
    def test_burst_admitted_then_throttled(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=10.0, burst=3.0, clock=clock)
        assert [bucket.try_acquire() for _ in range(3)] == [0.0, 0.0, 0.0]
        wait = bucket.try_acquire()
        assert wait == pytest.approx(0.1)  # 1 token at 10/s

    def test_refills_at_rate(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=10.0, burst=1.0, clock=clock)
        assert bucket.try_acquire() == 0.0
        assert bucket.try_acquire() > 0.0
        clock.advance(0.1)
        assert bucket.try_acquire() == 0.0

    def test_tokens_cap_at_burst(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=100.0, burst=2.0, clock=clock)
        clock.advance(60.0)  # a long quiet period banks no extra credit
        assert bucket.tokens == pytest.approx(2.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, burst=0.0)


# -- AIMD window --------------------------------------------------------------


class TestAimdWindow:
    def test_acquire_release_tracks_inflight(self):
        window = AimdWindow(initial=2)
        assert window.acquire(0.1)
        assert window.inflight == 1
        window.release()
        assert window.inflight == 0

    def test_full_window_blocks_until_release(self):
        window = AimdWindow(initial=1)
        assert window.acquire(0.1)
        assert not window.acquire(0.02)  # full: times out
        window.release()
        assert window.acquire(0.1)

    def test_grow_is_additive_per_window(self):
        # Each success adds increase/window, so it takes ~one window's
        # worth of successes to gain a slot.
        window = AimdWindow(initial=4, maximum=64)
        window.grow()
        assert window.window == 4
        assert window._window == pytest.approx(4.25)
        for _ in range(4):
            window.grow()
        assert window.window == 5

    def test_shrink_is_multiplicative(self):
        window = AimdWindow(initial=16)
        window.shrink()
        assert window.window == 8
        window.shrink()
        assert window.window == 4

    def test_floor_and_ceiling(self):
        window = AimdWindow(initial=2, maximum=4, minimum=1)
        for _ in range(10):
            window.shrink()
        assert window.window == 1
        for _ in range(100):
            window.grow()
        assert window.window == 4

    def test_release_wakes_blocked_acquirer(self):
        window = AimdWindow(initial=1)
        window.acquire()
        acquired = threading.Event()

        def blocked():
            window.acquire()
            acquired.set()

        thread = threading.Thread(target=blocked, daemon=True)
        thread.start()
        time.sleep(0.02)
        assert not acquired.is_set()
        window.release()
        assert acquired.wait(1.0)
        thread.join(1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            AimdWindow(initial=0)
        with pytest.raises(ValueError):
            AimdWindow(initial=8, maximum=4)
        with pytest.raises(ValueError):
            AimdWindow(backoff=1.0)
        with pytest.raises(ValueError):
            AimdWindow(increase=0.0)


# -- execution pool + scheduled transport -------------------------------------


def _network_with_daemon(address=0):
    network = RpcNetwork()
    engine = network.create_engine(address)
    engine.register("echo", lambda x: x)
    engine.register("gkfs_read_chunks", lambda *a: b"data")

    def slow(x):
        time.sleep(0.01)
        return x

    engine.register("slow", slow)
    return network


class TestScheduledTransport:
    def test_round_trip_and_lane_routing(self):
        network = _network_with_daemon()
        with ScheduledTransport(network.engine_table) as transport:
            network.transport = transport
            assert network.call(0, "echo", 41) == 41
            assert network.call(0, "gkfs_read_chunks", "f", 0) == b"data"
            pool = transport._pools[0]
            assert pool.lanes["meta"].served == 1
            assert pool.lanes["data"].served == 1

    def test_handler_errors_propagate(self):
        from repro.common.errors import NotFoundError

        network = _network_with_daemon()
        engine = network.engine_table[0]

        def missing(path):
            raise NotFoundError(path)

        engine.register("missing", missing)
        with ScheduledTransport(network.engine_table) as transport:
            network.transport = transport
            with pytest.raises(NotFoundError):
                network.call(0, "missing", "/nope")

    def test_queue_limit_throttles_with_retry_after(self):
        network = _network_with_daemon()
        with ScheduledTransport(
            network.engine_table, meta_workers=1, queue_limit=1
        ) as transport:
            network.transport = transport
            futures = [network.call_async(0, "slow", i) for i in range(16)]
            throttles = []
            for future in futures:
                try:
                    future.result(5.0)
                except AgainError as err:
                    throttles.append(err)
            assert throttles, "queue limit 1 under 16 concurrent must throttle"
            assert all(t.errno == errno.EAGAIN for t in throttles)
            assert all(t.retry_after and t.retry_after > 0 for t in throttles)

    def test_rate_cap_throttles_per_client(self):
        network = _network_with_daemon()
        with ScheduledTransport(
            network.engine_table, rate_limits={7: 2.0}
        ) as transport:
            network.transport = transport
            outcomes = []
            for _ in range(5):
                try:
                    network.call(0, "echo", 1, client_id=7)
                    outcomes.append("ok")
                except AgainError:
                    outcomes.append("throttled")
            assert outcomes.count("ok") == 2  # burst = max(1, rate) = 2
            assert outcomes.count("throttled") == 3
            # An uncapped client is untouched while 7 is being limited.
            assert network.call(0, "echo", 2, client_id=8) == 2

    def test_unknown_daemon_fails_future_with_lookup(self):
        network = _network_with_daemon()
        with ScheduledTransport(network.engine_table) as transport:
            network.transport = transport
            with pytest.raises(LookupError):
                network.call(99, "echo", 1)

    def test_restart_retires_stale_pool(self):
        network = _network_with_daemon()
        with ScheduledTransport(network.engine_table) as transport:
            network.transport = transport
            assert network.call(0, "echo", 1) == 1
            old_pool = transport._pools[0]
            network.remove_engine(0)
            with pytest.raises(LookupError):
                network.call(0, "echo", 1)
            engine = network.create_engine(0)
            engine.register("echo", lambda x: x)
            assert network.call(0, "echo", 2) == 2
            assert transport._pools[0] is not old_pool
            assert old_pool.lanes["meta"]._stopped

    def test_shutdown_drains_backlog(self):
        network = _network_with_daemon()
        transport = ScheduledTransport(network.engine_table, meta_workers=1)
        network.transport = transport
        futures = [network.call_async(0, "slow", i) for i in range(5)]
        transport.shutdown()
        assert [f.result(1.0) for f in futures] == [0, 1, 2, 3, 4]
        with pytest.raises(RuntimeError):
            network.call(0, "echo", 1)

    def test_client_shares_ledger(self):
        network = _network_with_daemon()
        with ScheduledTransport(network.engine_table) as transport:
            network.transport = transport
            network.call(0, "echo", 1, client_id=1)
            network.call(0, "echo", 2, client_id=1)
            network.call(0, "echo", 3, client_id=2)
            network.call(0, "echo", 4)  # anonymous
            shares = transport.client_shares(0)
            assert shares[1]["ops"] == 2
            assert shares[2]["ops"] == 1
            assert shares["anon"]["ops"] == 1
            assert all(s["bytes"] > 0 for s in shares.values())

    def test_wfq_schedules_backlog_fairly(self):
        # One worker, deep backlogs from a hog and a mouse: completion
        # order must interleave, not serve the hog's queue first.
        network = _network_with_daemon()
        order = []
        lock = threading.Lock()
        with ScheduledTransport(
            network.engine_table, meta_workers=1, queue_limit=64
        ) as transport:
            network.transport = transport
            block = network.call_async(0, "slow", "warm")  # occupies the worker
            futures = []
            for i in range(6):
                futures.append(network.call_async(0, "echo", ("hog", i), client_id=1))
            for i in range(2):
                futures.append(network.call_async(0, "echo", ("mouse", i), client_id=2))
            for future in futures:
                future.add_done_callback(
                    lambda f: (lock.__enter__(), order.append(f.result()[0]), lock.__exit__(None, None, None))
                )
            block.result(5.0)
            for future in futures:
                future.result(5.0)
        # The mouse's 2 ops complete within the first 4 services.
        assert order.index("mouse") < 4
        assert "mouse" in order[:4]


class TestExecutionPoolAttach:
    def test_attach_registers_metrics_and_emits_throttle_events(self):
        from repro.telemetry.metrics import MetricsRegistry
        from repro.telemetry.spans import TraceCollector

        network = _network_with_daemon()
        registry = MetricsRegistry()
        collector = TraceCollector()
        with ScheduledTransport(
            network.engine_table, meta_workers=1, queue_limit=1
        ) as transport:
            transport.attach(0, registry, collector)
            network.transport = transport
            futures = [network.call_async(0, "slow", i, client_id=5) for i in range(8)]
            throttled = 0
            for future in futures:
                try:
                    future.result(5.0)
                except AgainError:
                    throttled += 1
            snap = registry.snapshot()
            assert "qos.queue_depth.meta" in snap["gauges"]
            assert snap["gauges"]["qos.throttles.meta"] == throttled > 0
            assert snap["gauges"]["qos.client_ops.5"] == 8 - throttled
            assert snap["histograms"]["qos.wait.meta"]["count"] == 8 - throttled
            events = [e for e in collector.events if e.name == "qos.throttle"]
            assert len(events) == throttled
            assert events[0].args["lane"] == "meta"
            assert events[0].args["client"] == 5

    def test_attachment_survives_pool_recreation(self):
        from repro.telemetry.metrics import MetricsRegistry

        network = _network_with_daemon()
        registry = MetricsRegistry()
        with ScheduledTransport(network.engine_table) as transport:
            transport.attach(0, registry)
            network.transport = transport
            network.call(0, "echo", 1)
            network.remove_engine(0)
            engine = network.create_engine(0)  # daemon restart
            engine.register("echo", lambda x: x)
            network.call(0, "echo", 2)
            # The recreated pool re-registered into the same registry.
            assert transport._pools[0]._metrics is registry


# -- client port --------------------------------------------------------------


class _ThrottleNTimes:
    """Duck-typed network: first ``n`` calls throttle, then echo.  Its own
    chain is empty; each future settles through the chain it is handed."""

    chain = ()

    def __init__(self, n, retry_after=0.004):
        self.n = n
        self.retry_after = retry_after
        self.calls = 0
        self.client_ids = []

    def call(self, target, handler, *args, bulk=None, client_id=None):
        return self.call_async(
            target, handler, *args, bulk=bulk, client_id=client_id
        ).result(1.0)

    def call_async(self, target, handler, *args, bulk=None, client_id=None, chain=()):
        from repro.rpc.future import RpcFuture

        self.calls += 1
        self.client_ids.append(client_id)
        request = RpcRequest(target, handler, args, chain=chain)
        if self.calls <= self.n:
            response = RpcResponse.throttled("busy", retry_after=self.retry_after)
            future = RpcFuture.completed(response, request)
            return future.with_transform(lambda r: r.result())
        return RpcFuture.completed(
            RpcResponse(value=args[0] if args else None), request
        ).with_transform(lambda r: r.result())


class TestClientPort:
    def test_stamps_client_id(self):
        fake = _ThrottleNTimes(0)
        port = ClientPort(fake, 42, sleep=lambda s: None)
        assert port.call(0, "echo", "x") == "x"
        assert fake.client_ids == [42]

    def test_sync_retry_absorbs_throttles(self):
        slept = []
        fake = _ThrottleNTimes(3)
        port = ClientPort(fake, 1, sleep=slept.append)
        assert port.call(0, "echo", "v") == "v"
        assert fake.calls == 4
        assert port.qos_stats.throttles == 3
        assert port.qos_stats.giveups == 0
        assert len(slept) == 3

    def test_sync_gives_up_after_budget(self):
        fake = _ThrottleNTimes(100)
        port = ClientPort(fake, 1, throttle_retries=3, sleep=lambda s: None)
        with pytest.raises(AgainError):
            port.call(0, "echo", "v")
        assert fake.calls == 3
        assert port.qos_stats.giveups == 1

    def test_backoff_doubles_and_caps(self):
        slept = []
        fake = _ThrottleNTimes(12, retry_after=0.004)
        port = ClientPort(fake, 1, throttle_retries=16, sleep=slept.append)
        port.call(0, "echo", "v")
        assert slept[0] == pytest.approx(0.004)
        assert slept[1] == pytest.approx(0.008)
        assert slept[2] == pytest.approx(0.016)
        assert max(slept) == 0.05  # capped
        assert slept == sorted(slept)

    def test_async_retry_absorbs_throttles(self):
        fake = _ThrottleNTimes(2)
        port = ClientPort(fake, 1, sleep=lambda s: None)
        assert port.call_async(0, "echo", "v").result(1.0) == "v"
        assert fake.calls == 3
        assert port.qos_stats.throttles == 2

    def test_async_gives_up_and_surfaces_eagain(self):
        fake = _ThrottleNTimes(100)
        port = ClientPort(fake, 1, throttle_retries=2, sleep=lambda s: None)
        with pytest.raises(AgainError):
            port.call_async(0, "echo", "v").result(1.0)
        assert port.qos_stats.giveups == 1

    def test_window_shrinks_on_throttle_grows_on_success(self):
        fake = _ThrottleNTimes(1)
        port = ClientPort(fake, 1, window_initial=16, sleep=lambda s: None)
        port.call(0, "echo", "v")
        window = port.window_for(0)
        # One shrink (16 -> 8) then one grow (8 + 1/8).
        assert window._window == pytest.approx(8.125)

    def test_window_disabled_still_stamps_and_retries(self):
        fake = _ThrottleNTimes(2)
        port = ClientPort(fake, 9, window_enabled=False, sleep=lambda s: None)
        assert port.call(0, "echo", "v") == "v"
        assert port.windows() == {}
        assert fake.client_ids[0] == 9

    def test_window_backpressure_bounds_async_inflight(self):
        network = _network_with_daemon()
        with ScheduledTransport(network.engine_table, meta_workers=1) as transport:
            network.transport = transport
            port = ClientPort(network, 1, window_initial=2, window_max=2)
            futures = [port.call_async(0, "slow", i) for i in range(6)]
            assert [f.result(5.0) for f in futures] == list(range(6))
            assert port.window_for(0).inflight == 0

    def test_forwards_unknown_attributes(self):
        network = RpcNetwork()
        port = ClientPort(network, 1)
        assert port.engine_table is network.engine_table

    def test_validation(self):
        with pytest.raises(ValueError):
            ClientPort(RpcNetwork(), 1, throttle_retries=0)


# -- end-to-end through a cluster ---------------------------------------------


class TestQosCluster:
    def test_qos_cluster_serves_and_accounts(self):
        from repro.core.cluster import GekkoFSCluster
        from repro.core.config import FSConfig

        with GekkoFSCluster(2, FSConfig(qos_enabled=True)) as cluster:
            client = cluster.client()
            client.write_bytes("/gkfs/f", b"payload" * 1000)
            assert client.read_bytes("/gkfs/f") == b"payload" * 1000
            shares = cluster.client_shares()
            assert shares and shares[0]["ops"] > 0
            metrics = client.metrics()
            gauges = metrics["cluster"]["gauges"]
            assert "qos.queue_depth.meta" in gauges
            assert "qos.client_ops.0" in gauges
            assert "client.qos_throttles" in metrics["client"]["gauges"]
            hists = metrics["cluster"]["histograms"]
            assert hists["qos.wait.meta"]["count"] > 0
            assert hists["qos.depth.meta"]["count"] > 0

    def test_each_client_gets_distinct_identity(self):
        from repro.core.cluster import GekkoFSCluster
        from repro.core.config import FSConfig

        with GekkoFSCluster(1, FSConfig(qos_enabled=True)) as cluster:
            a, b = cluster.client(), cluster.client()
            a.write_bytes("/gkfs/a", b"x")
            b.write_bytes("/gkfs/b", b"y")
            shares = cluster.client_shares()
            assert a.network.client_id != b.network.client_id
            assert a.network.client_id in shares
            assert b.network.client_id in shares

    def test_qos_disabled_leaves_plain_network(self):
        from repro.core.cluster import GekkoFSCluster
        from repro.rpc.transport import LoopbackTransport

        with GekkoFSCluster(1) as cluster:
            client = cluster.client()
            assert not isinstance(client.network, ClientPort)
            assert type(cluster.network.transport) is LoopbackTransport
            assert cluster.client_shares() == {}
            assert not any(
                "qos" in name for name in cluster.daemons[0].metrics.names()
            )

    def test_rate_capped_tenant_is_contained(self):
        from repro.core.cluster import GekkoFSCluster
        from repro.core.config import FSConfig

        config = FSConfig(
            qos_enabled=True,
            qos_rate_limits={0: 4.0},  # client 0: 4 metadata ops/s
            qos_throttle_retries=2,
        )
        with GekkoFSCluster(1, config) as cluster:
            capped = cluster.client()
            free = cluster.client()
            done = 0
            try:
                for i in range(50):
                    capped.creat(f"/gkfs/capped{i}")
                    done += 1
            except AgainError as err:
                assert err.errno == errno.EAGAIN
            assert done < 50  # the cap bit before the burst finished
            for i in range(20):  # the uncapped tenant is unaffected
                free.creat(f"/gkfs/free{i}")
            assert free.network.qos_stats.giveups == 0

    def test_surviving_restart(self):
        from repro.core.cluster import GekkoFSCluster
        from repro.core.config import FSConfig

        with GekkoFSCluster(2, FSConfig(qos_enabled=True, replication=2)) as cluster:
            client = cluster.client()
            client.write_bytes("/gkfs/f", b"data")
            cluster.crash_daemon(1)
            cluster.restart_daemon(1)
            assert client.read_bytes("/gkfs/f") == b"data"
            # The restarted daemon's fresh registry has the qos gauges.
            assert any("qos" in n for n in cluster.daemons[1].metrics.names())
