"""Asynchronous RPC substrate: futures, gathers, virtual-time accounting."""

import sys
import threading
import time

import pytest

from repro.qos import ScheduledTransport
from repro.rpc import (
    RpcFuture,
    RpcNetwork,
    SimulatedTransport,
    ThreadedTransport,
    wait_all,
)
from repro.simulator.network import NetworkModel


@pytest.fixture
def network():
    net = RpcNetwork()
    for address in range(4):
        engine = net.create_engine(address)
        engine.register("echo", lambda x, _a=address: (_a, x))

    def boom(msg):
        raise ValueError(msg)

    net.lookup(0).register("boom", boom)
    return net


class TestRpcFuture:
    def test_result_after_set(self):
        fut = RpcFuture()
        fut.set_result(41)
        assert fut.done()
        assert fut.result() == 41
        assert fut.exception(0) is None

    def test_exception_propagates(self):
        fut = RpcFuture()
        fut.set_exception(ValueError("no"))
        assert fut.done()
        with pytest.raises(ValueError):
            fut.result()
        assert isinstance(fut.exception(0), ValueError)

    def test_double_resolution_is_a_bug(self):
        fut = RpcFuture.completed(1)
        with pytest.raises(RuntimeError):
            fut.set_result(2)
        with pytest.raises(RuntimeError):
            fut.set_exception(ValueError())

    def test_result_timeout(self):
        fut = RpcFuture()
        with pytest.raises(TimeoutError):
            fut.result(timeout=0.01)

    def test_callbacks_fire_once_resolved(self):
        seen = []
        fut = RpcFuture()
        fut.add_done_callback(lambda f: seen.append("before"))
        fut.set_result(None)
        fut.add_done_callback(lambda f: seen.append("after"))
        assert seen == ["before", "after"]

    def test_transforms_apply_in_order_at_result_time(self):
        fut = RpcFuture.completed(1)
        fut.with_transform(lambda v: v + 1).with_transform(lambda v: v * 10)
        assert fut.result() == 20
        assert fut.result() == 20  # idempotent: transforms see the raw value

    def test_result_unblocks_waiting_thread(self):
        fut = RpcFuture()
        got = []
        waiter = threading.Thread(target=lambda: got.append(fut.result()))
        waiter.start()
        fut.set_result("late")
        waiter.join(timeout=5)
        assert got == ["late"]


class TestWaitAll:
    def test_returns_results_in_issue_order(self):
        futures = [RpcFuture.completed(i) for i in range(5)]
        assert wait_all(futures) == [0, 1, 2, 3, 4]

    def test_raises_first_exception_in_issue_order(self):
        futures = [
            RpcFuture.completed("ok"),
            RpcFuture.failed(KeyError("first")),
            RpcFuture.failed(ValueError("second")),
        ]
        with pytest.raises(KeyError):
            wait_all(futures)

    def test_waits_every_leg_before_raising(self):
        """The failing leg must not abandon slower successful legs."""
        slow = RpcFuture()
        fast_fail = RpcFuture.failed(ConnectionError("down"))

        def resolve_later():
            time.sleep(0.05)
            slow.set_result("done")

        threading.Thread(target=resolve_later).start()
        with pytest.raises(ConnectionError):
            wait_all([slow, fast_fail])
        assert slow.result() == "done"  # it was collected, not orphaned

    def test_timeout_is_one_overall_deadline(self):
        """N stuck futures share one budget — not timeout each."""
        stuck = [RpcFuture() for _ in range(4)]
        started = time.monotonic()
        with pytest.raises(TimeoutError):
            wait_all(stuck, timeout=0.15)
        elapsed = time.monotonic() - started
        assert elapsed < 0.45  # 4 × 0.15 would mean a per-future budget

    def test_timeout_not_charged_against_resolved_futures(self):
        futures = [RpcFuture.completed(i) for i in range(100)]
        assert wait_all(futures, timeout=0.05) == list(range(100))


class TestEngineCallAsync:
    def test_loopback_fanout_gathers_in_order(self, network):
        futures = [network.call_async(a, "echo", a * 10) for a in range(4)]
        assert wait_all(futures) == [(0, 0), (1, 10), (2, 20), (3, 30)]

    def test_handler_error_surfaces_at_result(self, network):
        future = network.call_async(0, "boom", "bad")
        with pytest.raises(ValueError):
            future.result()

    def test_unknown_daemon_fails_the_future_not_the_issue(self, network):
        future = network.call_async(99, "echo", 1)  # must not raise here
        with pytest.raises(LookupError):
            future.result()

    def test_inflight_gauge_counts_every_rpc(self, network):
        for a in range(4):
            network.call(a, "echo", a)
        wait_all([network.call_async(a, "echo", a) for a in range(4)])
        snap = network.inflight.as_dict()
        assert snap["launched"] == 8
        assert snap["landed"] == 8
        assert snap["current"] == 0


class TestThreadedAsync:
    @pytest.fixture
    def threaded(self, network):
        transport = ThreadedTransport(network.engine_table, handlers_per_daemon=2)
        network.transport = transport
        yield network
        transport.shutdown()

    def test_fanout_across_pools(self, threaded):
        futures = [threaded.call_async(i % 4, "echo", i) for i in range(32)]
        results = wait_all(futures)
        assert results == [(i % 4, i) for i in range(32)]

    def test_exception_crosses_the_pool_boundary(self, threaded):
        future = threaded.call_async(0, "boom", "remote")
        with pytest.raises(ValueError):
            future.result()

    def test_dead_daemon_fails_future(self, threaded):
        future = threaded.call_async(7, "echo", 1)
        with pytest.raises(LookupError):
            future.result(timeout=1)

    def test_removed_daemon_is_unreachable_even_with_warm_pool(self, threaded):
        """Crash-stop must bite after the pool was built, not only before.

        Pools are created lazily on first contact; removal from the live
        address book has to retire the cached pool too, or a "crashed"
        daemon keeps serving and every failover test goes vacuous.
        """
        assert threaded.call_async(2, "echo", 1).result(timeout=5) == (2, 1)
        threaded.remove_engine(2)
        with pytest.raises(LookupError):
            threaded.call_async(2, "echo", 2).result(timeout=5)
        # Re-registration brings the address back with a fresh pool.
        engine = threaded.create_engine(2)
        engine.register("echo", lambda x: ("reborn", x))
        assert threaded.call_async(2, "echo", 3).result(timeout=5) == ("reborn", 3)

    @pytest.mark.parametrize("kind", [ThreadedTransport, ScheduledTransport])
    def test_pool_lookup_survives_retire_and_reregister_churn(self, kind):
        """Submitters run while daemon 0 is removed and registered again.
        A live pool is looked up without the transport lock: every call must
        still come back, and none may be served by an engine older than the
        one that was registered when it was issued."""
        network = RpcNetwork()
        generation = [0]

        def register(gen):
            network.create_engine(0).register("whose", lambda: gen)

        register(0)
        transport = kind(network.engine_table)
        network.transport = transport
        stop = threading.Event()
        served, stale, lost = [], [], []

        def submit():
            while not stop.is_set():
                issued = generation[0]
                try:
                    got = network.call_async(0, "whose").result(timeout=10)
                except (LookupError, RuntimeError):  # removed, or retired under it
                    continue
                except TimeoutError as exc:
                    lost.append(exc)
                    return
                served.append(got)
                if got < issued:
                    stale.append((issued, got))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=submit) for _ in range(4)]
            for thread in threads:
                thread.start()
            for gen in range(1, 25):
                time.sleep(0.002)
                network.remove_engine(0)
                register(gen)
                generation[0] = gen
            deadline = time.monotonic() + 10
            while 24 not in served and time.monotonic() < deadline:
                time.sleep(0.001)
            stop.set()
            for thread in threads:
                thread.join(30)
            assert not [thread for thread in threads if thread.is_alive()]
        finally:
            sys.setswitchinterval(interval)
            transport.shutdown()
        assert lost == [] and stale == []
        assert max(served) == 24

    def test_issue_does_not_park_the_caller(self, threaded):
        """A slow handler must not block call_async itself."""
        release = threading.Event()
        threaded.lookup(1).register("slow", lambda: (release.wait(5), "done")[1])
        t0 = time.monotonic()
        future = threaded.call_async(1, "slow")
        issue_elapsed = time.monotonic() - t0
        assert issue_elapsed < 1.0
        assert not future.done()
        release.set()
        assert future.result(timeout=5) == "done"


class TestSimulatedTransport:
    NET = NetworkModel(nic_bandwidth=1e9, base_latency=5e-6)
    SERVICE = 1e-3

    @pytest.fixture
    def sim_net(self, network):
        network.transport = SimulatedTransport(
            network.engine_table,
            network=self.NET,
            handlers_per_daemon=2,
            service_time=self.SERVICE,
        )
        return network

    def test_sequential_calls_accumulate_sum_of_legs(self, sim_net):
        for a in range(4):
            sim_net.call(a, "echo", a)
        clock = sim_net.transport.now
        assert clock >= 4 * self.SERVICE  # one full cycle per call
        assert sim_net.transport.virtual_rpcs == 4

    def test_gathered_fanout_takes_max_of_legs(self, sim_net):
        futures = [sim_net.call_async(a, "echo", a) for a in range(4)]
        wait_all(futures)
        pipelined = sim_net.transport.now
        sim_net.transport.reset_clock()
        for a in range(4):
            sim_net.call(a, "echo", a)
        serial = sim_net.transport.now
        # Four daemons served in parallel: ~1 service vs ~4 services.
        assert pipelined < serial / 2
        assert pipelined >= self.SERVICE

    def test_handler_slots_queue_same_daemon_legs(self, sim_net):
        futures = [sim_net.call_async(0, "echo", i) for i in range(8)]
        wait_all(futures)
        # 8 legs over 2 handler slots on one daemon: >= 4 service rounds.
        assert sim_net.transport.now >= 4 * self.SERVICE

    def test_functional_results_are_real(self, sim_net):
        assert sim_net.call(2, "echo", "x") == (2, "x")

    def test_unknown_daemon_fails_future(self, sim_net):
        with pytest.raises(LookupError):
            sim_net.call_async(42, "echo", 1).result()

    def test_reset_clock(self, sim_net):
        sim_net.call(0, "echo", 1)
        sim_net.transport.reset_clock()
        assert sim_net.transport.now == 0.0
        assert sim_net.transport.virtual_rpcs == 0
