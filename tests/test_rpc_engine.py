"""RPC engine and network: registration, dispatch, instrumentation, faults."""

import itertools
import sys
import threading
import time

import pytest

from repro.common.errors import NotFoundError
from repro.faults import FaultTransport
from repro.rpc import BulkHandle, InstrumentedTransport, RpcNetwork
from repro.rpc.message import RpcRequest


@pytest.fixture
def network():
    net = RpcNetwork()
    engine = net.create_engine(0)
    engine.register("echo", lambda x: x)
    engine.register("add", lambda a, b: a + b)
    return net


class TestEngineRegistry:
    def test_duplicate_handler_rejected(self, network):
        with pytest.raises(ValueError):
            network.lookup(0).register("echo", lambda x: x)

    def test_duplicate_address_rejected(self, network):
        with pytest.raises(ValueError):
            network.create_engine(0)

    def test_missing_handler_is_a_bug(self, network):
        with pytest.raises(LookupError):
            network.call(0, "no_such_handler")

    def test_missing_daemon_is_a_bug(self, network):
        with pytest.raises(LookupError):
            network.call(99, "echo", 1)

    def test_handler_names_sorted(self, network):
        assert network.lookup(0).handler_names == ["add", "echo"]

    def test_remove_engine(self, network):
        network.remove_engine(0)
        assert network.addresses == []

    def test_lookup_without_the_lock_survives_churn(self, network):
        """``handle`` reads the handler table unlocked while another thread
        registers and deregisters: a stable handler is always found."""
        engine = network.lookup(0)
        request = RpcRequest(target=0, handler="echo", args=(1,))
        stop = threading.Event()
        failures: list = []
        calls = [0] * 8

        def caller(slot):
            while not stop.is_set():
                try:
                    assert engine.handle(request).value == 1
                    calls[slot] += 1
                except BaseException as exc:  # noqa: BLE001 - reported below
                    failures.append(exc)
                    return

        def churn():
            for i in itertools.count():
                if stop.is_set():
                    return
                engine.register(f"throwaway{i}", lambda: None)
                engine.deregister(f"throwaway{i}")

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        threads = [threading.Thread(target=caller, args=(i,)) for i in range(8)]
        threads.append(threading.Thread(target=churn))
        try:
            for thread in threads:
                thread.start()
            time.sleep(0.5)
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=10)
            sys.setswitchinterval(previous)
        assert not any(thread.is_alive() for thread in threads)
        assert failures == []
        assert all(calls), calls
        assert engine.handler_names == ["add", "echo"]


class TestCalls:
    def test_roundtrip(self, network):
        assert network.call(0, "add", 2, 3) == 5

    def test_gekko_errors_cross_the_wire(self, network):
        def fail(path):
            raise NotFoundError(path)

        network.lookup(0).register("fail", fail)
        with pytest.raises(NotFoundError):
            network.call(0, "fail", "/x")

    def test_bulk_is_passed_to_handler(self, network):
        def fill(bulk):
            return bulk.push(b"abcd")

        network.lookup(0).register("fill", fill)
        buffer = bytearray(4)
        assert network.call(0, "fill", bulk=BulkHandle(buffer)) == 4
        assert bytes(buffer) == b"abcd"

    def test_engine_counters(self, network):
        network.call(0, "echo", "x")
        network.call(0, "echo", "y")
        engine = network.lookup(0)
        assert engine.calls_served["echo"] == 2
        assert engine.bytes_in > 0
        assert engine.bytes_out > 0


class TestInstrumentedTransport:
    def test_counts_by_target_and_handler(self, network):
        transport = InstrumentedTransport(network.transport)
        network.transport = transport
        network.create_engine(1).register("echo", lambda x: x)
        network.call(0, "echo", "a")
        network.call(1, "echo", "b")
        network.call(1, "echo", "c")
        assert transport.total_rpcs == 3
        assert transport.rpcs_by_target == {0: 1, 1: 2}
        assert transport.rpcs_by_handler == {"echo": 3}
        assert transport.wire_bytes > 0

    def test_bulk_bytes_tracked_separately(self, network):
        transport = InstrumentedTransport(network.transport)
        network.transport = transport
        network.lookup(0).register("pull", lambda bulk: len(bulk.pull()))
        network.call(0, "pull", bulk=BulkHandle(b"x" * 1000, readonly=True))
        assert transport.bulk_bytes == 1000

    def test_reset(self, network):
        transport = InstrumentedTransport(network.transport)
        network.transport = transport
        network.call(0, "echo", 1)
        transport.reset()
        assert transport.total_rpcs == 0
        assert transport.wire_bytes == 0


class TestFaultInjection:
    def test_matching_requests_fail(self, network):
        network.transport = FaultTransport(network.transport)
        network.transport.arm(lambda req: req.handler == "add")
        assert network.call(0, "echo", "ok") == "ok"
        with pytest.raises(ConnectionError):
            network.call(0, "add", 1, 2)
        assert network.transport.fired == 1

    def test_custom_exception_factory(self, network):
        network.transport = FaultTransport(network.transport)
        network.transport.arm(
            lambda req: True, exc_factory=lambda req: TimeoutError(req.handler)
        )
        with pytest.raises(TimeoutError):
            network.call(0, "echo", 1)
