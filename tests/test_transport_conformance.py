"""One Transport contract, three implementations.

Every delivery path — in-process loopback, in-process handler pools, and
real sockets — must be observably identical to the layers above: same
round-trip values, same never-raises async contract, same delivery
failures for the health tracker, same retry/breaker/chaos splicing, same
tracing envelope, same QoS throttle rehydration.  This suite is what
makes :class:`~repro.net.client.SocketTransport` a drop-in rather than a
parallel stack.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.common.errors import AgainError, DaemonUnavailableError, NotFoundError
from repro.net import RpcServer, SocketTransport
from repro.rpc.bulk import BulkHandle
from repro.rpc.engine import RpcEngine
from repro.rpc.message import RpcRequest
from repro.rpc.threaded import ThreadedTransport
from repro.rpc.transport import (
    DELIVERY_FAILURES,
    InstrumentedTransport,
    LoopbackTransport,
    RetryingTransport,
    Transport,
)
from repro.faults import FaultTransport
from repro.qos import ClientPort
from repro.rpc.engine import RpcNetwork
from repro.rpc.health import DaemonHealthTracker


def _build_engines(count: int) -> dict[int, RpcEngine]:
    engines = {}
    for address in range(count):
        engine = RpcEngine(address)
        engine.register("echo", lambda *args: list(args))
        engine.register("whoami", lambda a=address: a)

        def missing(path):
            raise NotFoundError(path)

        engine.register("missing", missing)

        def pull_len(bulk=None):
            return len(bulk.pull())

        engine.register("pull_len", pull_len)

        def fill(bulk=None):
            bulk.push(b"\x5a" * len(bulk))
            return len(bulk)

        engine.register("fill", fill)

        def again():
            raise AgainError("throttled", retry_after=0.007)

        engine.register("again", again)
        engines[address] = engine
    return engines


class _Harness:
    """One transport over ``count`` engines, torn down uniformly."""

    def __init__(self, kind: str, count: int):
        self.kind = kind
        self.engines = _build_engines(count)
        self._servers: list[RpcServer] = []
        self._owned = []
        if kind == "loopback":
            self.transport = LoopbackTransport(self.engines)
        elif kind == "threaded":
            self.transport = ThreadedTransport(self.engines, 2)
            self._owned.append(self.transport)
        elif kind == "socket":
            addresses = {}
            for address, engine in self.engines.items():
                server = RpcServer(engine, handlers=2).start()
                self._servers.append(server)
                addresses[address] = server.address_spec
            self.transport = SocketTransport(addresses)
            self._owned.append(self.transport)
        else:  # pragma: no cover
            raise AssertionError(kind)

    def close(self) -> None:
        for owned in self._owned:
            owned.shutdown()
        for server in self._servers:
            server.stop()


@pytest.fixture(params=["loopback", "threaded", "socket"])
def harness(request):
    h = _Harness(request.param, 3)
    yield h
    h.close()


class TestOneDeliveryMethod:
    def test_every_shipped_transport_implements_send_async_only(self):
        """Structural guard: a blocking delivery is ``send_async`` + wait,
        written once in the base class.  A subclass with its own ``send``
        is a second delivery path that has to be kept in agreement."""
        import repro.faults, repro.net, repro.qos, repro.rpc  # noqa: F401

        def walk(cls):
            for sub in cls.__subclasses__():
                yield sub
                yield from walk(sub)

        shipped = {cls for cls in walk(Transport) if cls.__module__.startswith("repro.")}
        assert {
            "LoopbackTransport", "RetryingTransport", "FaultTransport",
            "ThreadedTransport", "SimulatedTransport", "ScheduledTransport",
            "SocketTransport",
        } <= {cls.__name__ for cls in shipped}
        for cls in shipped:
            assert cls.send_async is not Transport.send_async, cls
            assert cls.send is Transport.send, cls


class TestRoundTripParity:
    VALUES = [
        ("none", None),
        ("ints", (0, -1, 2**40, 2**70)),
        ("bytes", b"\x00\xff" * 64),
        ("text", "päth/中"),
        ("spans", [(0, 0, 512), (1, 64, 448)]),
        ("mixed", {"k": [1, (2, 3)], "b": b"raw"}),
    ]

    @pytest.mark.parametrize("label,value", VALUES, ids=[v[0] for v in VALUES])
    def test_echo_matrix(self, harness, label, value):
        response = harness.transport.send(
            RpcRequest(target=1, handler="echo", args=(value,))
        )
        assert response.result() == [value]

    def test_routing_reaches_each_daemon(self, harness):
        for address in range(3):
            response = harness.transport.send(
                RpcRequest(target=address, handler="whoami", args=())
            )
            assert response.result() == address

    def test_remote_errors_are_results_not_delivery_failures(self, harness):
        response = harness.transport.send(
            RpcRequest(target=0, handler="missing", args=("/gone",))
        )
        assert not response.ok
        with pytest.raises(NotFoundError):
            response.result()

    def test_qos_throttle_rehydrates_with_hint(self, harness):
        response = harness.transport.send(
            RpcRequest(target=0, handler="again", args=())
        )
        assert not response.ok
        with pytest.raises(AgainError) as exc_info:
            response.result()
        assert exc_info.value.retry_after == pytest.approx(0.007)

    def test_bulk_pull_and_push(self, harness):
        payload = bytes(range(256)) * 4
        pulled = harness.transport.send(
            RpcRequest(
                target=2,
                handler="pull_len",
                args=(),
                bulk=BulkHandle(payload, readonly=True),
            )
        )
        assert pulled.result() == len(payload)
        sink = bytearray(512)
        harness.transport.send(
            RpcRequest(target=2, handler="fill", args=(), bulk=BulkHandle(sink))
        ).result()
        assert bytes(sink) == b"\x5a" * 512


class TestAsyncContract:
    def test_dead_target_fails_through_future_never_raises(self, harness):
        future = harness.transport.send_async(
            RpcRequest(target=42, handler="echo", args=(1,))
        )
        exc = future.exception(10)
        assert isinstance(exc, DELIVERY_FAILURES)

    def test_fan_out_not_interrupted_by_dead_leg(self, harness):
        futures = [
            harness.transport.send_async(
                RpcRequest(target=target, handler="whoami", args=())
            )
            for target in (0, 42, 1, 2)
        ]
        assert futures[0].result(10).result() == 0
        assert isinstance(futures[1].exception(10), DELIVERY_FAILURES)
        assert futures[2].result(10).result() == 1
        assert futures[3].result(10).result() == 2


class TestTracingEnvelope:
    def test_request_id_and_parent_span_reach_the_daemon(self, harness):
        engine = harness.engines[0]
        seen = []
        original = engine.handle

        def spy(request):
            seen.append((request.request_id, request.parent_span, request.client_id))
            return original(request)

        engine.handle = spy
        try:
            harness.transport.send(
                RpcRequest(
                    target=0,
                    handler="whoami",
                    args=(),
                    request_id="req-77",
                    parent_span="span-13",
                    client_id=9,
                )
            ).result()
        finally:
            engine.handle = original
        assert ("req-77", "span-13", 9) in seen


class TestRetryBreakerSplicing:
    def test_fault_splice_then_retry_recovers(self, harness):
        # The fault layer sits where the chaos controller splices it on
        # in-process clusters: fail the first two attempts, deliver the rest.
        faulty = FaultTransport(harness.transport)
        for _ in range(2):
            faulty.arm(lambda _request: True)
        retrying = RetryingTransport(faulty, max_attempts=3, backoff_base=0.001)
        response = retrying.send(RpcRequest(target=1, handler="whoami", args=()))
        assert response.result() == 1
        assert faulty.fired == 2

    def test_breaker_trips_on_repeated_delivery_failures(self, harness):
        tracker = DaemonHealthTracker(failure_threshold=2, cooldown=60.0)
        retrying = RetryingTransport(
            harness.transport, max_attempts=1, tracker=tracker
        )
        dead = 42
        for _ in range(2):
            exc = retrying.send_async(
                RpcRequest(target=dead, handler="whoami", args=())
            ).exception(10)
            assert isinstance(exc, DELIVERY_FAILURES)
        assert not tracker.healthy(dead)
        # Fail-fast now: the breaker answers without touching the wire.
        exc = retrying.send_async(
            RpcRequest(target=dead, handler="whoami", args=())
        ).exception(10)
        assert isinstance(exc, DaemonUnavailableError)

    def test_healthy_daemon_unaffected_by_dead_neighbour(self, harness):
        tracker = DaemonHealthTracker(failure_threshold=1, cooldown=60.0)
        retrying = RetryingTransport(
            harness.transport, max_attempts=1, tracker=tracker
        )
        retrying.send_async(RpcRequest(target=42, handler="whoami", args=())).exception(10)
        assert not tracker.healthy(42)
        assert retrying.send(
            RpcRequest(target=0, handler="whoami", args=())
        ).result() == 0


class _Spy(Transport):
    """Forwards to the delivery transport and keeps the futures it made."""

    def __init__(self, inner):
        self.inner = inner
        self.made = []

    def send_async(self, request):
        future = self.inner.send_async(request)
        self.made.append(future)
        return future


class TestOneFuturePerCall:
    """A wrapper whose inner future is in flight returns that very future:
    what it does at completion is a settle stage, not a second future."""

    def test_every_wrapper_hands_back_the_delivery_transports_future(self, harness):
        spy = _Spy(harness.transport)
        faults = FaultTransport(spy)
        faults.set_delay(1, 0.001)
        stack = InstrumentedTransport(
            RetryingTransport(faults, max_attempts=3, tracker=DaemonHealthTracker())
        )
        request = RpcRequest(target=1, handler="whoami", args=())
        future = stack.send_async(request)
        assert spy.made == [future]
        assert future.result(10).result() == 1
        assert (faults.delayed_sends, stack.total_rpcs) == (1, 1)

        port = ClientPort(RpcNetwork(stack), client_id=5)
        futures = [port.call_async(i % 3, "echo", i) for i in range(12)]
        assert spy.made[1:] == futures
        assert [f.result(10) for f in futures] == [[i] for i in range(12)]
        assert all(port.window_for(t).inflight == 0 for t in range(3))


class TestConcurrency:
    def test_interleaved_load_across_daemons(self, harness):
        futures = []
        for i in range(60):
            futures.append(
                harness.transport.send_async(
                    RpcRequest(target=i % 3, handler="echo", args=(i,))
                )
            )
        for i, future in enumerate(futures):
            assert future.result(30).result() == [i]

    def test_parallel_senders(self, harness):
        errors = []

        def worker(worker_id):
            try:
                for i in range(20):
                    value = harness.transport.send(
                        RpcRequest(target=worker_id % 3, handler="echo", args=(i,))
                    ).result()
                    assert value == [i]
            except Exception as exc:  # pragma: no cover - failure reporting
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(w,)) for w in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
        assert not errors
