"""Socket RPC server + transport: delivery, bulk channel, failure mapping."""

from __future__ import annotations

import os
import socket
import struct
import sys
import threading
import time
import tracemalloc

import pytest

from repro.common.errors import AgainError, DaemonUnavailableError, NotFoundError
from repro.core.config import FSConfig
from repro.net import LocalSocketCluster, RpcServer, SocketTransport
from repro.net.addr import create_connection, parse_endpoint
from repro.net.codec import (
    FLAG_HAS_BULK,
    HEADER_SIZE,
    KIND_PUSH,
    KIND_REQUEST,
    KIND_RESPONSE,
    encode_request_body,
    pack_frame,
    recv_full,
    unpack_header,
)
from repro.qos import ClientPort
from repro.rpc.bulk import BulkHandle
from repro.rpc.engine import RpcEngine, RpcNetwork
from repro.rpc.future import wait_all
from repro.rpc.message import RpcRequest
from repro.rpc.threaded import ThreadedTransport
from repro.rpc.transport import DELIVERY_FAILURES, RetryingTransport


def _make_engine(address: int = 0) -> RpcEngine:
    engine = RpcEngine(address)
    engine.register("echo", lambda *args: list(args))
    engine.register("add", lambda a, b: a + b)

    def missing(path):
        raise NotFoundError(path)

    engine.register("missing", missing)

    def bug():
        raise ValueError("handler bug")

    engine.register("bug", bug)

    def slow(seconds):
        time.sleep(seconds)
        return "done"

    engine.register("slow", slow)

    def pull_all(bulk=None):
        return bulk.pull()

    engine.register("pull_all", pull_all)

    def push_pattern(size, bulk=None):
        bulk.push(bytes(range(256)) * (size // 256) + bytes(range(size % 256)))
        return size

    engine.register("push_pattern", push_pattern)

    def pull_then_push(bulk=None):  # needs a writable exposure
        bulk.push(b"\xab" * len(bulk))
        return len(bulk)

    engine.register("fill", pull_then_push)

    def where(bulk=None):
        return threading.current_thread().name

    engine.register("where", where)
    engine.register("gkfs_read_chunks", where)  # a DATA_HANDLER_NAMES member
    engine.register("gkfs_ping", lambda: "pong")  # an IDEMPOTENT_HANDLERS member
    engine.register("pull_len", lambda bulk=None: len(bulk.pull()))
    return engine


@pytest.fixture(params=["tcp", "unix"])
def served(request, tmp_path):
    """A running server and a connected transport, over both families."""
    engine = _make_engine()
    address = None if request.param == "tcp" else f"unix:{tmp_path}/d0.sock"
    server = RpcServer(engine, address, handlers=2).start()
    transport = SocketTransport({0: server.address_spec})
    yield server, transport
    transport.shutdown()
    server.stop()


class TestDelivery:
    def test_round_trip(self, served):
        _server, transport = served
        response = transport.send(RpcRequest(target=0, handler="add", args=(2, 3)))
        assert response.ok
        assert response.result() == 5

    def test_args_cross_unmangled(self, served):
        _server, transport = served
        args = ("/gkfs/f", [(0, 0, 512), (1, 64, 448)], {"k": b"\x00\xff"}, None, True)
        response = transport.send(RpcRequest(target=0, handler="echo", args=args))
        assert tuple(response.result()) == args

    def test_gekko_error_rehydrates(self, served):
        _server, transport = served
        response = transport.send(
            RpcRequest(target=0, handler="missing", args=("/gone",))
        )
        assert not response.ok
        with pytest.raises(NotFoundError, match="gone"):
            response.result()

    def test_handler_bug_keeps_its_class(self, served):
        _server, transport = served
        future = transport.send_async(RpcRequest(target=0, handler="bug", args=()))
        with pytest.raises(ValueError, match="handler bug"):
            future.result(5)

    def test_concurrent_requests_interleave(self, served):
        _server, transport = served
        futures = [
            transport.send_async(RpcRequest(target=0, handler="add", args=(i, i)))
            for i in range(50)
        ]
        assert [f.result(10).result() for f in futures] == [2 * i for i in range(50)]

    def test_unencodable_args_fail_through_future(self, served):
        _server, transport = served
        future = transport.send_async(
            RpcRequest(target=0, handler="echo", args=(object(),))
        )
        with pytest.raises(TypeError, match="cannot cross the RPC wire"):
            future.result(5)

    @pytest.mark.parametrize("request_", [
        RpcRequest(target=0, handler="x" * 256),
        RpcRequest(target=0, handler="add", args=(1, 2), client_id=2**63),
        RpcRequest(target=0, handler="add", args=(1, 2), epoch=-(2**63)),
    ], ids=["name>255", "client>i64", "epoch=sentinel"])
    def test_unencodable_envelope_fails_through_future(self, served, request_):
        _server, transport = served
        with pytest.raises(TypeError, match="cannot cross the wire"):
            transport.send_async(request_).result(5)
        assert transport.send(RpcRequest(target=0, handler="add", args=(1, 2))).result() == 3

    def test_unencodable_reply_is_a_fault_and_the_connection_lives(self, served):
        # The reply is framed when the engine prices it; what cannot be
        # framed comes back as the encoder's TypeError, and the next call on
        # the same connection is served.
        server, transport = served
        server.engine.register("opaque", lambda: object())
        future = transport.send_async(RpcRequest(target=0, handler="opaque", args=()))
        with pytest.raises(TypeError, match="cannot cross the RPC wire"):
            future.result(5)
        assert transport.send(RpcRequest(target=0, handler="add", args=(1, 2))).result() == 3

    def test_requests_served_counter(self, served):
        server, transport = served
        before = server.requests_served
        transport.send(RpcRequest(target=0, handler="add", args=(1, 1)))
        assert server.requests_served == before + 1


class TestBulkChannel:
    def test_readonly_exposure_is_pulled_server_side(self, served):
        _server, transport = served
        payload = os.urandom(4096)
        bulk = BulkHandle(payload, readonly=True)
        response = transport.send(
            RpcRequest(target=0, handler="pull_all", args=(), bulk=bulk)
        )
        assert response.result() == payload
        # Accounting mirrors in-process semantics: the daemon's pulls show
        # on the client handle and on the response.
        assert bulk.bytes_pulled == 4096
        assert response.bulk_bytes == 4096

    def test_push_lands_in_the_real_buffer(self, served):
        _server, transport = served
        sink = bytearray(1000)
        bulk = BulkHandle(sink)
        response = transport.send(
            RpcRequest(target=0, handler="push_pattern", args=(1000,), bulk=bulk)
        )
        assert response.result() == 1000
        expected = bytes(range(256)) * 3 + bytes(range(1000 % 256))
        assert bytes(sink) == expected
        assert bulk.bytes_pushed == 1000
        assert response.bulk_bytes == 1000

    def test_pushes_precede_their_response_on_the_stream(self, served):
        # One ordered stream replaced the response/push barrier: speak the
        # wire by hand and look at the order the frames come back in.
        server, _transport = served
        size = 1 << 20
        request = RpcRequest(target=0, handler="fill", args=())
        sock = create_connection(parse_endpoint(server.address_spec), 5.0)
        try:
            sock.sendall(pack_frame(
                KIND_REQUEST, 7, encode_request_body(request),
                flags=FLAG_HAS_BULK, aux1=size,
            ))
            sock.settimeout(10.0)
            head = memoryview(bytearray(HEADER_SIZE))
            pushed = 0
            while True:
                recv_full(sock, head)
                kind, _flags, seq, body_len, aux1, aux2 = unpack_header(head)
                assert seq == 7
                body = bytearray(body_len)
                recv_full(sock, memoryview(body))
                if kind == KIND_RESPONSE:
                    break
                assert kind == KIND_PUSH
                assert aux1 == pushed  # offsets in write order
                assert bytes(body) == b"\xab" * body_len
                pushed += body_len
            # Every pushed byte was on the stream before the response that
            # announces it: nothing is left to wait for once it arrives.
            assert pushed == size and aux2 == size
        finally:
            sock.close()

    def test_large_push_lands_whole_before_the_future_resolves(self, served):
        _server, transport = served
        size = 1 << 20
        sink = bytearray(size)
        bulk = BulkHandle(sink)
        response = transport.send(
            RpcRequest(target=0, handler="fill", args=(), bulk=bulk)
        )
        assert response.result() == size
        assert bytes(sink) == b"\xab" * size


class TestZeroCopy:
    """A chunk crosses user space without an intermediate payload-sized
    object: tracemalloc sees both ends (server and client share the
    process), so a single ``bytes(payload)`` anywhere doubles the peak."""

    SIZE = 4 << 20

    def test_push_lands_with_recv_into(self):
        payload = os.urandom(self.SIZE)
        engine = _make_engine()
        engine.register("push_prepared", lambda bulk=None: bulk.push(payload))
        with RpcServer(engine, handlers=2).start() as server:
            with SocketTransport({0: server.address_spec}) as transport:
                transport.send(RpcRequest(target=0, handler="add", args=(1, 1)))
                tracemalloc.start()
                try:
                    sink = bytearray(self.SIZE)  # the one allowed allocation
                    response = transport.send(RpcRequest(
                        target=0, handler="push_prepared", args=(), bulk=BulkHandle(sink),
                    ))
                    _now, peak = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
        assert response.result() == self.SIZE and sink == payload
        assert peak < 1.25 * self.SIZE

    def test_exposure_is_received_into_one_buffer_and_pulled_as_views(self):
        payload = os.urandom(self.SIZE)
        engine = _make_engine()
        with RpcServer(engine, handlers=2).start() as server:
            with SocketTransport({0: server.address_spec}) as transport:
                transport.send(RpcRequest(target=0, handler="add", args=(1, 1)))
                bulk = BulkHandle(payload, readonly=True)
                tracemalloc.start()
                try:
                    response = transport.send(
                        RpcRequest(target=0, handler="pull_len", args=(), bulk=bulk)
                    )
                    _now, peak = tracemalloc.get_traced_memory()
                finally:
                    tracemalloc.stop()
        assert response.result() == self.SIZE and bulk.bytes_pulled == self.SIZE
        assert peak < 1.25 * self.SIZE  # the daemon's receive buffer, nothing else


class TestWhereThingsRun:
    """Where a handler runs, pinned structurally (thread identity, no timing).
    The names of the first two tests come from the size rule this server no
    longer has: every request, metadata, data or with an exposure, is served
    by the thread that read it."""

    @staticmethod
    def _where(transport, handler, bulk=None):
        request = RpcRequest(target=0, handler=handler, args=(), bulk=bulk)
        return transport.send(request).result()

    def test_metadata_on_the_connection_thread_data_and_bulk_on_the_pool(self, served):
        server, transport = served
        for handler, bulk in (("where", None), ("gkfs_read_chunks", None),
                              ("where", BulkHandle(bytearray(8)))):
            assert self._where(transport, handler, bulk) == "gkfs-net-d0-c0"
        assert server.relief_started == 0  # one reader did it all

    def test_caller_dispatch_transport_is_lent_small_requests(self):
        engine = _make_engine()
        pool = ThreadedTransport({0: engine}, 2)
        try:
            with RpcServer(engine, dispatch=pool).start() as server:
                with SocketTransport({0: server.address_spec}) as transport:
                    # One rule whoever owns the pool: the server offers its
                    # thread for every request and a plain FIFO pool owes
                    # nobody an order, so it always accepts — small or not.
                    for handler, bulk in (("where", None), ("gkfs_read_chunks", None),
                                          ("where", BulkHandle(bytearray(8)))):
                        assert self._where(transport, handler, bulk).startswith("gkfs-net-d0-c")
        finally:
            pool.shutdown()

    def test_sync_call_resolves_on_the_calling_thread(self, served):
        _server, transport = served
        resolved_on = []
        future = transport.send_async(RpcRequest(target=0, handler="add", args=(2, 2)))
        future.add_done_callback(lambda _f: resolved_on.append(threading.get_ident()))
        assert future.result(5).result() == 4
        assert resolved_on == [threading.get_ident()]
        # ... because nobody else could have: the client owns no thread.
        assert not [t.name for t in threading.enumerate() if t.name.startswith("gkfs-net-c")]


class TestCallerDrivenProgress:
    """The hazards of having no reader thread, one test each."""

    def test_flood_of_unawaited_requests_then_one_gather(self):
        # (a) nobody reads while 50 000 requests go out: the in-flight cap
        # and the would-block path make the submitter receive, or this
        # deadlocks against a daemon blocked writing replies.
        engine = _make_engine()
        with RpcServer(engine, handlers=2).start() as server:
            with SocketTransport({0: server.address_spec}) as transport:
                futures = [
                    transport.send_async(RpcRequest(target=0, handler="add", args=(i, 1)))
                    for i in range(50_000)
                ]
                responses = wait_all(futures, timeout=120)
        assert [r.result() for r in responses] == [i + 1 for i in range(50_000)]

    def test_fan_out_wider_than_the_qos_window(self):
        # (a) once more, one layer up: a full AIMD window frees a slot only
        # when a call completes, and here nothing completes unless the
        # issuer itself receives.
        engine = _make_engine()
        with RpcServer(engine, handlers=2).start() as server:
            network = RpcNetwork()
            network.transport = SocketTransport({0: server.address_spec})
            port = ClientPort(network, client_id=1, window_initial=4, window_max=4)
            try:
                futures = [port.call_async(0, "add", i, 1) for i in range(200)]
                assert wait_all(futures, timeout=60) == [i + 1 for i in range(200)]
                assert port.window_for(0).inflight == 0
            finally:
                network.transport.shutdown()

    def test_large_exposures_against_unread_pushes_do_not_deadlock(self):
        # (a) again, with bytes: writes go out while read replies pile up.
        engine = _make_engine()
        size = 1 << 20
        with RpcServer(engine, handlers=2).start() as server:
            with SocketTransport({0: server.address_spec}) as transport:
                sinks = [bytearray(size) for _ in range(6)]
                futures = [
                    transport.send_async(RpcRequest(
                        target=0, handler="fill", args=(), bulk=BulkHandle(sink)))
                    for sink in sinks
                ]
                payload = os.urandom(size)
                futures += [
                    transport.send_async(RpcRequest(
                        target=0, handler="pull_len", args=(),
                        bulk=BulkHandle(payload, readonly=True)))
                    for _ in range(6)
                ]
                values = [r.result() for r in wait_all(futures, timeout=60)]
        assert values == [size] * 12
        assert all(bytes(sink) == b"\xab" * size for sink in sinks)

    def test_threads_sharing_a_channel_each_get_their_own_answers(self):
        # (b) more threads than cores on one connection, slow and fast
        # handlers interleaved, a short switch interval: whoever receives
        # must wake the others and hand the role over when it leaves.
        engine = _make_engine()
        errors: list = []

        def fast(transport, base):
            for i in range(400):
                value = transport.send(
                    RpcRequest(target=0, handler="add", args=(base, i))).result()
                if value != base + i:
                    errors.append((base, i, value))

        def slow(transport, tag):
            for i in range(40):
                value = transport.send(
                    RpcRequest(target=0, handler="echo", args=(tag, i))).result()
                transport.send(RpcRequest(target=0, handler="slow", args=(0.002,)))
                if value != [tag, i]:
                    errors.append((tag, i, value))

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)
        try:
            with RpcServer(engine, handlers=2).start() as server:
                with SocketTransport({0: server.address_spec}) as transport:
                    threads = [
                        threading.Thread(target=fast, args=(transport, 1000 * k))
                        for k in range(1, 4)
                    ] + [
                        threading.Thread(target=slow, args=(transport, f"s{k}"))
                        for k in range(2)
                    ]
                    for thread in threads:
                        thread.start()
                    for thread in threads:
                        thread.join(60)
                    assert not [t for t in threads if t.is_alive()]
        finally:
            sys.setswitchinterval(previous)
        assert errors == []

    def test_flooding_sender_beside_sync_callers_on_one_channel(self):
        # (a) and (b) at once: a sender stuck on a full socket was not
        # receiving because a sync caller was — whose future then resolves;
        # it leaves and queues behind the sender's write lock.  The sender
        # must notice the role fell free, or nobody reads and nothing drains
        # until the request timeout kills a healthy channel.
        engine = _make_engine()
        blob = b"x" * 150_000
        stop = threading.Event()
        errors: list = []

        def sync(transport, base):
            i = 0
            while not stop.is_set():
                try:
                    value = transport.send(
                        RpcRequest(target=0, handler="add", args=(base, i))).result()
                except Exception as exc:
                    errors.append(exc)
                    return
                if value != base + i:
                    errors.append((base, i, value))
                i += 1

        with RpcServer(engine, handlers=2).start() as server:
            with SocketTransport({0: server.address_spec}, request_timeout=10.0) as transport:
                threads = [threading.Thread(target=sync, args=(transport, 1000 * k))
                           for k in range(1, 3)]
                for thread in threads:
                    thread.start()
                started = time.monotonic()
                futures = [
                    transport.send_async(RpcRequest(target=0, handler="echo", args=(blob,)))
                    for _ in range(1500)
                ]
                stop.set()
                for thread in threads:
                    thread.join(30)
                assert not [t for t in threads if t.is_alive()]
                responses = wait_all(futures, timeout=60)
                elapsed = time.monotonic() - started
        assert errors == []
        assert all(r.result() == [blob] for r in responses)
        assert elapsed < 10.0  # a stall costs one whole request_timeout

    def _parked_waiter(self, future):
        """A thread blocked in ``future.exception()`` with no timeout."""
        outcome: list = []
        thread = threading.Thread(target=lambda: outcome.append(future.exception()))
        thread.start()
        time.sleep(0.2)  # let it reach recv()
        assert thread.is_alive() and not outcome
        return thread, outcome

    def test_watchdog_ends_a_wait_parked_in_recv(self):
        # (c) the waiter has no deadline of its own: only the poll tick lets
        # it notice that the watchdog failed its call.
        engine = _make_engine()
        release = threading.Event()
        engine.register("gkfs_write_chunks", lambda: release.wait(3.0))  # on the pool
        server = RpcServer(engine, handlers=2).start()
        transport = SocketTransport({0: server.address_spec}, call_timeout=0.3)
        try:
            future = transport.send_async(
                RpcRequest(target=0, handler="gkfs_write_chunks", args=()))
            channel = transport._channels[0]
            thread, outcome = self._parked_waiter(future)
            thread.join(2.0)
            assert not thread.is_alive()
            assert isinstance(outcome[0], TimeoutError)
            assert transport.stalled_calls == 1
            # Only the stalled call failed: same channel, next call answered.
            assert transport.send(RpcRequest(target=0, handler="add", args=(1, 2))).result() == 3
            assert transport._channels[0] is channel and not channel.dead
        finally:
            release.set()
            transport.shutdown()
            server.stop(drain=False)

    # With the watchdog on the parked waiter polls before it receives: the
    # socket may be closed under either.
    @pytest.mark.parametrize("call_timeout", [None, 5.0])
    def test_transport_shutdown_ends_a_wait_parked_in_recv(self, call_timeout):
        engine = _make_engine()
        release = threading.Event()
        engine.register("gkfs_write_chunks", lambda: release.wait(3.0))  # on the pool
        server = RpcServer(engine, handlers=2).start()
        transport = SocketTransport({0: server.address_spec}, call_timeout=call_timeout)
        try:
            future = transport.send_async(
                RpcRequest(target=0, handler="gkfs_write_chunks", args=()))
            thread, outcome = self._parked_waiter(future)
            transport.shutdown()
            thread.join(2.0)
            assert not thread.is_alive()
            assert isinstance(outcome[0], ConnectionError)
        finally:
            release.set()
            server.stop(drain=False)

    @pytest.mark.parametrize("call_timeout", [None, 5.0])
    def test_server_crash_ends_a_wait_parked_in_recv(self, call_timeout):
        engine = _make_engine()
        release = threading.Event()
        engine.register("gkfs_write_chunks", lambda: release.wait(3.0))  # on the pool
        server = RpcServer(engine, handlers=2).start()
        transport = SocketTransport({0: server.address_spec}, call_timeout=call_timeout)
        try:
            future = transport.send_async(
                RpcRequest(target=0, handler="gkfs_write_chunks", args=()))
            thread, outcome = self._parked_waiter(future)
            stopper = threading.Thread(target=server.stop, kwargs={"drain": False})
            stopper.start()
            thread.join(2.0)
            assert not thread.is_alive()
            assert isinstance(outcome[0], ConnectionError)
            release.set()
            stopper.join(10)
            assert not stopper.is_alive()
        finally:
            transport.shutdown()

    def test_caller_timeout_is_honoured_while_receiving(self):
        engine = _make_engine()
        with RpcServer(engine, handlers=2).start() as server:
            with SocketTransport({0: server.address_spec}) as transport:
                future = transport.send_async(
                    RpcRequest(target=0, handler="slow", args=(0.5,)))
                started = time.monotonic()
                with pytest.raises(TimeoutError):
                    future.result(0.05)
                assert time.monotonic() - started < 0.4
                assert future.result(5).result() == "done"  # still deliverable


class TestBackoffDoesNotStallTheConnection:
    """A retry layer's back-off runs in a done-callback — here, in the
    thread that is receiving for the whole connection.  It must not sleep
    there: the reply behind it belongs to somebody else."""

    @staticmethod
    def _serve(register):
        engine = _make_engine()
        calls = []
        register(engine, calls)
        engine.register("late_add", lambda a, b: (time.sleep(0.005), a + b)[1])
        server = RpcServer(engine, handlers=2).start()
        network = RpcNetwork()
        network.transport = SocketTransport({0: server.address_spec})
        return server, network, calls

    def test_throttle_retry_after(self):
        def register(engine, calls):
            def throttle_once():
                calls.append(time.monotonic())
                if len(calls) == 1:
                    raise AgainError("busy", retry_after=0.05)
                return "admitted"

            engine.register("throttle_once", throttle_once)

        server, network, calls = self._serve(register)
        port = ClientPort(network, client_id=1)
        try:
            throttled = port.call_async(0, "throttle_once")
            other = port.call_async(0, "late_add", 20, 22)
            assert other.result(5) == 42
            landed = time.monotonic()
            assert throttled.result(5) == "admitted"
            # In order: the other reply landed inside the pause the throttle
            # began, and the hint was still honoured in full.
            assert landed < calls[0] + 0.05 <= calls[1]
            assert port.qos_stats.throttles == 1
        finally:
            network.transport.shutdown()
            server.stop()

    def test_retry_backoff(self):
        def register(engine, calls):
            def flaky():
                calls.append(time.monotonic())
                if len(calls) == 1:
                    raise TimeoutError("fabric hiccup")  # retryable, as a fault
                return "second try"

            engine.register("flaky", flaky)

        server, network, calls = self._serve(register)
        retrying = RetryingTransport(
            network.transport, max_attempts=3, backoff_base=0.05, backoff_max=0.05, jitter=0
        )
        try:
            flaky = retrying.send_async(RpcRequest(target=0, handler="flaky", args=()))
            other = retrying.send_async(
                RpcRequest(target=0, handler="late_add", args=(20, 22)))
            assert other.result(5).result() == 42
            landed = time.monotonic()
            assert flaky.result(5).result() == "second try"
            assert landed < calls[0] + 0.05 <= calls[1]  # inside the pause, kept in full
            assert retrying.retries == 1
        finally:
            network.transport.shutdown()
            server.stop()


class TestIdempotentResubmission:
    """An idempotent call in flight when its connection dies is resubmitted
    once on the same future; a mutation never is."""

    @staticmethod
    def _restartable(tmp_path):
        address = f"unix:{tmp_path}/d0.sock"
        server = RpcServer(_make_engine(), address, handlers=2).start()
        transport = SocketTransport({0: address})
        assert transport.send(RpcRequest(target=0, handler="gkfs_ping", args=())).ok
        server.stop(drain=False)  # the open channel is now dead, unnoticed
        return address, transport

    def test_read_is_resubmitted_once_over_a_fresh_channel(self, tmp_path):
        address, transport = self._restartable(tmp_path)
        with RpcServer(_make_engine(), address, handlers=2).start():
            response = transport.send(RpcRequest(target=0, handler="gkfs_ping", args=()))
            assert response.result() == "pong"
            assert transport.reconnects == 1
            # The healthy path resubmits nothing and builds no second future.
            request = RpcRequest(target=0, handler="gkfs_ping", args=())
            assert transport.send_async(request).result(5).ok
            assert transport.reconnects == 1
        transport.shutdown()

    def test_second_loss_surfaces(self, tmp_path):
        _address, transport = self._restartable(tmp_path)  # nobody listens now
        exc = transport.send_async(
            RpcRequest(target=0, handler="gkfs_ping", args=())).exception(5)
        assert isinstance(exc, ConnectionError)
        assert transport.reconnects == 1
        transport.shutdown()

    def test_mutation_is_never_resubmitted(self, tmp_path):
        address, transport = self._restartable(tmp_path)
        with RpcServer(_make_engine(), address, handlers=2).start():
            exc = transport.send_async(
                RpcRequest(target=0, handler="add", args=(1, 2))).exception(5)
            assert isinstance(exc, ConnectionError)
            assert transport.reconnects == 0
        transport.shutdown()


class TestWireVersion:
    def test_v1_peer_is_turned_away(self, served):
        # A PR-6 client opens with a version-1 HELLO; the server must drop
        # it, not guess at the layout.
        server, _transport = served
        hello = struct.pack("!4sBBHIIQQ", b"GKFS", 1, 1, 0, 0, 0, 0, 0).ljust(HEADER_SIZE, b"\0")
        sock = create_connection(parse_endpoint(server.address_spec), 5.0)
        try:
            sock.sendall(hello)
            sock.settimeout(5.0)
            assert sock.recv(1) == b""  # closed on us
        finally:
            sock.close()


class TestFailureMapping:
    def test_unknown_target_is_lookup_error(self, served):
        _server, transport = served
        future = transport.send_async(RpcRequest(target=99, handler="add", args=(1, 2)))
        exc = future.exception(5)
        assert isinstance(exc, LookupError)
        assert "no daemon at address 99" in str(exc)
        assert isinstance(exc, DELIVERY_FAILURES)

    def test_connection_refused_is_connection_error(self):
        transport = SocketTransport({0: "127.0.0.1:1"})  # reserved, nothing listens
        future = transport.send_async(RpcRequest(target=0, handler="add", args=(1, 2)))
        exc = future.exception(5)
        assert isinstance(exc, ConnectionError)
        transport.shutdown()

    def test_missing_unix_socket_is_connection_error(self, tmp_path):
        transport = SocketTransport({0: f"unix:{tmp_path}/never-bound.sock"})
        exc = transport.send_async(
            RpcRequest(target=0, handler="add", args=(1, 2))
        ).exception(5)
        assert isinstance(exc, ConnectionError)
        transport.shutdown()

    def test_async_never_raises_at_issue_time(self):
        transport = SocketTransport({})
        future = transport.send_async(RpcRequest(target=0, handler="add", args=(1,)))
        assert isinstance(future.exception(5), LookupError)
        transport.shutdown()

    def test_wrong_target_frame_is_lookup_error(self, served):
        # A request routed to the wrong daemon process (stale address
        # book) must come back as a delivery failure, not hang.
        server, _transport = served
        transport = SocketTransport({5: server.address_spec})
        exc = transport.send_async(
            RpcRequest(target=5, handler="add", args=(1, 2))
        ).exception(5)
        assert isinstance(exc, LookupError)
        transport.shutdown()


class TestShutdown:
    def test_crash_mid_rpc_fails_fast_not_hangs(self):
        engine = _make_engine()
        server = RpcServer(engine, handlers=2).start()
        transport = SocketTransport({0: server.address_spec})
        future = transport.send_async(
            RpcRequest(target=0, handler="slow", args=(2.0,))
        )
        time.sleep(0.2)  # let the request reach the handler
        server.stop(drain=False)  # crash: sockets die abruptly
        exc = future.exception(10)
        assert isinstance(exc, ConnectionError)
        transport.shutdown()

    def test_graceful_stop_drains_in_flight(self):
        engine = _make_engine()
        server = RpcServer(engine, handlers=2).start()
        transport = SocketTransport({0: server.address_spec})
        future = transport.send_async(
            RpcRequest(target=0, handler="slow", args=(0.5,))
        )
        time.sleep(0.1)
        server.stop(drain=True)  # SIGTERM path: in-flight completes
        assert future.result(10).result() == "done"
        transport.shutdown()

    def test_new_requests_fail_after_stop(self):
        engine = _make_engine()
        server = RpcServer(engine, handlers=2).start()
        addr = server.address_spec
        server.stop()
        transport = SocketTransport({0: addr})
        exc = transport.send_async(
            RpcRequest(target=0, handler="add", args=(1, 2))
        ).exception(5)
        assert isinstance(exc, DELIVERY_FAILURES)
        transport.shutdown()

    def test_transport_shutdown_fails_pending(self):
        engine = _make_engine()
        server = RpcServer(engine, handlers=2).start()
        transport = SocketTransport({0: server.address_spec})
        future = transport.send_async(
            RpcRequest(target=0, handler="slow", args=(2.0,))
        )
        time.sleep(0.1)
        transport.shutdown()
        assert isinstance(future.exception(5), ConnectionError)
        server.stop(drain=False)


class TestDegradedClient:
    def test_crash_surfaces_daemon_unavailable_not_hang(self):
        """The crash-mid-RPC contract at the file-system level: a daemon
        dying under a degraded-mode client maps to DaemonUnavailableError."""
        config = FSConfig(chunk_size=64, degraded_mode=True)
        with LocalSocketCluster(2, config) as cluster:
            client = cluster.client(0)
            fd = client.open("/gkfs/f", os.O_CREAT | os.O_RDWR)
            client.pwrite(fd, b"x" * 256, 0)
            cluster.crash_daemon(1)
            deadline = time.monotonic() + 30
            with pytest.raises(DaemonUnavailableError):
                while time.monotonic() < deadline:
                    client.pwrite(fd, b"y" * 256, 0)
                    client.pread(fd, 256, 0)

    def test_slow_request_in_flight_during_crash(self):
        config = FSConfig(chunk_size=64, degraded_mode=True)
        with LocalSocketCluster(1, config) as cluster:
            served = cluster.served[0]
            stall = threading.Event()
            served.daemon.engine.register(
                "stall", lambda: (stall.wait(2.0), "late")[1]
            )
            network = cluster.network
            future = network.call_async(0, "stall")
            time.sleep(0.1)
            cluster.crash_daemon(0)
            stall.set()
            with pytest.raises(ConnectionError):
                future.result(10)
