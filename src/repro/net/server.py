"""Thread-per-connection RPC server: one daemon's engine behind a real socket.

One :class:`RpcServer` is the network face of one GekkoFS daemon.  An
accept thread gives every client connection its own blocking thread, which
reads whole frames (a write's exposure ``recv_into`` one buffer, nothing
reassembled) and offers each request its own thread (``lend=True``),
whatever the request moves: without a pool it serves the request there; a
QoS lane (:class:`~repro.qos.pool.ScheduledTransport`) takes the offer when
its backlog is empty and a slot is free, and queues it for a worker
otherwise.  A ``stat`` or a 64 KiB write costs no hand-off.

**Relief** keeps a busy connection responsive.  Its read role (a lock, held
like the client's ``_Channel.role``) is free while its reader serves; once a
tick (``_RELIEF_TICK``) the accept thread hands it to a new reader if the
reader has served one request the whole tick and a frame waits.  The old
reader, back, finds the role taken and leaves.  So a stalled handler of any
size fails alone.  At most ``handlers`` relief readers run per server.

Responses and pushes are written by the thread that produced them, one
whole frame per hold of the connection's write lock.

Shutdown is graceful by default: stop accepting, wait for in-flight
requests to drain (their responses are delivered; the last one sets an
event only while a stop waits), then close.  An abortive stop (``drain=False``) models a crash: connections die
mid-request and clients see delivery failures, never hangs.
"""

from __future__ import annotations

import os
import select
import socket
import threading
import time
from contextlib import suppress
from functools import partial
from typing import Optional, TYPE_CHECKING

from repro.net.addr import (
    Endpoint,
    bound_endpoint,
    create_connection,
    create_listener,
    format_endpoint,
    parse_endpoint,
)
from repro.net.bulk import ServerBulkHandle
from repro.net.codec import (
    FLAG_BULK_READONLY,
    FLAG_HAS_BULK,
    FrameError,
    FramedRequest,
    HEADER_SIZE,
    KIND_REQUEST,
    KIND_RESPONSE,
    STATUS_FAULT,
    decode_request_body,
    encode_response_body,
    pack_head,
    pack_push,
    recv_full,
    response_status,
    send_frame,
    unpack_header,
    wait_io,
)
from repro.rpc.message import RpcResponse
from repro.rpc.threaded import settle
from repro.rpc.transport import Transport

if TYPE_CHECKING:  # pragma: no cover
    from repro.rpc.engine import RpcEngine

__all__ = ["RpcServer"]

#: How long a reader may serve one request, with a frame waiting behind it,
#: before a relief reader takes the connection's read role over; also the
#: accept thread's poll timeout on the listener.  Far below any call timeout,
#: far above a request's service time; every tick wakes the accept thread of
#: each server, which cost a 5 ms tick a few per cent of ``mdtest_full``.
_RELIEF_TICK = 0.05


class _Connection:
    """One accepted client socket: its read role, its write lock, and the
    requests its readers handed on."""

    def __init__(self, sock: socket.socket, name: str):
        self.sock = sock
        self.name = name
        self.wlock = threading.Lock()
        #: Held by the one thread reading frames; its first reader's from birth.
        self.role = threading.Lock()
        self.role.acquire()
        #: Requests read off this connection; the role's holder alone counts.
        self.arrived = 0
        #: ``arrived`` at the last relief tick.
        self.seen = 0

    def send(self, head: bytes, body) -> bool:
        """Write one frame, header then body; False if the client is gone."""
        try:
            with self.wlock:
                send_frame(self.sock, [head, body], HEADER_SIZE + len(body))
            return True
        except OSError:
            return False

    def push(self, seq: int, offset: int, data) -> None:
        """Write one push segment; raises ConnectionError if impossible."""
        if not self.send(pack_push(seq, offset, len(data)), data):
            raise ConnectionError("bulk push failed: client connection lost")

    def close(self) -> None:
        # shutdown() is what wakes a thread blocked in recv()/sendmsg() on
        # this socket; close() alone leaves it sleeping.
        with suppress(OSError):
            self.sock.shutdown(socket.SHUT_RDWR)
        self.sock.close()


class RpcServer:
    """Serve one engine's RPCs over TCP or Unix-domain sockets.

    :param engine: the daemon's :class:`~repro.rpc.engine.RpcEngine`.
    :param address: endpoint spec (see :mod:`repro.net.addr`); ``None``
        binds TCP on ``127.0.0.1`` with an OS-assigned port.
    :param dispatch: pool transport every request is offered to
        (a :class:`~repro.qos.pool.ScheduledTransport`: the QoS plane; the
        caller owns its lifecycle).  Without one the reading thread serves
        every request itself (module docstring).
    :param handlers: how many relief readers may run at once.
    """

    def __init__(
        self,
        engine: "RpcEngine",
        address=None,
        *,
        dispatch: Optional[Transport] = None,
        handlers: int = 4,
    ):
        if handlers <= 0:
            raise ValueError(f"handlers must be > 0, got {handlers}")
        self.engine = engine
        self._endpoint: Endpoint = (
            ("tcp", ("127.0.0.1", 0)) if address is None else parse_endpoint(address)
        )
        self._dispatch = dispatch
        self._submit = self._serve_here if dispatch is None else dispatch.submit
        self._relief_bound = handlers
        self._listener: Optional[socket.socket] = None
        self._acceptor: Optional[threading.Thread] = None
        self._conns: set[_Connection] = set()
        self._threads: list[threading.Thread] = []  # readers started, for stop()
        self._lock = threading.Lock()
        #: Arrivals of ended connections less the requests answered (lock).
        self._balance = 0
        #: Set by the request that leaves nothing in flight while stop() drains.
        self._idle: Optional[threading.Event] = None
        self._accepting = False
        self._started = False
        self._stopped = False
        #: Delivery counters (scraped by tests/telemetry).
        self.requests_served = 0
        self.connections_accepted = 0
        #: Relief readers running now (lock) and started in all.
        self.relief_readers = 0
        self.relief_started = 0
        #: Outcomes served here whose reply sink raised (``settle``).
        self.settle_errors = 0

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "RpcServer":
        if self._started:
            raise RuntimeError("server already started")
        self._listener = create_listener(self._endpoint)
        self._endpoint = bound_endpoint(self._listener)
        # stop() wakes the accept thread with a connection to ourselves; the
        # timeout bounds accept() should that connection fail after the poll.
        self._listener.settimeout(0.5)
        self._accepting = True
        self._started = True
        self._acceptor = threading.Thread(
            target=self._accept_loop, daemon=True, name=f"gkfs-net-d{self.engine.address}"
        )
        self._acceptor.start()
        return self

    @property
    def address(self) -> Endpoint:
        """The endpoint actually bound (port 0 resolved after start)."""
        return self._endpoint

    @property
    def address_spec(self) -> str:
        return format_endpoint(self._endpoint)

    @property
    def inflight(self) -> int:
        with self._lock:
            return self._in_flight()

    def _in_flight(self) -> int:  # the caller holds the lock
        return self._balance + sum(conn.arrived for conn in self._conns)

    def stop(self, drain: bool = True, timeout: float = 10.0) -> None:
        """Stop serving.

        ``drain=True`` (graceful / SIGTERM): stop accepting, wait up to
        ``timeout`` for in-flight requests to complete and their
        responses to be written, then close every connection.

        ``drain=False`` (crash-stop): close everything immediately —
        clients see the connection die mid-request.
        """
        if not self._started or self._stopped:
            self._stopped = True
            return
        self._stopped = True
        self._accepting = False
        with suppress(OSError):
            create_connection(self._endpoint, 1.0).close()
        self._acceptor.join(timeout)
        if drain:
            with self._lock:
                if self._in_flight():
                    self._idle = threading.Event()
                idle = self._idle
            if idle is not None:
                idle.wait(timeout)
        with self._lock:
            conns = list(self._conns)
        for conn in conns:
            conn.close()
        deadline = time.monotonic() + timeout
        with self._lock:
            threads = list(self._threads)
        for thread in threads:
            thread.join(max(0.0, deadline - time.monotonic()))

    def __enter__(self) -> "RpcServer":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- accept, relief + per-connection loops --------------------------------

    def _accept_loop(self) -> None:
        listener = self._listener
        ready = select.poll()  # a poll timeout is the relief tick, no exception
        ready.register(listener, select.POLLIN)
        try:
            while self._accepting:
                if not ready.poll(_RELIEF_TICK * 1000):
                    self._relieve()
                    continue
                try:
                    sock, _peer = listener.accept()
                except socket.timeout:
                    continue
                except OSError:
                    break
                if sock.family != socket.AF_UNIX:
                    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                conn = _Connection(
                    sock, f"gkfs-net-d{self.engine.address}-c{self.connections_accepted}")
                with self._lock:
                    if not self._accepting:
                        conn.close()
                        break
                    self._conns.add(conn)
                self.connections_accepted += 1
                self._start_reader(conn, conn.name)
        finally:
            listener.close()
            if self._endpoint[0] == "unix":
                with suppress(OSError):
                    os.unlink(self._endpoint[1])

    def _start_reader(self, conn: _Connection, name: str) -> None:
        """Start a thread reading ``conn``; it holds the role already."""
        thread = threading.Thread(target=self._read, args=(conn,), daemon=True, name=name)
        with self._lock:
            self._threads = [t for t in self._threads if t.is_alive()]
            self._threads.append(thread)
        thread.start()

    def _relieve(self) -> None:
        """One tick: hand the read role of each connection whose reader has
        served one request since the last tick, with a frame waiting behind
        it, to a relief reader — while fewer than the bound run."""
        with self._lock:
            conns = list(self._conns)
        for conn in conns:
            serving, arrived = not conn.role.locked(), conn.arrived
            stuck, conn.seen = serving and arrived == conn.seen, arrived
            try:  # the role last: once taken, the relief reader must start
                if (not stuck or self.relief_readers >= self._relief_bound
                        or not wait_io(conn.sock, 0) or not conn.role.acquire(False)):
                    continue
            except OSError:  # closed under us
                continue
            with self._lock:
                self.relief_readers += 1
                self.relief_started += 1
                started = self.relief_started
            self._start_reader(conn, f"{conn.name}-r{started}")

    def _read(self, conn: _Connection) -> None:
        """Read request frames off one connection while holding its read
        role; leave when a relief reader took it, end the connection at EOF."""
        sock = conn.sock
        head = memoryview(bytearray(HEADER_SIZE))
        relieved = False
        try:
            while True:
                recv_full(sock, head)
                kind, flags, seq, body_len, aux1, _aux2 = unpack_header(head)
                if kind != KIND_REQUEST:
                    raise FrameError(f"unexpected frame kind {kind} from a client")
                body = memoryview(bytearray(body_len))
                recv_full(sock, body)
                bulk = None
                if flags & FLAG_HAS_BULK:
                    readonly = bool(flags & FLAG_BULK_READONLY)
                    exposed = None
                    if readonly:
                        exposed = bytearray(aux1)
                        recv_full(sock, memoryview(exposed))
                    bulk = ServerBulkHandle(
                        aux1, exposed, readonly,
                        lambda offset, data, s=seq: conn.push(s, offset, data),
                    )
                if not self._dispatch_request(conn, seq, body, bulk):
                    relieved = True
                    return
        except OSError:  # EOF, reset, torn or foreign frame (FrameError)
            pass
        finally:
            if relieved:
                with self._lock:
                    self.relief_readers -= 1
            else:  # the role stays held: a reader back from serving leaves
                conn.close()
                with self._lock:
                    self._conns.discard(conn)
                    self._balance += conn.arrived

    # -- execution -----------------------------------------------------------

    def _dispatch_request(self, conn: _Connection, seq: int, body, bulk) -> bool:
        """Decode one request and serve it with the read role given up; False
        if a relief reader holds the role afterwards."""
        try:
            request = decode_request_body(body, bulk)
            if request.target != self.engine.address:
                raise LookupError(f"daemon {self.engine.address} received a request "
                                  f"for address {request.target}")
        except (FrameError, LookupError) as exc:  # undecodable, or a stale address book
            body = encode_response_body(STATUS_FAULT, (type(exc).__name__, str(exc)))
            conn.send(pack_head(KIND_RESPONSE, 0, seq, len(body), 0, 0), body)
            return True
        conn.arrived += 1
        role = conn.role
        role.release()
        self._submit(request, partial(self._finish, conn, seq, request), True)
        return role.acquire(False)

    def _serve_here(self, request: FramedRequest, reply, lend: bool) -> None:
        """No pool: the reading thread serves the request."""
        response = failure = None
        try:
            # ``handle`` is looked up per call: tracing wraps it per engine.
            response = self.engine.handle(request)
        except BaseException as exc:  # answered as a fault
            failure = exc
        if not settle(reply, response, failure):
            self.settle_errors += 1

    def _finish(self, conn: _Connection, seq: int, request: FramedRequest,
                response: Optional[RpcResponse], exc: Optional[BaseException]) -> None:
        """Answer one executed request and retire it from the in-flight count.
        An answer the engine served was encoded when it was priced
        (``request.reply_body``) and goes out as it is; a throttle is encoded
        here; a fault (handler bug, un-encodable value) travels as class and
        message."""
        try:
            if exc is not None:
                body = encode_response_body(STATUS_FAULT, (type(exc).__name__, str(exc)))
            else:
                body = request.reply_body or encode_response_body(*response_status(response))
                # Count before the response frame goes out: a client that has
                # the answer in hand must already see it reflected here.
                self.requests_served += 1
            bulk = request.bulk
            pulled, pushed = (0, 0) if bulk is None else (bulk.bytes_pulled, bulk.bytes_pushed)
            conn.send(pack_head(KIND_RESPONSE, 0, seq, len(body), pulled, pushed), body)
        finally:
            with self._lock:
                self._balance -= 1
                if self._idle is not None and not self._in_flight():
                    self._idle.set()
