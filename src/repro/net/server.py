"""Thread-per-connection RPC server: one daemon's engine behind a real socket.

One :class:`RpcServer` is the network face of one GekkoFS daemon.  An
accept thread gives every client connection its own blocking thread, which
reads whole frames (a write's exposure ``recv_into`` one buffer, nothing
reassembled) and hands each request to the daemon's pool transport with one
rule, the paper's "handler streams vs. I/O pool" split (§III-B/C):

* **a small request** — one that *moves* little
  (:func:`~repro.core.daemon.moves_little`: no bulk exposure, at most
  ``INLINE_THRESHOLD`` bytes of chunk spans), so every metadata call and
  every chunk read, write or replacement the client sent inline —
  **offers the connection thread** (``lend=True``).  The server's own
  :class:`~repro.rpc.threaded.ThreadedTransport` always takes the offer; a
  QoS lane (:class:`~repro.qos.pool.ScheduledTransport`, meta or data)
  takes it when its backlog is empty and a slot is free, after the same
  admission, rate-cap and accounting steps as a queued arrival.  A ``stat``
  or an 8 KiB ``pread`` then costs no hand-off: read, ``engine.handle``,
  write, next frame.  The price is head-of-line blocking *within one
  connection*, in either mode — a slow small call delays that client's
  next frame only — and without QoS the small handlers running at once
  are bounded by the connections, not the pool.
* **an exposure, or more span bytes than the threshold, is never lent**:
  a large transfer must not stall the connection, and one client's chunks
  run in parallel on the pool (whole-chunk inline fetches included).

Responses and pushes are written by the thread that produced them, one
whole frame per hold of the connection's write lock.

Shutdown is graceful by default: stop accepting, wait for in-flight
requests to drain (their responses are delivered; the last one sets an
event only while a stop waits), then close.  An abortive stop (``drain=False``) models a crash: connections die
mid-request and clients see delivery failures, never hangs.
"""

from __future__ import annotations

import os
import socket
import threading
from contextlib import suppress
from functools import partial
from typing import Optional, TYPE_CHECKING

from repro.core.daemon import moves_little
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
    pack_header,
    pack_push,
    recv_full,
    response_status,
    send_frame,
    unpack_header,
)
from repro.rpc.message import RpcResponse
from repro.rpc.transport import Transport

if TYPE_CHECKING:  # pragma: no cover
    from repro.rpc.engine import RpcEngine

__all__ = ["RpcServer"]


class _Connection:
    """One accepted client socket: its serving thread and its write lock."""

    def __init__(self, sock: socket.socket):
        self.sock = sock
        self.wlock = threading.Lock()
        self.thread: Optional[threading.Thread] = None
        #: Requests this connection handed on; its own thread alone counts.
        self.arrived = 0

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
    :param dispatch: pool transport every request is submitted to
        (a :class:`~repro.qos.pool.ScheduledTransport`: the QoS
        plane; the caller owns its lifecycle).  Without one the server owns
        a :class:`~repro.rpc.threaded.ThreadedTransport` of ``handlers``
        workers.  Either way small requests offer it the connection thread
        (module docstring).
    :param handlers: width of that private pool.
    """

    def __init__(
        self,
        engine: "RpcEngine",
        address=None,
        *,
        dispatch: Optional[Transport] = None,
        handlers: int = 4,
    ):
        self.engine = engine
        self._endpoint: Endpoint = (
            ("tcp", ("127.0.0.1", 0)) if address is None else parse_endpoint(address)
        )
        self._owns_dispatch = dispatch is None
        if dispatch is None:
            from repro.rpc.threaded import ThreadedTransport

            dispatch = ThreadedTransport({engine.address: engine}, handlers)
        self._dispatch = dispatch
        self._listener: Optional[socket.socket] = None
        self._acceptor: Optional[threading.Thread] = None
        self._conns: set[_Connection] = set()
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

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> "RpcServer":
        if self._started:
            raise RuntimeError("server already started")
        self._listener = create_listener(self._endpoint)
        self._endpoint = bound_endpoint(self._listener)
        # stop() wakes accept() with a connection to ourselves; the timeout
        # bounds the wait should that connection ever fail.
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

    def queue_depth(self) -> int:
        """Requests parked in this daemon's pool right now."""
        return self._dispatch.queue_depth(self.engine.address)

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
        for conn in conns:
            conn.thread.join(timeout)
        if self._owns_dispatch:
            self._dispatch.shutdown()

    def __enter__(self) -> "RpcServer":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- accept + per-connection loops ---------------------------------------

    def _accept_loop(self) -> None:
        listener = self._listener
        try:
            while self._accepting:
                try:
                    sock, _peer = listener.accept()
                except socket.timeout:
                    continue
                except OSError:
                    break
                if sock.family != socket.AF_UNIX:
                    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                conn = _Connection(sock)
                conn.thread = threading.Thread(
                    target=self._serve, args=(conn,), daemon=True,
                    name=f"gkfs-net-d{self.engine.address}-c{self.connections_accepted}",
                )
                with self._lock:
                    if not self._accepting:
                        conn.close()
                        break
                    self._conns.add(conn)
                self.connections_accepted += 1
                conn.thread.start()
        finally:
            listener.close()
            if self._endpoint[0] == "unix":
                with suppress(OSError):
                    os.unlink(self._endpoint[1])

    def _serve(self, conn: _Connection) -> None:
        """Read request frames off one connection until it ends."""
        sock = conn.sock
        head = memoryview(bytearray(HEADER_SIZE))
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
                self._dispatch_request(conn, seq, body, bulk)
        except OSError:  # EOF, reset, torn or foreign frame (FrameError)
            pass
        finally:
            conn.close()
            with self._lock:
                self._conns.discard(conn)
                self._balance += conn.arrived

    # -- execution -----------------------------------------------------------

    def _dispatch_request(self, conn: _Connection, seq: int, body, bulk) -> None:
        try:
            request = decode_request_body(body, bulk)
            if request.target != self.engine.address:
                raise LookupError(f"daemon {self.engine.address} received a request "
                                  f"for address {request.target}")
        except (FrameError, LookupError) as exc:  # undecodable, or a stale address book
            self._respond(conn, seq, None, STATUS_FAULT, exc)
            return
        conn.arrived += 1
        self._dispatch.submit(
            request, partial(self._finish, conn, seq, request), lend=moves_little(request)
        )

    def _finish(self, conn: _Connection, seq: int, request: FramedRequest,
                response: Optional[RpcResponse], exc: Optional[BaseException]) -> None:
        """Answer one executed request and retire it from the in-flight count."""
        try:
            status, payload = (STATUS_FAULT, exc) if exc else response_status(response)
            self._respond(conn, seq, request, status, payload)
        finally:
            with self._lock:
                self._balance -= 1
                if self._idle is not None and not self._in_flight():
                    self._idle.set()

    def _respond(self, conn: _Connection, seq: int, request: Optional[FramedRequest],
                 status: int, payload) -> None:
        """Write the response frame of ``request`` (None: it never decoded).
        An answer the engine served was encoded when it was priced
        (``request.reply_body``) and goes out as it is; a throttle is encoded
        here.  A fault (``payload`` is the exception: handler bug, lookup,
        un-encodable value) travels as class + message."""
        if status == STATUS_FAULT:
            body = encode_response_body(status, (type(payload).__name__, str(payload)))
        else:
            body = request.reply_body
            if body is None:
                body = encode_response_body(status, payload)
            # Count before the response frame goes out: a client that has
            # the answer in hand must already see it reflected here.
            self.requests_served += 1
        bulk = request.bulk if request is not None else None
        pulled, pushed = (bulk.bytes_pulled, bulk.bytes_pushed) if bulk is not None else (0, 0)
        conn.send(pack_header(KIND_RESPONSE, seq, len(body), aux1=pulled, aux2=pushed), body)
