"""Client-side socket transport: the same Transport contract, real wire.

:class:`SocketTransport` drops into the exact slot
:class:`~repro.rpc.transport.LoopbackTransport` and
:class:`~repro.rpc.threaded.ThreadedTransport` occupy: ``send`` blocks
for one response, ``send_async`` returns an
:class:`~repro.rpc.future.RpcFuture` and *never raises at issue time*.
Every layer above — retry/breaker, chaos splicing, QoS client windows,
tracing, the whole :class:`~repro.core.client.GekkoFSClient` — runs
unmodified on top.

Per daemon the transport keeps one *channel*: one connection carrying
requests (a read-only bulk exposure rides in the request frame, handed to
``sendmsg`` uncopied), pushes and responses as tagged frames.  There is
**no reader thread**: as in Mercury, the thread that waits on a future
drives progress.  The channel is the future's progress source
(:mod:`repro.rpc.future`): ``wait``/``result`` receive and dispatch frames
— for every request in flight on the connection, a pushed segment straight
into the caller's exposed buffer — until the caller's own future resolves.
Of several threads waiting on one channel one receives at a time; the
others park until their future resolves or the receiver leaves and one of
them must take over.  The no-waiter contract, the in-flight cap and what
bounds a blocked ``recv`` are in docs/architecture.md §12.

Failure mapping (the part :data:`~repro.rpc.transport.DELIVERY_FAILURES`
health accounting depends on): unknown target → ``LookupError`` (same
message as loopback); refused / reset / EOF / missing unix socket →
``ConnectionError``; connect or wait deadline → ``TimeoutError``.
"""

from __future__ import annotations

import builtins
import select
import socket
import threading
import time
from contextlib import suppress
from typing import Mapping, Optional

from repro.core.membership import READONLY_HANDLERS
from repro.net.addr import Endpoint, create_connection, parse_endpoint
from repro.net.codec import (
    FLAG_BULK_READONLY,
    FLAG_HAS_BULK,
    FrameError,
    HEADER_SIZE,
    KIND_PUSH,
    KIND_REQUEST,
    KIND_RESPONSE,
    STATUS_ERROR,
    STATUS_OK,
    decode_response_body,
    encode_request_body,
    pack_head,
    recv_full,
    send_frame,
    unpack_header,
    wait_io,
)
from repro.rpc.future import DELIVERING, RpcFuture
from repro.rpc.message import RemoteError, RpcRequest, RpcResponse
from repro.rpc.transport import Transport

__all__ = ["SocketTransport", "IDEMPOTENT_HANDLERS"]

#: Handlers safe to resubmit transparently after a connection reset: the
#: ones that never mutate daemon state, so a duplicate delivery cannot
#: double-apply.  A mutation that died mid-flight may or may not have been
#: served — its ``ConnectionError`` must surface to the layer that owns
#: retry policy (RetryingTransport / the application).
IDEMPOTENT_HANDLERS = READONLY_HANDLERS

#: Requests one channel keeps in flight before a submitter must receive:
#: bounds the pending table and the replies queued at a client that only issues.
_MAX_INFLIGHT = 256
#: How often a sender waiting for room looks whether the receive role fell free.
_ROLE_POLL = 0.005
#: What connecting or submitting may raise (:meth:`SocketTransport._issue_failure`).
_ISSUE_FAILURES = (OSError, LookupError, TypeError, ValueError)


def _rehydrate_fault(type_name: str, message: str) -> BaseException:
    """Rebuild a server-side fault as the nearest local exception: builtin
    types come back as themselves (``LookupError`` keeps counting as a
    delivery failure, handler bugs keep their class), anything else as
    ``RuntimeError`` with the original type in the text."""
    cls = getattr(builtins, type_name, None)
    if isinstance(cls, type) and issubclass(cls, BaseException):
        return cls(message)
    return RuntimeError(f"{type_name}: {message}")


class _Channel:
    """One daemon's connection, its in-flight table — seq → ``(future, bulk,
    issued_at, retry)``, ``retry`` being the request while it may still be
    resubmitted once, else ``None`` — and its receive role: a lock taken
    without waiting and given up under the channel lock, by the hold that
    pops the taker's own reply (a reply costs that one hold).  A waiter that
    finds it taken parks on ``ready`` until a reply it may own is popped or
    the receiver leaves, both under the channel lock: no wake-up is lost."""

    def __init__(self, transport: "SocketTransport", target: int, endpoint: Endpoint):
        self.transport = transport
        self.target = target
        self.sock = create_connection(endpoint, transport._connect_timeout)
        self.head = memoryview(bytearray(HEADER_SIZE))  # the receiver's scratch
        self.pending: dict[int, tuple] = {}
        self.seq = 0
        self.dead = False
        self.lock = threading.Lock()  # taking from the table, liveness, followers
        self.ready = threading.Condition(self.lock)  # parked followers
        self.role = threading.Lock()  # held by the thread inside _read_frame
        self.followers = 0
        self.wlock = threading.Lock()  # adding to the table; one whole frame per holder
        self.late: list = []  # replies _unclog read, for the write lock's holder

    # -- submission ----------------------------------------------------------

    def submit(self, request: RpcRequest, future: Optional[RpcFuture] = None) -> RpcFuture:
        """Put one request on the wire.  ``future`` is passed for the one
        resubmission of an idempotent call: same future, new channel."""
        body = encode_request_body(request)  # TypeError propagates to caller
        body_len = len(body)
        request._wire_size = size = HEADER_SIZE + body_len  # priced by its frame
        bulk = request.bulk
        flags = aux1 = 0
        frame = [None, body]  # the header goes in front once the seq is known
        if bulk is not None:
            flags = FLAG_HAS_BULK
            aux1 = len(bulk)
            if bulk.readonly:
                flags |= FLAG_BULK_READONLY
                frame.append(bulk._view)
                size += aux1
        retry = request if future is None and request.handler in IDEMPOTENT_HANDLERS else None
        if future is None:
            future = RpcFuture(request)
        future._source = self
        issued_at = 0.0 if self.transport._tick is None else time.monotonic()
        if len(self.pending) >= _MAX_INFLIGHT:  # receive until the oldest is answered
            oldest = next(iter(self.pending.values()), None)
            if oldest is not None:
                self.progress(oldest[0], None)
        late = lost = None
        with self.wlock:
            if self.dead:
                raise ConnectionError(f"connection to daemon {self.target} lost")
            self.seq = seq = self.seq + 1
            self.pending[seq] = (future, bulk, issued_at, retry)
            frame[0] = pack_head(KIND_REQUEST, flags, seq & 0xFFFFFFFF, body_len, aux1, 0)
            try:
                send_frame(self.sock, frame, size, self._unclog)
            except OSError as exc:
                lost = exc
            if self.late:
                late, self.late = self.late, []
        if lost is not None:
            self._die(f"connection to daemon {self.target} lost mid-request: {lost}")
        if late:
            for done, value, exc in late:
                done.settle(value, exc)
        return future

    def _unclog(self) -> None:
        """A send found the socket full: the daemon is not reading — perhaps
        blocked writing replies nobody reads.  Wait for room, and receive
        meanwhile whenever no other thread does (looked at anew every slice).
        Completions go to :attr:`late`, settled once the write lock is free
        (a done-callback may submit)."""
        patience = self.transport._request_timeout
        deadline = time.monotonic() + patience
        events = 0
        while not events:
            left = deadline - time.monotonic()
            if left <= 0:
                raise ConnectionError(f"daemon {self.target} took no byte for {patience}s")
            receive = self.role.acquire(False)
            try:
                events = wait_io(self.sock, left if receive else min(left, _ROLE_POLL),
                                 read=receive, write=True)
                if receive and events and not events & select.POLLOUT:
                    done = self._read_frame(None)
                    if done is not None:
                        self.late.append(done)
            finally:
                if receive:
                    self._leave()  # this thread goes back to sending

    # -- receive side: driven by whoever waits -------------------------------

    def progress(self, future: RpcFuture, timeout: Optional[float]) -> None:
        """The progress-source protocol (:mod:`repro.rpc.future`): receive
        and dispatch frames in the calling thread until ``future`` is
        resolved, ``timeout`` has passed, or the channel is dead."""
        deadline = None if timeout is None else time.monotonic() + timeout
        if not self.role.acquire(False):
            with self.lock:
                if not self._take_role(future, deadline):
                    return
        tick = self.transport._tick
        try:
            while True:
                # Failed, resubmitted elsewhere or out of time: nothing to wait for.
                if future._source is not self or self.dead or (
                        deadline is not None and time.monotonic() >= deadline):
                    self._leave()
                    return
                limit = tick
                if deadline is not None:
                    limit = max(0.0, deadline - time.monotonic())
                    if tick is not None and tick < limit:
                        limit = tick
                done = None
                try:
                    # Unbounded only when nothing but a reply can end this wait.
                    if limit is None or wait_io(self.sock, limit):
                        done = self._read_frame(future)
                except OSError as exc:  # EOF, reset, torn frame, mid-frame stall
                    self._die(f"connection to daemon {self.target} lost: {exc}")
                    self._leave()
                    return
                if done is not None:
                    if done[0] is future:
                        break  # the hold that popped it gave the role up
                    done[0].settle(done[1], done[2])
        except BaseException:  # a done-callback raised: do not strand the others
            self._leave()
            raise
        future.settle(done[1], done[2])

    def _take_role(self, future: RpcFuture, deadline: Optional[float]) -> bool:
        """Caller holds the lock.  Park while another thread receives, then
        take the role; False once ``future`` no longer waits for a reply here
        (resolved, or its entry left the table and with it the channel as its
        progress source) or the deadline has passed."""
        while future._source is self and not (future._done or self.dead):
            remaining = None if deadline is None else deadline - time.monotonic()
            if remaining is not None and remaining <= 0:
                break
            if self.role.acquire(False):
                return True
            self.followers += 1
            self.ready.wait(remaining)
            self.followers -= 1
        # Leaving without the role: if it is free, pass the wake-up on.
        if self.followers and not self.role.locked():
            self.ready.notify()
        return False

    def _leave(self) -> None:
        """Give the receive role up; one parked follower takes it over."""
        with self.lock:
            self.role.release()
            if self.followers:
                self.ready.notify()

    def _read_frame(self, waiter: Optional[RpcFuture]) -> Optional[tuple]:
        """Receive one frame (the caller holds the receive role); returns the
        ``(future, value, exc)`` it completes, if any.  The hold that pops a
        reply's entry also wakes the followers when it is not ``waiter``'s
        (its owner may be among them), and gives the role up when it is."""
        sock = self.sock
        # With the watchdog on, a daemon that hangs in the middle of a frame
        # must not hold the receiving thread past the stall deadline either.
        patience = self.transport._call_timeout
        recv_full(sock, self.head, patience)
        kind, _flags, seq, body_len, aux1, aux2 = unpack_header(self.head)
        if kind == KIND_PUSH:
            entry = self.pending.get(seq)
            if entry is None:  # a call the watchdog failed: drain, land nothing
                recv_full(sock, memoryview(bytearray(body_len)), patience)
                return None
            bulk = entry[1]
            end = aux1 + body_len
            if bulk is None or bulk.readonly or end > len(bulk):
                raise FrameError(f"push of [{aux1}, {end}) outside the exposure")
            recv_full(sock, bulk._view[aux1:end], patience)
            bulk.bytes_pushed += body_len
            return None
        if kind != KIND_RESPONSE:
            raise FrameError(f"unexpected frame kind {kind} from a daemon")
        body = memoryview(bytearray(body_len))
        recv_full(sock, body, patience)
        status, payload = decode_response_body(body)  # FrameError: foreign stream
        moved = aux1 + aux2
        size = HEADER_SIZE + body_len  # the reply is priced by its frame
        if status == STATUS_OK:
            value, exc = RpcResponse(payload, None, moved, size), None
        elif status == STATUS_ERROR:
            value, exc = RpcResponse(None, RemoteError(*payload), moved, size), None
        else:  # STATUS_FAULT
            value, exc = None, _rehydrate_fault(*payload)
        with self.lock:
            entry = self.pending.pop(seq, None)
            if entry is None:
                return None  # answered after the watchdog gave up on it
            future, bulk = entry[0], entry[1]
            # From here to its settle the call is neither in flight nor
            # resolved: a waiter arriving now must park, not take the role.
            future._source = DELIVERING
            if future is waiter:
                self.role.release()
                if self.followers:
                    self.ready.notify()
            elif self.followers:
                self.ready.notify_all()
        if bulk is not None:
            # Mirror the daemon-side pull accounting onto the caller's
            # handle, as an in-process transport would have.
            bulk.bytes_pulled += aux1
        return future, value, exc

    def fail_overdue(self, cutoff: float) -> int:
        """Fail every in-flight request issued at/before ``cutoff`` — the
        stall watchdog's teeth: a hung-but-connected daemon (SIGSTOP) keeps
        its socket alive, so ``_die`` never fires.  ``TimeoutError`` is a
        :data:`~repro.rpc.transport.DELIVERY_FAILURES` member, so the
        retry/breaker layer records the stall as health evidence.  A late
        response finds no entry and is dropped."""
        with self.lock:  # listed first: a sender may add to the table meanwhile
            stalled = [self.pending.pop(seq) for seq, entry in list(self.pending.items())
                       if entry[2] <= cutoff]
            for entry in stalled:
                entry[0]._source = DELIVERING
            if stalled and self.followers:
                self.ready.notify_all()
        for entry in stalled:
            entry[0].set_exception(TimeoutError(
                f"RPC to daemon {self.target} stalled past the per-call "
                f"timeout (daemon hung or unresponsive)"
            ))
        return len(stalled)

    def _die(self, reason: str) -> None:
        """Fail the channel: every in-flight call ends as a lost connection,
        except idempotent ones still entitled to their one resubmission."""
        with self.lock:
            if self.dead:
                return
            self.dead = True
        with suppress(OSError):  # wakes a receiver in recv, a sender waiting for room
            self.sock.shutdown(socket.SHUT_RDWR)
        with self.wlock, self.lock:  # the table's adders and takers both stand still
            pending, self.pending = self.pending, {}
            for entry in pending.values():
                entry[0]._source = DELIVERING
            self.ready.notify_all()
        self.sock.close()
        for future, _bulk, _issued_at, retry in pending.values():
            if retry is None or not self.transport._resubmit(retry, future):
                future.set_exception(ConnectionError(reason))

    def close(self) -> None:
        self._die(f"transport to daemon {self.target} closed")


class SocketTransport(Transport):
    """Deliver RPCs to socket-served daemons.

    :param addresses: daemon address → endpoint spec (any spelling
        :func:`~repro.net.addr.parse_endpoint` accepts).  May be grown
        after construction via :meth:`add_daemon`.
    :param connect_timeout: per-connect deadline; expiry surfaces as
        ``TimeoutError``.
    :param request_timeout: how long a submit that found the socket full
        waits for the daemon to take a byte before the connection counts
        as lost; reply deadlines are the waiting caller's (``wait_all``).
    :param call_timeout: optional per-call stall deadline a watchdog thread
        enforces on **every** in-flight request, async included: an older
        request fails with ``TimeoutError`` even while its socket stays
        connected (the SIGSTOPped daemon), so the circuit breaker opens on
        stalls, not just resets.  ``None`` (default): no watchdog.
    """

    def __init__(
        self,
        addresses: Mapping[int, object],
        *,
        connect_timeout: float = 5.0,
        request_timeout: float = 30.0,
        call_timeout: Optional[float] = None,
    ):
        if call_timeout is not None and call_timeout <= 0:
            raise ValueError(f"call_timeout must be > 0, got {call_timeout}")
        self._endpoints: dict[int, Endpoint] = {
            target: parse_endpoint(spec) for target, spec in addresses.items()
        }
        self._connect_timeout = connect_timeout
        self._request_timeout = request_timeout
        self._call_timeout = call_timeout
        #: Watchdog period = longest a receiving thread blocks before it
        #: looks whether the watchdog ended its wait; None = no watchdog.
        self._tick: Optional[float] = None
        self._channels: dict[int, _Channel] = {}
        self._lock = threading.Lock()
        self._closed = False
        #: Transparent idempotent-call resubmissions performed (telemetry).
        self.reconnects = 0
        #: In-flight calls failed by the stall watchdog (telemetry).
        self.stalled_calls = 0
        self._watchdog_stop = threading.Event()
        self._watchdog: Optional[threading.Thread] = None
        if call_timeout is not None:
            self._tick = max(min(call_timeout / 4.0, 0.25), 0.005)
            self._watchdog = threading.Thread(
                target=self._watch_stalls, daemon=True, name="gkfs-net-watchdog"
            )
            self._watchdog.start()

    def _watch_stalls(self) -> None:
        while not self._watchdog_stop.wait(self._tick):
            cutoff = time.monotonic() - self._call_timeout
            with self._lock:
                channels = list(self._channels.values())
            for channel in channels:
                self.stalled_calls += channel.fail_overdue(cutoff)

    def add_daemon(self, target: int, spec) -> None:
        """Register (or re-point) one daemon's endpoint."""
        with self._lock:
            self._endpoints[target] = parse_endpoint(spec)
            stale = self._channels.pop(target, None)
        if stale is not None:
            stale.close()

    def endpoint(self, target: int) -> Endpoint:
        return self._endpoints[target]

    def _channel(self, target: int) -> _Channel:
        with self._lock:
            if self._closed:
                raise ConnectionError("transport is closed")
            channel = self._channels.get(target)
            if channel is not None and not channel.dead:
                return channel
            try:
                endpoint = self._endpoints[target]
            except KeyError:
                raise LookupError(f"no daemon at address {target}") from None
            channel = _Channel(self, target, endpoint)
            self._channels[target] = channel
            return channel

    @staticmethod
    def _issue_failure(target: int, exc: Exception) -> Exception:
        """Map what building a channel or submitting can raise onto the
        delivery-failure classes; anything else (un-encodable args) as is."""
        if isinstance(exc, socket.timeout):  # alias of TimeoutError on py>=3.10
            return TimeoutError(f"connect to daemon {target} timed out: {exc}")
        if isinstance(exc, (LookupError, ConnectionError)) or not isinstance(exc, OSError):
            return exc
        if isinstance(exc, FileNotFoundError):
            return ConnectionError(f"daemon {target} socket missing: {exc}")
        return ConnectionError(f"cannot reach daemon {target}: {exc}")

    def send_async(self, request: RpcRequest) -> RpcFuture:
        """Deliver one request; never raises at issue time.  Idempotent
        calls in flight when their connection dies — the daemon restarted,
        an idle channel was dropped — are resubmitted **once** over a fresh
        channel before the ``ConnectionError`` surfaces (:meth:`_resubmit`,
        counted in :attr:`reconnects`)."""
        try:
            try:
                channel = self._channels[request.target]
            except KeyError:  # the first call to this daemon
                channel = self._channel(request.target)
            if channel.dead:
                channel = self._channel(request.target)
            return channel.submit(request)
        except _ISSUE_FAILURES as exc:
            return self.failed(request, self._issue_failure(request.target, exc))

    def _resubmit(self, request: RpcRequest, future: RpcFuture) -> bool:
        """A dying channel's failure path for an idempotent call: issue it
        again for ``future``.  False (fail it) if the transport is closed."""
        if self._closed:
            return False
        self.reconnects += 1
        try:
            # _channel() sees the dead channel and rebuilds it.
            self._channel(request.target).submit(request, future)
        except _ISSUE_FAILURES as exc:
            future.set_exception(self._issue_failure(request.target, exc))
        return True

    def shutdown(self) -> None:
        """Close every channel; in-flight requests fail as lost connections."""
        self._watchdog_stop.set()
        with self._lock:
            self._closed = True
            channels, self._channels = list(self._channels.values()), {}
        for channel in channels:
            channel.close()

    close = shutdown

    def __enter__(self) -> "SocketTransport":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()
