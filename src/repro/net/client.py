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
    pack_header,
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
    resubmitted once, else ``None`` — and its receive role."""

    def __init__(self, transport: "SocketTransport", target: int, endpoint: Endpoint):
        self.transport = transport
        self.target = target
        self.sock = create_connection(endpoint, transport._connect_timeout)
        self.head = memoryview(bytearray(HEADER_SIZE))  # the receiver's scratch
        self.pending: dict[int, tuple] = {}
        self.seq = 0
        self.dead = False
        self.lock = threading.Lock()  # pending table, liveness, receive role
        self.ready = threading.Condition(self.lock)  # parked followers
        self.receiving = False  # some thread is inside _read_frame
        self.followers = 0
        self.wlock = threading.Lock()  # one whole frame per holder

    # -- submission ----------------------------------------------------------

    def submit(self, request: RpcRequest, future: Optional[RpcFuture] = None) -> RpcFuture:
        """Put one request on the wire.  ``future`` is passed for the one
        resubmission of an idempotent call: same future, new channel."""
        body = encode_request_body(request)  # TypeError propagates to caller
        request._wire_size = HEADER_SIZE + len(body)  # priced by its frame
        bulk = request.bulk
        flags = aux1 = 0
        payload = None
        if bulk is not None:
            flags = FLAG_HAS_BULK
            aux1 = len(bulk)
            if bulk.readonly:
                flags |= FLAG_BULK_READONLY
                payload = bulk._view
        retry = request if future is None and request.handler in IDEMPOTENT_HANDLERS else None
        future = future or RpcFuture()
        future._source = self
        if len(self.pending) >= _MAX_INFLIGHT:  # receive until the oldest is answered
            with self.lock:
                oldest = next(iter(self.pending.values()), None)
            if oldest is not None:
                self.progress(oldest[0], None)
        with self.lock:
            if self.dead:
                raise ConnectionError(f"connection to daemon {self.target} lost")
            self.seq = seq = self.seq + 1
            self.pending[seq] = (future, bulk, time.monotonic(), retry)
        late: list = []
        try:
            with self.wlock:
                head = pack_header(KIND_REQUEST, seq, len(body), flags=flags, aux1=aux1)
                send_frame(self.sock, [head, body] if payload is None else [head, body, payload],
                           lambda: self._unclog(late))
        except OSError as exc:
            self._die(f"connection to daemon {self.target} lost mid-request: {exc}")
        for done in late:
            self._settle(done)
        return future

    def _unclog(self, late: list) -> None:
        """A send found the socket full: the daemon is not reading — perhaps
        blocked writing replies nobody reads.  Wait for room, and receive
        meanwhile whenever no other thread does — looked at anew every slice:
        the receiver may have left since and stand behind this sender's write
        lock.  Completions go to ``late``; the sender settles them once its
        frame is out and the write lock released (a done-callback may submit)."""
        patience = self.transport._request_timeout
        deadline = time.monotonic() + patience
        events = 0
        while not events:
            left = deadline - time.monotonic()
            if left <= 0:
                raise ConnectionError(f"daemon {self.target} took no byte for {patience}s")
            with self.lock:
                receive = not self.receiving
                if receive:
                    self.receiving = True
            try:
                events = wait_io(self.sock, left if receive else min(left, _ROLE_POLL),
                                 read=receive, write=True)
                if receive and events and not events & select.POLLOUT:
                    done = self._read_frame()
                    if done is not None:
                        late.append(done)
            finally:
                if receive:
                    with self.lock:
                        self.receiving = False
                        if self.followers:  # this thread goes back to sending
                            self.ready.notify()

    # -- receive side: driven by whoever waits -------------------------------

    def progress(self, future: RpcFuture, timeout: Optional[float]) -> None:
        """The progress-source protocol (:mod:`repro.rpc.future`): receive
        and dispatch frames in the calling thread until ``future`` is
        resolved, ``timeout`` has passed, or the channel is dead."""
        deadline = None if timeout is None else time.monotonic() + timeout
        tick = self.transport._tick
        try:
            while True:
                with self.lock:
                    if not self._take_role(future, deadline):
                        break
                done = None
                try:
                    limit = tick
                    if deadline is not None:
                        limit = max(0.0, deadline - time.monotonic())
                        if tick is not None and tick < limit:
                            limit = tick
                    # Unbounded only when nothing but a reply can end this wait.
                    if limit is None or wait_io(self.sock, limit):
                        done = self._read_frame()
                except OSError as exc:  # EOF, reset, torn frame, mid-frame stall
                    self._die(f"connection to daemon {self.target} lost: {exc}")
                finally:
                    with self.lock:
                        self.receiving = False
                if done is not None:
                    self._settle(done, future)
        except BaseException:  # a done-callback raised: do not strand the others
            self._wake_followers()
            raise

    def _take_role(self, future: RpcFuture, deadline: Optional[float]) -> bool:
        """Caller holds the lock.  Park while another thread receives, then
        take the role; False when there is no reason left to: ``future`` is
        resolved or no longer waits for a reply here (its entry left the
        in-flight table, under this lock, and with it went the channel as
        its progress source), or the deadline has passed."""
        while future._source is self and not (future._done or self.dead):
            remaining = None if deadline is None else deadline - time.monotonic()
            if remaining is not None and remaining <= 0:
                break
            if not self.receiving:
                self.receiving = True
                return True
            self.followers += 1
            self.ready.wait(remaining)
            self.followers -= 1
        # Leaving.  Followers stay parked between a receiver's frames; they
        # are woken when it resolves their future (_settle) or leaves — here.
        if not self.receiving and self.followers:
            self.ready.notify()
        return False

    def _read_frame(self) -> Optional[tuple]:
        """Receive one frame (the caller holds the receive role); returns the
        ``(future, outcome)`` it completes, if any."""
        sock = self.sock
        # With the watchdog on, a daemon that hangs in the middle of a frame
        # must not hold the receiving thread past the stall deadline either.
        patience = self.transport._call_timeout
        recv_full(sock, self.head, patience)
        frame = unpack_header(self.head)
        if frame.kind == KIND_PUSH:
            entry = self.pending.get(frame.seq)
            if entry is None:  # a call the watchdog failed: drain, land nothing
                recv_full(sock, memoryview(bytearray(frame.body_len)), patience)
                return None
            bulk = entry[1]
            end = frame.aux1 + frame.body_len
            if bulk is None or bulk.readonly or end > len(bulk):
                raise FrameError(f"push of [{frame.aux1}, {end}) outside the exposure")
            recv_full(sock, bulk._view[frame.aux1:end], patience)
            bulk.bytes_pushed += frame.body_len
            return None
        if frame.kind != KIND_RESPONSE:
            raise FrameError(f"unexpected frame kind {frame.kind} from a daemon")
        body = memoryview(bytearray(frame.body_len))
        recv_full(sock, body, patience)
        status, payload = decode_response_body(body)  # FrameError: foreign stream
        with self.lock:
            entry = self.pending.pop(frame.seq, None)
            if entry is None:
                return None  # answered after the watchdog gave up on it
            future, bulk = entry[0], entry[1]
            # From here to set_result below the call is neither in flight nor
            # resolved: a waiter arriving now must park, not take the role.
            future._source = DELIVERING
        if bulk is not None:
            # Mirror the daemon-side pull accounting onto the caller's
            # handle, as an in-process transport would have.
            bulk.bytes_pulled += frame.aux1
        moved = frame.aux1 + frame.aux2
        size = HEADER_SIZE + frame.body_len  # the reply is priced by its frame
        if status == STATUS_OK:
            return future, RpcResponse(payload, None, moved, size)
        if status == STATUS_ERROR:
            return future, RpcResponse(None, RemoteError(*payload), moved, size)
        return future, _rehydrate_fault(*payload)  # STATUS_FAULT

    def _settle(self, done: tuple, waited: Optional[RpcFuture] = None) -> None:
        """Resolve one completed call outside every lock (callbacks run
        here) and wake the followers — unless it is the settling thread's
        own: that thread leaves next and hands the role over itself."""
        future, outcome = done
        if isinstance(outcome, BaseException):
            future.set_exception(outcome)
        else:
            future.set_result(outcome)
        if future is not waited:
            self._wake_followers()

    def _wake_followers(self) -> None:
        # The lock orders this against a follower between its "not resolved
        # yet" check and its wait(): no wake-up is lost.
        with self.lock:
            if self.followers:
                self.ready.notify_all()

    def fail_overdue(self, cutoff: float) -> int:
        """Fail every in-flight request issued at/before ``cutoff`` — the
        stall watchdog's teeth: a hung-but-connected daemon (SIGSTOP) keeps
        its socket alive, so ``_die`` never fires.  ``TimeoutError`` is a
        :data:`~repro.rpc.transport.DELIVERY_FAILURES` member, so the
        retry/breaker layer records the stall as health evidence.  A late
        response finds no entry and is dropped."""
        with self.lock:
            stalled = [
                (seq, entry) for seq, entry in self.pending.items() if entry[2] <= cutoff
            ]
            for seq, entry in stalled:
                del self.pending[seq]
                entry[0]._source = DELIVERING
        for _seq, entry in stalled:
            entry[0].set_exception(TimeoutError(
                f"RPC to daemon {self.target} stalled past the per-call "
                f"timeout (daemon hung or unresponsive)"
            ))
        if stalled:
            self._wake_followers()
        return len(stalled)

    def _die(self, reason: str) -> None:
        """Fail the channel: every in-flight call ends as a lost connection,
        except idempotent ones still entitled to their one resubmission."""
        with self.lock:
            if self.dead:
                return
            self.dead = True
            pending, self.pending = self.pending, {}
            for entry in pending.values():
                entry[0]._source = DELIVERING
            self.ready.notify_all()
        with suppress(OSError):
            self.sock.shutdown(socket.SHUT_RDWR)  # wakes a thread blocked in recv
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
        channel = self._channels.get(target)
        if channel is not None and not channel.dead:
            return channel
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
            return self._channel(request.target).submit(request)
        except Exception as exc:
            return RpcFuture.failed(self._issue_failure(request.target, exc))

    def _resubmit(self, request: RpcRequest, future: RpcFuture) -> bool:
        """A dying channel's failure path for an idempotent call: issue it
        again for ``future``.  False (fail it) if the transport is closed."""
        if self._closed:
            return False
        self.reconnects += 1
        try:
            # _channel() sees the dead channel and rebuilds it.
            self._channel(request.target).submit(request, future)
        except Exception as exc:
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
