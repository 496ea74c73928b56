"""Margo-like RPC engine: handler registration, addressing, dispatch.

Each GekkoFS daemon runs one engine (its RPC server); each client holds a
handle to the network and issues calls by daemon address.  The
:class:`RpcNetwork` is the address book — the stand-in for the hosts file
GekkoFS distributes at start-up so every client can reach every daemon.
"""

from __future__ import annotations

import errno as _errno
import threading
import time
from collections import Counter
from operator import methodcaller
from typing import Any, Callable, Optional

from repro.common.errors import GekkoError
from repro.rpc.future import RpcFuture
from repro.rpc.message import RemoteError, RpcRequest, RpcResponse
from repro.rpc.transport import LoopbackTransport, Transport
from repro.telemetry.inflight import InflightGauge
from repro.telemetry.spans import DAEMON_PID_BASE

__all__ = ["RpcEngine", "RpcNetwork"]

#: Errnos that are *answers*, not failures: a stat miss, a create
#: collision, a directory-shape complaint, an admission throttle.  The
#: daemon did its job; counting these in ``rpc.errors.*`` would make the
#: error-budget SLO burn on every O_CREAT existence probe.  Everything
#: else (EIO, ESTALE, internal faults) is a genuine server-fault error.
_EXPECTED_ERRNOS = frozenset(
    {
        _errno.ENOENT,
        _errno.EEXIST,
        _errno.ENOTDIR,
        _errno.EISDIR,
        _errno.ENOTEMPTY,
        _errno.EAGAIN,
    }
)


#: Result-time transform of every call: the handler value, or its error raised.
_unwrap = methodcaller("result")


class RpcEngine:
    """One daemon's RPC server: a named-handler table plus statistics.

    Handlers are plain callables ``fn(*args) -> value``; GekkoFS errors
    they raise are converted to wire errors by
    :meth:`~repro.rpc.message.RpcResponse.from_call`.
    """

    def __init__(self, address: int):
        self.address = address
        self._handlers: dict[str, Callable[..., Any]] = {}
        self._lock = threading.Lock()
        #: Lowest membership epoch this daemon still accepts.  Requests
        #: stamped with an older epoch are answered with ESTALE — the
        #: loud server-side half of the stale-client defence.  Bumped by
        #: the cluster when an epoch is sealed (``gkfs_set_epoch``).
        self.min_epoch = 0
        self.calls_served: Counter[str] = Counter()
        self.bytes_in = 0
        self.bytes_out = 0
        #: Telemetry plane, attached by the cluster/daemon when enabled.
        #: Both default to None so :meth:`handle` keeps a branch-only
        #: fast path when the plane is off.
        self.collector = None  # TraceCollector: per-handler daemon spans
        self.metrics = None  # MetricsRegistry: per-handler latency histograms
        self._latency_hists: dict[str, Any] = {}  # handler -> live histogram

    def register(self, name: str, fn: Callable[..., Any]) -> None:
        """Register handler ``name``; re-registration is a bug, so it raises."""
        with self._lock:
            if name in self._handlers:
                raise ValueError(f"handler {name!r} already registered on {self.address}")
            self._handlers[name] = fn

    def deregister(self, name: str) -> None:
        with self._lock:
            self._handlers.pop(name, None)

    @property
    def handler_names(self) -> list[str]:
        with self._lock:
            return sorted(self._handlers)

    def handle(self, request: RpcRequest) -> RpcResponse:
        """Serve one request (called by the transport on the server side)."""
        if request.epoch is not None and request.epoch < self.min_epoch:
            return RpcResponse(
                error=RemoteError(
                    _errno.ESTALE,
                    f"daemon {self.address} is at membership epoch "
                    f">= {self.min_epoch}; request carries retired epoch "
                    f"{request.epoch} — rebuild the client",
                )
            )
        # No lock: one dict lookup is atomic, and register/deregister (which
        # keep the lock between themselves) never leave a torn table.
        try:
            fn = self._handlers[request.handler]
        except KeyError:
            raise LookupError(
                f"daemon {self.address} has no handler {request.handler!r}"
            ) from None
        if self.collector is None and self.metrics is None:
            return self._serve(fn, request)
        return self._serve_instrumented(fn, request)

    def _serve(self, fn: Callable[..., Any], request: RpcRequest) -> RpcResponse:
        """:meth:`RpcResponse.from_call`'s rule, counted; a frame stamped its size."""
        self.calls_served[request.handler] += 1
        self.bytes_in += request._wire_size or request.wire_size
        bulk = request.bulk
        before = 0 if bulk is None else bulk.bytes_transferred
        try:
            response = RpcResponse(fn(*request.args) if bulk is None else fn(*request.args, bulk))
        except GekkoError as err:
            response = RpcResponse.from_error(err)
        if bulk is not None:
            response.bulk_bytes = bulk.bytes_transferred - before
        self.bytes_out += request.reply_size(response)
        return response

    def _serve_instrumented(
        self, fn: Callable[..., Any], request: RpcRequest
    ) -> RpcResponse:
        """Serve with handler span + latency histogram around the hot path.

        Runs on whichever thread the transport dispatched to; the trace
        context comes from the request envelope, never a thread-local.
        """
        collector, metrics = self.collector, self.metrics
        handler = request.handler
        t0 = time.perf_counter()
        response = self._serve(fn, request)
        elapsed = time.perf_counter() - t0
        if metrics is not None:
            hist = self._latency_hists.get(handler)
            if hist is None:
                hist = self._latency_hists[handler] = metrics.histogram_for(
                    f"rpc.latency.{handler}"
                )
            hist.record(elapsed)
            if (
                not response.ok
                and response.error.errno not in _EXPECTED_ERRNOS
            ):
                # Error-path only, so the lock in inc() is off the hot
                # path; the SLO engine's error burn rate reads these
                # against the rpc.calls.* mirrors.
                metrics.inc(f"rpc.errors.{handler}")
        if collector is not None:
            epoch = collector.perf_epoch
            start = t0 - epoch if epoch is not None else collector.now() - elapsed
            # Inline of collector.record_span (same tuple layout): this
            # runs once per RPC, so the method call and keyword binding
            # are worth skipping.  span_id None is materialised to a
            # unique "d<seq>" id by the collector's reader.
            collector._span_buf.append(
                (handler, "daemon", start, elapsed,
                 DAEMON_PID_BASE + self.address,
                 threading.get_ident() & 0xFFFF,
                 None,
                 request.request_id,
                 request.parent_span,
                 next(collector._seq),
                 None if response.ok else str(response.error),
                 {"bulk_bytes": response.bulk_bytes} if response.bulk_bytes else {})
            )
        return response


class RpcNetwork:
    """Address book plus client-side call interface.

    One instance per GekkoFS deployment: daemons register their engines,
    clients issue :meth:`call`.  The delivery path is pluggable through a
    :class:`~repro.rpc.transport.Transport`, defaulting to synchronous
    in-process loopback.
    """

    def __init__(self, transport: Optional[Transport] = None):
        self._engines: dict[int, RpcEngine] = {}
        self._lock = threading.Lock()
        #: In-flight RPC depth telemetry (how deep the pipelining runs).
        self.inflight = InflightGauge()
        self.transport = transport or LoopbackTransport(self._engines)
        #: TraceCollector when telemetry is enabled; None keeps
        #: :meth:`call_async` on its unstamped fast path.
        self.tracer = None
        #: Membership epoch stamped into every request built here unless
        #: the caller passes one (published by the deployment's
        #: ``MembershipView``); None until the first membership change.
        self.epoch: Optional[int] = None

    @property
    def transport(self) -> Transport:
        """The delivery stack; setting it composes :attr:`chain` anew."""
        return self._transport

    @transport.setter
    def transport(self, transport: Transport) -> None:
        self._transport = transport
        self.compose()

    def compose(self) -> None:
        """The chain every call's future is built with: the transport stack's
        stages, then the gauge's landing (again after a splice below)."""
        self.chain = self._transport.chain() + (self.inflight.land,)
        self._depth = len(self.chain)  # the unwrap sits above every stage

    @property
    def engine_table(self) -> dict[int, "RpcEngine"]:
        """The live address→engine mapping (shared by reference with
        transports, so later-registered daemons are visible)."""
        return self._engines

    def create_engine(self, address: int) -> RpcEngine:
        """Register a new daemon endpoint at ``address``."""
        with self._lock:
            if address in self._engines:
                raise ValueError(f"address {address} already in use")
            engine = RpcEngine(address)
            self._engines[address] = engine
            return engine

    def remove_engine(self, address: int) -> None:
        with self._lock:
            self._engines.pop(address, None)

    def lookup(self, address: int) -> RpcEngine:
        with self._lock:
            try:
                return self._engines[address]
            except KeyError:
                raise LookupError(f"no daemon at address {address}") from None

    @property
    def addresses(self) -> list[int]:
        with self._lock:
            return sorted(self._engines)

    def call(
        self,
        target: int,
        handler: str,
        *args: Any,
        bulk: Any = None,
        client_id: Optional[int] = None,
        epoch: Optional[int] = None,
    ) -> Any:
        """Synchronous RPC: returns the handler value or raises its error."""
        return self.call_async(
            target, handler, *args, bulk=bulk, client_id=client_id, epoch=epoch
        ).result()

    def call_async(
        self,
        target: int,
        handler: str,
        *args: Any,
        bulk: Any = None,
        client_id: Optional[int] = None,
        epoch: Optional[int] = None,
        chain: Optional[tuple] = None,
    ) -> RpcFuture:
        """Non-blocking RPC — the ``margo_iforward`` path (§III-B).

        Returns immediately with an :class:`~repro.rpc.future.RpcFuture`
        whose ``result()`` yields the handler value or raises the
        rehydrated GekkoFS error.  Never raises at issue time: delivery
        failures (dead daemon, injected fault) surface through the
        future, so fan-outs are never interrupted mid-batch.  Gather a
        batch with :func:`repro.rpc.wait_all`.  ``chain``: a caller's own
        over :attr:`chain` (a :class:`~repro.qos.window.ClientPort`'s).
        """
        tracer = self.tracer
        context = None if tracer is None else tracer.current()
        request = RpcRequest(
            target, handler, args, bulk,
            context.request_id if context else None,
            context.span_id if context else None,
            client_id, self.epoch if epoch is None else epoch,
            chain=self.chain if chain is None else chain,
        )
        self.inflight.launch()
        return self._transport.send_async(request).with_transform(_unwrap, self._depth)
