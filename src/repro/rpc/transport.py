"""Pluggable RPC delivery paths.

The functional file system runs on :class:`LoopbackTransport` (direct
dispatch).  :class:`InstrumentedTransport` wraps any transport with
traffic accounting — this is how experiments observe the network behaviour
the paper discusses (e.g. the shared-file size-update hotspot) without a
real fabric.  Fault injection is one layer of its own,
:class:`repro.faults.transports.FaultTransport`.
"""

from __future__ import annotations

import random
import threading
import time
from collections import Counter
from dataclasses import replace
from typing import Callable, Mapping, Optional, TYPE_CHECKING

from repro.common.errors import AgainError, DaemonUnavailableError
from repro.rpc.future import RpcFuture, reissue
from repro.rpc.health import CLOSED
from repro.rpc.message import RpcRequest, RpcResponse

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from repro.rpc.engine import RpcEngine
    from repro.rpc.health import DaemonHealthTracker

__all__ = [
    "Transport",
    "LoopbackTransport",
    "InstrumentedTransport",
    "RetryingTransport",
    "DELIVERY_FAILURES",
]

#: Exception types that mean "the daemon did not answer" — the failures
#: that count against a daemon's health (vs. handler results, which are
#: successful deliveries whatever their errno).
DELIVERY_FAILURES: tuple[type[BaseException], ...] = (
    ConnectionError,
    TimeoutError,
    LookupError,
)


class Transport:
    """Delivery interface: move one request to its target, return the response.

    Subclasses implement :meth:`send_async`; a blocking delivery is issue +
    wait, the way ``margo_forward`` is ``margo_iforward`` + ``margo_wait``.
    A synchronous one (a test's fake) may implement :meth:`send` instead.

    A delivery builds a call's future from its request (``RpcFuture(request)``),
    so it carries ``request.chain``: the :meth:`stage` of each layer, composed
    once per stack (:meth:`chain`, :mod:`repro.rpc.future`).
    """

    #: ``stage(future, value, exc) -> bool``: this layer's settle work, or None.
    stage = None

    def chain(self) -> tuple:
        """The stages of this layer and of every layer below it, innermost first."""
        stages, layer = [], self
        while layer is not None:
            stages.insert(0, getattr(layer, "stage", None))
            layer = getattr(layer, "inner", None)
        return tuple(stage for stage in stages if stage is not None)

    def dressed(self, request: RpcRequest) -> RpcRequest:
        """``request`` with this stack's chain: a layer driven on its own."""
        return replace(request, chain=self.chain())

    def failed(self, request: RpcRequest, exc: BaseException) -> RpcFuture:
        """``request``'s future, failed at issue in this layer: the stages of
        the layers above it see the failure, its own and those below do not."""
        chain, stage = request.chain, self.stage
        return RpcFuture.failed(exc, request, chain.index(stage) + 1 if stage in chain else 0)

    def send_async(self, request: RpcRequest) -> RpcFuture:
        """Non-blocking delivery: a future resolving to the response.

        Never raises at issue time — delivery failures surface through the
        future, so a caller issuing a fan-out cannot be interrupted
        mid-batch.  Direct-dispatch transports return an already resolved
        future; transports with real concurrency enqueue without parking
        the caller.
        """
        return RpcFuture.of(self.send, request)

    def send(self, request: RpcRequest) -> RpcResponse:
        """Blocking delivery: the response, or the delivery failure raised.
        The caller's future, not this one, runs the request's chain."""
        return self.send_async(replace(request, chain=()) if request.chain else request).result()


class LoopbackTransport(Transport):
    """Synchronous in-process dispatch against a live engine table.

    The engine mapping is shared *by reference* with
    :class:`~repro.rpc.engine.RpcNetwork`, so daemons added after transport
    construction are visible immediately.
    """

    def __init__(self, engines: Mapping[int, "RpcEngine"]):
        self._engines = engines

    def send_async(self, request: RpcRequest) -> RpcFuture:
        engine = self._engines.get(request.target)
        if engine is None:
            return self.failed(request, LookupError(f"no daemon at address {request.target}"))
        return RpcFuture.of(engine.handle, request)


class InstrumentedTransport(Transport):
    """Wrap another transport with per-target / per-handler accounting.

    Counters answer the questions the paper's evaluation asks of the
    network: how many RPCs hit each daemon (load balance of the hash
    distribution), how many bytes moved on the RPC channel vs. out of band
    (bulk/RDMA), and which handlers dominate.
    """

    def __init__(self, inner: Transport):
        self.inner = inner
        self._lock = threading.Lock()
        self.rpcs_by_target: Counter[int] = Counter()
        self.rpcs_by_handler: Counter[str] = Counter()
        self.wire_bytes = 0
        self.bulk_bytes = 0

    def send_async(self, request: RpcRequest) -> RpcFuture:
        return self.inner.send_async(request if request.chain else self.dressed(request))

    def stage(self, future: RpcFuture, response, exc) -> bool:
        """Count one delivery at this level (never takes it)."""
        if exc is None:
            request = future.request
            with self._lock:
                self.rpcs_by_target[request.target] += 1
                self.rpcs_by_handler[request.handler] += 1
                self.wire_bytes += request.wire_size + response.wire_size
                self.bulk_bytes += response.bulk_bytes
        return False

    @property
    def total_rpcs(self) -> int:
        with self._lock:
            return sum(self.rpcs_by_target.values())

    def reset(self) -> None:
        with self._lock:
            self.rpcs_by_target.clear()
            self.rpcs_by_handler.clear()
            self.wire_bytes = 0
            self.bulk_bytes = 0


class RetryingTransport(Transport):
    """Retry transient delivery failures with backoff, under a deadline.

    GekkoFS itself has no fault tolerance (§I) — a dead daemon stays
    dead — but *transient* fabric hiccups (a dropped message, a busy
    progress loop) are retried by Mercury below the file system.  This
    wrapper models that: transport-level exceptions are retried up to
    ``max_attempts``; handler results (including GekkoFS errors, which
    are semantically final) are never retried.

    Between attempts the wrapper sleeps an exponentially growing,
    jittered delay — retries never spin, and concurrent clients hammering
    a struggling daemon decorrelate.  An optional per-send ``deadline``
    bounds the *total* time one request may consume across all attempts
    and sleeps: when the next backoff would overrun it, the wrapper gives
    up immediately and raises the last delivery failure, so a caller's
    worst-case latency is ``deadline``, not ``max_attempts × timeout``.

    :param backoff_base: first retry delay in seconds.
    :param backoff_factor: multiplier per subsequent retry.
    :param backoff_max: cap on any single delay.
    :param jitter: fraction of the delay added as seeded random noise
        (0 disables; 0.5 means up to +50 %).
    :param deadline: overall seconds allowed per request, sleeps
        included; ``None`` means attempts alone bound it.
    :param sleep: injectable sleep (tests pass a recorder; the DES layer
        a virtual clock advance).
    :param clock: injectable monotonic clock for the deadline.
    :param seed: seeds the jitter RNG so retry schedules are replayable.
    :param tracker: optional :class:`~repro.rpc.health.DaemonHealthTracker`
        fused onto this layer: the breaker gate is checked once before
        the first attempt and one *logical* request (all attempts
        included) is one health observation.  This is the deployment's
        circuit breaker: an open breaker fails the request immediately
        with :class:`~repro.common.errors.DaemonUnavailableError` (``EIO``)
        instead of burning the retry budget.  ``max_attempts=1`` gives a
        pure breaker.
    """

    def __init__(
        self,
        inner: Transport,
        max_attempts: int = 3,
        retry_on: tuple[type[BaseException], ...] = (ConnectionError, TimeoutError),
        backoff_base: float = 0.001,
        backoff_factor: float = 2.0,
        backoff_max: float = 0.1,
        jitter: float = 0.5,
        deadline: Optional[float] = None,
        sleep: Callable[[float], None] = time.sleep,
        clock: Callable[[], float] = time.monotonic,
        seed: int = 0,
        tracker: "Optional[DaemonHealthTracker]" = None,
    ):
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        if backoff_base < 0 or backoff_max < 0 or jitter < 0:
            raise ValueError("backoff parameters must be >= 0")
        if deadline is not None and deadline <= 0:
            raise ValueError(f"deadline must be > 0, got {deadline}")
        self.inner = inner
        self.tracker = tracker
        self.max_attempts = max_attempts
        self.retry_on = retry_on
        self.backoff_base = backoff_base
        self.backoff_factor = backoff_factor
        self.backoff_max = backoff_max
        self.jitter = jitter
        self.deadline = deadline
        self._sleep = sleep
        self._clock = clock
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        self.retries = 0
        self.giveups = 0
        self.deadline_giveups = 0

    def _observe(self, target: int, exc: BaseException) -> None:
        """One logical request's failure, reported to the health tracker.

        QoS throttles are successful deliveries (the daemon answered
        EAGAIN); they normally arrive as response values, but a raised
        :class:`AgainError` from a duck-typed transport must not count
        against health either.
        """
        if isinstance(exc, DELIVERY_FAILURES) and not isinstance(exc, AgainError):
            self.tracker.record_failure(target)
        else:
            self.tracker.record_success(target)

    def _delay(self, retry_index: int) -> float:
        """Backoff before retry ``retry_index`` (0-based), jittered."""
        delay = min(
            self.backoff_max, self.backoff_base * (self.backoff_factor**retry_index)
        )
        if self.jitter:
            with self._lock:
                delay *= 1.0 + self.jitter * self._rng.random()
        return delay

    def _count(self, counter: str) -> None:
        with self._lock:
            setattr(self, counter, getattr(self, counter) + 1)

    def send_async(self, request: RpcRequest) -> RpcFuture:
        """Deliver with retries, re-issuing from the completion context.

        The inner transport's future is the one returned; this layer's
        :meth:`stage` on it (:mod:`repro.rpc.future`) takes each retryable
        failure and issues the next attempt into the same future, so the
        caller never blocks on retries of an in-flight request.  The backoff
        runs where the attempt completed — inline in the issuing thread for a
        synchronous inner, on a handler-pool worker under the threaded
        transport — or, when that is a caller receiving for a whole socket
        connection, in whoever waits on the future.  An open breaker fails
        the request here, before any attempt.
        """
        tracker = self.tracker
        if (
            tracker is not None
            and not tracker.all_clear
            and not tracker.allow(request.target)
        ):
            return self.failed(request, DaemonUnavailableError(
                f"daemon {request.target} unavailable (circuit open), "
                f"dropping {request.handler}"
            ))
        return self.inner.send_async(request if request.chain else self.dressed(request))

    def stage(self, future: RpcFuture, _value, exc: Optional[BaseException]) -> bool:
        """A success is one health observation; a retryable failure is taken
        and issued again after the backoff, while attempts and the deadline
        allow.  The retry count and the expiry — fixed at the first failure —
        are the call's only state, made by that failure."""
        tracker = self.tracker
        if exc is None:
            if tracker is not None:
                target = future.request.target
                daemons = tracker.daemons  # ``in`` and ``[]``: the happy path makes no call
                health = daemons[target] if target in daemons else None
                if health is not None and health.state == CLOSED and health.failures == 0:
                    health.successes += 1  # racing, it may under-count by one
                else:
                    tracker.record_success(target)
            return False
        if isinstance(exc, self.retry_on):
            state = future.state
            if state is None:
                state = future.state = {}
            retries, expiry = state.get(self) or (
                0, None if self.deadline is None else self._clock() + self.deadline)
            if retries + 1 >= self.max_attempts:
                self._count("giveups")
            else:
                delay = self._delay(retries)
                if expiry is None or self._clock() + delay < expiry:
                    state[self] = (retries + 1, expiry)
                    self._count("retries")
                    return reissue(future, delay, self.inner.send_async, self._sleep)
                self._count("deadline_giveups")
        if tracker is not None:
            self._observe(future.request.target, exc)
        return False
