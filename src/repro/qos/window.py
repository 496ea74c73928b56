"""Client-side congestion control: AIMD in-flight windows per daemon.

The pipelined client (PR 1) will happily put every chunk of a large
write in flight at once; against a saturated daemon that just moves the
queue from the client into the daemon and — with admission control on —
turns into a throttle storm.  :class:`ClientPort` is the per-client
gateway that closes the loop:

* it stamps the client's identity into every request envelope (the
  daemon-side WFQ accounts shares by it);
* it bounds the requests this client keeps in flight *per daemon* with
  an AIMD window — additive increase on every served request,
  multiplicative decrease on every throttle — the TCP-congestion-style
  probe that converges near each daemon's fair capacity;
* it absorbs EAGAIN throttles transparently: sleep the server's
  ``retry_after`` hint, reissue, and only surface the error after a
  bounded number of rejections.

A throttle is never a health signal: the daemon answered.  The retry
loop here is therefore deliberately *above* the RetryingTransport /
circuit-breaker layer, which continues to see throttles as successful
deliveries.

The port wraps the deployment's :class:`~repro.rpc.engine.RpcNetwork`
and forwards everything it does not override, so
:class:`~repro.core.client.GekkoFSClient` uses it unchanged.
"""

from __future__ import annotations

import errno as _errno
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Optional

from repro.common.errors import AgainError
from repro.rpc.future import RpcFuture, reissue

__all__ = ["AimdWindow", "ClientPort", "ClientQosStats"]

#: Upper bound on one throttle-retry sleep: retry_after hints are trusted
#: but capped, so a confused server cannot park a client for seconds.
_MAX_THROTTLE_SLEEP = 0.05
#: Sleep used when a throttle carries no hint.
_DEFAULT_THROTTLE_SLEEP = 1e-3


class AimdWindow:
    """Additive-increase / multiplicative-decrease in-flight window.

    ``acquire`` blocks while the window is full; ``release`` frees the
    slot.  ``grow`` (one served request) adds ``increase / window`` —
    roughly +1 per window's worth of successes, TCP's congestion-
    avoidance slope; ``shrink`` (one throttle) multiplies by
    ``backoff``.  The window never drops below ``minimum`` so progress
    is always possible, and never exceeds ``maximum`` so a long quiet
    daemon cannot bank unbounded credit.  The condition is waited on only
    by a caller that finds the window full, and notified only while one is.
    """

    def __init__(
        self,
        initial: int = 8,
        maximum: int = 64,
        minimum: int = 1,
        increase: float = 1.0,
        backoff: float = 0.5,
    ):
        if not 1 <= minimum <= initial <= maximum:
            raise ValueError(
                f"need 1 <= minimum <= initial <= maximum, "
                f"got {minimum}/{initial}/{maximum}"
            )
        if not 0 < backoff < 1:
            raise ValueError(f"backoff must be in (0, 1), got {backoff}")
        if increase <= 0:
            raise ValueError(f"increase must be > 0, got {increase}")
        self.minimum = minimum
        self.maximum = maximum
        self.increase = increase
        self.backoff = backoff
        self._window = float(initial)
        self._inflight = 0
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._parked = 0  # callers waiting on _cond for room
        #: {future: None} of the port's calls holding a slot, oldest first
        #: (see :meth:`ClientPort._claim_slot`).
        self.outstanding: dict = {}

    @property
    def window(self) -> int:
        return int(self._window)

    @property
    def inflight(self) -> int:
        return self._inflight

    def acquire(self, timeout: Optional[float] = None) -> bool:
        """Claim one in-flight slot, blocking while the window is full."""
        with self._lock:
            if self._inflight >= int(self._window):
                self._parked += 1
                try:
                    if not self._cond.wait_for(
                        lambda: self._inflight < int(self._window), timeout
                    ):
                        return False
                finally:
                    self._parked -= 1
            self._inflight += 1
            return True

    def release(self, served: bool = False) -> None:
        """Free one slot (request left flight, whatever its outcome);
        ``served`` adds the additive increase in the same locked step."""
        with self._lock:
            self._inflight -= 1
            if served:
                window = self._window + self.increase / self._window
                self._window = window if window < self.maximum else float(self.maximum)
            if self._parked:
                self._cond.notify()

    def grow(self) -> None:
        """One request was served: additive increase (a slotless release)."""
        with self._lock:
            self._inflight += 1
        self.release(served=True)

    def shrink(self) -> None:
        """One request was throttled: multiplicative decrease."""
        with self._lock:
            self._window = max(float(self.minimum), self._window * self.backoff)


@dataclass
class ClientQosStats:
    """Per-port congestion-control counters (mirrored into client metrics)."""

    throttles: int = 0  # EAGAIN rejections absorbed by the retry loop
    throttle_wait: float = 0.0  # seconds slept honouring retry_after hints
    giveups: int = 0  # requests that surfaced EAGAIN after all retries


class ClientPort:
    """Per-client gateway onto the shared RPC network.

    Overrides ``call``/``call_async`` to stamp ``client_id``, enforce
    the per-daemon AIMD window, and absorb throttles; every other
    attribute (``tracer``, ``inflight``, ``lookup``, ...) forwards to
    the wrapped network, so the port is a drop-in for
    :class:`~repro.rpc.engine.RpcNetwork` wherever a client holds one.

    :param network: the deployment's RPC network.
    :param client_id: this client's identity, stamped into every request.
    :param window_enabled: enforce the AIMD window (identity stamping
        and throttle retries stay on regardless).
    :param window_initial: starting window per daemon.
    :param window_max: window growth ceiling per daemon.
    :param throttle_retries: EAGAIN rejections absorbed per logical
        request before the error surfaces to the application.
    :param sleep: injectable sleep for retry_after honouring.
    """

    def __init__(
        self,
        network,
        client_id: int,
        *,
        window_enabled: bool = True,
        window_initial: int = 8,
        window_max: int = 64,
        throttle_retries: int = 16,
        sleep: Callable[[float], None] = time.sleep,
    ):
        if throttle_retries < 1:
            raise ValueError(f"throttle_retries must be >= 1, got {throttle_retries}")
        self._network = network
        self.client_id = client_id
        self.window_enabled = window_enabled
        self._window_initial = window_initial
        self._window_max = window_max
        self._throttle_retries = throttle_retries
        self._sleep = sleep
        self._windows: dict[int, AimdWindow] = {}
        self._windows_lock = threading.Lock()
        self.qos_stats = ClientQosStats()

    @classmethod
    def from_config(cls, network, client_id: int, config) -> "ClientPort":
        """The port a client under ``config`` holds onto ``network``."""
        return cls(
            network,
            client_id,
            window_enabled=config.qos_window_enabled,
            window_initial=config.qos_window_initial,
            window_max=config.qos_window_max,
            throttle_retries=config.qos_throttle_retries,
        )

    def __getattr__(self, name: str) -> Any:
        return getattr(self._network, name)

    def window_for(self, target: int) -> AimdWindow:
        window = self._windows.get(target)
        if window is None:
            with self._windows_lock:
                window = self._windows.setdefault(
                    target,
                    AimdWindow(
                        initial=min(self._window_initial, self._window_max),
                        maximum=self._window_max,
                    ),
                )
        return window

    def windows(self) -> dict[int, int]:
        """Current window size per daemon (telemetry)."""
        with self._windows_lock:
            return {target: w.window for target, w in self._windows.items()}

    @staticmethod
    def _claim_slot(window: AimdWindow) -> None:
        """Claim one in-flight slot for a call.

        A full window frees a slot when one of its calls completes — which,
        on a transport where the *waiter* drives progress (sockets), no
        thread does for calls nobody waits on.  So instead of parking on a
        window full of this port's own un-awaited calls, wait on the oldest
        of them; only when none is listed (another thread is between its
        claim and its listing) is parking right.
        """
        while not window.acquire(timeout=0):
            try:
                oldest = next(iter(window.outstanding), None)
            except RuntimeError:  # resized by a finishing call: look again
                continue
            if oldest is None:
                window.acquire()
                break
            oldest.wait()

    def _throttle_delay(self, err: AgainError, attempt: int) -> float:
        """Sleep before throttle retry ``attempt`` (1-based).

        The server's ``retry_after`` hint seeds the delay; consecutive
        rejections double it (capped).  Without the exponential ramp an
        overloaded daemon faces a retry herd — excess clients colliding
        with the queue every hint-interval — and the rejection traffic
        itself steals the service capacity the admission control was
        protecting (congestion collapse by another name).  Backed-off
        clients instead park in ever-longer sleeps until a slot is
        actually likely to be free.
        """
        delay = err.retry_after if err.retry_after else _DEFAULT_THROTTLE_SLEEP
        delay *= 2 ** min(attempt - 1, 16)
        return min(_MAX_THROTTLE_SLEEP, max(0.0, delay))

    def call(self, target: int, handler: str, *args: Any, bulk: Any = None) -> Any:
        """Blocking call: issue + wait, as ``RpcNetwork.call`` is."""
        return self.call_async(target, handler, *args, bulk=bulk).result()

    def call_async(self, target: int, handler: str, *args: Any, bulk: Any = None) -> RpcFuture:
        """Window-bounded non-blocking call with transparent throttle retry.

        Claiming the slot blocks the *issuing* thread when the window is
        full — that is the backpressure bounding the PR-1 fan-out.  The
        network's future is the one returned; a settle hook on it
        (:mod:`repro.rpc.future`) frees the slot, and takes a throttle to
        issue again into the same future after the server's hint — slept in
        the completion context when that is a daemon worker (scheduled
        transport) or the issuer, handed to the future's waiter when it is a
        caller receiving for a whole socket connection.
        """
        window = None
        if self.window_enabled:
            # ``in`` and ``[]``, no call: a window, once made, is never removed.
            window = self._windows[target] if target in self._windows else self.window_for(target)
            if not window.acquire(0):
                self._claim_slot(window)
        throttles = 0

        def settled(future: RpcFuture, value: Any, exc: Optional[BaseException]) -> bool:
            nonlocal throttles
            error = value.error if exc is None else None  # the network's RpcResponse
            served = exc is None and (error is None or error.errno != _errno.EAGAIN)
            if not served:  # a delivered EAGAIN, or a raised AgainError (duck-typed)
                err = exc if exc is not None else AgainError(
                    str(error), retry_after=error.retry_after)
                if isinstance(err, AgainError):
                    self.qos_stats.throttles += 1
                    if window is not None:
                        window.shrink()
                    throttles += 1
                    if throttles < self._throttle_retries:
                        delay = self._throttle_delay(err, throttles)
                        self.qos_stats.throttle_wait += delay
                        return reissue(
                            future, delay,
                            lambda: self._network.call_async(
                                target, handler, *args, bulk=bulk, client_id=self.client_id
                            ),
                            self._sleep,
                        )
                    self.qos_stats.giveups += 1
            if window is not None:
                del window.outstanding[future]
                window.release(served)
            return False

        future = self._network.call_async(
            target, handler, *args, bulk=bulk, client_id=self.client_id
        )
        if window is not None:
            window.outstanding[future] = None
        future.add_settle_hook(settled)
        return future
