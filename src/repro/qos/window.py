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
from collections import deque
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
    daemon cannot bank unbounded credit.  A free slot is a token in a deque:
    claiming (``pop``) and giving back (``append``) take no lock, which is
    held only to park, to wake a parked claimer, and to resize.
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
        self._tokens = deque([None] * initial)  # the free slots
        self._slots = initial  # tokens made: free or in flight
        self._lock = threading.Lock()
        self._cond = threading.Condition(self._lock)
        self._parked = 0  # callers waiting on _cond for room
        #: {future: None} of the port's calls holding a slot that only a
        #: waiter drives, oldest first (see :meth:`ClientPort._claim_slot`).
        self.outstanding: dict = {}

    @property
    def window(self) -> int:
        return int(self._window)

    @property
    def inflight(self) -> int:
        return self._slots - len(self._tokens)

    def acquire(self, timeout: Optional[float] = None) -> bool:
        """Claim one in-flight slot, blocking while the window is full."""
        with self._lock:
            self._parked += 1
            try:
                return self._cond.wait_for(self._claim, timeout)
            finally:
                self._parked -= 1

    def _claim(self) -> bool:
        try:
            self._tokens.pop()
            return True
        except IndexError:
            return False

    def release(self, served: bool = False) -> None:
        """Free one slot (request left flight, whatever its outcome);
        ``served`` adds the additive increase (unlocked: two releases racing
        may lose one of their increments, an estimate's error)."""
        if served and self._window < self.maximum:
            window = self._window + self.increase / self._window
            self._window = window if window < self.maximum else float(self.maximum)
        slots = self._slots
        if slots > self._window or slots + 1 <= self._window:
            with self._lock:
                self._tokens.append(None)
                self._resize()
        else:
            self._tokens.append(None)  # first: a claimer parking now sees it,
            if self._parked:  # or is counted here and woken
                with self._lock:
                    self._cond.notify()

    def grow(self) -> None:
        """One request was served: additive increase (a slotless release)."""
        with self._lock:
            self._slots += 1
        self.release(served=True)

    def shrink(self) -> None:
        """One request was throttled: multiplicative decrease."""
        with self._lock:
            self._window = max(float(self.minimum), self._window * self.backoff)
            self._resize()

    def _resize(self) -> None:
        """Caller holds the lock: as many tokens as the window's whole part
        (one in flight is taken away when it returns); wake the parked."""
        target = int(self._window)
        while self._slots < target:
            self._slots += 1
            self._tokens.append(None)
        while self._slots > target and self._claim():
            self._slots -= 1
        if self._parked:
            self._cond.notify_all()


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
        self.qos_stats = ClientQosStats()
        #: The network's chain the port's own was composed over, and that one.
        self._below: Optional[tuple] = None
        self._chain: tuple = ()

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
        if window is None:  # of two racing makers, setdefault keeps the first
            window = self._windows.setdefault(target, AimdWindow(
                initial=min(self._window_initial, self._window_max),
                maximum=self._window_max))
        return window

    def windows(self) -> dict[int, int]:
        """Current window size per daemon (telemetry)."""
        return {target: w.window for target, w in list(self._windows.items())}

    @staticmethod
    def _claim_slot(window: AimdWindow) -> None:
        """Claim one in-flight slot for a call.  Where the *waiter* drives
        progress (sockets), nobody completes calls nobody waits on: wait on
        the oldest listed one, and park only when none is listed."""
        while not window.acquire(timeout=0):
            try:
                oldest = next(iter(window.outstanding), None)
            except RuntimeError:  # resized by a finishing call: look again
                continue
            if oldest is None:
                window.acquire()
                break
            if oldest.done():  # listed just after its stage ran: see call_async
                window.outstanding.pop(oldest, None)
                continue
            oldest.wait()

    def _throttle_delay(self, err: AgainError, attempt: int) -> float:
        """Sleep before throttle retry ``attempt`` (1-based): the server's
        ``retry_after`` hint, doubled per consecutive rejection (capped), so
        an overloaded daemon faces no retry herd whose rejection traffic
        steals the capacity admission control protects."""
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
        network's future is the one returned, built with the network's
        chain and then :meth:`stage`.
        """
        network, windows = self._network, self._windows
        if self._below is not network.chain:  # composed once per network stack
            self._below = network.chain
            self._chain = self._below + (self.stage,)
        window = None
        if self.window_enabled:
            # ``in`` and ``[]``, no call: a window, once made, is never removed.
            window = windows[target] if target in windows else self.window_for(target)
            try:
                window._tokens.pop()
            except IndexError:
                self._claim_slot(window)
        future = network.call_async(
            target, handler, *args, bulk=bulk, client_id=self.client_id, chain=self._chain
        )
        if window is not None and future._source is not None:  # only a waiter drives it
            window.outstanding[future] = None
            if future._done:  # settled meanwhile, by a thread receiving for the channel
                window.outstanding.pop(future, None)
        return future

    def stage(self, future: RpcFuture, value: Any, exc: Optional[BaseException]) -> bool:
        """Give the slot back, grown by a served call; take a throttle and
        issue the call again after the server's hint (slept as :func:`defer`
        says), the count of its throttles in ``future.state``."""
        served = exc is None
        if served and value.error is not None and value.error.errno == _errno.EAGAIN:
            served, exc = False, AgainError(str(value.error), retry_after=value.error.retry_after)
        if not served and isinstance(exc, AgainError):  # or raised by a duck-typed inner
            stats = self.qos_stats
            stats.throttles += 1
            if self.window_enabled:
                self._windows[future.request.target].shrink()
            state = future.state = future.state or {}
            throttles = state[self] = state.get(self, 0) + 1
            if throttles < self._throttle_retries:
                delay = self._throttle_delay(exc, throttles)
                stats.throttle_wait += delay
                network = self._network
                return reissue(future, delay, lambda request: network.call_async(
                    request.target, request.handler, *request.args, bulk=request.bulk,
                    client_id=self.client_id, chain=request.chain,
                ), self._sleep)
            stats.giveups += 1
        if self.window_enabled:
            window = self._windows[future.request.target]
            if future._source is not None:
                try:
                    del window.outstanding[future]
                except KeyError:  # not listed (yet): see call_async
                    pass
            window.release(served)
        return False
