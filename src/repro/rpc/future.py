"""Futures for non-blocking RPC — the ``margo_iforward`` path.

GekkoFS reaches ~80 % of the aggregated SSD peak because its client
*never* serialises the chunk RPCs of one I/O request: every span is
forwarded with Mercury's non-blocking ``HG_Forward`` and the client waits
once for all completions (§III-B).  :class:`RpcFuture` is that completion
handle, and :func:`wait_all` is the gather.

Transports resolve futures from whatever context completes the delivery
(a handler-pool worker for :class:`~repro.rpc.threaded.ThreadedTransport`,
the issuing thread for loopback).  Result-time *transforms* let layers
above attach work that must run in the **waiting** caller's context —
unwrapping :class:`~repro.rpc.message.RpcResponse` into a value/raised
error, or advancing a virtual clock to the completion time in the DES
transport.  Transforms run on every ``result()`` call and must therefore
be idempotent.

A transport with no thread of its own — the socket client, where as in
Mercury the *waiting caller* drives progress (``HG_Progress``/
``HG_Trigger``) — gives its futures a **progress source**: an object whose
``progress(future, timeout)`` does, in the calling thread, the work that
resolves ``future``, until it is resolved, the timeout has passed, or the
source has nothing more to deliver for it.  :meth:`RpcFuture.wait` calls it
instead of parking; layers that wrap an inner future in an outer one
(:meth:`RpcFuture._follow`) or pause before re-issuing (:func:`defer`)
pass it along.  The contract: such a future resolves only while *some*
thread waits on it or on another future of the same source — a
done-callback alone pulls no reply off a socket.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Iterable, List, Optional

__all__ = ["RpcFuture", "wait_all", "defer", "DELIVERING"]

#: Park slice of a waiter whose future is in another thread's hands.
_ADOPT_POLL = 0.005


class RpcFuture:
    """Completion handle for one in-flight RPC.

    States: pending → done (value or exception).  Thread-safe; any number
    of threads may wait on the same future.
    """

    __slots__ = ("_done", "_lock", "_value", "_exception", "_callbacks",
                 "_transforms", "_source")

    def __init__(self):
        self._done = threading.Event()
        self._lock = threading.Lock()
        self._value: Any = None
        self._exception: Optional[BaseException] = None
        self._callbacks: list[Callable[["RpcFuture"], None]] = []
        self._transforms: list[Callable[[Any], Any]] = []
        #: Progress source (module docstring); None = resolved by another thread.
        self._source: Any = None

    # -- construction helpers ------------------------------------------------

    @classmethod
    def completed(cls, value: Any) -> "RpcFuture":
        """An already-resolved future (synchronous transports)."""
        future = cls()
        future.set_result(value)
        return future

    @classmethod
    def failed(cls, exc: BaseException) -> "RpcFuture":
        """An already-failed future (issue-time delivery errors)."""
        future = cls()
        future.set_exception(exc)
        return future

    # -- producer side -------------------------------------------------------

    def set_result(self, value: Any) -> None:
        """Resolve with ``value``; runs done-callbacks in this thread."""
        with self._lock:
            if self._done.is_set():
                raise RuntimeError("future already resolved")
            self._value = value
            self._done.set()
            callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(self)

    def set_exception(self, exc: BaseException) -> None:
        """Fail with ``exc``; runs done-callbacks in this thread."""
        with self._lock:
            if self._done.is_set():
                raise RuntimeError("future already resolved")
            self._exception = exc
            self._done.set()
            callbacks, self._callbacks = self._callbacks, []
        for callback in callbacks:
            callback(self)

    # -- consumer side -------------------------------------------------------

    def done(self) -> bool:
        return self._done.is_set()

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until resolved; returns False on timeout.  With a progress
        source the calling thread works instead of parking; the source is
        re-read every round, a retry layer re-points it when it re-issues."""
        if self._source is None or self._done.is_set():
            return self._done.wait(timeout)
        deadline = None if timeout is None else time.monotonic() + timeout
        while not self._done.is_set():
            remaining = None
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
            (self._source or DELIVERING).progress(self, remaining)
        return True

    def result(self, timeout: Optional[float] = None) -> Any:
        """The RPC outcome: transformed value, or the raised failure."""
        if not self.wait(timeout):
            raise TimeoutError("RPC future not resolved within timeout")
        if self._exception is not None:
            raise self._exception
        value = self._value
        for transform in self._transforms:
            value = transform(value)
        return value

    def exception(self, timeout: Optional[float] = None) -> Optional[BaseException]:
        """The failure, or ``None`` if the RPC succeeded."""
        if not self.wait(timeout):
            raise TimeoutError("RPC future not resolved within timeout")
        return self._exception

    def add_done_callback(self, callback: Callable[["RpcFuture"], None]) -> None:
        """Run ``callback(self)`` on resolution (immediately if already done).

        Callbacks fire in the resolving thread, before any waiter wakes.
        """
        with self._lock:
            if not self._done.is_set():
                self._callbacks.append(callback)
                return
        callback(self)

    # -- composition ---------------------------------------------------------

    def with_transform(self, transform: Callable[[Any], Any]) -> "RpcFuture":
        """Append a result-time transform (applied in ``result()``, in the
        waiting caller's thread).  Must be idempotent — ``result()`` may be
        called more than once.  Returns ``self`` for chaining."""
        self._transforms.append(transform)
        return self

    def _follow(self, inner: "RpcFuture") -> None:
        """This future will adopt ``inner``'s outcome: whoever waits here
        drives what ``inner`` needs driven (nothing, if a thread of its
        transport resolves it)."""
        self._source = inner if inner._source is not None else None

    def progress(self, waiter: "RpcFuture", timeout: Optional[float]) -> None:
        """A followed future as progress source: drive it; once it is
        resolved the adopting callback is running in the thread that
        resolved it — park until that has resolved or re-pointed ``waiter``."""
        if self.wait(timeout) and waiter._source is self:
            DELIVERING.progress(waiter, timeout)

    def _adopt(self, other: "RpcFuture") -> None:
        """Resolve like ``other`` did, inheriting its transforms (used by
        retrying wrappers to preserve inner-transport semantics)."""
        self._transforms.extend(other._transforms)
        exc = other.exception(0)
        if exc is not None:
            self.set_exception(exc)
        else:
            self.set_result(other._value)


class _Delivering:
    """Progress source of a future whose outcome is in some thread's hands:
    its reply was read off the wire, or its connection died and the
    in-flight calls are being failed or resubmitted one by one.  Nothing is
    left to drive; park in slices — a resubmission re-points the future."""

    @staticmethod
    def progress(waiter: RpcFuture, timeout: Optional[float]) -> None:
        waiter._done.wait(_ADOPT_POLL if timeout is None else min(timeout, _ADOPT_POLL))


DELIVERING = _Delivering()


class _Deferred:
    """Progress source that is a pause: the waiter sleeps it out, then runs
    the action (which resolves or re-points the waiting future)."""

    __slots__ = ("_due", "_action", "_sleep", "_lock")

    def __init__(self, due: float, action: Callable[[], None],
                 sleep: Callable[[float], None]):
        self._due = due
        self._action: Optional[Callable[[], None]] = action
        self._sleep = sleep
        self._lock = threading.Lock()  # two waiters of one future: one fires

    def progress(self, waiter: RpcFuture, timeout: Optional[float]) -> None:
        with self._lock:
            action = self._action
            if action is not None:
                pause = self._due - time.monotonic()
                if timeout is not None and timeout < pause:
                    self._sleep(timeout)
                    return
                if pause > 0:
                    self._sleep(pause)
                self._action = None
        if action is not None:
            action()
        elif waiter._source is self:  # the other waiter is still inside action()
            DELIVERING.progress(waiter, timeout)


def defer(outer: RpcFuture, resolved: RpcFuture, delay: float,
          action: Callable[[], None],
          sleep: Callable[[float], None] = time.sleep) -> None:
    """A retry layer's back-off: run ``action()`` ``delay`` seconds from now,
    from a done-callback of ``resolved``, for the ``outer`` future that
    ``action`` will resolve or re-issue for.

    The callback runs in the thread that resolved ``resolved``.  A pool
    worker or the issuing thread may sleep right here: nobody else waits on
    it.  But if ``resolved`` has a progress source, this thread is inside
    some waiter's receive loop and every other reply on that connection
    would wait out the sleep — so the pause becomes ``outer``'s progress
    source: whoever waits on ``outer`` sleeps it out and runs ``action``.
    """
    if delay <= 0 or resolved._source is None:
        if delay > 0:
            sleep(delay)
        action()
    else:
        outer._source = _Deferred(time.monotonic() + delay, action, sleep)


def wait_all(
    futures: Iterable[RpcFuture], timeout: Optional[float] = None
) -> List[Any]:
    """Gather a fan-out: results in issue order, or the first failure.

    Every future is waited on before any exception is raised — no leg is
    abandoned mid-flight (the client's buffers may be exposed to bulk
    transfers until every daemon has answered).  On failure the *first*
    failed future's exception (in issue order) is raised, which keeps
    error reporting deterministic regardless of completion order.

    ``timeout`` is one overall deadline for the whole gather, not a
    per-leg allowance: an N-leg fan-out blocks at most ``timeout``
    seconds total, however its legs resolve.
    """
    futures = list(futures)
    deadline = None if timeout is None else time.monotonic() + timeout
    for future in futures:
        remaining = None if deadline is None else max(0.0, deadline - time.monotonic())
        if not future.wait(remaining):
            raise TimeoutError("RPC fan-out not complete within timeout")
    results: List[Any] = []
    first_exc: Optional[BaseException] = None
    for future in futures:
        try:
            results.append(future.result(0))
        except BaseException as exc:  # re-raised below, in issue order
            if first_exc is None:
                first_exc = exc
    if first_exc is not None:
        raise first_exc
    return results
