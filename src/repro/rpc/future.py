"""Futures for non-blocking RPC — the ``margo_iforward`` path.

GekkoFS reaches ~80 % of the aggregated SSD peak because its client
*never* serialises the chunk RPCs of one I/O request: every span is
forwarded with Mercury's non-blocking ``HG_Forward`` and the client waits
once for all completions (§III-B).  :class:`RpcFuture` is that completion
handle, and :func:`wait_all` is the gather.

Transports resolve futures from whatever context completes the delivery
(a handler-pool worker, the issuing thread for loopback).  Result-time
*transforms* run in the **waiting** caller's context, on every ``result()``
— unwrapping :class:`~repro.rpc.message.RpcResponse` into a value/raised
error, advancing the DES transport's virtual clock.

A transport with no thread of its own — the socket client, where as in
Mercury the *waiting caller* drives progress (``HG_Progress``/
``HG_Trigger``) — gives its futures a **progress source**: an object whose
``progress(future, timeout)`` does, in the calling thread, the work that
resolves ``future``, until it is resolved, the timeout has passed, or the
source has nothing more to deliver for it.  :meth:`RpcFuture.wait` calls it
instead of parking.  The contract: such a future resolves only while *some*
thread waits on it or on another future of the same source — a
done-callback alone pulls no reply off a socket.

**One future per call, built with its chain.**  The future the delivery
transport makes is the one every layer above hands back, built with the
caller's **settle chain** (``request.chain``), which the stack composed once
(``RpcNetwork.compose``, :class:`~repro.qos.window.ClientPort`): a call
makes no closure and attaches nothing, as ``HG_Forward`` is handed its
callback.

* A stage — ``stage(future, value, exc) -> bool``, a layer's bound method —
  runs in the settling thread before the future resolves, innermost first.
  It reads the call off ``future.request``; its own state for one call (a
  retry count) goes in ``future.state``, made only by a failure.
* ``False`` passes the outcome on.  ``True`` means *this layer took it*: the
  future stays open until the layer feeds it the same outcome after a pause
  (:meth:`RpcFuture.resume`: the stages above the taker run) or a new
  attempt's (:func:`reissue`: the request goes down again with the chain of
  the stages below the taker — a fresh retry budget — and the attempt's
  outcome enters at the taker).  A future resolved as it is built (loopback,
  an issue-time failure) runs its chain then, before it is done: one path.
* A stage that raises fails the call with what it raised; the stages above
  it see that failure, so each still frees what it holds.
* The pause (:func:`defer`) is slept where the stage runs when that is a pool
  worker or the issuer; a connection's receiver, which every other reply on
  the connection waits for, makes it the future's progress source instead.
"""

from __future__ import annotations

import threading
import time
from dataclasses import replace
from typing import Any, Callable, Iterable, List, Optional

__all__ = ["RpcFuture", "wait_all", "defer", "reissue", "DELIVERING"]

#: Park slice of a waiter whose future is in another thread's hands.
_ADOPT_POLL = 0.005


class RpcFuture:
    """Completion handle for one in-flight RPC.

    States: pending → done (value or exception).  Thread-safe; any number
    of threads may wait on the same future.  ``request`` is the call it
    completes, whose ``chain`` it settles through; ``None`` for a bare one.
    """

    __slots__ = ("_done", "_parked", "_lock", "_value", "_exception", "_callbacks",
                 "_transforms", "_source", "_chain", "_at", "_followed", "request", "state")

    def __init__(self, request: Any = None):
        self._done = False
        self._lock = threading.Lock()
        #: Event the waiters park on, made by the first that must (:meth:`_park`).
        self._parked: Optional[threading.Event] = None
        #: Progress source (module docstring); None = resolved by another thread.
        self._source: Any = None
        self._value: Any = None
        self._exception: Optional[BaseException] = None
        self.request = request
        self._chain = () if request is None else request.chain
        #: Transforms as ``(transform, n)``, n = stages below it; done-callbacks.
        self._transforms = self._callbacks = ()
        #: Index of the running stage (of the taker, while one holds the outcome).
        self._at = 0
        #: ``(attempt, at)``: the last attempt a taker at ``at`` issued for it.
        self._followed: Optional[tuple] = None
        #: Per-call state of the stages that need some, by layer.
        self.state: Optional[dict] = None

    # -- construction helpers ------------------------------------------------

    @classmethod
    def completed(cls, value: Any, request: Any = None) -> "RpcFuture":
        """An already-resolved future (synchronous transports)."""
        future = cls(request)
        future.settle(value, None)
        return future

    @classmethod
    def failed(cls, exc: BaseException, request: Any = None, at: int = 0) -> "RpcFuture":
        """An already-failed future (issue-time delivery errors), its chain
        run from the stage at ``at``."""
        future = cls(request)
        future.settle(None, exc, at)
        return future

    @classmethod
    def of(cls, fn: Callable[[Any], Any], request: Any) -> "RpcFuture":
        """``request``'s future, resolved now with ``fn(request)``'s value or
        with what it raised: a synchronous delivery's outcome."""
        future = cls(request)
        try:
            value = fn(request)
        except BaseException as exc:  # the call's outcome: result() re-raises it
            future.settle(None, exc)
        else:
            future.settle(value, None)
        return future

    # -- producer side -------------------------------------------------------

    def set_result(self, value: Any) -> None:
        """Settle with ``value``: the chain, then (unless a stage took it)
        resolve and run done-callbacks, all in this thread."""
        self.settle(value, None)

    def set_exception(self, exc: BaseException) -> None:
        """Settle with the failure ``exc``; see :meth:`set_result`."""
        self.settle(None, exc)

    def settle(self, value: Any, exc: Optional[BaseException], _at: int = 0) -> None:
        """Either of the two above — the shape of a pool's reply sink — from
        the stage at ``_at`` on."""
        if self._done:
            raise RuntimeError("future already resolved")
        at = _at
        for stage in self._chain[at:]:
            self._at = at
            try:
                if stage(self, value, exc):
                    return  # taken: the taker settles this future again
            except Exception as error:  # a layer's bug: the call's failure,
                value, exc = None, error  # which the stages above still see
            at += 1
        with self._lock:
            if self._done:
                raise RuntimeError("future already resolved")
            self._value = value
            self._exception = exc
            self._done = True
            if self._parked is not None:
                self._parked.set()
            callbacks, self._callbacks = self._callbacks, ()
        for callback in callbacks:
            callback(self)

    def resume(self, value: Any, exc: Optional[BaseException]) -> None:
        """The stage that had taken this outcome lets it go on: the stages
        above it run, then the future resolves."""
        self.settle(value, exc, self._at + 1)

    def _follow(self, attempt: "RpcFuture") -> None:
        """``attempt``'s outcome is this future's next one, entering at the
        stage that took the last; whoever waits here drives ``attempt``."""
        at = self._at
        self._followed = (attempt, at)
        self._source = attempt if attempt._source is not None else None
        attempt.add_done_callback(
            lambda done: self.settle(done._value, done._exception, at)
        )

    def _effective(self) -> tuple:
        """The transforms ``result()`` applies: a followed attempt's for the
        layers below the stage that followed it, this future's own above it."""
        if self._followed is None:
            return self._transforms
        attempt, at = self._followed
        return tuple([(transform, min(n, at)) for transform, n in attempt._effective()]
                     + [entry for entry in self._transforms if entry[1] > at])

    # -- consumer side -------------------------------------------------------

    def done(self) -> bool:
        return self._done

    def _park(self, timeout: Optional[float]) -> bool:
        """Sleep until resolved; False on timeout.  The first thread that has
        to makes the event: a waiter driving a progress source never does."""
        with self._lock:
            if self._done:
                return True
            if self._parked is None:
                self._parked = threading.Event()
        return self._parked.wait(timeout)

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until resolved; returns False on timeout.  With a progress
        source the calling thread works instead of parking; the source is
        re-read every round, a retry layer re-points it when it re-issues."""
        if self._done:
            return True
        if self._source is None:
            return self._park(timeout)
        deadline = None if timeout is None else time.monotonic() + timeout
        while not self._done:
            remaining = None
            if deadline is not None:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
            (self._source or DELIVERING).progress(self, remaining)
        return True

    def result(self, timeout: Optional[float] = None) -> Any:
        """The RPC outcome: transformed value, or the raised failure."""
        if not (self._done or self.wait(timeout)):
            raise TimeoutError("RPC future not resolved within timeout")
        if self._exception is not None:
            raise self._exception
        value = self._value
        for transform, _ in self._transforms if self._followed is None else self._effective():
            value = transform(value)
        return value

    def exception(self, timeout: Optional[float] = None) -> Optional[BaseException]:
        """The failure, or ``None`` if the RPC succeeded."""
        if not self.wait(timeout):
            raise TimeoutError("RPC future not resolved within timeout")
        return self._exception

    def add_done_callback(self, callback: Callable[["RpcFuture"], None]) -> None:
        """Run ``callback(self)`` on resolution (now if already done), in
        the resolving thread, before any waiter wakes."""
        with self._lock:
            if not self._done:
                self._callbacks += (callback,)
                return
        callback(self)

    # -- composition ---------------------------------------------------------

    def with_transform(self, transform: Callable[[Any], Any], above: int = 0) -> "RpcFuture":
        """Append an idempotent result-time transform (run by ``result()`` in
        the waiting thread) of the layer with ``above`` stages below it."""
        self._transforms += ((transform, above),)
        return self

    def progress(self, waiter: "RpcFuture", timeout: Optional[float]) -> None:
        """A followed attempt as progress source: drive it; once it is
        resolved its done-callback is settling ``waiter`` in the thread that
        resolved it — park until that has resolved or re-pointed ``waiter``."""
        if self.wait(timeout) and waiter._source is self:
            DELIVERING.progress(waiter, timeout)


class _Delivering:
    """Progress source of a future whose outcome is in some thread's hands:
    its reply was read off the wire, or its connection died and the
    in-flight calls are being failed or resubmitted one by one.  Nothing is
    left to drive; park in slices — a resubmission re-points the future."""

    @staticmethod
    def progress(waiter: RpcFuture, timeout: Optional[float]) -> None:
        waiter._park(_ADOPT_POLL if timeout is None else min(timeout, _ADOPT_POLL))


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


def defer(future: RpcFuture, delay: float, action: Callable[[], None],
          sleep: Callable[[float], None] = time.sleep) -> None:
    """A settle stage took ``future``'s outcome: run ``action()`` — which
    settles the future again — ``delay`` seconds from now.  A pool worker or
    the issuing thread sleeps right here: nobody else waits on it.  A future
    with a progress source is being settled inside some waiter's receive
    loop, where every other reply on that connection would wait out the
    sleep — so the pause becomes its progress source: whoever waits on it
    sleeps it out and runs ``action``."""
    if delay <= 0 or future._source is None:
        if delay > 0:
            sleep(delay)
        action()
    else:
        future._source = _Deferred(time.monotonic() + delay, action, sleep)


def reissue(future: RpcFuture, delay: float, issue: Callable[[Any], RpcFuture],
            sleep: Callable[[float], None] = time.sleep) -> bool:
    """A retry layer's back-off, from its settle stage: in ``delay`` seconds
    ``issue(request)`` the stack below again, ``request`` being the call with
    the chain of the stages below the taker; that attempt's outcome enters
    ``future`` at the same stage.  Returns the stage's "taken"."""
    request = future.request
    if request is not None:
        request = replace(request, chain=request.chain[:future._at])
    defer(future, delay, lambda: future._follow(issue(request)), sleep)
    return True


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
