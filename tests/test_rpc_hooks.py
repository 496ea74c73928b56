"""The settle-chain contract: one future per call, built with its chain.

The delivery transport's future is the one every wrapper hands back, and it
is built with the caller's whole settle chain (``request.chain``): what a
layer does when the delivery settles — observe it, free a slot, retry — is
a stage of that chain (``repro.rpc.future``).  These tests pin the contract
itself, then the three wrappers built on it, with the inner future in
flight (resolved later, by another thread or a socket's receiver) and
resolved at issue (loopback, injected faults): one implementation serves
both.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.common.errors import AgainError
from repro.faults import FaultTransport
from repro.net import RpcServer, SocketTransport
from repro.qos import ClientPort, ScheduledTransport
from repro.rpc.engine import RpcEngine, RpcNetwork
from repro.rpc.future import RpcFuture, defer, reissue, wait_all
from repro.rpc.health import DaemonHealthTracker
from repro.rpc.message import RpcRequest, RpcResponse
from repro.rpc.threaded import ThreadedTransport
from repro.rpc.transport import RetryingTransport, Transport


def _future(*stages):
    """A bare future built with the chain ``stages``, innermost first."""
    return RpcFuture(RpcRequest(target=0, handler="h", args=(), chain=stages))


class TestHookContract:
    def test_hooks_run_innermost_first_before_the_future_resolves(self):
        order = []

        def hook(name):
            def run(fut, value, exc):
                order.append((name, value, fut.done()))
                return False

            return run

        future = _future(hook("inner"), hook("outer"))
        future.add_done_callback(lambda fut: order.append(("callback", fut.done())))
        future.set_result(7)
        assert order == [("inner", 7, False), ("outer", 7, False), ("callback", True)]
        assert future.result(0) == 7

    def test_failure_reaches_the_hooks_as_exc(self):
        seen = []
        future = _future(lambda fut, value, exc: seen.append((value, exc)))
        boom = ConnectionError("lost")
        future.set_exception(boom)
        assert seen == [(None, boom)]
        assert future.exception(0) is boom

    def test_taker_reissues_into_the_same_future_waiter_sees_only_the_end(self):
        second = RpcFuture()
        outer_saw, results = [], []

        def retry(fut, value, exc):
            if exc is not None:
                return reissue(fut, 0.0, lambda request: second)
            return False

        first = _future(retry, lambda fut, value, exc: outer_saw.append((value, exc)))
        first.add_done_callback(lambda fut: results.append(fut.result(0)))
        waiter = threading.Thread(target=lambda: results.append(first.result(5)))
        waiter.start()
        first.set_exception(TimeoutError("attempt 1"))
        assert not first.done() and not outer_saw  # taken: nobody above saw it
        second.set_result("attempt 2")
        waiter.join(5)
        assert not waiter.is_alive()
        assert results == ["attempt 2", "attempt 2"]
        assert outer_saw == [("attempt 2", None)]  # entered at the taker, once

    def test_resume_lets_a_held_outcome_go_on_above_the_taker(self):
        held, above = [], []

        def hold(fut, value, exc):
            held.append(value)
            defer(fut, 0.0, lambda: fut.resume(value, exc))
            return True

        future = _future(hold, lambda fut, value, exc: above.append(value))
        future.set_result("late")
        assert held == ["late"] and above == ["late"]  # hold ran once, not again
        assert future.result(0) == "late"

    def test_resolved_at_issue_takes_the_same_route(self):
        """A future resolved as it is built ran its chain then; if a stage
        takes the outcome the future is open again until the re-issue settles."""
        attempts = []

        def retry(fut, value, exc):
            attempts.append(exc)
            if exc is not None and len(attempts) < 3:
                return reissue(
                    fut, 0.0,
                    lambda request: RpcFuture.completed("up", request)
                    if len(attempts) == 2
                    else RpcFuture.failed(ConnectionError("still refused"), request),
                )
            return False

        future = RpcFuture.failed(
            ConnectionError("refused at connect"),
            RpcRequest(target=0, handler="h", args=(), chain=(retry,)),
        )
        assert future.done() and future.result(0) == "up"
        assert [type(exc) for exc in attempts] == [ConnectionError, ConnectionError, type(None)]

    def test_a_hook_that_raises_fails_the_call_and_strands_nobody(self):
        above = []

        def buggy(fut, value, exc):
            raise KeyError("layer bug")

        future = _future(buggy, lambda fut, value, exc: above.append(type(exc)))
        future.set_result("fine")
        assert above == [KeyError]
        with pytest.raises(KeyError):
            future.result(0)

    def test_transforms_of_the_layers_below_are_the_final_attempts(self):
        """Each attempt arrives dressed by the layers below the taker; the
        taker's and the upper layers' transforms stay where they were."""
        second = RpcFuture().with_transform(lambda v: f"below2({v})")

        def retry(fut, value, exc):
            return exc is not None and reissue(fut, 0.0, lambda request: second)

        first = _future(retry).with_transform(lambda v: f"below1({v})")
        first.with_transform(lambda v: f"above({v})", 1)
        first.set_exception(TimeoutError())
        second.set_result("x")
        assert first.result(0) == "above(below2(x))"


# -- the wrappers, inner future in flight or resolved at issue -------------------


class _Scripted(Transport):
    """Plays one outcome per attempt: an exception instance fails the
    attempt, anything else is the response.  ``resolve`` says when: ``"issue"``
    hands back resolved futures (a synchronous inner), ``"later"`` resolves
    them from another thread shortly after (a pool, a receiver)."""

    def __init__(self, script, resolve):
        self.script = list(script)
        self.resolve = resolve
        self.attempts = 0
        self.futures = []

    def send_async(self, request):
        outcome = self.script[self.attempts]
        self.attempts += 1
        future = RpcFuture(request)
        self.futures.append(future)
        settle = future.set_exception if isinstance(outcome, BaseException) else future.set_result
        if self.resolve == "issue":
            settle(outcome)
        else:
            threading.Timer(0.002, settle, args=(outcome,)).start()
        return future


def _throttle():
    return RpcResponse.throttled("busy", retry_after=0.001)


@pytest.mark.parametrize("resolve", ["issue", "later"])
class TestWrappersOnOneFuture:
    def test_retry_returns_the_inner_future_and_observes_once(self, resolve):
        inner = _Scripted([ConnectionError("a"), TimeoutError("b"), RpcResponse(value=1)], resolve)
        tracker = DaemonHealthTracker(failure_threshold=1)
        retrying = RetryingTransport(
            inner, max_attempts=3, backoff_base=0.001, jitter=0, tracker=tracker
        )
        future = retrying.send_async(RpcRequest(target=0, handler="h", args=()))
        assert future is inner.futures[0]
        assert future.result(5).result() == 1
        assert (inner.attempts, retrying.retries, retrying.giveups) == (3, 2, 0)
        # One logical request, retries included, is one health observation.
        assert tracker.snapshot()[0] == {
            "state": "closed", "consecutive_failures": 0,
            "total_failures": 0, "successes": 1,
        }

    def test_retry_gives_up_with_the_last_failure_observed_once(self, resolve):
        last = TimeoutError("third")
        inner = _Scripted([ConnectionError("a"), ConnectionError("b"), last], resolve)
        tracker = DaemonHealthTracker(failure_threshold=5)
        retrying = RetryingTransport(
            inner, max_attempts=3, backoff_base=0.001, jitter=0, tracker=tracker
        )
        future = retrying.send_async(RpcRequest(target=0, handler="h", args=()))
        assert future.exception(5) is last
        assert (inner.attempts, retrying.retries, retrying.giveups) == (3, 2, 1)
        assert tracker.snapshot()[0]["total_failures"] == 1

    def test_throttle_retry_gives_the_retry_layer_a_fresh_budget(self, resolve):
        """Two delivery failures, a throttle, two more failures, then served:
        five retries under ``max_attempts=3`` only because the port's re-issue
        comes down the stack anew."""
        inner = _Scripted(
            [ConnectionError("1"), ConnectionError("2"), _throttle(),
             ConnectionError("3"), ConnectionError("4"), RpcResponse(value="served")],
            resolve,
        )
        retrying = RetryingTransport(inner, max_attempts=3, backoff_base=0.001, jitter=0)
        port = ClientPort(RpcNetwork(retrying), client_id=3, window_initial=4)
        future = port.call_async(0, "h")
        assert future is inner.futures[0]
        assert future.result(5) == "served"
        assert (inner.attempts, retrying.retries, retrying.giveups) == (6, 4, 0)
        assert port.qos_stats.throttles == 1
        window = port.window_for(0)
        assert window.inflight == 0 and window.outstanding == {}
        assert window._window == pytest.approx(2.5)  # one shrink, one grow
        assert port.inflight.as_dict()["current"] == 0

    def test_port_gives_up_after_its_throttle_budget(self, resolve):
        inner = _Scripted([_throttle()] * 3, resolve)
        port = ClientPort(RpcNetwork(inner), client_id=3, throttle_retries=3)
        future = port.call_async(0, "h")
        assert future is inner.futures[0]
        with pytest.raises(AgainError):
            future.result(5)
        assert (inner.attempts, port.qos_stats.throttles, port.qos_stats.giveups) == (3, 3, 1)
        assert port.window_for(0).inflight == 0

    def test_latency_holds_the_inner_future_open(self, resolve):
        inner = _Scripted([RpcResponse(value=1)], resolve)
        faults = FaultTransport(inner)
        faults.set_delay(0, 0.03)
        started = time.monotonic()
        future = faults.send_async(RpcRequest(target=0, handler="h", args=()))
        assert future is inner.futures[0]
        assert future.result(5).result() == 1
        assert time.monotonic() - started >= 0.03


# -- on a socket: the settling thread receives for the whole connection ---------


def _serve(handlers: dict, dispatch=None):
    engine = RpcEngine(0)
    for name, fn in handlers.items():
        engine.register(name, fn)
    server = RpcServer(engine, handlers=2, dispatch=dispatch).start()
    return engine, server, SocketTransport({0: server.address_spec})


class TestBackingOffLegOfAFanOut:
    """One leg of a ``wait_all`` backs off; its hook runs in the thread that
    receives for the connection every other leg's reply comes in on.  The
    pause must become that leg's progress source, not a sleep there."""

    BACKOFF = 0.05  # the cap on a throttle hint (qos.window)

    def _run(self, first_outcome):
        calls = []

        def flaky():
            calls.append(time.monotonic())
            if len(calls) == 1:
                raise first_outcome
            return "second try"

        # The other legs are served one after another on the connection's
        # thread: they do no work of their own, so what is timed below is
        # the pause and nothing the host's load can stretch past it.
        _engine, server, transport = _serve({"flaky": flaky, "add": lambda a, b: a + b})
        retrying = RetryingTransport(
            transport, max_attempts=3,
            backoff_base=self.BACKOFF, backoff_max=self.BACKOFF, jitter=0,
        )
        port = ClientPort(RpcNetwork(retrying), client_id=1)
        try:
            landed = []
            backing_off = port.call_async(0, "flaky")  # served, and failed, first
            others = [port.call_async(0, "add", i, i) for i in range(4)]
            for leg in others:
                leg.add_done_callback(lambda _f: landed.append(time.monotonic()))
            assert wait_all(others + [backing_off], 5) == [0, 2, 4, 6, "second try"]
            # In order: every other leg landed inside the pause the failed
            # first attempt began, and the pause was kept in full.
            assert max(landed) < calls[0] + self.BACKOFF <= calls[1]
            return retrying, port
        finally:
            transport.shutdown()
            server.stop()

    def test_retry_backoff(self):
        retrying, port = self._run(TimeoutError("fabric hiccup"))
        assert retrying.retries == 1 and port.qos_stats.throttles == 0

    def test_throttle_backoff(self):
        retrying, port = self._run(AgainError("busy", retry_after=self.BACKOFF))
        assert retrying.retries == 0 and port.qos_stats.throttles == 1


class TestChaosSplicedBetweenRetryAndSocket:
    """The fault layer sits where the chaos controller splices it: below
    retry, above the socket.  Whatever it does to an attempt, the request
    is retried and observed once."""

    @pytest.fixture
    def wired(self):
        calls = []

        def flaky():
            calls.append(1)
            if len(calls) == 1:
                raise TimeoutError("first attempt lost")  # arrives over the wire
            return "ok"

        _engine, server, transport = _serve({"echo": lambda x: x, "flaky": flaky})
        yield transport
        transport.shutdown()
        server.stop()

    @staticmethod
    def _retrying(spliced, heal=None):
        tracker = DaemonHealthTracker(failure_threshold=1)
        slept = []

        def sleep(seconds):
            slept.append(seconds)
            if heal is not None:
                heal()

        retrying = RetryingTransport(
            spliced, max_attempts=3, backoff_base=0.001, jitter=0,
            sleep=sleep, tracker=tracker,
        )
        return retrying, tracker, slept

    @staticmethod
    def _observed_once(tracker):
        health = tracker.snapshot()[0]
        return (health["successes"], health["total_failures"]) == (1, 0)

    def test_drop(self, wired):
        faults = FaultTransport(wired, seed=1)
        faults.set_drop_rate(0, 1.0)
        retrying, tracker, slept = self._retrying(faults, heal=lambda: faults.clear_drop_rate(0))
        response = retrying.send_async(RpcRequest(target=0, handler="echo", args=("x",)))
        assert response.result(5).result() == "x"
        assert (faults.drops, retrying.retries, len(slept)) == (1, 1, 1)
        assert self._observed_once(tracker)

    def test_partition(self, wired):
        faults = FaultTransport(wired)
        faults.partition({0})
        retrying, tracker, _ = self._retrying(faults, heal=faults.heal)
        response = retrying.send_async(RpcRequest(target=0, handler="echo", args=("x",)))
        assert response.result(5).result() == "x"
        assert (faults.blocked_sends, retrying.retries) == (1, 1)
        assert self._observed_once(tracker)

    def test_trigger(self, wired):
        faults = FaultTransport(wired)
        faults.arm(lambda request: request.handler == "echo")
        retrying, tracker, _ = self._retrying(faults)
        response = retrying.send_async(RpcRequest(target=0, handler="echo", args=("x",)))
        assert response.result(5).result() == "x"
        assert (faults.fired, retrying.retries) == (1, 1)
        assert self._observed_once(tracker)

    def test_latency_delays_every_attempt_of_a_retried_request(self, wired):
        faults = FaultTransport(wired)
        faults.set_delay(0, 0.02)
        retrying, tracker, _ = self._retrying(faults)
        started = time.monotonic()
        future = retrying.send_async(RpcRequest(target=0, handler="flaky", args=()))
        assert future.result(5).result() == "ok"
        assert time.monotonic() - started >= 0.04  # both attempts landed late
        assert (faults.delayed_sends, retrying.retries) == (2, 1)
        assert self._observed_once(tracker)


# -- daemon side: a settle that raises must not cost the pool a worker ---------------


class TestWorkerSurvivesARaisingSettle:
    """The outcome is handed to the reply sink outside the handler's
    ``try``: a done-callback (or an encoder, on a server) that raises is
    counted and the worker lives to serve the next request.  At the parent
    commit the one worker died and ``after`` never resolved."""

    @staticmethod
    def _poison_one(transport):
        """One request whose done-callback raises in the worker (the handler
        is held until the callback is attached), then one more behind it."""
        gate = threading.Event()
        engine = RpcEngine(0)
        engine.register("held", lambda x: (gate.wait(5), x)[1])
        transport._engines[0] = engine
        poisoned = transport.send_async(RpcRequest(target=0, handler="held", args=("a",)))
        poisoned.add_done_callback(lambda _f: 1 / 0)
        gate.set()
        assert poisoned.result(5).result() == "a"  # resolved before the callback ran
        after = transport.send_async(RpcRequest(target=0, handler="held", args=("b",)))
        assert after.result(5).result() == "b"  # the one worker is alive

    def test_threaded_pool(self):
        with ThreadedTransport({}, handlers_per_daemon=1) as transport:
            self._poison_one(transport)
            pool = transport._pools[0]
            assert all(thread.is_alive() for thread in pool.threads)
            assert pool.settle_errors == 1

    def test_scheduled_lane(self):
        with ScheduledTransport({}, meta_workers=1, data_workers=1) as transport:
            self._poison_one(transport)
            lane = transport._pools[0].lane_for("held")
            assert all(thread.is_alive() for thread in lane.threads)
            assert lane.settle_errors == 1
