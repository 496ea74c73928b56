"""Per-daemon health tracking and the circuit breaker fused into the retry layer."""

import pytest

from repro.common.errors import DaemonUnavailableError, NotFoundError
from repro.rpc import DaemonHealthTracker, RetryingTransport, RpcNetwork
from repro.rpc.health import CLOSED, HALF_OPEN, OPEN


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def tracker(clock):
    return DaemonHealthTracker(failure_threshold=3, cooldown=1.0, clock=clock)


class TestDaemonHealthTracker:
    def test_starts_closed_and_allows(self, tracker):
        assert tracker.state(0) == CLOSED
        assert tracker.allow(0)
        assert tracker.healthy(0)

    def test_trips_after_consecutive_failures(self, tracker):
        for _ in range(3):
            assert tracker.allow(0)
            tracker.record_failure(0)
        assert tracker.state(0) == OPEN
        assert tracker.trips == 1
        assert not tracker.allow(0)
        assert tracker.fast_fails == 1

    def test_success_resets_the_streak(self, tracker):
        tracker.record_failure(0)
        tracker.record_failure(0)
        tracker.record_success(0)
        tracker.record_failure(0)
        tracker.record_failure(0)
        assert tracker.state(0) == CLOSED  # never three in a row

    def test_cooldown_admits_exactly_one_probe(self, tracker, clock):
        for _ in range(3):
            tracker.record_failure(0)
        clock.advance(1.0)
        assert tracker.allow(0)  # the probe
        assert tracker.state(0) == HALF_OPEN
        assert tracker.probes == 1
        assert not tracker.allow(0)  # concurrent requests still refused
        tracker.record_success(0)
        assert tracker.state(0) == CLOSED
        assert tracker.recoveries == 1
        assert tracker.allow(0)

    def test_failed_probe_reopens_and_restarts_cooldown(self, tracker, clock):
        for _ in range(3):
            tracker.record_failure(0)
        clock.advance(1.0)
        assert tracker.allow(0)
        tracker.record_failure(0)
        assert tracker.state(0) == OPEN
        assert not tracker.allow(0)  # cooldown restarted at the probe failure
        clock.advance(1.0)
        assert tracker.allow(0)

    def test_daemons_tracked_independently(self, tracker):
        for _ in range(3):
            tracker.record_failure(1)
        assert tracker.state(1) == OPEN
        assert tracker.state(0) == CLOSED
        assert tracker.allow(0)

    def test_reset_forgets_history(self, tracker):
        for _ in range(3):
            tracker.record_failure(0)
        tracker.reset(0)
        assert tracker.state(0) == CLOSED
        assert tracker.allow(0)

    def test_snapshot_gauge(self, tracker):
        tracker.record_success(0)
        tracker.record_failure(1)
        snap = tracker.snapshot()
        assert snap[0]["successes"] == 1
        assert snap[1]["consecutive_failures"] == 1
        assert snap[1]["state"] == CLOSED

    def test_validation(self, clock):
        with pytest.raises(ValueError):
            DaemonHealthTracker(failure_threshold=0)
        with pytest.raises(ValueError):
            DaemonHealthTracker(cooldown=-1.0)


@pytest.fixture
def network():
    net = RpcNetwork()
    engine = net.create_engine(0)
    engine.register("echo", lambda x: x)

    def missing(path):
        raise NotFoundError(path)

    engine.register("missing", missing)
    return net


def _install_breaker(network, clock):
    """The breaker every deployment runs: the tracker fused into the retry
    layer, with ``max_attempts=1`` so nothing is retried."""
    tracker = DaemonHealthTracker(failure_threshold=2, cooldown=1.0, clock=clock)
    network.transport = RetryingTransport(
        network.transport, max_attempts=1, tracker=tracker
    )
    return tracker


class TestCircuitBreakerTransport:
    def test_open_breaker_fails_fast_with_eio(self, network, clock):
        tracker = _install_breaker(network, clock)
        network.remove_engine(0)  # daemon dies: LookupError at the transport
        for _ in range(2):
            with pytest.raises(LookupError):
                network.call(0, "echo", 1)
        assert tracker.state(0) == OPEN
        with pytest.raises(DaemonUnavailableError):  # no wire attempt now
            network.call(0, "echo", 1)
        assert tracker.fast_fails == 1

    def test_semantic_errors_are_successful_deliveries(self, network, clock):
        tracker = _install_breaker(network, clock)
        for _ in range(5):
            with pytest.raises(NotFoundError):
                network.call(0, "missing", "/nope")
        assert tracker.state(0) == CLOSED  # ENOENT is an answer, not a failure

    def test_probe_recovers_after_daemon_returns(self, network, clock):
        tracker = _install_breaker(network, clock)
        network.remove_engine(0)
        for _ in range(2):
            with pytest.raises(LookupError):
                network.call(0, "echo", 1)
        engine = network.create_engine(0)  # daemon restarts
        engine.register("echo", lambda x: x)
        clock.advance(1.0)
        assert network.call(0, "echo", "back") == "back"  # the probe
        assert tracker.state(0) == CLOSED
        assert tracker.recoveries == 1

    def test_async_path_observes_outcomes(self, network, clock):
        tracker = _install_breaker(network, clock)
        network.remove_engine(0)
        futures = [network.call_async(0, "echo", i) for i in range(2)]
        for future in futures:
            with pytest.raises(LookupError):
                future.result(1.0)
        assert tracker.state(0) == OPEN
        refused = network.call_async(0, "echo", 3)  # never raises at issue time
        with pytest.raises(DaemonUnavailableError):
            refused.result(1.0)

    def test_unavailable_error_is_eio(self):
        import errno

        assert DaemonUnavailableError("x").errno == errno.EIO


class TestThrottlesAreNotFailures:
    """QoS backpressure must never look like daemon death (satellite #2)."""

    def test_throttle_responses_count_as_success(self, network, clock):
        from repro.common.errors import AgainError

        tracker = _install_breaker(network, clock)

        def throttling(x):
            raise AgainError("lane at queue limit", retry_after=0.001)

        network.engine_table[0].register("throttling", throttling)
        for _ in range(5):
            with pytest.raises(AgainError):
                network.call(0, "throttling", 1)
        assert tracker.state(0) == CLOSED
        assert tracker.snapshot()[0]["total_failures"] == 0

    def test_throttle_resets_a_failure_streak(self, network, clock):
        # One delivery failure, then a throttle: the streak must be back
        # at zero, so a later single failure still cannot trip a
        # threshold-2 breaker.
        from repro.common.errors import AgainError

        tracker = _install_breaker(network, clock)
        engine = network.engine_table[0]
        engine.register("throttling", lambda: (_ for _ in ()).throw(
            AgainError("busy", retry_after=0.001)))
        network.remove_engine(0)
        with pytest.raises(LookupError):
            network.call(0, "echo", 1)
        restarted = network.create_engine(0)
        restarted.register("throttling", lambda: (_ for _ in ()).throw(
            AgainError("busy", retry_after=0.001)))
        restarted.register("echo", lambda x: x)
        with pytest.raises(AgainError):
            network.call(0, "throttling")
        network.remove_engine(0)
        with pytest.raises(LookupError):
            network.call(0, "echo", 1)
        assert tracker.state(0) == CLOSED  # 1 failure, throttle, 1 failure

    def test_raised_again_error_guard_in_record(self, network, clock):
        # Direct transport-layer guard: even if AgainError ever became a
        # member of DELIVERY_FAILURES by subclassing accident, _observe
        # must treat it as success.
        from repro.common.errors import AgainError

        tracker = _install_breaker(network, clock)
        breaker = network.transport
        for _ in range(5):
            breaker._observe(0, AgainError("busy"))
        assert tracker.state(0) == CLOSED
        assert tracker.snapshot()[0]["total_failures"] == 0
