"""Retrying transport: transient fault recovery, final errors untouched."""

from types import SimpleNamespace

import pytest

from repro.common.errors import NotFoundError
from repro.faults import FaultTransport
from repro.rpc import RetryingTransport, RpcFuture, RpcNetwork, Transport
from repro.rpc.message import RpcRequest


class FlakyTransport(Transport):
    """Fails the first ``fail_times`` sends with ConnectionError."""

    def __init__(self, inner, fail_times):
        self.inner = inner
        self.remaining_failures = fail_times
        self.attempts = 0

    def send(self, request):
        self.attempts += 1
        if self.remaining_failures > 0:
            self.remaining_failures -= 1
            raise ConnectionError("transient fabric hiccup")
        return self.inner.send(request)


@pytest.fixture
def network():
    net = RpcNetwork()
    engine = net.create_engine(0)
    engine.register("echo", lambda x: x)

    def fail(path):
        raise NotFoundError(path)

    engine.register("fail", fail)
    return net


class TestRetry:
    def test_recovers_from_transient_faults(self, network):
        flaky = FlakyTransport(network.transport, fail_times=2)
        network.transport = RetryingTransport(flaky, max_attempts=3)
        assert network.call(0, "echo", "ok") == "ok"
        assert flaky.attempts == 3
        assert network.transport.retries == 2

    def test_gives_up_after_max_attempts(self, network):
        flaky = FlakyTransport(network.transport, fail_times=10)
        network.transport = RetryingTransport(flaky, max_attempts=3)
        with pytest.raises(ConnectionError):
            network.call(0, "echo", "x")
        assert flaky.attempts == 3

    def test_gekko_errors_never_retried(self, network):
        """A NotFoundError is a *result*, not a delivery failure."""
        inner = network.transport
        counting = FlakyTransport(inner, fail_times=0)
        network.transport = RetryingTransport(counting, max_attempts=5)
        with pytest.raises(NotFoundError):
            network.call(0, "fail", "/missing")
        assert counting.attempts == 1

    def test_non_retryable_exceptions_propagate_immediately(self, network):
        flaky = FaultTransport(network.transport)
        flaky.arm(lambda req: True, exc_factory=lambda req: LookupError("dead daemon"))
        network.transport = RetryingTransport(flaky, max_attempts=5)
        with pytest.raises(LookupError):  # a retry would have succeeded
            network.call(0, "echo", 1)
        assert flaky.fired == 1  # no retry of a permanent fault

    def test_max_attempts_one_is_passthrough(self, network):
        flaky = FlakyTransport(network.transport, fail_times=1)
        network.transport = RetryingTransport(flaky, max_attempts=1)
        with pytest.raises(ConnectionError):
            network.call(0, "echo", 1)
        assert network.transport.retries == 0

    def test_validation(self, network):
        with pytest.raises(ValueError):
            RetryingTransport(network.transport, max_attempts=0)


class TestBackoffAndDeadline:
    def test_backoff_series_with_jitter_disabled(self, network):
        sleeps = []
        flaky = FlakyTransport(network.transport, fail_times=3)
        network.transport = RetryingTransport(
            flaky,
            max_attempts=4,
            backoff_base=0.01,
            backoff_factor=2.0,
            backoff_max=0.03,
            jitter=0.0,
            sleep=sleeps.append,
        )
        assert network.call(0, "echo", "ok") == "ok"
        assert sleeps == [0.01, 0.02, 0.03]  # exponential, capped at backoff_max

    def test_jitter_is_seeded_and_replayable(self, network):
        def schedule(seed):
            sleeps = []
            flaky = FlakyTransport(network.transport, fail_times=3)
            transport = RetryingTransport(
                flaky,
                max_attempts=4,
                backoff_base=0.01,
                jitter=0.5,
                sleep=sleeps.append,
                seed=seed,
            )
            transport.send(RpcRequest(target=0, handler="echo", args=("x",)))
            return sleeps

        first = schedule(7)
        assert schedule(7) == first  # same seed, same backoff schedule
        assert schedule(8) != first
        assert all(0.01 <= s <= 0.015 for s in first[:1])  # +0..50 % jitter

    def test_deadline_bounds_total_retry_time(self, network):
        """When the next backoff would overrun the deadline, give up now."""
        now = [0.0]

        def clock():
            return now[0]

        def sleep(seconds):
            now[0] += seconds

        flaky = FlakyTransport(network.transport, fail_times=10)
        transport = RetryingTransport(
            flaky,
            max_attempts=10,
            backoff_base=0.04,
            backoff_factor=2.0,
            backoff_max=10.0,
            jitter=0.0,
            deadline=0.1,
            sleep=sleep,
            clock=clock,
        )
        with pytest.raises(ConnectionError):
            transport.send(RpcRequest(target=0, handler="echo", args=("x",)))
        # 0.04 slept, then 0.08 would land at 0.12 >= 0.1: stop early.
        assert transport.deadline_giveups == 1
        assert transport.retries == 1
        assert now[0] < 0.1

    def test_resolved_attempts_cost_no_outer_future_and_retry_inline(
        self, network, monkeypatch
    ):
        """A synchronous inner (here a fake with only ``send``) hands every
        attempt back resolved: a success is returned as is — the delivery's
        own future, no outer future around it — and a failure retries
        inline in the issuing thread, with the sync schedule's sleeps, into
        the first attempt's future."""
        made = []

        class Counted(RpcFuture):
            def __init__(self, request=None):
                made.append(self)
                super().__init__(request)

        monkeypatch.setattr("repro.rpc.transport.RpcFuture", Counted)
        engine = SimpleNamespace(send=network.engine_table[0].handle)
        request = RpcRequest(target=0, handler="echo", args=("x",))
        sleeps = []

        def retrying(fail_times):
            flaky = FlakyTransport(engine, fail_times)
            return flaky, RetryingTransport(
                flaky, max_attempts=4, backoff_base=0.01, jitter=0.0, sleep=sleeps.append
            )

        _, transport = retrying(fail_times=0)
        future = transport.send_async(request)
        assert made == [future] and future.done()
        assert future.result(0).result() == "x"

        del made[:]
        flaky, transport = retrying(fail_times=2)
        future = transport.send_async(request)
        assert future.done()  # nothing left for a waiter to drive
        assert future.result(0).result() == "x"
        assert sleeps == [0.01, 0.02]
        assert (flaky.attempts, transport.retries, transport.giveups) == (3, 2, 0)
        assert len(made) == 3 and made[0] is future  # three attempts, no outer future

    def test_async_retries_count_attempts(self, network):
        flaky = FlakyTransport(network.transport, fail_times=2)
        network.transport = RetryingTransport(
            flaky, max_attempts=3, backoff_base=0.0, jitter=0.0
        )
        future = network.call_async(0, "echo", "ok")
        assert future.result(1.0) == "ok"
        assert flaky.attempts == 3
        assert network.transport.retries == 2

    def test_async_deadline_giveup(self, network):
        now = [0.0]
        flaky = FlakyTransport(network.transport, fail_times=10)
        transport = RetryingTransport(
            flaky,
            max_attempts=10,
            backoff_base=1.0,
            backoff_max=1.0,
            jitter=0.0,
            deadline=0.5,
            sleep=lambda s: now.__setitem__(0, now[0] + s),
            clock=lambda: now[0],
        )
        future = transport.send_async(RpcRequest(target=0, handler="echo", args=("x",)))
        with pytest.raises(ConnectionError):
            future.result(1.0)
        assert transport.deadline_giveups == 1
        assert transport.retries == 0


class TestBottleneckExplainer:
    def test_ssd_bound_at_large_transfers(self):
        from repro.common.units import MiB
        from repro.models import GekkoFSModel

        info = GekkoFSModel().explain_data_bottleneck(512, 64 * MiB, write=True)
        assert info["bottleneck"] == "ssd"
        assert info["ssd_headroom"] == 1.0
        assert info["nic_headroom"] > 1.0

    def test_size_updates_bind_shared_file(self):
        from repro.common.units import KiB
        from repro.models import GekkoFSModel

        info = GekkoFSModel().explain_data_bottleneck(
            512, 8 * KiB, write=True, shared_file=True
        )
        assert info["bottleneck"] == "size_updates"

    def test_cache_shifts_bottleneck_back_to_ssd(self):
        from repro.common.units import KiB
        from repro.models import GekkoFSModel

        info = GekkoFSModel().explain_data_bottleneck(
            512, 8 * KiB, write=True, shared_file=True, size_cache=True
        )
        assert info["bottleneck"] == "ssd"

    def test_limits_consistent_with_throughput(self):
        from repro.common.units import KiB
        from repro.models import GekkoFSModel

        model = GekkoFSModel()
        info = model.explain_data_bottleneck(512, 8 * KiB, write=True)
        binding = info[f"{info['bottleneck']}_limit"]
        assert 512 * binding == pytest.approx(
            model.data_throughput(512, 8 * KiB, write=True)
        )
