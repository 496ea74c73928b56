"""The fault layer: latency, drop, partition and one-shot rules in one
``FaultTransport``, and ``splice_faults`` putting it in a chain once.

The first four classes test the layer one kind of fault at a time.
"""

import pytest

from repro.core.cluster import GekkoFSCluster
from repro.core.config import FSConfig
from repro.faults import ChaosController, FaultEvent, FaultTransport, splice_faults
from repro.rpc import RetryingTransport, RpcNetwork
from repro.rpc.message import RpcRequest


@pytest.fixture
def network():
    net = RpcNetwork()
    for address in range(3):
        engine = net.create_engine(address)
        engine.register("echo", lambda x, a=address: (a, x))
    return net


class TestLatencyTransport:
    def test_delay_applies_only_to_configured_daemon(self, network):
        sleeps = []
        transport = FaultTransport(network.transport, sleep=sleeps.append)
        network.transport = transport
        transport.set_delay(1, 0.05)
        assert network.call(0, "echo", "a") == (0, "a")
        assert sleeps == []
        assert network.call(1, "echo", "b") == (1, "b")
        assert sleeps == [0.05]
        assert transport.delayed_sends == 1

    def test_async_delays_completion_not_issue(self, network):
        sleeps = []
        transport = FaultTransport(network.transport, sleep=sleeps.append)
        network.transport = transport
        transport.set_delay(2, 0.01)
        future = network.call_async(2, "echo", "x")
        assert future.result(1.0) == (2, "x")
        assert sleeps == [0.01]

    def test_clear_delay(self, network):
        sleeps = []
        transport = FaultTransport(network.transport, sleep=sleeps.append)
        transport.set_delay(0, 0.5)
        transport.clear_delay(0)
        transport.send(RpcRequest(target=0, handler="echo", args=("x",)))
        assert sleeps == []

    def test_negative_delay_rejected(self, network):
        transport = FaultTransport(network.transport)
        with pytest.raises(ValueError):
            transport.set_delay(0, -0.1)


class TestDropTransport:
    def test_rate_zero_drops_nothing(self, network):
        transport = FaultTransport(network.transport, seed=1)
        network.transport = transport
        for i in range(50):
            assert network.call(i % 3, "echo", i) == (i % 3, i)
        assert transport.drops == 0

    def test_rate_one_drops_everything(self, network):
        transport = FaultTransport(network.transport, seed=1)
        network.transport = transport
        transport.set_drop_rate(1, 1.0)
        with pytest.raises(ConnectionError):
            network.call(1, "echo", "x")
        assert network.call(0, "echo", "y") == (0, "y")  # other daemons fine
        assert transport.drops == 1

    def test_seeded_drops_are_replayable(self, network):
        def pattern(seed):
            transport = FaultTransport(network.transport, seed=seed)
            transport.set_drop_rate(0, 0.5)
            outcomes = []
            for i in range(40):
                try:
                    transport.send(RpcRequest(target=0, handler="echo", args=(i,)))
                    outcomes.append(True)
                except ConnectionError:
                    outcomes.append(False)
            return outcomes

        first = pattern(7)
        assert pattern(7) == first
        assert 0 < first.count(False) < 40  # actually probabilistic

    def test_async_drop_fails_the_future(self, network):
        transport = FaultTransport(network.transport, seed=0)
        network.transport = transport
        transport.set_drop_rate(2, 1.0)
        future = network.call_async(2, "echo", "x")  # must not raise here
        with pytest.raises(ConnectionError):
            future.result(1.0)

    def test_rate_validation(self, network):
        transport = FaultTransport(network.transport)
        with pytest.raises(ValueError):
            transport.set_drop_rate(0, 1.5)


class TestPartitionTransport:
    def test_blocked_addresses_unreachable(self, network):
        transport = FaultTransport(network.transport)
        network.transport = transport
        transport.partition([1, 2])
        assert network.call(0, "echo", "a") == (0, "a")
        for target in (1, 2):
            with pytest.raises(ConnectionError):
                network.call(target, "echo", "x")
        assert transport.blocked_sends == 2

    def test_heal_restores_service_without_recovery(self, network):
        transport = FaultTransport(network.transport)
        network.transport = transport
        transport.partition([1])
        with pytest.raises(ConnectionError):
            network.call(1, "echo", "x")
        assert transport.heal([1]) == [1]
        assert network.call(1, "echo", "x") == (1, "x")  # state was never lost

    def test_heal_all(self, network):
        transport = FaultTransport(network.transport)
        transport.partition([2, 0, 1])
        assert transport.heal([0, 3]) == [0]  # only what was blocked
        assert transport.heal() == [1, 2]
        assert transport.blocked == set()

    def test_async_partition_fails_the_future(self, network):
        transport = FaultTransport(network.transport)
        network.transport = transport
        transport.partition([0])
        with pytest.raises(ConnectionError):
            network.call_async(0, "echo", "x").result(1.0)


class TestTriggerTransport:
    def test_fires_once_on_matching_request(self, network):
        transport = FaultTransport(network.transport)
        network.transport = transport
        seen = []
        transport.arm(lambda req: req.handler == "echo", seen.append)
        with pytest.raises(ConnectionError):
            network.call(1, "echo", "boom")
        assert [req.target for req in seen] == [1]
        assert transport.fired == 1
        assert network.call(1, "echo", "again") == (1, "again")  # one-shot

    def test_predicate_filters_targets(self, network):
        transport = FaultTransport(network.transport)
        network.transport = transport
        transport.arm(lambda req: req.target == 2)
        assert network.call(0, "echo", "ok") == (0, "ok")
        with pytest.raises(ConnectionError):
            network.call(2, "echo", "boom")

    def test_custom_exception_factory(self, network):
        transport = FaultTransport(network.transport)
        network.transport = transport
        transport.arm(
            lambda req: True, exc_factory=lambda req: TimeoutError(req.handler)
        )
        with pytest.raises(TimeoutError):
            network.call(0, "echo", "x")

    def test_async_trigger_fails_the_future(self, network):
        transport = FaultTransport(network.transport)
        network.transport = transport
        transport.arm(lambda req: True)
        future = network.call_async(0, "echo", "x")
        with pytest.raises(ConnectionError):
            future.result(1.0)

    def test_multiple_triggers_fire_in_arm_order(self, network):
        transport = FaultTransport(network.transport)
        network.transport = transport
        fired = []
        transport.arm(lambda req: True, lambda req: fired.append("first"))
        transport.arm(lambda req: True, lambda req: fired.append("second"))
        for _ in range(2):
            with pytest.raises(ConnectionError):
                network.call(0, "echo", "x")
        assert fired == ["first", "second"]
        assert network.call(0, "echo", "x") == (0, "x")


class TestOneLayerKeepsTheStackOrder:
    """Rule, then partition, then drop, then delay — the order the four
    separate wrappers ``Trigger(Partition(Drop(Latency(base))))`` applied.
    The dropped ids below are what that four-layer stack dropped, so a
    chaos seed keeps its schedule."""

    @pytest.mark.parametrize(
        "seed, dropped",
        [
            (0, [11, 14, 20, 26, 29]),
            (1, [2, 14, 17, 20, 29]),
            (7, [2, 8, 14, 20, 23, 29]),
            (101, [8, 17, 23, 26, 29]),
            (2024, [2, 11, 17, 23, 26]),
        ],
    )
    def test_dropped_request_ids_match_the_four_layer_stack(self, network, seed, dropped):
        sleeps = []
        faults = FaultTransport(network.transport, seed=seed, sleep=sleeps.append)
        faults.partition([1])
        faults.set_drop_rate(2, 0.5)
        faults.set_delay(0, 0.001)
        faults.arm(lambda request: request.args[0] == 5)  # a request to daemon 2
        outcomes = {}
        for i in range(30):
            request = RpcRequest(target=i % 3, handler="echo", args=(i,))
            outcomes[i] = faults.send_async(request).exception(1)
        assert [i for i, exc in outcomes.items() if "injected drop" in str(exc)] == dropped
        assert "triggered fault" in str(outcomes[5])
        assert all("partition" in str(outcomes[i]) for i in range(1, 30, 3))
        assert (faults.fired, faults.blocked_sends, faults.drops) == (1, 10, len(dropped))
        assert sleeps == [0.001] * 10  # every request to daemon 0 delivered late


def _fault_layers(network):
    node, layers = network.transport, []
    while node is not None:
        if isinstance(node, FaultTransport):
            layers.append(node)
        node = getattr(node, "inner", None)
    return layers


class TestSpliceFaults:
    def test_splices_directly_above_the_base_transport(self, network):
        base = network.transport
        network.transport = RetryingTransport(base)
        faults = splice_faults(network, seed=3)
        assert network.transport.inner is faults and faults.inner is base
        assert splice_faults(network) is faults

    def test_a_bare_base_transport_is_wrapped(self, network):
        base = network.transport
        faults = splice_faults(network)
        assert network.transport is faults and faults.inner is base

    def test_two_controllers_share_one_layer(self):
        config = FSConfig(replication=2, rpc_retries=2, degraded_mode=True)
        with GekkoFSCluster(4, config) as cluster:
            a = ChaosController(cluster, seed=1)
            b = ChaosController(cluster, seed=2)
            assert a.faults is b.faults
            assert _fault_layers(cluster.network) == [a.faults]
            a.partition([1])
            assert a.faults.blocked == {1}
            b.heal()
            assert a.faults.blocked == set()
            assert b.log == [FaultEvent("heal", 1)]


class TestHealIsLoggedPerAddress:
    def test_each_lifted_address_is_one_entry_and_one_instant(self):
        config = FSConfig(replication=2, degraded_mode=True, telemetry_enabled=True)
        with GekkoFSCluster(4, config) as cluster:
            chaos = ChaosController(cluster)
            chaos.partition([3, 1, 2])
            chaos.heal([1, 0])  # 0 was never blocked: nothing to lift
            chaos.heal()
            assert chaos.log[3:] == [FaultEvent("heal", a) for a in (1, 2, 3)]
            stamps = [event.t for event in chaos.log]
            assert stamps == sorted(stamps) and stamps[0] > 0
            heals = [e for e in cluster.trace_collector.events if e.name == "fault.heal"]
            assert [e.args["target"] for e in heals] == [1, 2, 3]

    def test_scripted_heal_round_trips_through_the_log(self):
        with GekkoFSCluster(3, FSConfig()) as cluster:
            chaos = ChaosController(cluster)
            chaos.apply(FaultEvent("partition", target=2))
            event = FaultEvent("heal", target=2)
            chaos.apply(event)
            assert chaos.log[-1] == event
            assert chaos.faults.blocked == set()
