"""The ``full`` stack's failure paths, run through the chain its futures
are built with, on an in-process cluster and a socket cluster.

A retried transient failure, an absorbed EAGAIN and an open breaker each
leave the stack as they found it: the port's window holds no slot, the
in-flight gauge reads 0, and exactly the RPCs the case needs reached a
daemon.  A settle stage that raises fails the call with what it raised,
and the stages above it still give back what they hold.
"""

from __future__ import annotations

import pytest

from repro.common.errors import AgainError, DaemonUnavailableError
from repro.core.cluster import GekkoFSCluster
from repro.core.config import FSConfig
from repro.faults import splice_faults
from repro.net import LocalSocketCluster
from repro.rpc.transport import Transport

FULL = dict(rpc_retries=2, breaker_enabled=True, qos_enabled=True, integrity_enabled=True)
PATH = "/gkfs/file"


@pytest.fixture(params=["in-process", "sockets"])
def fs(request):
    config = FSConfig(**FULL)
    if request.param == "sockets":
        cluster = LocalSocketCluster(2, config)
    else:
        cluster = GekkoFSCluster(2, config=config)
    with cluster:
        client = cluster.client(0)
        client.write_bytes(PATH, b"x" * 100)
        client.stat(PATH)  # windows made, connections up
        yield cluster, client


def _engine(cluster, address: int):
    if isinstance(cluster, GekkoFSCluster):
        return cluster.daemons[address].engine
    return cluster.served[address].daemon.engine


def _served(cluster) -> int:
    return sum(sum(_engine(cluster, a).calls_served.values()) for a in range(cluster.num_nodes))


def _owner(cluster) -> int:
    return cluster.distributor.locate_metadata(PATH[len("/gkfs"):])


def _assert_idle(cluster, client) -> None:
    port = client.network
    assert all(window.inflight == 0 and not window.outstanding
               for window in port._windows.values())
    assert cluster.network.inflight.as_dict()["current"] == 0


def test_a_transient_connection_error_is_retried_once(fs):
    cluster, client = fs
    retries, served = cluster.retrying.retries, _served(cluster)
    splice_faults(cluster.network).arm(lambda request: request.handler == "gkfs_stat")
    assert client.stat(PATH).size == 100
    assert cluster.retrying.retries - retries == 1
    assert _served(cluster) - served == 1  # the failed attempt never left the client
    assert cluster.health.snapshot()[_owner(cluster)]["total_failures"] == 0
    _assert_idle(cluster, client)


def test_an_eagain_is_absorbed_and_shrinks_the_window(fs):
    cluster, client = fs
    owner = _owner(cluster)
    engine = _engine(cluster, owner)
    stat = engine._handlers["gkfs_stat"]
    refused = []

    def busy_once(*args):
        if not refused:
            refused.append(args)
            raise AgainError("busy", retry_after=0.001)
        return stat(*args)

    engine.deregister("gkfs_stat")
    engine.register("gkfs_stat", busy_once)
    port = client.network
    before = port.window_for(owner)._window
    throttles, served = port.qos_stats.throttles, _served(cluster)
    assert client.stat(PATH).size == 100
    assert port.qos_stats.throttles - throttles == 1
    assert port.window_for(owner)._window < before  # shrunk, then grown by one success
    assert _served(cluster) - served == 2  # the refused delivery, then the served one
    assert cluster.retrying.retries == 0  # a throttle is no delivery failure
    assert cluster.health.snapshot()[owner]["total_failures"] == 0
    _assert_idle(cluster, client)


def test_an_open_breaker_fails_fast_with_no_rpc_sent(fs):
    cluster, client = fs
    owner = _owner(cluster)
    for _ in range(cluster.config.breaker_failure_threshold):
        cluster.health.record_failure(owner)
    served = _served(cluster)
    with pytest.raises(DaemonUnavailableError):
        client.stat(PATH)
    assert _served(cluster) == served
    assert cluster.health.fast_fails >= 1
    _assert_idle(cluster, client)


class _Raising(Transport):
    """A layer whose settle stage has a bug."""

    def __init__(self, inner):
        self.inner = inner

    def send_async(self, request):
        return self.inner.send_async(request)

    def stage(self, future, value, exc):
        raise KeyError("stage bug")


def test_a_raising_stage_fails_the_call_and_the_layers_above_release(fs):
    cluster, client = fs
    cluster.network.transport = _Raising(cluster.network.transport)
    with pytest.raises(KeyError):
        client.stat(PATH)
    _assert_idle(cluster, client)
