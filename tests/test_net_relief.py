"""Relief readers: a stalled handler of any kind fails alone.

Every request is served by the thread that read it (``repro.net.server``);
while it serves, the connection's read role is free, and once a tick the
accept thread hands it to a relief reader if a frame is waiting.  Each test
runs over TCP and Unix sockets, without a pool (``paper``) and behind a QoS
pool, and parks a metadata handler: the smallest request must fail alone too.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.net import RpcServer, SocketTransport
from repro.net.server import _RELIEF_TICK
from repro.qos import ScheduledTransport
from repro.rpc.engine import RpcEngine
from repro.rpc.future import wait_all
from repro.rpc.message import RpcRequest

ADDRESS = 37  # thread names carry it: gkfs-net-d37-c<k>[-r<n>]
BOUND = 2  # relief readers per server (``handlers``)
WAIT = 10.0


@pytest.fixture(params=["tcp-paper", "tcp-qos", "unix-paper", "unix-qos"])
def relieved(request, tmp_path):
    """``(server, transport, parked)``: a server whose ``park`` handler
    (metadata) waits on ``parked.release``, counting arrivals in
    ``parked.entered``."""
    family, mode = request.param.split("-")
    parked = _Parked()
    engine = RpcEngine(ADDRESS)
    engine.register("park", parked)
    engine.register("add", lambda a, b: a + b)
    # Meta slots to spare: relief, not the lane, is what bounds the readers.
    dispatch = ScheduledTransport({ADDRESS: engine}, meta_workers=8) if mode == "qos" else None
    address = None if family == "tcp" else f"unix:{tmp_path}/d.sock"
    server = RpcServer(engine, address, dispatch=dispatch, handlers=BOUND).start()
    transport = SocketTransport({ADDRESS: server.address_spec})
    try:
        yield server, transport, parked
    finally:
        parked.release.set()
        transport.shutdown()
        server.stop()
        if dispatch is not None:
            dispatch.shutdown()


class _Parked:
    def __init__(self):
        self.release = threading.Event()
        self._lock = threading.Lock()
        self.entered = 0

    def __call__(self, tag):
        with self._lock:
            self.entered += 1
        assert self.release.wait(WAIT)
        return tag


def _call(handler, *args):
    return RpcRequest(target=ADDRESS, handler=handler, args=args)


def _until(predicate):
    deadline = time.monotonic() + WAIT
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.001)


def _readers():
    return [t for t in threading.enumerate() if t.name.startswith(f"gkfs-net-d{ADDRESS}-c")]


class TestRelief:
    def test_a_parked_metadata_handler_does_not_stall_the_next_call(self, relieved):
        _server, transport, parked = relieved
        held = transport.send_async(_call("park", "held"))
        _until(lambda: parked.entered == 1)
        started = time.monotonic()
        assert transport.send_async(_call("add", 1, 2)).result(0.5).result() == 3
        assert time.monotonic() - started < 0.5
        assert not held.done()
        parked.release.set()
        assert held.result(WAIT).result() == "held"

    def test_hung_requests_never_run_more_relief_readers_than_the_bound(self, relieved):
        server, transport, parked = relieved
        futures = [transport.send_async(_call("park", i)) for i in range(3 * BOUND)]
        _until(lambda: parked.entered == 1 + BOUND)
        time.sleep(6 * _RELIEF_TICK)  # ticks with frames waiting: no more readers
        assert parked.entered == 1 + BOUND
        assert server.relief_readers == server.relief_started == BOUND
        assert len(_readers()) == 1 + BOUND
        parked.release.set()
        assert [r.result() for r in wait_all(futures, timeout=WAIT)] == list(range(3 * BOUND))
        _until(lambda: server.relief_readers == 0)  # the extra readers left
        assert len(_readers()) == 1
        assert transport.send(_call("add", 2, 2)).result() == 4

    def test_no_thread_outlives_release_and_stop(self, relieved):
        server, transport, parked = relieved
        futures = [transport.send_async(_call("park", i)) for i in range(2 * BOUND)]
        _until(lambda: parked.entered == 1 + BOUND)
        parked.release.set()
        wait_all(futures, timeout=WAIT)
        transport.shutdown()
        server.stop()
        assert not _readers()
        assert not server._acceptor.is_alive()


def test_a_reader_gone_mid_service_leaves_its_connection_to_the_relief():
    """The thread back from serving finds the role taken and leaves; the
    relief reader carries on, and ends the connection at EOF."""
    parked = _Parked()
    engine = RpcEngine(ADDRESS)
    engine.register("park", parked)
    engine.register("add", lambda a, b: a + b)
    with RpcServer(engine, handlers=1).start() as server:
        transport = SocketTransport({ADDRESS: server.address_spec})
        held = transport.send_async(_call("park", "held"))
        _until(lambda: parked.entered == 1)
        assert transport.send(_call("add", 3, 4)).result() == 7  # a relief reader read it
        assert server.relief_readers == 1
        parked.release.set()
        assert held.result(WAIT).result() == "held"
        _until(lambda: server.relief_readers == 0)
        assert transport.send(_call("add", 5, 6)).result() == 11
        transport.shutdown()
        _until(lambda: server.inflight == 0 and not _readers())
