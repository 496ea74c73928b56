"""The work-conserving lane: an idle QoS lane, meta or data, lends its slot
to the server's connection thread.

Thread identity and counts only, no timing: *where* a handler ran, *how
many* ran at once, *which* counters moved.  A lane is ``workers`` execution
slots in front of a WFQ backlog (``repro.qos.pool``); the socket server
offers its connection thread for every request, whatever it moves or
exposes, and the lane takes the offer when nobody is queued and a slot is
free.  Each rule is pinned on both lanes: ``LANES`` says how to make a
request and a parking one for either.
"""

from __future__ import annotations

import contextlib
import os
import sys
import threading
import time

import pytest

from repro.common.errors import AgainError
from repro.core import chunking
from repro.core.chunking import fetch_chunk
from repro.core.config import FSConfig
from repro.core.daemon import DATA_HANDLER_NAMES
from repro.net import LocalSocketCluster, RpcServer, SocketTransport
from repro.qos import ScheduledTransport, WeightedFairQueue
from repro.qos.pool import MIGRATION_CLIENT_ID, MIGRATION_WEIGHT, _EWMA_ALPHA, _EWMA_SEED
from repro.rpc.bulk import BulkHandle
from repro.rpc.engine import RpcEngine
from repro.rpc.future import wait_all
from repro.rpc.message import RpcRequest
from repro.telemetry.metrics import MetricsRegistry

WAIT = 10.0  # every park in this file is bounded; nothing asserts on it

SMALL = chunking.pack_spans([(0, 0, 8192, 0)])  # one span, well under the threshold
LARGE = chunking.pack_spans([(0, 0, chunking.INLINE_THRESHOLD + 1, 0)])  # one byte over it
#: lane -> (handler that records, handler that parks, what follows the tag):
#: a data request is sized by the spans it names, as the real handlers' are.
LANES = {
    "meta": ("mark", "park", ()),
    "data": ("gkfs_read_chunks", "gkfs_write_chunks", (SMALL,)),
}


class _Gate:
    """A handler that parks until told to go, and says when it got there."""

    def __init__(self):
        self.entered = threading.Event()
        self.release = threading.Event()

    def __call__(self, value):
        self.entered.set()
        assert self.release.wait(WAIT)
        return value


@contextlib.contextmanager
def _lane_server(serve=None, **pool_options):
    """One engine behind a QoS pool behind a socket server.  Yields
    ``(engine, pool transport, server, ran)``; ``ran`` lists
    ``(tag, thread name)`` per ``mark`` call in execution order (``serve``
    stands in for ``mark`` when given)."""
    engine = RpcEngine(0)
    ran: list = []
    ran_lock = threading.Lock()

    def mark(tag, spans=None, bulk=None):
        with ran_lock:
            ran.append((tag, threading.current_thread().name))
        return tag

    engine.register("mark", serve or mark)
    engine.register("gkfs_read_chunks", serve or mark)  # a DATA_HANDLER_NAMES member
    dispatch = ScheduledTransport({0: engine}, **pool_options)
    server = RpcServer(engine, dispatch=dispatch).start()
    try:
        yield engine, dispatch, server, ran
    finally:
        server.stop()
        dispatch.shutdown()


def _meta_lane(dispatch, lane="meta"):
    return dispatch._pool_for(0).lanes[lane]


def _request(handler, *args, client_id=None, bulk=None):
    return RpcRequest(target=0, handler=handler, args=args, client_id=client_id, bulk=bulk)


def _small(lane, tag, client_id=None):
    """A request ``lane`` is offered the connection thread for."""
    handler, _park, rest = LANES[lane]
    return _request(handler, tag, *rest, client_id=client_id)


def _parking(engine, lane, gate, tag):
    """Register ``gate`` under ``lane``'s parking handler; the small request
    that parks on it."""
    _mark, handler, rest = LANES[lane]
    engine.register(handler, lambda value, spans=None: gate(value))
    return _request(handler, tag, *rest)


def _record_threads(cluster):
    """``[(handler, thread name, has an exposure), ...]`` as the daemons of a
    socket cluster serve them."""
    seen: list = []
    for served in cluster.served:
        engine = served.daemon.engine

        def handle(request, real=engine.handle):
            seen.append((request.handler, threading.current_thread().name,
                         request.bulk is not None))
            return real(request)

        engine.handle = handle  # looked up per call by whoever serves
    return seen


def _until(predicate):
    deadline = time.monotonic() + WAIT
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.001)


def _held_slot_queues_arrivals_in_wfq_order(lane):
    gate = _Gate()
    weights = {MIGRATION_CLIENT_ID: MIGRATION_WEIGHT}  # 1 : 0.1
    options = {f"{lane}_workers": 1, "weights": weights}
    with _lane_server(**options) as (engine, dispatch, server, ran):
        held = _parking(engine, lane, gate, "held")
        with SocketTransport({0: server.address_spec}) as holder, \
                SocketTransport({0: server.address_spec}) as sender:
            parked = holder.send_async(held)
            assert gate.entered.wait(WAIT)  # the one slot is lent out
            # Migration traffic arrives first, then the foreground client.
            arrivals = [(MIGRATION_CLIENT_ID, f"mig{i}") for i in range(3)]
            arrivals += [(1, f"fg{i}") for i in range(6)]
            requests = [_small(lane, tag, client_id=c) for c, tag in arrivals]
            futures = [sender.send_async(r) for r in requests]
            _until(lambda: dispatch.queue_depth(0) == len(arrivals))
            assert ran == []  # nobody overtook the held slot's backlog
            gate.release.set()
            assert parked.result(WAIT).result() == "held"
            wait_all(futures, timeout=WAIT)
    reference = WeightedFairQueue(weights=weights)
    for request in requests:
        reference.push(request.client_id, float(request.wire_size), request.args[0])
    expected = [reference.pop()[1] for _ in arrivals]
    assert [tag for tag, _ in ran] == expected
    assert expected != [tag for _, tag in arrivals]  # weighted, not FIFO
    assert expected.index("fg5") < expected.index("mig1")
    assert all(name == f"gkfs-qos-d0-{lane}0" for _, name in ran)


def _lane_concurrency_stays_within_its_workers(lane):
    """Eight connections of small requests against two slots: the handlers
    running at once never exceed the lane's ``workers``."""
    engine_lock = threading.Lock()
    running = high_water = 0

    def busy(value, spans=None):
        nonlocal running, high_water
        with engine_lock:
            running += 1
            high_water = max(high_water, running)
        time.sleep(0.0005)  # invite overlap; nothing is asserted on it
        with engine_lock:
            running -= 1
        return value

    connections, calls = 8, 40
    errors: list = []

    def work(spec, base):
        try:
            with SocketTransport({0: spec}) as transport:
                for i in range(calls):
                    value = transport.send(_small(lane, base + i, client_id=base)).result()
                    assert value == base + i
        except BaseException as exc:
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with _lane_server(busy, **{f"{lane}_workers": 2}) as (_engine, dispatch, server, _ran):
            threads = [
                threading.Thread(target=work, args=(server.address_spec, 1000 * n))
                for n in range(connections)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
            assert not [t for t in threads if t.is_alive()]
            served_on = _meta_lane(dispatch, lane)
            assert served_on.served == connections * calls
            # A lent slot comes back after the reply is on the wire.
            _until(lambda: served_on._free == served_on.workers == 2)
    finally:
        sys.setswitchinterval(interval)
    assert not errors, errors
    assert 1 <= high_water <= 2


def _queue_limit_eagain_matches_the_queued_path(lane):
    gate = _Gate()
    options = {f"{lane}_workers": 1, "queue_limit": 1}
    with _lane_server(**options) as (engine, dispatch, server, _ran):
        held = _parking(engine, lane, gate, "held")
        with SocketTransport({0: server.address_spec}) as holder, \
                SocketTransport({0: server.address_spec}) as sender:
            parked = holder.send_async(held)
            assert gate.entered.wait(WAIT)
            queued = sender.send_async(_small(lane, "queued"))
            _until(lambda: dispatch.queue_depth(0) == 1)
            over_wire = sender.send(_small(lane, "refused"))
            in_process = dispatch.send_async(_small(lane, "refused")).result(WAIT)
            assert _meta_lane(dispatch, lane).throttled_queue == 2
            gate.release.set()
            wait_all([parked, queued], timeout=WAIT)
    with pytest.raises(AgainError):
        over_wire.result()
    assert over_wire.error.retry_after == in_process.error.retry_after > 0


class TestWhereHandlersRun:
    """The names of the first two tests come from the size rule the server
    no longer has: chunk traffic and exposures are lent like metadata, and
    what a lane owns is the slot, not the thread."""

    def test_metadata_on_the_connection_thread_chunks_on_the_data_lane(self):
        # Whole 64 KiB chunks: every group is above the inline threshold.
        config = FSConfig(chunk_size=65536, qos_enabled=True)
        with LocalSocketCluster(2, config) as cluster:
            recorded = _record_threads(cluster)
            client = cluster.client(0)
            fd = client.open("/gkfs/lend.bin", os.O_CREAT | os.O_RDWR)
            payload = os.urandom(3 * 65536)
            client.pwrite(fd, payload, 0)
            assert client.pread(fd, len(payload), 0) == payload
            client.stat("/gkfs/lend.bin")
            client.close(fd)
            client.unlink("/gkfs/lend.bin")
            seen: dict = {}
            for handler, name, exposed in recorded:
                seen.setdefault(handler, set()).add(name)
                assert exposed == (handler in ("gkfs_write_chunks", "gkfs_read_chunks"))
            for handler in ("gkfs_create", "gkfs_stat", "gkfs_update_size",
                            "gkfs_remove_metadata", "gkfs_write_chunks", "gkfs_read_chunks"):
                assert seen[handler], handler
                assert all(n.startswith("gkfs-net-d") and "-c" in n for n in seen[handler]), (
                    handler, seen[handler])
            # ... each in a slot of its lane: the data lane counts the chunks.
            chunk_rpcs = sum(h in DATA_HANDLER_NAMES for h, _, _ in recorded)
            lanes = [served._dispatch._pool_for(served.daemon.engine.address).lanes
                     for served in cluster.served]
            assert sum(lane["data"].served for lane in lanes) == chunk_rpcs

    def test_a_bulk_exposure_is_never_lent_whatever_the_handler(self):
        # An exposure is lent like any request; only a busy lane queues it.
        gate = _Gate()
        with _lane_server(meta_workers=1) as (engine, dispatch, server, ran):
            held = _parking(engine, "meta", gate, "held")
            with SocketTransport({0: server.address_spec}) as transport, \
                    SocketTransport({0: server.address_spec}) as holder:
                transport.send(_request("mark", "small")).result()
                transport.send(_request("mark", "bulk", bulk=BulkHandle(bytearray(8)))).result()
                transport.send(_small("data", "small-data")).result()
                transport.send(_request(
                    "gkfs_read_chunks", "data", LARGE, bulk=BulkHandle(bytearray(8192)))).result()
                parked = holder.send_async(held)
                assert gate.entered.wait(WAIT)  # the meta lane's one slot is out
                queued = transport.send_async(
                    _request("mark", "queued", bulk=BulkHandle(bytearray(8))))
                _until(lambda: dispatch.queue_depth(0) == 1)
                gate.release.set()
                wait_all([parked, queued], timeout=WAIT)
        where = dict(ran)
        for tag in ("small", "bulk", "small-data", "data"):
            assert where[tag].startswith("gkfs-net-d0-c"), (tag, where[tag])
        assert where["queued"] == "gkfs-qos-d0-meta0"

    def test_in_process_send_async_never_lends(self):
        # The issuer must get its future back before any handler runs.
        engine = RpcEngine(0)
        gate = _Gate()
        ran_on = []

        def parked(value):
            ran_on.append(threading.current_thread())
            return gate(value)

        engine.register("parked", parked)
        with ScheduledTransport({0: engine}) as transport:
            future = transport.send_async(_request("parked", 7))
            assert not future.done()  # and we are here: send_async returned
            assert gate.entered.wait(WAIT)
            gate.release.set()
            assert future.result(WAIT).result() == 7
        assert ran_on[0] is not threading.current_thread()
        assert ran_on[0].name.startswith("gkfs-qos-d0-meta")


class TestBacklogComesFirst:
    def test_held_slots_queue_arrivals_which_leave_in_wfq_order(self):
        _held_slot_queues_arrivals_in_wfq_order("meta")

    def test_an_arrival_behind_a_backlog_queues_even_with_a_slot_free(self):
        # The transient the rule is for: somebody is queued, a slot has just
        # come free, no worker has woken yet.  Made to stand still by
        # pushing the backlog without the wake-up.
        engine = RpcEngine(0)
        order = []
        engine.register("mark", lambda tag: order.append((tag, threading.get_ident())))
        with ScheduledTransport({0: engine}, meta_workers=1) as transport:
            pool = transport._pool_for(0)
            lane = pool.lanes["meta"]
            done = threading.Semaphore(0)
            reply = lambda response, failure: done.release()  # noqa: E731
            first = _request("mark", "queued-first")
            with lane._lock:
                lane.wfq.push("anon", float(first.wire_size), (first, reply, pool.clock()))
            assert lane._free == 1 and lane.depth == 1
            pool.submit(_request("mark", "offered-second"), reply, lend=True)
            assert done.acquire(timeout=WAIT) and done.acquire(timeout=WAIT)
        assert [tag for tag, _ in order] == ["queued-first", "offered-second"]
        assert threading.get_ident() not in {ident for _, ident in order}

    def test_lane_concurrency_never_exceeds_its_workers(self):
        _lane_concurrency_stays_within_its_workers("meta")


class TestAdmissionOnTheLendPath:
    def test_queue_limit_eagain_with_the_queued_paths_retry_after(self):
        _queue_limit_eagain_matches_the_queued_path("meta")

    def test_token_bucket_eagain_with_the_queued_paths_retry_after(self):
        # 0.01 ops/s: a burst of one, then ~100 s to the next token.
        with _lane_server(rate_limits={7: 0.01}) as (_engine, dispatch, server, ran):
            with SocketTransport({0: server.address_spec}) as transport:
                assert transport.send(_request("mark", "first", client_id=7)).result() == "first"
                over_wire = transport.send(_request("mark", "second", client_id=7))
                in_process = dispatch.send_async(
                    _request("mark", "third", client_id=7)).result(WAIT)
                assert transport.send(_request("mark", "other", client_id=8)).result() == "other"
            assert _meta_lane(dispatch).throttled_rate == 2
        with pytest.raises(AgainError):
            over_wire.result()
        assert 90.0 < over_wire.error.retry_after <= 100.0
        assert in_process.error.retry_after == pytest.approx(over_wire.error.retry_after, abs=5.0)
        assert [tag for tag, _ in ran] == ["first", "other"]  # refused ones never ran


class TestALentRequestIsAccounted:
    def test_ledger_served_ewma_and_wait_histogram(self):
        now = [0.0]
        with _lane_server(clock=lambda: now[0]) as (engine, dispatch, server, _ran):

            def tick(value):
                now[0] += 1e-3  # one millisecond of service, on the pool's clock
                return value

            engine.register("tick", tick)
            metrics = MetricsRegistry()
            dispatch.attach(0, metrics)
            lane = _meta_lane(dispatch)
            with SocketTransport({0: server.address_spec}) as transport:
                for i in range(5):
                    assert transport.send(_request("tick", i, client_id=3)).result() == i
            assert lane.served == 5
            assert dispatch.client_shares(0)[3]["ops"] == 5
            assert dispatch.client_shares(0)[3]["bytes"] > 0
            ewma = _EWMA_SEED
            for _ in range(5):
                ewma += _EWMA_ALPHA * (1e-3 - ewma)
            assert lane.service_ewma == pytest.approx(ewma)
            waits = metrics.histogram_for("qos.wait.meta")
            assert waits.count == 5 and waits.max == 0.0  # served where it arrived
            assert metrics.histogram_for("qos.depth.meta").count == 0  # joined no backlog

    def test_a_raising_reply_sink_is_counted_and_the_connection_lives(self):
        with _lane_server() as (_engine, dispatch, server, ran):
            real = server._finish

            class Blowing:  # the answer's write raises inside the reply sink
                def send(self, head, body):
                    raise RuntimeError("reply sink blew up")

            def finish(conn, seq, request, response, exc):
                poisoned = response is not None and response.value == "poison"
                real(Blowing() if poisoned else conn, seq, request, response, exc)

            server._finish = finish
            with SocketTransport({0: server.address_spec}) as transport:
                lost = transport.send_async(_request("mark", "poison"))  # never answered
                assert transport.send(_request("mark", "next")).result() == "next"
                assert not lost.done()
            assert _meta_lane(dispatch).settle_errors == 1
            _until(lambda: server.inflight == 0)  # the poisoned one retired too
        assert [name.startswith("gkfs-net-d0-c") for _, name in ran] == [True, True]


class TestTheDataLaneLendsToo:
    """The same rule for chunk traffic, whatever a request moves.  The names
    of the first two tests come from the size rule the server no longer has:
    a large transfer, an exposure or a request that cannot be sized is lent
    too."""

    CHUNK = 65536  # above the threshold: a whole chunk is a large transfer

    @pytest.mark.parametrize("qos", [True, False], ids=["qos", "plain"])
    def test_small_data_on_the_connection_thread_large_or_exposed_on_a_worker(self, qos):
        config = FSConfig(chunk_size=self.CHUNK, qos_enabled=qos)
        edge = chunking.INLINE_THRESHOLD
        with LocalSocketCluster(2, config) as cluster:
            recorded = _record_threads(cluster)
            client = cluster.client(0)
            fd = client.open("/gkfs/sizes.bin", os.O_CREAT | os.O_RDWR)
            owner = cluster.distributor.locate_chunk("/sizes.bin", 0)
            payload = os.urandom(self.CHUNK)

            def lent(call, exposure):
                """``call``'s chunk RPCs were served by the owner's reader and
                came with an exposure exactly when ``exposure``."""
                del recorded[:]
                call()
                data = [(name, exposed) for handler, name, exposed in recorded
                        if handler.endswith(("_chunks", "_chunk"))]
                assert data
                assert {exposed for _, exposed in data} == {exposure}
                names = {name for name, _ in data}
                assert all(n.startswith(f"gkfs-net-d{owner}-c") for n in names), names

            for size in (8192, edge):  # up to and including the threshold: inline
                lent(lambda: client.pwrite(fd, payload[:size], 0), False)
                lent(lambda: self._reads(client, fd, payload[:size]), False)
            for size in (edge + 1, self.CHUNK):  # above it: an exposure
                lent(lambda: client.pwrite(fd, payload[:size], 0), True)
                lent(lambda: self._reads(client, fd, payload[:size]), True)
            # Whole chunks without an exposure, as cache fill, read-repair,
            # resync and migration send them.
            call = client.network.call
            lent(lambda: fetch_chunk(call, owner, "/sizes.bin", 0, config), False)
            lent(lambda: call(owner, "gkfs_replace_chunk", "/sizes.bin", 0, payload, None),
                 False)
            lent(lambda: call(owner, "gkfs_replace_chunk", "/sizes.bin", 0, payload[:4096],
                              None), False)
            # the size still says one chunk: what the replica lost is a hole
            assert client.pread(fd, self.CHUNK, 0) == payload[:4096] + bytes(self.CHUNK - 4096)
            client.close(fd)

    @staticmethod
    def _reads(client, fd, expected):
        assert client.pread(fd, len(expected), 0) == expected

    def test_a_data_request_that_cannot_be_sized_is_not_lent(self):
        # Nothing is sized any more: odd arguments are lent like the rest,
        # and a handler that raises on them answers a fault, served alone.
        with _lane_server() as (engine, _dispatch, server, ran):
            with SocketTransport({0: server.address_spec}) as transport:
                assert transport.send(_request("gkfs_read_chunks", "bare")).result() == "bare"
                assert transport.send(_request("gkfs_read_chunks", "odd", 7)).result() == "odd"
                assert transport.send(_request("gkfs_read_chunks", "large", LARGE)).result()
                engine.register("gkfs_write_chunks", lambda *args: chunking.SPAN.unpack(b""))
                with pytest.raises(Exception, match="unpack"):
                    transport.send(_request("gkfs_write_chunks", "odd")).result()
                assert transport.send(_request("gkfs_read_chunks", "after")).result() == "after"
        assert all(name.startswith("gkfs-net-d0-c") for _, name in ran), ran

    def test_a_parked_lent_read_queues_arrivals_which_leave_in_wfq_order(self):
        _held_slot_queues_arrivals_in_wfq_order("data")

    def test_eight_connections_of_small_reads_stay_within_the_data_workers(self):
        _lane_concurrency_stays_within_its_workers("data")

    def test_queue_limit_eagain_with_the_queued_paths_retry_after(self):
        _queue_limit_eagain_matches_the_queued_path("data")

    def test_bytes_moved_are_counted_whichever_way_they_travelled(self):
        # An inline read's payload is in no request and in no bulk handle.
        config = FSConfig(chunk_size=self.CHUNK, qos_enabled=True)
        rounds = 16
        with LocalSocketCluster(2, config) as cluster:
            small, large = cluster.client(0), cluster.client(1)
            for client, name in ((small, "/gkfs/s.bin"), (large, "/gkfs/l.bin")):
                client.write_bytes(name, os.urandom(self.CHUNK))
            before = self._ledger(cluster)
            for client, name, size in ((small, "/gkfs/s.bin", 8192),
                                       (large, "/gkfs/l.bin", self.CHUNK)):
                fd = client.open(name, os.O_RDONLY)
                for _ in range(rounds):
                    assert len(client.pread(fd, size, 0)) == size
            after = self._ledger(cluster)
            assert after[0] - before[0] >= rounds * 8192
            assert after[1] - before[1] >= rounds * self.CHUNK

    @staticmethod
    def _ledger(cluster):
        """``qos.client_bytes.<id>`` summed over the daemons, by client id."""
        totals = {0: 0, 1: 0}
        for served in cluster.served:
            gauges = served.daemon.metrics_snapshot()["gauges"]
            for client in totals:
                totals[client] += gauges.get(f"qos.client_bytes.{client}", 0)
        return totals


class TestDrain:
    def test_graceful_stop_delivers_a_lent_request_in_flight(self):
        gate = _Gate()
        with _lane_server() as (engine, _dispatch, server, _ran):
            engine.register("park", gate)
            with SocketTransport({0: server.address_spec}) as transport:
                parked = transport.send_async(_request("park", "drained"))
                assert gate.entered.wait(WAIT)
                stopper = threading.Thread(target=server.stop, kwargs={"drain": True})
                stopper.start()
                _until(lambda: server._stopped and not server._acceptor.is_alive())
                assert stopper.is_alive() and server.inflight == 1  # waiting for it
                gate.release.set()
                assert parked.result(WAIT).result() == "drained"
                stopper.join(WAIT)
                assert not stopper.is_alive()
