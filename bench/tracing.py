"""Spans and counts for the traced run, recorded from outside the program.

Nothing under ``src/`` changes: every span comes from a wrapper this file
puts around a public seam of an object the benchmark built.

Client side, outermost first — each level records one span per RPC from
the call until its future resolves (for a synchronous call, until the call
returns in the client thread):

* ``qos.window``    a proxy around the client's ``ClientPort`` (``full`` only)
* ``rpc.engine``    a proxy around ``deployment.network`` (``RpcNetwork``)
* ``rpc.transport`` a timing ``Transport`` outermost in ``network.transport``
                    (only when a retry/breaker layer exists below it)
* ``net.client``    a timing ``Transport`` directly above ``SocketTransport``

Daemon side: ``engine.handle`` (``rpc.engine.handle``), every registered
handler re-registered (``core.daemon``), the bulk handle a handler is given
(``net.bulk``), ``daemon.kv`` (``kvstore.lsm.*``) and ``daemon.storage``
(``storage.localfs.*``).  The operation id and the client span that caused
an RPC travel in the request envelope through ``network.tracer``, the seam
the telemetry plane uses, so daemon spans name their cause.

A layer's self time is its spans' total minus its child level's total.
Pure functions (codec, ``split_range``, ``Distributor.locate_*``,
``block_checksums``) cannot be wrapped; they are timed by replaying a
sample of the run's own inputs and multiplied by the counted calls.
Only work done inside a timed operation is counted: the per-round
housekeeping (listing the directory, removing the IOR file) is not.
"""

from __future__ import annotations

import itertools
import threading
from collections import defaultdict
from dataclasses import replace
from statistics import median
from time import perf_counter
from typing import NamedTuple

from repro.core.chunking import split_range
from repro.core.daemon import DATA_HANDLER_NAMES
from repro.net import codec
from repro.net.bulk import ServerBulkHandle
from repro.rpc.message import RpcResponse
from repro.rpc.transport import Transport
from repro.storage.integrity import block_checksums
from repro.telemetry.histogram import LatencyHistogram

from workloads import MIB

_SAMPLE = 256  # inputs kept per kind for the replayed pure functions
_WAL_RECORD_HEADER = 13  # crc(4) op(1) key_len(4) value_len(4), see kvstore/wal.py
_HANDLER_METHODS = {"gkfs_metrics": "metrics_snapshot"}


class _Context(NamedTuple):
    """What ``RpcNetwork.call_async`` stamps into a request envelope."""

    request_id: int
    span_id: int


class Tracer:
    """In-memory span store: ``(id, name, start, end, parent, op)`` tuples,
    plus counters keyed by the kind of operation the work was done for."""

    def __init__(self):
        self.spans: list = []
        self.op_kind: dict = {}  # op id -> operation kind
        self.counters: dict = defaultdict(lambda: defaultdict(float))
        self.samples: dict = defaultdict(list)  # replay inputs
        self.round_starts: list = []  # index into ``spans`` where each round began
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def new_id(self) -> int:
        return next(self._ids)

    def current(self):
        """The ``network.tracer`` hook: trace context of the calling thread."""
        op = getattr(self._local, "op", None)
        return None if op is None else _Context(op, self._local.span)

    def enter(self, op, span):
        """Make ``span`` the calling thread's current span; returns the
        previous ``(op, span)`` for :meth:`leave`."""
        local = self._local
        previous = (getattr(local, "op", None), getattr(local, "span", None))
        local.op, local.span = op, span
        return previous

    def leave(self, previous) -> None:
        self._local.op, self._local.span = previous

    def record(self, sid, name, start, end, parent, op) -> None:
        self.spans.append((sid, name, start, end, parent, op))

    def count(self, name: str, amount: float = 1) -> None:
        """Add to a counter of the operation the calling thread works for."""
        kind = self.op_kind.get(getattr(self._local, "op", None))
        if kind is not None:
            self.count_for(kind, name, amount)

    def count_for(self, kind: str, name: str, amount: float = 1) -> None:
        with self._lock:
            self.counters[kind][name] += amount

    def sample(self, kind: str, item) -> None:
        bucket = self.samples[kind]
        if len(bucket) < _SAMPLE:
            bucket.append(item)

    # -- the load generator's hooks -------------------------------------------

    def op_begin(self, kind: str, start: float) -> None:
        sid = self.new_id()
        self.op_kind[sid] = kind
        self._local.op_start = start
        self.enter(sid, sid)

    def op_end(self, end: float) -> None:
        sid = self._local.op
        self.record(sid, "op", self._local.op_start, end, None, sid)
        self.leave((None, None))

    # -- spans ----------------------------------------------------------------

    def call(self, name: str, fn, *args, **kwargs):
        """A span around a call that completes in the calling thread."""
        sid = self.new_id()
        previous = self.enter(getattr(self._local, "op", None), sid)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.record(sid, name, start, perf_counter(), previous[1], previous[0])
            self.leave(previous)

    def issue(self, name: str, fn, *args, **kwargs):
        """A span from a call that returns a future until it resolves; the
        time until the call returned is counted as ``<name>.issue``."""
        sid = self.new_id()
        previous = self.enter(getattr(self._local, "op", None), sid)
        start = perf_counter()
        try:
            future = fn(*args, **kwargs)
            self.count(name + ".issue", perf_counter() - start)
        finally:
            self.leave(previous)
        future.add_done_callback(
            lambda _f: self.record(sid, name, start, perf_counter(),
                                   previous[1], previous[0])
        )
        return future


# -- client side ----------------------------------------------------------------


class _CallProxy:
    """Times ``call``/``call_async`` of an ``RpcNetwork``-shaped object and
    forwards everything else."""

    def __init__(self, inner, tracer: Tracer, name: str, split_sync: bool):
        self._inner = inner
        self._tracer = tracer
        self._name = name
        self._split_sync = split_sync

    def __getattr__(self, attr):
        return getattr(self._inner, attr)

    def call_async(self, target, handler, *args, **kwargs):
        return self._tracer.issue(
            self._name, self._inner.call_async, target, handler, *args, **kwargs
        )

    def call(self, target, handler, *args, **kwargs):
        tracer = self._tracer
        if not self._split_sync:
            return tracer.call(self._name, self._inner.call, target, handler,
                               *args, **kwargs)
        # RpcNetwork.call is call_async(...).result(); taking the two steps
        # here shows when the reply was complete and when the caller ran
        # again — the gap is the client thread's wake-up.
        done = []

        def forward():
            future = self._inner.call_async(target, handler, *args, **kwargs)
            tracer.count(self._name + ".issue", perf_counter() - start)
            future.add_done_callback(lambda _f: done.append(perf_counter()))
            return future.result()

        start = perf_counter()
        try:
            return tracer.call(self._name, forward)
        finally:
            if done:
                context = tracer.current()
                tracer.record(tracer.new_id(), "wake", done[0], perf_counter(),
                              context.span_id if context else None,
                              context.request_id if context else None)


class TimingTransport(Transport):
    """One span per request from ``send_async`` until the future resolves."""

    def __init__(self, inner: Transport, tracer: Tracer, name: str, lowest: bool):
        self.inner = inner
        self._tracer = tracer
        self._name = name
        self._lowest = lowest  # directly above the socket: count and sample

    def send_async(self, request):
        tracer = self._tracer
        future = tracer.issue(self._name, self.inner.send_async, request)
        if self._lowest and request.request_id is not None:
            tracer.count("rpcs")
            if request.handler not in DATA_HANDLER_NAMES:
                tracer.count("meta_rpcs")
            kind = tracer.op_kind.get(request.request_id)
            future.add_done_callback(lambda fut: self._sample(kind, request, fut))
        return future

    def _sample(self, kind, request, future) -> None:
        if future.exception(0) is not None:
            self._tracer.count_for(kind, "failed_rpcs")
            return
        # Without a retry layer this is the very future RpcNetwork hands
        # out, already carrying its unwrap-the-response transform: the
        # result is then the handler value itself, or its error raised.
        try:
            value = future.result(0)
        except Exception:
            return  # a file-system error is an answer, just not a sample
        if isinstance(value, RpcResponse):
            if value.error is not None:
                return
            value = value.value
        # Without its bulk handle: the codec never reads it, and a sample
        # must not keep a megabyte of payload alive per request.
        self._tracer.sample("rpc:" + kind, (replace(request, bulk=None), value))

    def send(self, request):
        return self.send_async(request).result()


class _DistributorProxy:
    """Counts placement look-ups; forwards everything."""

    def __init__(self, inner, tracer: Tracer):
        self._inner = inner
        self._tracer = tracer

    def __getattr__(self, attr):
        return getattr(self._inner, attr)

    def locate_metadata(self, path):
        self._tracer.count("locates")
        self._tracer.sample("locate", (path, None))
        return self._inner.locate_metadata(path)

    def locate_chunk(self, path, chunk_id):
        self._tracer.count("locates")
        self._tracer.sample("locate", (path, chunk_id))
        return self._inner.locate_chunk(path, chunk_id)


# -- daemon side ------------------------------------------------------------------


class _BulkProxy:
    """Times the transfers a handler makes through its bulk handle."""

    def __init__(self, inner, tracer: Tracer):
        self._inner = inner
        self._tracer = tracer

    def __getattr__(self, attr):
        return getattr(self._inner, attr)

    def __len__(self):
        return len(self._inner)

    def pull(self, *args):
        return self._tracer.call("net.bulk", self._inner.pull, *args)

    def push(self, *args):
        return self._tracer.call("net.bulk", self._inner.push, *args)


class _KvProxy:
    """Times the metadata store's point operations; counts WAL bytes from
    the record format (header + key + value per logged mutation)."""

    def __init__(self, inner, tracer: Tracer):
        self._inner = inner
        self._tracer = tracer

    def __getattr__(self, attr):
        return getattr(self._inner, attr)

    def __len__(self):
        return len(self._inner)

    def get(self, key):
        return self._tracer.call("kvstore.lsm.get", self._inner.get, key)

    def _logged(self, key, value=b""):
        self._tracer.count("wal_appends")
        self._tracer.count("wal_bytes", _WAL_RECORD_HEADER + len(key) + len(value))

    def put(self, key, value):
        self._logged(key, value)
        return self._tracer.call("kvstore.lsm.put", self._inner.put, key, value)

    def delete(self, key):
        self._logged(key)
        return self._tracer.call("kvstore.lsm.delete", self._inner.delete, key)

    def merge(self, key, fn):
        value = self._tracer.call("kvstore.lsm.merge", self._inner.merge, key, fn)
        self._logged(key, value)
        return value


class _StorageProxy:
    """Times chunk I/O and counts the bytes the integrity plane digests.

    The digest runs inside ``write_chunk``/``read_chunk_verified``, out of
    reach of a wrapper, so its *work* is counted here with the rule
    ``ChunkStorage._integrity_after_write`` applies (a write that is not
    block-aligned re-reads and re-digests every block it touches), and its
    *time* is that count times the replayed ``block_checksums`` rate.
    """

    def __init__(self, inner, tracer: Tracer):
        self._inner = inner
        self._tracer = tracer
        self._length: dict = {}
        if inner.integrity:
            for path in inner.paths():
                for chunk_id in inner.chunk_ids(path):
                    self._length[(path, chunk_id)] = len(
                        inner.read_chunk(path, chunk_id, 0, inner.chunk_size)
                    )

    def __getattr__(self, attr):
        return getattr(self._inner, attr)

    def write_chunk(self, path, chunk_id, offset, data):
        tracer = self._tracer
        tracer.count("chunk_bytes_written", len(data))
        if self._inner.integrity and data:
            if not tracer.samples["digest"]:
                tracer.sample("digest", bytes(data))  # one payload is enough
            block = self._inner.block_size
            old = self._length.get((path, chunk_id), 0)
            end = offset + len(data)
            new = max(old, end)
            low = min(offset, old)
            if offset % block == 0 and low == offset and (end % block == 0 or end == new):
                digested = len(data)
            else:
                first, last = low // block, (end - 1) // block
                digested = min((last + 1) * block, new) - first * block
            tracer.count("digest_bytes_daemon", digested)
            self._length[(path, chunk_id)] = new
        return tracer.call(
            "storage.localfs.write", self._inner.write_chunk, path, chunk_id, offset, data
        )

    def read_chunk(self, *args):
        data = self._tracer.call("storage.localfs.read", self._inner.read_chunk, *args)
        self._tracer.count("chunk_bytes_read", len(data))
        return data

    def read_chunk_verified(self, path, chunk_id, offset, length):
        tracer = self._tracer
        data, proofs = tracer.call(
            "storage.localfs.read", self._inner.read_chunk_verified,
            path, chunk_id, offset, length,
        )
        tracer.count("chunk_bytes_read", len(data))
        if data and self._inner.integrity:
            block = self._inner.block_size
            stored = self._length.get((path, chunk_id), offset + len(data))
            proved = sum(blen for _boff, blen, _digest in proofs)
            first, last = offset // block, (offset + len(data) - 1) // block
            covered = min((last + 1) * block, stored) - first * block
            tracer.count("digest_bytes_client", proved)
            tracer.count("digest_bytes_daemon", covered - proved)
        return data, proofs

    def remove_chunks(self, path):
        for key in [key for key in self._length if key[0] == path]:
            del self._length[key]
        return self._tracer.call(
            "storage.localfs.remove", self._inner.remove_chunks, path
        )


def _traced_handle(engine, tracer: Tracer):
    real = engine.handle

    def handle(request):
        sid = tracer.new_id()
        previous = tracer.enter(request.request_id, sid)
        start = perf_counter()
        try:
            return real(request)
        finally:
            tracer.record(sid, "rpc.engine.handle", start, perf_counter(),
                          request.parent_span, request.request_id)
            tracer.leave(previous)

    return handle


def _traced_handler(fn, tracer: Tracer):
    def handler(*args):
        if args and isinstance(args[-1], ServerBulkHandle):
            args = args[:-1] + (_BulkProxy(args[-1], tracer),)
        return tracer.call("core.daemon", fn, *args)

    return handler


# -- installation -------------------------------------------------------------------


class Installed:
    """The wrappers put around one deployment, and where to read counts."""

    def __init__(self, dep, tracer: Tracer):
        self.dep = dep
        self.tracer = tracer
        deployment = dep.cluster.deployment
        network = deployment.network

        if deployment.retrying is not None:
            deployment.retrying.inner = TimingTransport(
                deployment.socket_transport, tracer, "net.client", lowest=True
            )
            network.transport = TimingTransport(
                network.transport, tracer, "rpc.transport", lowest=False
            )
            below = ["rpc.transport", "net.client"]
        else:
            network.transport = TimingTransport(
                network.transport, tracer, "net.client", lowest=True
            )
            below = ["net.client"]
        deployment.network = _CallProxy(network, tracer, "rpc.engine", split_sync=True)

        # Clients built now sit on the proxied network; the QoS port, when
        # the config has one, is wrapped once more from the outside.
        dep.clients = [dep.cluster.client(node) for node in range(len(dep.clients))]
        ported = dep.config.qos_enabled
        for client in dep.clients:
            if ported:
                client.network = _CallProxy(client.network, tracer, "qos.window",
                                            split_sync=False)
            client.distributor = _DistributorProxy(client.distributor, tracer)
        # Set last: a client built while ``network.tracer`` is set would take
        # it for the telemetry plane's collector and install that plane's spans.
        network.tracer = tracer
        #: client-side span names, outermost first
        self.levels = (["qos.window"] if ported else []) + ["rpc.engine"] + below

        for daemon in dep.daemons:
            engine = daemon.engine
            for name in engine.handler_names:
                method = getattr(
                    daemon, _HANDLER_METHODS.get(name, name[len("gkfs_"):])
                )
                engine.deregister(name)
                engine.register(name, _traced_handler(method, tracer))
            engine.handle = _traced_handle(engine, tracer)
            daemon.kv = _KvProxy(daemon.kv, tracer)
            daemon.storage = _StorageProxy(daemon.storage, tracer)
        self._base = self._totals()

    def _totals(self) -> dict:
        """Whole-deployment counters that are totals, not per-operation."""
        dep = self.dep
        deployment = dep.cluster.deployment
        out: dict = defaultdict(float)
        for daemon in dep.daemons:
            out["flushes"] += daemon.kv.stats.flushes
            out["compactions"] += daemon.kv.stats.compactions
            out["verify_failures"] += daemon.storage.integrity_stats.checksum_failures
            out["served"] += sum(daemon.engine.calls_served.values())
            out["bytes_in"] += daemon.engine.bytes_in
            out["bytes_out"] += daemon.engine.bytes_out
            gauges = daemon.metrics.snapshot()["gauges"]
            out["pool_throttles"] += sum(
                value for name, value in gauges.items()
                if name.startswith("qos.throttles.")
            )
        for client in dep.clients:
            out["verify_failures"] += client.stats.integrity_failovers
            port_stats = getattr(client.network, "qos_stats", None)
            if port_stats is not None:
                out["window_throttles"] += port_stats.throttles
        if deployment.retrying is not None:
            out["retries"] = deployment.retrying.retries
        if deployment.health is not None:
            out["trips"] = deployment.health.trips
        return out

    def totals(self) -> dict:
        now = self._totals()
        return defaultdict(float, {k: now[k] - self._base.get(k, 0) for k in now})

    def pool_wait_us(self) -> tuple[float, float]:
        """p50 and p99 of the daemons' WFQ queue wait (0 without QoS)."""
        merged = LatencyHistogram()
        for daemon in self.dep.daemons:
            for lane in ("meta", "data"):
                hist = daemon.metrics.histogram(f"qos.wait.{lane}")
                if hist is not None:
                    merged.merge(LatencyHistogram.from_state(hist.to_state()))
        if merged.count == 0:
            return 0.0, 0.0
        return 1e6 * merged.percentile(50), 1e6 * merged.percentile(99)


# -- replayed pure functions ----------------------------------------------------------


def _seconds_per_item(fn, items: list, floor_s: float = 0.02) -> float:
    """Seconds per item of ``fn`` over ``items``, repeated to ``floor_s``."""
    if not items:
        return 0.0
    passes, start = 0, perf_counter()
    while True:
        for item in items:
            fn(item)
        passes += 1
        elapsed = perf_counter() - start
        if elapsed >= floor_s:
            return elapsed / (passes * len(items))


def _codec_costs(pairs: list) -> tuple[float, float, float]:
    """(encode seconds, decode seconds, framed bytes) per RPC, from sampled
    (request, response value) pairs — both directions of one RPC."""
    if not pairs:
        return 0.0, 0.0, 0.0
    bodies = [
        (codec.encode_request_body(request),
         codec.encode_response_body(codec.STATUS_OK, value))
        for request, value in pairs
    ]

    def encode(pair):
        request, value = pair
        codec.pack_frame(codec.KIND_REQUEST, 1, codec.encode_request_body(request))
        codec.pack_frame(codec.KIND_RESPONSE, 1,
                         codec.encode_response_body(codec.STATUS_OK, value))

    header = codec.pack_frame(codec.KIND_REQUEST, 1)

    def decode(body_pair):
        codec.unpack_header(header)
        codec.unpack_header(header)
        codec.decode_request_body(body_pair[0], None)
        codec.decode_response_body(body_pair[1])

    framed = sum(2 * codec.HEADER_SIZE + len(a) + len(b) for a, b in bodies) / len(bodies)
    return _seconds_per_item(encode, pairs), _seconds_per_item(decode, bodies), framed


def _digest_seconds_per_byte(storage, samples: list) -> float:
    """``block_checksums`` over this run's bytes, in the block-sized pieces
    the storage digests."""
    if not samples:
        return 0.0
    block = storage.block_size
    seed_bytes = bytes(samples[0])
    buffer = (seed_bytes * (8 * block // len(seed_bytes) + 1))[: 8 * block]
    per_call = _seconds_per_item(
        lambda data: block_checksums(data, block, storage.algorithm), [buffer]
    )
    return per_call / len(buffer)


# -- the report -------------------------------------------------------------------------


def _union(intervals: list) -> float:
    total, edge = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > edge:
            total += end - max(start, edge)
            edge = end
    return total


#: Rows of the µs-per-operation table, in the order a request meets them.
ROWS = (
    "core.client", "core.chunking", "core.distributor", "qos.window",
    "rpc.engine", "rpc.transport", "net.codec", "net.client", "net.bulk",
    "rpc.engine.handle", "core.daemon", "kvstore.lsm", "storage.localfs",
    "storage.integrity", "unattributed",
)

#: Nesting depth of each span name; everything else is a leaf of a handler.
_DEPTH = {"op": 0, "qos.window": 1, "rpc.engine": 2, "rpc.transport": 3,
          "net.client": 4, "rpc.engine.handle": 5, "core.daemon": 6}
_LEAF = 7
#: The client thread's wake-up after a synchronous reply lies inside the
#: ``rpc.engine`` span but after every span below it has ended, so it is
#: kept off the nesting chain: taken from ``rpc.engine``, given to transit.
_DEPTH["wake"] = _WAKE = 8


def report(installed: Installed, workload, rounds: list, reference_ops_s: float,
           reference_p99_us: float) -> tuple[dict, dict]:
    """Per-layer metric values over the whole traced window, and one
    µs-per-operation table per operation kind (rows in seconds summed, then
    divided by the operations of that kind)."""
    tracer, dep = installed.tracer, installed.dep
    totals = installed.totals()
    levels = installed.levels
    kinds = list(workload.classes)
    counters = tracer.counters

    # Raw totals per span name, and per operation the time *covered* at
    # each depth: the union of that depth's intervals, so two RPCs in
    # flight at once count their shared time once.  An instant of an
    # operation then belongs to the deepest layer active in it.
    seconds: dict = defaultdict(lambda: defaultdict(float))  # kind -> span name -> s
    calls: dict = defaultdict(lambda: defaultdict(int))
    by_op: dict = defaultdict(lambda: defaultdict(list))  # op -> depth -> intervals
    for _sid, name, start, end, _parent, op in tracer.spans:
        kind = tracer.op_kind.get(op)
        if kind is None:
            continue  # housekeeping between the timed loops
        seconds[kind][name] += end - start
        calls[kind][name] += 1
        by_op[op][_DEPTH.get(name, _LEAF)].append((start, end))
    covered: dict = defaultdict(lambda: [0.0] * (_WAKE + 1))  # kind -> depth -> s
    for op, depths in by_op.items():
        row = covered[tracer.op_kind[op]]
        for depth, intervals in depths.items():
            row[depth] += _union(intervals)
    absent = [_DEPTH[name] for name in ("qos.window", "rpc.transport")
              if name not in levels]
    for row in covered.values():
        for depth in sorted(absent, reverse=True):
            row[depth] = row[depth + 1]  # a layer that is not there has no self time

    split_s = spans_per_op = 0.0
    if workload.transfer:
        chunk = dep.config.chunk_size
        transfers = [(i * workload.transfer, workload.transfer) for i in range(_SAMPLE)]
        split_s = _seconds_per_item(
            lambda a: list(split_range(a[0], a[1], chunk)), transfers)
        spans_per_op = sum(
            len(list(split_range(o, n, chunk))) for o, n in transfers) / _SAMPLE
    distributor = dep.cluster.deployment.distributor
    locate_s = _seconds_per_item(
        lambda a: distributor.locate_metadata(a[0]) if a[1] is None
        else distributor.locate_chunk(*a),
        tracer.samples["locate"],
    )
    digest_s = _digest_seconds_per_byte(dep.daemons[0].storage, tracer.samples["digest"])
    codec_costs = {kind: _codec_costs(tracer.samples["rpc:" + kind]) for kind in kinds}

    tables: dict = {}
    for kind in kinds:
        s, c, cover = seconds[kind], counters[kind], covered[kind]
        encode_s, decode_s, _framed = codec_costs[kind]
        row = dict.fromkeys(ROWS, 0.0)
        row["core.chunking"] = calls[kind]["op"] * split_s
        row["core.distributor"] = c["locates"] * locate_s
        client_digest = c["digest_bytes_client"] * digest_s
        daemon_digest = c["digest_bytes_daemon"] * digest_s
        row["core.client"] = (
            cover[0] - cover[1] - row["core.chunking"] - row["core.distributor"]
            - client_digest
        )
        row["qos.window"] = cover[1] - cover[2]
        row["rpc.engine"] = cover[2] - cover[3] - cover[_WAKE]
        row["rpc.transport"] = cover[3] - cover[4]
        row["net.codec"] = c["rpcs"] * (encode_s + decode_s)
        row["net.client"] = cover[4] + cover[_WAKE] - cover[5] - row["net.codec"]
        row["rpc.engine.handle"] = cover[5] - cover[6]
        row["core.daemon"] = cover[6] - cover[_LEAF]
        # Leaves of two handlers can run at once; their shared cover is
        # split in proportion to what each kind of leaf took on its own.
        leaves = {
            "kvstore.lsm": sum(v for n, v in s.items() if n.startswith("kvstore.lsm.")),
            "storage.localfs":
                sum(v for n, v in s.items() if n.startswith("storage.localfs.")),
            "net.bulk": s["net.bulk"],
        }
        leaf_total = sum(leaves.values())
        for name, own in leaves.items():
            row[name] = cover[_LEAF] * own / leaf_total if leaf_total else 0.0
        row["storage.localfs"] -= daemon_digest
        row["storage.integrity"] = daemon_digest + client_digest
        row["unattributed"] = cover[0] - sum(row.values())
        tables[kind] = {"ops": calls[kind]["op"], "op_seconds": s["op"], "rows": row}

    total_ops = sum(t["ops"] for t in tables.values())
    total_rpcs = sum(counters[k]["rpcs"] for k in kinds)

    def per_op(value):
        return value / total_ops if total_ops else 0.0

    def per_rpc(value):
        return value / total_rpcs if total_rpcs else 0.0

    def span_s(*names):
        return sum(seconds[k][name] for k in kinds for name in names)

    def span_n(*names):
        return sum(calls[k][name] for k in kinds for name in names)

    def counted(name):
        return sum(counters[k][name] for k in kinds)

    def row_s(name):
        return sum(t["rows"][name] for t in tables.values())

    def mean_us(name):
        return 1e6 * span_s(name) / span_n(name) if span_n(name) else 0.0

    def rate(amount, secs):
        return amount / secs if secs else 0.0

    kv_names = [f"kvstore.lsm.{op}" for op in ("put", "get", "delete", "merge")]
    data_ops = total_ops if workload.transfer else 0
    mutate_ops = sum(
        tables[k]["ops"] for k in kinds if workload.classes[k] == "mutate"
    )
    user_bytes = total_ops * workload.transfer
    digest_bytes = counted("digest_bytes_daemon") + counted("digest_bytes_client")
    issue_s = counted("rpc.engine.issue") - counted(levels[levels.index("rpc.engine") + 1]
                                                    + ".issue")
    handle_s = span_s("rpc.engine.handle")
    write_s, read_s = span_s("storage.localfs.write"), span_s("storage.localfs.read")
    wait_p50, wait_p99 = installed.pool_wait_us()
    traced_ops_s = median(sum(p.ops for p in r.phases.values()) / r.wall for r in rounds)
    metrics = {
        "core.client.self_us_per_op": 1e6 * per_op(row_s("core.client")),
        "core.client.rpcs_per_op": per_op(total_rpcs),
        "core.client.meta_rpcs_per_data_op": rate(counted("meta_rpcs"), data_ops),
        "core.client.max_fanout": max(c.stats.max_fanout for c in dep.clients),
        "core.client.op_p99_us": reference_p99_us,
        "core.chunking.split_us_per_op": 1e6 * split_s,
        "core.chunking.spans_per_op": spans_per_op,
        "core.distributor.locate_us_per_call": 1e6 * locate_s,
        "core.distributor.locates_per_op": per_op(counted("locates")),
        "rpc.engine.issue_us_per_rpc": 1e6 * rate(issue_s, span_n("rpc.engine")),
        "rpc.engine.handle_us_per_rpc": 1e6 * rate(handle_s, span_n("rpc.engine.handle")),
        "rpc.transport.self_us_per_rpc": 1e6 * per_rpc(row_s("rpc.transport")),
        "rpc.transport.retries": totals["retries"],
        "rpc.transport.failed_rpcs": counted("failed_rpcs"),
        "rpc.health.breaker_trips": totals["trips"],
        "qos.window.wait_us_per_rpc": 1e6 * per_rpc(row_s("qos.window")),
        "qos.window.throttles": totals["window_throttles"],
        "qos.pool.wait_us_p50": wait_p50,
        "qos.pool.wait_us_p99": wait_p99,
        "qos.pool.throttles": totals["pool_throttles"],
        "net.codec.encode_us_per_rpc":
            1e6 * per_rpc(sum(counters[k]["rpcs"] * codec_costs[k][0] for k in kinds)),
        "net.codec.decode_us_per_rpc":
            1e6 * per_rpc(sum(counters[k]["rpcs"] * codec_costs[k][1] for k in kinds)),
        "net.codec.framed_bytes_per_rpc":
            per_rpc(sum(counters[k]["rpcs"] * codec_costs[k][2] for k in kinds)),
        "net.client.roundtrip_us_per_rpc": 1e6 * per_rpc(span_s("net.client")),
        "net.client.transit_us_per_rpc":
            1e6 * per_rpc(span_s("net.client", "wake") - handle_s),
        "net.client.bulk_bytes_per_op":
            per_op(counted("chunk_bytes_written") + counted("chunk_bytes_read")),
        "net.server.rpcs_served": totals["served"],
        "net.server.bytes_in": totals["bytes_in"],
        "net.server.bytes_out": totals["bytes_out"],
        "core.daemon.self_us_per_rpc": 1e6 * per_rpc(row_s("core.daemon")),
        "kvstore.lsm.put_us": mean_us("kvstore.lsm.put"),
        "kvstore.lsm.get_us": mean_us("kvstore.lsm.get"),
        "kvstore.lsm.delete_us": mean_us("kvstore.lsm.delete"),
        "kvstore.lsm.merge_us": mean_us("kvstore.lsm.merge"),
        "kvstore.lsm.ops_per_client_op": per_op(span_n(*kv_names)),
        "kvstore.lsm.wal_appends_per_op": per_op(counted("wal_appends")),
        "kvstore.lsm.wal_bytes_per_op": per_op(counted("wal_bytes")),
        "kvstore.lsm.flushes": totals["flushes"],
        "kvstore.lsm.compactions": totals["compactions"],
        "storage.localfs.write_us_per_chunk_op": mean_us("storage.localfs.write"),
        "storage.localfs.read_us_per_chunk_op": mean_us("storage.localfs.read"),
        "storage.localfs.write_mib_s": rate(counted("chunk_bytes_written") / MIB, write_s),
        "storage.localfs.read_mib_s": rate(counted("chunk_bytes_read") / MIB, read_s),
        "storage.localfs.chunk_ops_per_op":
            per_op(span_n("storage.localfs.write", "storage.localfs.read")),
        "storage.localfs.bytes_written_per_user_byte":
            rate(counted("chunk_bytes_written"), mutate_ops * workload.transfer),
        "storage.integrity.checksum_us_per_mib": 1e6 * digest_s * MIB,
        "storage.integrity.checksummed_bytes_per_user_byte": rate(digest_bytes, user_bytes),
        "storage.integrity.verify_failures": totals["verify_failures"],
        "bench.tracing_overhead_ratio": rate(reference_ops_s, traced_ops_s),
        "bench.generator_self_us_per_op":
            1e6 * per_op(sum(r.generator_s for r in rounds)),
    }
    return metrics, tables


def chrome_trace(tracer: Tracer) -> dict:
    """The last round's spans as Chrome trace events, one lane per name."""
    lanes: dict = {}
    events = []
    first = tracer.round_starts[-1] if tracer.round_starts else 0
    for sid, name, start, end, parent, op in tracer.spans[first:]:
        kind = tracer.op_kind.get(op, "")
        events.append({
            "name": f"{name}:{kind}" if name == "op" else name,
            "ph": "X", "ts": start * 1e6, "dur": (end - start) * 1e6,
            "pid": 1, "tid": lanes.setdefault(name, len(lanes)),
            "args": {"id": sid, "parent": parent, "op": op},
        })
    return {"traceEvents": events, "displayTimeUnit": "ns"}
