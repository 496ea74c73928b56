"""MICRO-SOCKET — what daemon-per-process buys over a single daemon.

The in-process clusters share one interpreter, so every daemon competes
for the same GIL no matter how many handler threads it owns.  The socket
stack removes that ceiling: each :class:`~repro.net.cluster.ProcessCluster`
daemon is its own OS process with its own interpreter, and the only
shared resource is the wire.  This bench makes the difference observable:
the same striped pwrite/pread workload, driven by independent client
*processes* over real sockets, against a 1-process and a 4-process
cluster.  Server-side work dominates by construction — the integrity
plane runs its table-driven CRC-32C over every stored byte on write and
every verified byte on read, inside the daemons — so with >= 4 cores the
4-process cluster must at least double the single daemon's throughput.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/test_micro_socket.py --benchmark-only -s

Set ``BENCH_SOCKET_JSON=/path/out.json`` to export the measured
throughput table (CI uploads it as the ``BENCH_SOCKET.json`` artifact).

A second leg (:func:`test_micro_socket_stat_per_plane`) prints what each
optional plane adds to one ``stat`` over a two-daemon
:class:`~repro.net.LocalSocketCluster` — the per-call tax of the wrapper
stack, gated on RPC counts only.
"""

import contextlib
import json
import os
import socket
import subprocess
import sys
import threading
import time

import repro
from repro.analysis.report import render_table
from repro.core import FSConfig
from repro.core.metadata import Metadata
from repro.kvstore.lsm import LSMStore
from repro.net import codec
from repro.net import LocalSocketCluster, ProcessCluster
from repro.net.addr import format_endpoint
from repro.net.serve import config_to_json
from repro.rpc.message import RpcRequest

# The count gate's own counter (tests/test_core_plane_budget.py).
sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "tests"))
from test_core_plane_budget import BATCH, OPS, CallCounter, calls_per_rpc  # noqa: E402

CHUNK = 64 * 1024
BLOCK = 256 * 1024
BLOCKS = 16  # per client per phase -> 4 MiB each
NUM_CLIENTS = 3
PROC_COUNTS = (1, 4)

#: Independent load generator, run as ``python -c`` so client-side work
#: never shares a GIL with the launcher or another generator.  Speaks a
#: READY/GO line protocol on stdio so process start-up stays off the clock.
_DRIVER = """
import json, os, sys, time

from repro.net import SocketDeployment
from repro.net.serve import config_from_json

specs = {int(k): v for k, v in json.loads(sys.argv[1]).items()}
mode, rank = sys.argv[2], int(sys.argv[3])
blocks, block = int(sys.argv[4]), int(sys.argv[5])
config = config_from_json(sys.argv[6])

with SocketDeployment(specs, config=config) as fs:
    fs.format()  # idempotent: any rank may race the launcher here
    client = fs.client(rank % fs.num_nodes)
    payload = (bytes(range(256)) * (block // 256 + 1))[:block]
    flags = os.O_CREAT | os.O_RDWR if mode == "write" else os.O_RDONLY
    fd = client.open(f"/gkfs/sock-bench-{rank}", flags)
    print("READY", flush=True)
    sys.stdin.readline()
    t0 = time.perf_counter()
    if mode == "write":
        for i in range(blocks):
            client.pwrite(fd, payload, i * block)
    else:
        for i in range(blocks):
            assert len(client.pread(fd, block, i * block)) == block
    elapsed = time.perf_counter() - t0
    client.close(fd)
    print(f"DONE {elapsed:.6f}", flush=True)
"""


def _driver_env() -> dict:
    env = dict(os.environ)
    package_root = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env["PYTHONPATH"] = package_root + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _drive(specs_json: str, config_json: str, mode: str) -> float:
    """Run one phase across NUM_CLIENTS generator processes; aggregate MiB/s."""
    procs = [
        subprocess.Popen(
            [
                sys.executable, "-c", _DRIVER,
                specs_json, mode, str(rank), str(BLOCKS), str(BLOCK), config_json,
            ],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=_driver_env(),
        )
        for rank in range(NUM_CLIENTS)
    ]
    try:
        for proc in procs:
            if proc.stdout.readline().strip() != "READY":
                raise RuntimeError(
                    f"load generator died before READY: {proc.communicate()[1]}"
                )
        start = time.perf_counter()
        for proc in procs:
            proc.stdin.write("GO\n")
            proc.stdin.flush()
        for proc in procs:
            line = proc.stdout.readline().strip()
            if not line.startswith("DONE"):
                raise RuntimeError(
                    f"load generator died mid-{mode}: {proc.communicate()[1]}"
                )
        wall = time.perf_counter() - start
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    total = NUM_CLIENTS * BLOCKS * BLOCK
    return total / wall / (1 << 20)


PINGS = 2000


def _roundtrip_us(cluster) -> float:
    """Microseconds per ``gkfs_ping`` from this process to daemon 0: the
    fixed cost every RPC of the workload below pays (median of 5 batches)."""
    call = cluster.network.call
    batches = []
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(PINGS // 5):
            call(0, "gkfs_ping")
        batches.append((time.perf_counter() - start) / (PINGS // 5) * 1e6)
    return sorted(batches)[2]


def _measure(num_procs: int) -> tuple[float, float, float]:
    """(write MiB/s, read MiB/s, ping µs) against a ``num_procs``-daemon cluster."""
    # CRC-32C keeps the bottleneck in the daemons: its per-byte cost (a
    # pure-Python table CRC) dwarfs client encode + socket copies, so the
    # ratio below measures daemon-process scaling, not wire overhead.
    config = FSConfig(
        chunk_size=CHUNK, integrity_enabled=True, integrity_algorithm="crc32c"
    )
    with ProcessCluster(num_procs, config) as cluster:
        specs_json = json.dumps(
            {
                target: format_endpoint(
                    cluster.deployment.socket_transport.endpoint(target)
                )
                for target in range(num_procs)
            }
        )
        config_json = config_to_json(config)
        roundtrip_us = _roundtrip_us(cluster)
        write_mib_s = _drive(specs_json, config_json, "write")
        read_mib_s = _drive(specs_json, config_json, "read")
        return write_mib_s, read_mib_s, roundtrip_us


def _sweep() -> dict:
    results = {}
    rows = []
    for num_procs in PROC_COUNTS:
        write_mib_s, read_mib_s, roundtrip_us = _measure(num_procs)
        results[num_procs] = {
            "write_mib_s": round(write_mib_s, 2),
            "read_mib_s": round(read_mib_s, 2),
            "rpc_roundtrip_us": round(roundtrip_us, 1),
        }
        rows.append(
            [str(num_procs), f"{write_mib_s:.1f} MiB/s", f"{read_mib_s:.1f} MiB/s",
             f"{roundtrip_us:.1f} us"]
        )
    base, top = PROC_COUNTS[0], PROC_COUNTS[-1]
    summary = {
        "cpu_count": os.cpu_count(),
        "clients": NUM_CLIENTS,
        "block_bytes": BLOCK,
        "blocks_per_client": BLOCKS,
        "chunk_bytes": CHUNK,
        "daemon_processes": list(PROC_COUNTS),
        "results": {str(k): v for k, v in results.items()},
        "write_speedup": round(
            results[top]["write_mib_s"] / results[base]["write_mib_s"], 2
        ),
        "read_speedup": round(
            results[top]["read_mib_s"] / results[base]["read_mib_s"], 2
        ),
    }
    print()
    print(
        render_table(
            ["daemon processes", "pwrite", "pread", "ping round trip"],
            rows,
            title=(
                f"MICRO-SOCKET: {NUM_CLIENTS} client procs x "
                f"{BLOCKS * BLOCK >> 20} MiB, chunk {CHUNK >> 10} KiB, "
                f"crc32c integrity ({os.cpu_count()} cores)"
            ),
        )
    )
    print(
        f"speedup {base}->{top} daemons: "
        f"write {summary['write_speedup']:.2f}x, "
        f"read {summary['read_speedup']:.2f}x"
    )
    out = os.environ.get("BENCH_SOCKET_JSON")
    if out:
        with open(out, "w") as fh:
            json.dump(summary, fh, indent=2)
    return summary


def test_micro_socket_process_scaling(benchmark):
    summary = benchmark.pedantic(_sweep, rounds=1, iterations=1)
    # The deployment claim: daemons in separate processes actually scale.
    # Only meaningful when the machine can run the daemons in parallel —
    # on fewer than 4 cores the processes time-share one another's cores
    # and the ratio measures the scheduler, not the file system.
    if (os.cpu_count() or 1) >= 4:
        assert summary["write_speedup"] >= 2.0, summary
        assert summary["read_speedup"] >= 2.0, summary


class BareStat:
    """The ``gkfs_stat`` exchange with no framework around it: the four body
    functions of ``net/codec.py``, ``LSMStore.get`` and ``Metadata.decode``
    over one TCP pair, one serving thread (named ``bare-daemon``) — the same
    frames on the same wire as the stack's, and nothing else: no future, no
    channel, no pool, no accounting.  What a ``stat`` costs the substrate
    plus the work no design can skip; the stack prints as a multiple of it.
    """

    PATH = "/target"

    def __init__(self):
        self.kv = LSMStore()
        self.kv.put(self.PATH.encode("utf-8"), Metadata(is_dir=False).encode())
        listener = socket.create_server(("127.0.0.1", 0))
        self.sock = socket.create_connection(listener.getsockname())
        served, _peer = listener.accept()
        listener.close()
        for end in (self.sock, served):
            end.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.head = memoryview(bytearray(codec.HEADER_SIZE))
        self.request = RpcRequest(0, "gkfs_stat", (self.PATH,), None, None, None, 1, 0)
        self.thread = threading.Thread(target=self._serve, args=(served,), daemon=True,
                                       name="bare-daemon")
        self.thread.start()

    def _serve(self, sock) -> None:
        head = memoryview(bytearray(codec.HEADER_SIZE))
        with sock:
            while True:
                try:
                    codec.recv_full(sock, head)
                except ConnectionError:
                    return
                _kind, _flags, seq, body_len, _aux1, _aux2 = codec.unpack_header(head)
                body = memoryview(bytearray(body_len))
                codec.recv_full(sock, body)
                request = codec.decode_request_body(body, None)
                value = self.kv.get(request.args[0].encode("utf-8"))
                reply = codec.encode_response_body(codec.STATUS_OK, value)
                sock.sendmsg([codec.pack_header(codec.KIND_RESPONSE, seq, len(reply)), reply])

    def stat(self, _path: str = PATH) -> Metadata:
        body = codec.encode_request_body(self.request)
        self.sock.sendmsg([codec.pack_header(codec.KIND_REQUEST, 1, len(body)), body])
        codec.recv_full(self.sock, self.head)
        body_len = codec.unpack_header(self.head)[3]
        reply = memoryview(bytearray(body_len))
        codec.recv_full(self.sock, reply)
        _status, value = codec.decode_response_body(reply)
        return Metadata.decode(value)

    def close(self) -> None:
        self.sock.close()
        self.thread.join(5.0)

    def __enter__(self) -> "BareStat":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def bare_calls_per_rpc() -> tuple[float, float]:
    """``(client, daemon)`` Python calls per :class:`BareStat` exchange,
    counted as :func:`calls_per_rpc` counts the stack's."""
    counter = CallCounter()
    with counter.hooked(), BareStat() as bare:
        for _ in range(BATCH):
            bare.stat()
        with counter.counting() as counts:
            for _ in range(BATCH):
                bare.stat()
    mine = counts.pop(threading.get_ident(), 0)
    return mine / BATCH, sum(counts.values()) / BATCH


#: What ``bench/``'s ``full`` config adds to ``paper``, one plane at a time.
_BREAKER = dict(rpc_retries=2, breaker_enabled=True)
_QOS = dict(qos_enabled=True)
STAT_PLANES = (
    ("paper", {}),
    ("+breaker", _BREAKER),
    ("+qos", _QOS),
    ("full", {**_BREAKER, **_QOS, "integrity_enabled": True}),
)
STATS_PER_BATCH = 300
STAT_ROUNDS = 7  # the first warms connections and is dropped


def _stat_thread(cluster, client) -> str:
    """Which kind of daemon thread serves one ``stat``: the first two words
    of its name (``gkfs-net`` a connection thread, ``gkfs-qos`` a lane
    worker, ``gkfs-d<n>`` a handler-pool worker).  One extra stat through a
    recording ``engine.handle``, after the timed batches."""
    names = set()
    for served in cluster.served:
        engine = served.daemon.engine

        def handle(request, real=engine.handle):
            names.add("-".join(threading.current_thread().name.split("-")[:2]))
            return real(request)

        engine.handle = handle  # looked up per call by whoever serves
    client.stat("/gkfs/target")
    return "/".join(sorted(names))


def _stat_sweep() -> dict:
    """``{config: (µs per stat, RPCs served per stat, serving thread)}`` over
    two-daemon socket clusters, and the :class:`BareStat` exchange first.
    All of them are up at once and take turns batch by batch, so a drift in
    host speed lands on every config alike; the figure is the median batch.
    RPCs are read off the daemons' engines: no counting wrapper sits in the
    timed path."""
    with contextlib.ExitStack() as stack:
        legs = [("bare", None, stack.enter_context(BareStat()), [])]
        for name, planes in STAT_PLANES:
            cluster = stack.enter_context(LocalSocketCluster(2, FSConfig(**planes)))
            client = cluster.client(0)
            client.close(client.creat("/gkfs/target"))
            legs.append((name, cluster, client, []))

        def served(cluster) -> int:
            if cluster is None:  # the bare exchange: no engine, one RPC per stat
                return 0
            return sum(sum(s.daemon.engine.calls_served.values()) for s in cluster.served)

        for rnd in range(STAT_ROUNDS):
            if rnd == 1:
                served_before = {name: served(cluster) for name, cluster, _, _ in legs}
            for _, _, client, batches in legs:
                start = time.perf_counter()
                for _ in range(STATS_PER_BATCH):
                    client.stat("/gkfs/target")
                batches.append((time.perf_counter() - start) / STATS_PER_BATCH * 1e6)
        timed = (STAT_ROUNDS - 1) * STATS_PER_BATCH
        return {
            name: (
                sorted(batches[1:])[(STAT_ROUNDS - 1) // 2],
                1.0 if cluster is None else (served(cluster) - served_before[name]) / timed,
                "bare" if cluster is None else _stat_thread(cluster, client),
            )
            for name, cluster, client, batches in legs
        }


def test_micro_socket_stat_per_plane(benchmark):
    """µs per ``stat`` as each plane of the ``full`` config is switched on.

    Printed for the eye and for ``docs/calibration.md``; nothing here is
    gated on time.  The gates are the count — whatever a plane costs, it
    costs it inside the one round trip a stat is — and the placement: with
    one client and nothing queued, every config serves the stat on the
    connection thread that read it (an idle QoS lane lends its slot).  The
    Python calls per RPC (client / daemon threads) are counted on a fresh
    cluster per config, outside the timed batches, by the counter
    ``tests/test_core_plane_budget.py`` gates.
    """
    results = benchmark.pedantic(_stat_sweep, rounds=1, iterations=1)
    calls = {name: calls_per_rpc(planes, OPS["stat"]) for name, planes in STAT_PLANES}
    calls["bare"] = bare_calls_per_rpc()
    base_us, bare_us = results["paper"][0], results["bare"][0]
    print()
    print(
        render_table(
            ["config", "stat", "over paper", "x bare", "RPCs per stat", "calls per RPC",
             "served on"],
            [
                [name, f"{us:.1f} us", f"{us - base_us:+.1f} us", f"{us / bare_us:.2f}",
                 f"{rpcs:.2f}", "{:.0f} / {:.0f}".format(*calls[name]), thread]
                for name, (us, rpcs, thread) in results.items()
            ],
            title="MICRO-SOCKET: one stat over LocalSocketCluster(2), plane by plane",
        )
    )
    assert results.pop("bare")[1] == 1.0
    for name, (_, rpcs, thread) in results.items():
        assert rpcs == 1.0, (name, rpcs)
        assert thread == "gkfs-net", (name, thread)
    # The bare exchange does the one stat with the least Python on both
    # sides: every config's surplus over it is framework.
    for name in results:
        assert all(b < c for b, c in zip(calls["bare"], calls[name])), (name, calls)


#: The same four steps, with the integrity plane in the breaker's place: on a
#: data op it is the plane that does work (the breaker's share is in the
#: ``stat`` table above).
SMALL_PLANES = (
    ("paper", {}),
    ("+integrity", dict(integrity_enabled=True)),
    ("+qos", _QOS),
    ("full", {**_BREAKER, **_QOS, "integrity_enabled": True}),
)
SMALL = 8192  # the paper's smallest IOR transfer (§IV-B)
SMALL_SLOTS = 64  # offsets cycled through: one 512 KiB chunk, written once
SMALL_PER_BATCH = 200
SMALL_ROUNDS = 7  # the first warms connections and is dropped


@contextlib.contextmanager
def _daemon_side(cluster):
    """What the daemons of ``cluster`` do while this is open:
    ``{"threads": kinds of thread that served, "frames": frames they wrote}``."""
    from repro.net import server as net_server

    seen = {"threads": set(), "frames": 0}
    real_send = net_server._Connection.send
    real_handles = []

    def send(self, *bufs):
        seen["frames"] += 1
        return real_send(self, *bufs)

    for served in cluster.served:
        engine = served.daemon.engine

        def handle(request, real=engine.handle):
            seen["threads"].add("-".join(threading.current_thread().name.split("-")[:2]))
            return real(request)

        real_handles.append((engine, engine.handle))
        engine.handle = handle  # looked up per call by whoever serves
    net_server._Connection.send = send
    try:
        yield seen
    finally:
        net_server._Connection.send = real_send
        for engine, real in real_handles:
            engine.handle = real


def _small_transfer_sweep() -> dict:
    """Per config: median-batch µs of the two halves of an 8 KiB ``pwrite``
    (chunk RPC, size update), of an 8 KiB ``pread`` and of a ``stat``; RPCs
    served per ``pwrite`` and per ``pread``; frames on the wire per
    ``pread`` (its request plus what the daemon wrote); serving thread.
    Clusters take turns batch by batch, as in :func:`_stat_sweep`."""
    payload = os.urandom(SMALL)
    with contextlib.ExitStack() as stack:
        legs = []
        for name, planes in SMALL_PLANES:
            cluster = stack.enter_context(LocalSocketCluster(2, FSConfig(**planes)))
            client = cluster.client(0)
            fd = client.open("/gkfs/target", os.O_CREAT | os.O_RDWR)
            for slot in range(SMALL_SLOTS):
                client.pwrite(fd, payload, slot * SMALL)
            legs.append((name, cluster, client, fd, {k: [] for k in
                                                      ("write_chunks", "update_size",
                                                       "pread", "stat")}))

        def served(cluster) -> int:
            return sum(sum(s.daemon.engine.calls_served.values()) for s in cluster.served)

        clock = time.perf_counter
        rpcs = {}
        for rnd in range(SMALL_ROUNDS):
            for name, cluster, client, fd, batches in legs:
                entry = client.filemap.get(fd)
                offsets = [(i % SMALL_SLOTS) * SMALL for i in range(SMALL_PER_BATCH)]
                before = served(cluster)
                chunk_s = size_s = 0.0
                # pwrite, its two steps timed apart: the data half owes no
                # size, so it does not carry it to the owner of chunk 0.
                for offset in offsets:
                    t0 = clock()
                    client.data.write(entry, payload, offset)
                    t1 = clock()
                    client.meta.call(entry.path, "gkfs_update_size", offset + SMALL, False)
                    size_s += clock() - t1
                    chunk_s += t1 - t0
                wrote = served(cluster)
                start = clock()
                for offset in offsets:
                    client.pread(fd, SMALL, offset)
                read_s = clock() - start
                read = served(cluster)
                start = clock()
                for _ in offsets:
                    client.stat("/gkfs/target")
                stat_s = clock() - start
                for key, spent in (("write_chunks", chunk_s), ("update_size", size_s),
                                   ("pread", read_s), ("stat", stat_s)):
                    batches[key].append(spent / SMALL_PER_BATCH * 1e6)
                rpcs[name] = ((wrote - before) / SMALL_PER_BATCH,
                              (read - wrote) / SMALL_PER_BATCH)
        results = {}
        for name, cluster, client, fd, batches in legs:
            with _daemon_side(cluster) as seen:
                assert client.pread(fd, SMALL, 0) == payload
                frames = 1 + seen["frames"]
                client.pwrite(fd, payload, 0)
            results[name] = (
                {key: sorted(values[1:])[(SMALL_ROUNDS - 1) // 2]
                 for key, values in batches.items()},
                rpcs[name], frames, "/".join(sorted(seen["threads"])),
            )
        return results


def test_micro_socket_small_transfer_per_plane(benchmark):
    """µs per step of an 8 KiB ``pwrite`` / ``pread`` as planes switch on.

    Printed for ``docs/calibration.md``; nothing is gated on time.  The
    gates are counts: a small read is two frames (its request, and a reply
    that carries the bytes — no ``PUSH`` beside it), one RPC; a small
    write, timed in its two steps, two RPCs (chunks, then size — the
    write a daemon other than the owner stores); and with one client and nothing
    queued all of it is served on the connection thread that read it, in
    every config (an idle QoS data lane lends its slot as the meta lane
    does).
    """
    results = benchmark.pedantic(_small_transfer_sweep, rounds=1, iterations=1)
    print()
    print(
        render_table(
            ["config", "write_chunks", "update_size", "pread", "stat",
             "RPCs pwrite/pread", "frames per pread", "served on"],
            [
                [name, *(f"{us[k]:.0f} us" for k in ("write_chunks", "update_size",
                                                      "pread", "stat")),
                 f"{rpcs[0]:.2f} / {rpcs[1]:.2f}", str(frames), thread]
                for name, (us, rpcs, frames, thread) in results.items()
            ],
            title="MICRO-SOCKET: 8 KiB transfers over LocalSocketCluster(2), plane by plane",
        )
    )
    for name, (_, rpcs, frames, thread) in results.items():
        assert rpcs == (2.0, 1.0), (name, rpcs)
        assert frames == 2, (name, frames)
        assert thread == "gkfs-net", (name, thread)
