"""MICRO-INTEGRITY — cost of chunk checksums on the hot data path.

The integrity plane touches every chunk byte twice per lifecycle, and
that is the mandated minimum: writes digest each integrity block as it
lands in storage, reads return the stored block digests as proofs and
the client recomputes them over the received buffer.  GXH64 runs that
pass at ~11-16 GB/s (one fused integer dot product per 128 KiB block).

What to compare it against is the whole question.  This harness runs
daemons in-process over a loopback transport with zero latency and
infinite bandwidth, so a raw wall-clock diff measures the digest against
nothing but Python-level memcpys — on that path two digest passes are an
irreducible ~15 % and the number says more about the harness than about
checksumming.  The deployment the paper's bound is meaningful on pays
fabric and node-local-device time on every data RPC: on the testbed
(100 Gbit/s Omni-Path, SATA SSDs at ~500 MB/s per node, §IV) a 128 KiB
chunk costs ~270 µs of device time against ~25 µs of digest.

So the budget is enforced on that deployment-shaped path: both
configurations run behind a transport wrapper that adds a deterministic,
identical device-model delay per RPC (fixed fabric RTT plus per-byte
fabric + SSD time, busy-waited so the clock is exact).  Two bounds keep
the plane honest:

* **enabled** — end-to-end checksumming (storage digests + client
  verification) must cost < 10 % over the same pwrite/pread workload
  with integrity off, on the modeled paper-grade data path.  A raw
  (unmodeled) in-process ratio is measured too and pinned below a
  regression ceiling, so a plumbing blow-up (an accidental extra digest
  pass, a quadratic proof walk) cannot hide behind the device model.
* **disabled** (the default) — zero cost by construction, not by
  measurement: storage backends carry no digest table, daemons return
  raw bytes with no proof lists, the client takes the pre-integrity
  branch, and no wire digests are computed.  A structural test pins
  this, immune to timing noise.

Methodology matches ``test_micro_telemetry.py``: interleaved runs across
fresh cluster pairs, pooled minima (noise is one-sided), one repeat on a
budget miss to damp sustained machine-load bursts.

All of the above runs the memory backend, where keeping a digest record
costs a dict store.  On disk it costs file-system calls, and those are
what a small write pays for (the digest of a 128 KiB block is ~12-35 us;
reopening the sidecar with ``"wb"`` was ~300 us).  The **LocalFS leg**
prints us per 8 KiB in-place ``write_chunk`` / ``read_chunk_verified``
with integrity off and on, on a chunk that is resident in the store's
handle table and on one that is not (cold: the first touch), and gates on
what makes them cheap instead of on the clock: one open of a chunk file
and of its sidecar per *residency* — so the count depends on how many
chunks a pass touches, not on how many operations it makes — and no
``O_TRUNC`` anywhere.
"""

import builtins
import gc
import os
import time

import pytest

from repro.analysis.report import render_table
from repro.core import FSConfig, GekkoFSCluster
from repro.core.chunking import pack_spans
from repro.rpc import Transport
from repro.storage import LocalFSChunkStorage

CHUNK = 131072
FILES = 30
CHUNKS_PER_FILE = 8
DATA = b"i" * (CHUNK * CHUNKS_PER_FILE)
NODES = 4
BLOCKS = 2  # fresh cluster pairs, against per-instance placement bias
REPS = 4  # alternating workload runs per block
BUDGET = 1.10  # checksummed reads + writes must stay below 10 %
RAW_CEILING = 1.40  # regression backstop on the raw in-process ratio

# Paper-grade data-path constants (§IV testbed): 100 Gbit/s Omni-Path
# fabric and one SATA SSD per node (~500 MB/s sequential).  The RTT
# stands in for the full Mercury/Argobots round trip, not the wire alone.
FABRIC_RTT = 15e-6
FABRIC_SEC_PER_BYTE = 1 / 12.5e9
SSD_SEC_PER_BYTE = 1 / 500e6


class _PaperPathTransport(Transport):
    """Adds deterministic paper-testbed device time to every RPC.

    The delay is a busy-wait (sleep granularity is coarser than the
    modeled times) of ``RTT + payload_bytes * (fabric + SSD)`` where the
    payload is the request's bulk buffer (writes) plus the response's
    bulk/inline data (reads).  Both configurations move identical bytes,
    so the model is exactly symmetric — it dilates the denominator to
    deployment shape without touching the integrity code under test.
    """

    def __init__(self, inner):
        self.inner = inner

    @staticmethod
    def _spin(seconds: float) -> None:
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            pass

    def send(self, request):
        response = self.inner.send(request)
        payload = 0
        if isinstance(request.bulk, (bytes, bytearray, memoryview)):
            payload += len(request.bulk)
        payload += getattr(response, "bulk_bytes", 0) or 0
        if isinstance(response.value, (bytes, bytearray)):
            payload += len(response.value)
        self._spin(FABRIC_RTT + payload * (FABRIC_SEC_PER_BYTE + SSD_SEC_PER_BYTE))
        return response


def _workload(cluster) -> None:
    client = cluster.client(0)
    for i in range(FILES):
        fd = client.open(f"/gkfs/i{i}", os.O_CREAT | os.O_RDWR)
        client.pwrite(fd, DATA, 0)
        client.pread(fd, len(DATA), 0)
        client.close(fd)
    for i in range(FILES):
        client.unlink(f"/gkfs/i{i}")


def _timed(cluster) -> float:
    gc.collect()
    gc.disable()
    try:
        t0 = time.perf_counter()
        _workload(cluster)
        return time.perf_counter() - t0
    finally:
        gc.enable()


def _sweep(model: bool, blocks: int = BLOCKS, reps: int = REPS):
    """Pooled-minimum (off, on) pair; ``model`` splices the device path."""
    off_config = FSConfig(chunk_size=CHUNK)
    on_config = FSConfig(chunk_size=CHUNK, integrity_enabled=True)
    pairs = []
    for _ in range(blocks):
        with GekkoFSCluster(num_nodes=NODES, config=off_config) as off_fs:
            with GekkoFSCluster(num_nodes=NODES, config=on_config) as on_fs:
                if model:
                    off_fs.network.transport = _PaperPathTransport(
                        off_fs.network.transport
                    )
                    on_fs.network.transport = _PaperPathTransport(
                        on_fs.network.transport
                    )
                _workload(off_fs)  # warm-up, both code paths compiled
                _workload(on_fs)
                for _ in range(reps):
                    pairs.append((_timed(off_fs), _timed(on_fs)))
    return min(o for o, _ in pairs), min(t for _, t in pairs)


def _measure():
    modeled_off, modeled_on = _sweep(model=True)
    raw_off, raw_on = _sweep(model=False, blocks=1, reps=3)
    modeled = modeled_on / modeled_off
    raw = raw_on / raw_off
    print()
    print(
        render_table(
            ["configuration", "best wall-clock", "vs integrity off"],
            [
                ["paper path, integrity off", f"{modeled_off * 1e3:.1f} ms", "1.00x"],
                [
                    "paper path, checksummed",
                    f"{modeled_on * 1e3:.1f} ms",
                    f"{modeled:.2f}x (budget {BUDGET:.2f}x)",
                ],
                ["loopback, integrity off", f"{raw_off * 1e3:.1f} ms", "1.00x"],
                [
                    "loopback, checksummed",
                    f"{raw_on * 1e3:.1f} ms",
                    f"{raw:.2f}x (ceiling {RAW_CEILING:.2f}x)",
                ],
            ],
            title=(
                f"MICRO-INTEGRITY: {FILES} files x {CHUNKS_PER_FILE} chunks, "
                f"{NODES} daemons, digests verified end to end"
            ),
        )
    )
    return modeled, raw


def test_micro_integrity_enabled_overhead(benchmark):
    modeled, raw = benchmark.pedantic(_measure, rounds=1, iterations=1)
    if modeled >= BUDGET or raw >= RAW_CEILING:
        modeled2, raw2 = _measure()  # one repeat damps machine-load bursts
        modeled, raw = min(modeled, modeled2), min(raw, raw2)
    assert modeled < BUDGET, (
        f"integrity overhead {modeled:.3f}x on the modeled data path "
        f"exceeds {BUDGET}x"
    )
    assert raw < RAW_CEILING, (
        f"raw in-process integrity overhead {raw:.3f}x exceeds the "
        f"{RAW_CEILING}x regression ceiling"
    )


LOCALFS_CHUNK = 512 * 1024  # the paper's chunk size, 128 KiB digest blocks
LOCALFS_IO = 8192
LOCALFS_OPS = 400
LOCALFS_CHUNKS = 4  # distinct chunks a pass goes round


def _localfs_pass(storage, cold=False):
    """``LOCALFS_OPS`` in-place 8 KiB writes, then as many verified reads,
    round ``LOCALFS_CHUNKS`` chunks; seconds per op of each.  ``cold``
    empties the handle table before every operation (outside the timed
    part), so each one pays the first touch."""
    data = b"w" * LOCALFS_IO
    slots = LOCALFS_CHUNK // LOCALFS_IO
    spent = []
    for op in (
        lambda i, at: storage.write_chunk("/f", i % LOCALFS_CHUNKS, at, data),
        lambda i, at: storage.read_chunk_verified("/f", i % LOCALFS_CHUNKS, at, LOCALFS_IO),
    ):
        total = 0.0
        for i in range(LOCALFS_OPS):
            if cold:
                storage.close()
            t0 = time.perf_counter()
            op(i, (i % slots) * LOCALFS_IO)
            total += time.perf_counter() - t0
        spent.append(total / LOCALFS_OPS)
    return tuple(spent)


def _opens_of_a_pass(storage) -> list:
    """``(file name, flags or mode)`` of every open one more pass makes."""
    opened = []
    real_os_open, real_open = os.open, builtins.open

    def os_open(path, flags, *args, **kwargs):
        opened.append((os.path.basename(path), flags))
        return real_os_open(path, flags, *args, **kwargs)

    def py_open(file, mode="r", *args, **kwargs):
        opened.append((os.path.basename(str(file)), mode))
        return real_open(file, mode, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(os, "open", os_open)
        patch.setattr(builtins, "open", py_open)
        _localfs_pass(storage)
    return opened


def _measure_localfs(root):
    rows, opened = [], {}
    for integrity in (False, True):
        storage = LocalFSChunkStorage(
            LOCALFS_CHUNK, os.path.join(root, f"integrity-{integrity}"),
            integrity=integrity,
        )
        for chunk_id in range(LOCALFS_CHUNKS):
            storage.write_chunk("/f", chunk_id, 0, b"0" * LOCALFS_CHUNK)
        cold = min(_localfs_pass(storage, cold=True) for _ in range(3))
        warm = min(_localfs_pass(storage) for _ in range(3))
        storage.close()  # the counted pass starts a residency of every chunk
        opened[integrity] = _opens_of_a_pass(storage)
        storage.close()
        rows.append([
            f"localfs, integrity {'on' if integrity else 'off'}",
            *(f"{cold[i] * 1e6:.1f} / {warm[i] * 1e6:.1f} us" for i in (0, 1)),
            str(len(opened[integrity])),
        ])
    print()
    print(render_table(
        ["configuration", "write_chunk cold / resident",
         "read_chunk_verified cold / resident",
         f"opens in {2 * LOCALFS_OPS} ops on {LOCALFS_CHUNKS} chunks"],
        rows,
        title=f"MICRO-INTEGRITY on disk: {LOCALFS_IO} B in place in a "
              f"{LOCALFS_CHUNK // 1024} KiB chunk, page cache, no fsync",
    ))
    return opened


def test_localfs_leg_one_open_per_residency_no_truncating_open(benchmark, tmp_path):
    opened = benchmark.pedantic(
        _measure_localfs, args=(str(tmp_path),), rounds=1, iterations=1
    )
    chunks = [f"chunk_{chunk_id:08d}" for chunk_id in range(LOCALFS_CHUNKS)]
    for integrity, opens in opened.items():
        # One open per file per residency, however many operations follow.
        want = chunks + [name + ".sum" for name in chunks] if integrity else chunks
        assert sorted(name for name, _how in opens) == sorted(want)
        truncating = [
            (name, how) for name, how in opens
            if (how & os.O_TRUNC if isinstance(how, int) else "w" in how)
        ]
        assert not truncating, truncating[:4]


def test_disabled_is_structurally_free():
    """Off means off: the default config wires no digests anywhere, so
    the per-RPC cost is one attribute-is-False check in client/daemon."""
    with GekkoFSCluster(num_nodes=2, config=FSConfig(chunk_size=CHUNK)) as fs:
        assert fs.config.integrity_enabled is False
        for daemon in fs.daemons:
            assert daemon.storage.integrity is False
        client = fs.client(0)
        assert client.data._verify_writes is False
        client.write_bytes("/gkfs/free", b"x" * CHUNK)
        # The one reply shape, with nothing to verify in it.
        reply = client.network.call(
            fs.distributor.locate_chunk("/free", 0), "gkfs_read_chunks",
            "/free", pack_spans([(0, 0, CHUNK, 0)]),
        )
        assert reply == (CHUNK, b"", b"", b"x" * CHUNK)  # no runs, no digests
        # No integrity gauges registered on any daemon.
        for daemon in fs.daemons:
            gauges = daemon.metrics.snapshot()["gauges"]
            assert not any(name.startswith("integrity.") for name in gauges)
