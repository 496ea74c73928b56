"""What the ``full`` control plane costs an idle RPC, by count of Python calls.

The ``full`` config puts retry + breaker, the QoS port's AIMD window and the
daemon's QoS lane in front of every RPC.  With nothing throttled, failing or
queued none of them decides anything, so each must be a short prefix of its
one code path: claim a slot, deliver, give the slot back.  This gate counts
the Python calls (``call`` and ``c_call`` profile events) per RPC of a warm
batch over :class:`~repro.net.LocalSocketCluster` and bounds the surplus of
``full`` over ``FSConfig(integrity_enabled=True)`` — the same integrity
plane, so checksum work is not counted as control plane.  The issuing thread
is the client; every other thread is a daemon.  A second gate bounds the
calls per RPC of ``FSConfig()`` itself: the price of the shared call path.
No timing.

A lock hold costs about as much as ten cheap calls and the call count
sees one as one call, so the same rows are gated by **lock holds** per RPC
too (:func:`holds_per_rpc`): every ``threading.Lock`` the cluster makes is
a counting wrapper, and a hold is one successful acquire (a ``with``, an
``acquire``, a condition's re-acquire after a wait).  ``RLock`` is not
counted (the LSM store's).

A third gate holds the integrity plane to a per-byte cost: a 512 KiB
verified read or write at the 8 KiB digest grain may make only a few more
Python calls per RPC than at a 128 KiB grain, although it digests sixteen
times as many blocks (one batched kernel pass, one packed proof).

:func:`calls_per_rpc` is also what ``benchmarks/test_micro_socket.py``
prints beside its per-plane ``stat`` times.
"""

from __future__ import annotations

import contextlib
import gc
import os
import sys
import threading

from typing import Optional

import pytest

from repro.common.hashing import hash_chunk, hash_path
from repro.core.config import FSConfig
from repro.core.distributor import SimpleHashDistributor
from repro.net import LocalSocketCluster

_allocate_lock = threading.Lock

FULL = dict(rpc_retries=2, breaker_enabled=True, qos_enabled=True, integrity_enabled=True)
INTEGRITY = dict(integrity_enabled=True)
BLOCK = b"x" * 8192
BATCH = 60

CHUNK = FSConfig().chunk_size
#: The operations gated, on one 32 KiB file; ``create`` and ``unlink`` are
#: mdtest's mutate half, one RPC each, on a fresh name per call (the
#: client's own counters number them).  At two daemons chunk 0 of the file
#: is on its metadata owner and chunk 1 is not: ``pwrite 8 KiB`` writes
#: chunk 1 (a chunk RPC and a size-update RPC), ``pwrite 8 KiB owner-held``
#: chunk 0 (one chunk RPC that carries the size).  ``pread 8 KiB`` is one
#: inline span, ``pread 64 KiB`` one span above ``INLINE_THRESHOLD``, which
#: the daemon pushes into the client's exposed buffer (on a 64 KiB file).
OPS = {
    "stat": lambda client, fd: client.stat("/gkfs/file"),
    "pwrite 8 KiB": lambda client, fd: client.pwrite(fd, BLOCK, CHUNK + 8192),
    "pwrite 8 KiB owner-held": lambda client, fd: client.pwrite(fd, BLOCK, 8192),
    "pread 8 KiB": lambda client, fd: client.pread(fd, 8192, 8192),
    "pread 64 KiB": lambda client, fd: client.pread(fd, 8 * len(BLOCK), 0),
    "create": lambda client, fd: client.close(client.open(
        f"/gkfs/new{client.stats.creates}", os.O_CREAT | os.O_EXCL | os.O_WRONLY)),
    "unlink": lambda client, fd: client.unlink(f"/gkfs/gone{client.stats.removes}"),
}
#: The file an operation needs, where 32 KiB is too small.
FILE_SIZE = {"pread 64 KiB": 8 * len(BLOCK)}
#: What an operation needs in place before its warm batch.
PREPARE = {
    "unlink": lambda client: [client.write_bytes(f"/gkfs/gone{i}", b"") for i in range(2 * BATCH)],
}

#: Surplus of ``full`` over ``INTEGRITY`` allowed per RPC: (client, daemon).
#: The daemon's counts carry the relief tick's few calls (the accept thread
#: wakes every 50 ms), so its bounds keep one call of slack.  Reached: 7.2 /
#: 6.1 on every row (the client's fraction is the window growing across a
#: whole slot in the counted batch).
SURPLUS_BOUND = (8, 7)
#: Python calls per RPC allowed under ``FSConfig()``: (client, daemon).  The
#: floor is the bare ``stat`` exchange (``benchmarks/test_micro_socket.py::
#: BareStat``, 37 / 38); the stack's surplus over it is the framework's.
PAPER_BUDGET = {
    "stat": (69, 47),
    "pwrite 8 KiB": (79, 60),
    "pwrite 8 KiB owner-held": (97, 79),
    "pread 8 KiB": (88, 65),
    "pread 64 KiB": (106, 79),
    "create": (97, 63),
    "unlink": (72, 64),
}
#: Python calls per RPC allowed under ``FULL`` for the metadata operations
#: and the reads: the whole stack, beside the surplus bound above.
FULL_BUDGET = {
    "stat": (83, 55),
    "pread 8 KiB": (120, 87),
    "pread 64 KiB": (142, 102),
    "create": (111, 71),
    "unlink": (86, 72),
}


#: Lock holds per RPC allowed: ``{op: ((client, daemon) under FSConfig(),
#: (client, daemon) under FULL)}``.  An idle ``full`` call holds no lock
#: ``FSConfig()`` does not: the window's slot is a deque token, the gauge a
#: deque, the breaker's success count unlocked, and a lent request on an idle
#: QoS lane is counted in its slot's ledger.  The window's growth across a
#: whole slot takes its lock once every few calls, hence a ``full`` client
#: bound one above ``FSConfig()``'s.
HOLD_BUDGET = {
    "stat": ((4, 3), (5, 3)),
    "pwrite 8 KiB": ((5, 4), (6, 4)),
    "pwrite 8 KiB owner-held": ((5, 4), (6, 4)),
    "pread 8 KiB": ((5, 3), (6, 3)),
    "pread 64 KiB": ((5, 4), (6, 4)),
    "create": ((6, 4), (7, 4)),
    "unlink": ((4, 4), (5, 4)),
}


class CallCounter:
    """Python calls per thread, counted by a profile hook.

    Threads started inside :meth:`hooked` carry the hook; it counts only
    inside :meth:`counting`, which hooks the calling thread as well."""

    def __init__(self):
        self.counts: dict = {}
        self._on = False

    def _profile(self, frame, event, arg):
        if self._on and (event == "call" or event == "c_call"):
            ident = threading.get_ident()
            self.counts[ident] = self.counts.get(ident, 0) + 1

    @contextlib.contextmanager
    def hooked(self):
        threading.setprofile(self._profile)
        try:
            yield self
        finally:
            threading.setprofile(None)

    @contextlib.contextmanager
    def counting(self):
        # A cyclic collection inside the window would count the finalizers
        # of whatever ran before it: collect first, and not while counting.
        gc.collect()
        gc.disable()
        self.counts.clear()
        sys.setprofile(self._profile)
        self._on = True
        try:
            yield self.counts
        finally:
            self._on = False
            sys.setprofile(None)
            gc.enable()


def calls_per_rpc(planes: dict, op, file_size: int = 4 * len(BLOCK),
                  prepare=None) -> tuple[float, float]:
    """``(client, daemon)`` Python calls per RPC of ``op(client, fd)`` over a
    fresh ``LocalSocketCluster(2, FSConfig(**planes))`` holding one file of
    ``file_size`` bytes (and what ``prepare(client)`` makes): one batch warms
    connections and caches, the next is counted; RPCs are read off the
    daemons' engines.  The placement memo starts cold, so a count does not
    depend on what ran before it in the process."""
    counter = CallCounter()
    hash_path.cache_clear()  # a fresh name costs its placement digests once
    hash_chunk.cache_clear()
    with counter.hooked(), LocalSocketCluster(2, FSConfig(**planes)) as cluster:
        client = cluster.client(0)
        client.write_bytes("/gkfs/file", bytes(file_size))
        fd = client.open("/gkfs/file", os.O_RDWR)
        if prepare is not None:
            prepare(client)
        for _ in range(BATCH):
            op(client, fd)
        before = _served(cluster)
        with counter.counting() as counts:
            for _ in range(BATCH):
                op(client, fd)
        rpcs = _served(cluster) - before
    mine = counts.pop(threading.get_ident(), 0)
    return mine / rpcs, sum(counts.values()) / rpcs


class CountingLock:
    """A ``threading.Lock`` that counts its holds per thread while
    :attr:`counts` is a dict (class-wide: every wrapper counts into it)."""

    __slots__ = ("_lock",)
    counts: Optional[dict] = None

    def __init__(self):
        self._lock = _allocate_lock()

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        got = self._lock.acquire(blocking, timeout)
        counts = CountingLock.counts
        if got and counts is not None:
            ident = threading.get_ident()
            counts[ident] = counts.get(ident, 0) + 1
        return got

    __enter__ = acquire

    def __exit__(self, *exc) -> None:
        self._lock.release()

    def release(self) -> None:
        self._lock.release()

    def locked(self) -> bool:
        return self._lock.locked()

    def _is_owned(self) -> bool:  # threading.Condition's check, not a hold
        return self._lock.locked()


def holds_per_rpc(planes: dict, op, file_size: int = 4 * len(BLOCK),
                  prepare=None) -> tuple[float, float]:
    """``(client, daemon)`` lock holds per RPC of ``op(client, fd)``, set up
    and counted as :func:`calls_per_rpc` counts calls, with every
    ``threading.Lock`` made meanwhile a :class:`CountingLock`."""
    hash_path.cache_clear()
    hash_chunk.cache_clear()
    counts: dict = {}
    with _patched_lock(), LocalSocketCluster(2, FSConfig(**planes)) as cluster:
        client = cluster.client(0)
        client.write_bytes("/gkfs/file", bytes(file_size))
        fd = client.open("/gkfs/file", os.O_RDWR)
        if prepare is not None:
            prepare(client)
        for _ in range(BATCH):
            op(client, fd)
        before = _served(cluster)
        gc.collect()
        gc.disable()
        CountingLock.counts = counts
        try:
            for _ in range(BATCH):
                op(client, fd)
        finally:
            CountingLock.counts = None
            gc.enable()
        rpcs = _served(cluster) - before
    mine = counts.pop(threading.get_ident(), 0)
    return mine / rpcs, sum(counts.values()) / rpcs


@contextlib.contextmanager
def _patched_lock():
    threading.Lock = CountingLock
    try:
        yield
    finally:
        threading.Lock = _allocate_lock


def _served(cluster) -> int:
    return sum(sum(s.daemon.engine.calls_served.values()) for s in cluster.served)


def _calls(planes: dict, op: str) -> tuple[float, float]:
    return calls_per_rpc(planes, OPS[op], FILE_SIZE.get(op, 4 * len(BLOCK)), PREPARE.get(op))


def _holds(planes: dict, op: str) -> tuple[float, float]:
    return holds_per_rpc(planes, OPS[op], FILE_SIZE.get(op, 4 * len(BLOCK)), PREPARE.get(op))


def test_the_pwrite_rows_write_where_they_say():
    placement = SimpleHashDistributor(2)
    owner = placement.locate_metadata("/file")
    assert placement.locate_chunk("/file", 0) == owner
    assert placement.locate_chunk("/file", 1) != owner


@pytest.mark.parametrize("op", list(OPS))
def test_full_control_plane_surplus_per_rpc(op):
    full, base = _calls(FULL, op), _calls(INTEGRITY, op)
    # Rounded: two per-RPC means that differ by a whole number of calls
    # differ by it only to within a float's last bits.
    assert round(full[0] - base[0], 6) <= SURPLUS_BOUND[0], (op, "client", full, base)
    assert round(full[1] - base[1], 6) <= SURPLUS_BOUND[1], (op, "daemon", full, base)


@pytest.mark.parametrize("op", list(OPS))
def test_paper_config_calls_per_rpc_within_budget(op):
    client, daemon = _calls({}, op)
    assert client <= PAPER_BUDGET[op][0], (op, "client", client)
    assert daemon <= PAPER_BUDGET[op][1], (op, "daemon", daemon)


@pytest.mark.parametrize("op", list(FULL_BUDGET))
def test_full_config_calls_per_rpc_within_budget(op):
    client, daemon = _calls(FULL, op)
    assert client <= FULL_BUDGET[op][0], (op, "client", client)
    assert daemon <= FULL_BUDGET[op][1], (op, "daemon", daemon)


@pytest.mark.parametrize("op", list(OPS))
@pytest.mark.parametrize("config", ["paper", "full"])
def test_lock_holds_per_rpc_within_budget(config, op):
    client, daemon = _holds(FULL if config == "full" else {}, op)
    budget = HOLD_BUDGET[op][config == "full"]
    assert client <= budget[0], (op, config, "client", client)
    # The relief tick's few holds (the accept thread, every 50 ms) land in
    # the daemon's count: a quarter hold per RPC of slack, less than one
    # more hold per operation would add.
    assert daemon <= budget[1] + 0.25, (op, config, "daemon", daemon)


#: One chunk's worth, moved whole by one data RPC.
LARGE = 512 * 1024
LARGE_OPS = {
    "pwrite 512 KiB": lambda client, fd: client.pwrite(fd, b"y" * LARGE, 0),
    "pread 512 KiB": lambda client, fd: client.pread(fd, LARGE, 0),
}
#: Python calls per RPC the 8 KiB digest grain may add over a 128 KiB one
#: for a 512 KiB transfer: (client, daemon).  A per-block loop adds ~60
#: blocks' worth of calls on a side.
GRAIN_SURPLUS_BOUND = (4, 4)


@pytest.mark.parametrize("op", list(LARGE_OPS))
def test_a_finer_digest_grain_costs_per_byte_not_per_block(op):
    fine, coarse = (
        calls_per_rpc(
            dict(integrity_enabled=True, integrity_block_size=grain), LARGE_OPS[op], LARGE
        )
        for grain in (8 * 1024, 128 * 1024)
    )
    assert fine[0] - coarse[0] <= GRAIN_SURPLUS_BOUND[0], (op, "client", fine, coarse)
    assert fine[1] - coarse[1] <= GRAIN_SURPLUS_BOUND[1], (op, "daemon", fine, coarse)
