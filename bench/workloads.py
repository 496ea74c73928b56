"""The six workloads: the paper's mdtest and IOR shapes, as closed loops.

Every workload is a sequence of fixed-size *rounds* issued by one client
thread (two for the shared-file mix) that sends its next operation only
when the previous one has completed.  A round is made only from ``--seed``
(file-name suffixes, payload bytes, random offsets); the file system sees
nothing but those generated inputs.  Each round checks what it read back,
that the counters of client and daemons agree with what it issued, and
that the namespace holds exactly what it should.

Operations fall in two classes so that every workload reports the same
end-to-end metrics: *mutate* (create, remove, pwrite) and *query* (stat,
pread).
"""

from __future__ import annotations

import os
import random
import threading
from dataclasses import dataclass, field
from statistics import median
from time import perf_counter

from deploy import WORKDIR, Deployment

KIB = 1024
MIB = 1024 * 1024
_MAX_KEPT_ERRORS = 5


@dataclass
class Phase:
    """Every operation of one kind issued in one round."""

    kind: str
    ops: int = 0
    failed: int = 0
    seconds: float = 0.0  # wall time of the loop that issued them
    latencies: list = field(default_factory=list)
    errors: list = field(default_factory=list)

    def fail(self, why: str) -> None:
        self.failed += 1
        if len(self.errors) < _MAX_KEPT_ERRORS:
            self.errors.append(why)


@dataclass
class Round:
    phases: dict  # kind -> Phase
    wall: float  # seconds the timed loops took
    generator_s: float  # payload build + compare time, summed over threads
    stored_bytes: int  # disk bytes the first mutating phase added ...
    stored_ops: int  # ... and how many operations added them
    problems: list  # hygiene and exact-count checks that did not hold
    #: How slow the machine ran around this round: the calibration loop's
    #: time over the reference time (set by the measuring loop).
    speed_factor: float = 1.0


def timed_op(phase: Phase, tracer, fn, *args):
    """Issue one operation, record its latency; a raised error is a failed
    operation, counted and reported, never the end of the run."""
    start = perf_counter()
    if tracer is not None:
        tracer.op_begin(phase.kind, start)
    try:
        value = fn(*args)
    except Exception as exc:
        phase.fail(repr(exc))
        value = None
    end = perf_counter()
    if tracer is not None:
        tracer.op_end(end)
    phase.latencies.append(end - start)
    phase.ops += 1
    return value


def _expect(problems: list, what: str, got, want) -> None:
    if got != want:
        problems.append(f"{what}: got {got!r}, expected {want!r}")


class _Audit:
    """The counters of clients, daemons and disk as a round's timed loops
    begin, to hold what the round did against what it meant to do."""

    _STATS = ("creates", "stats_", "removes", "reads", "writes",
              "bytes_read", "bytes_written")

    def __init__(self, dep: Deployment):
        self.dep = dep
        self.stats = self._client_stats()
        self.sent, self.served = dep.client_rpcs(), dep.served_rpcs()
        self.disk = dep.disk_bytes()

    def _client_stats(self) -> dict:
        return {key: sum(getattr(c.stats, key) for c in self.dep.clients)
                for key in self._STATS}

    def stored_bytes(self) -> int:
        return self.dep.disk_bytes() - self.disk

    def check(self, problems: list, **expected) -> None:
        """``client.stats`` moved by exactly ``expected``; every RPC the
        clients sent was served."""
        now = self._client_stats()
        for key, want in expected.items():
            _expect(problems, f"client.stats.{key}", now[key] - self.stats[key], want)
        _expect(problems, "RPCs served vs sent",
                self.dep.served_rpcs() - self.served, self.dep.client_rpcs() - self.sent)


class Workload:
    """One named workload; subclasses supply set-up and the round."""

    classes: dict = {}  # op kind -> "mutate" | "query"
    clients = 1
    transfer = 0  # user bytes per data operation (0 for metadata ops)

    def __init__(self, name: str, config: str):
        self.name = name
        self.config = config

    def setup(self, dep: Deployment, seed: int) -> None:
        raise NotImplementedError

    def run_round(self, dep: Deployment, seed: int, index: int, tracer) -> Round:
        raise NotImplementedError

    def teardown(self, dep: Deployment) -> list:
        """Remove what outlives the rounds; returns what was left behind."""
        return []


def _create(client, path: str) -> None:
    client.close(client.open(path, os.O_CREAT | os.O_EXCL | os.O_WRONLY))


class Mdtest(Workload):
    """``files`` zero-byte files in one directory: create, stat, unlink."""

    classes = {"create": "mutate", "stat": "query", "remove": "mutate"}

    def __init__(self, name: str, config: str, files: int):
        super().__init__(name, config)
        self.files = files

    def setup(self, dep, seed):
        dep.clients[0].mkdir(WORKDIR)

    def run_round(self, dep, seed, index, tracer):
        client = dep.clients[0]
        names = [
            f"{WORKDIR}/f.{seed & 0xFFFFFFFF:08x}.{index:04d}.{i:06d}"
            for i in range(self.files)
        ]
        records = [len(d.kv) for d in dep.daemons]
        audit = _Audit(dep)
        create, stat, remove = Phase("create"), Phase("stat"), Phase("remove")

        start = perf_counter()
        for name in names:
            timed_op(create, tracer, _create, client, name)
        create.seconds = perf_counter() - start
        stored = audit.stored_bytes()

        start = perf_counter()
        for name in names:
            md = timed_op(stat, tracer, client.stat, name)
            if md is not None and (md.size != 0 or md.is_dir):
                stat.fail(f"{name}: stat returned {md!r}")
        stat.seconds = perf_counter() - start

        start = perf_counter()
        for name in names:
            timed_op(remove, tracer, client.unlink, name)
        remove.seconds = perf_counter() - start

        problems: list = []
        audit.check(problems, creates=self.files, stats_=self.files, removes=self.files)
        _expect(problems, "listdir after round", client.listdir(WORKDIR), [])
        _expect(problems, "KV records per daemon",
                [len(d.kv) for d in dep.daemons], records)
        return Round(
            phases={p.kind: p for p in (create, stat, remove)},
            wall=create.seconds + stat.seconds + remove.seconds,
            generator_s=0.0, stored_bytes=stored, stored_ops=self.files,
            problems=problems,
        )


class _Pattern:
    """Payload as a function of (seed, offset): a window into one seeded
    random buffer whose start depends on the offset, so a byte landing at
    the wrong place — inside a transfer or in another one — reads back
    wrong, and rewriting an offset always rewrites the same bytes."""

    def __init__(self, seed: int, transfer: int):
        self.transfer = transfer
        self.base = random.Random(seed).randbytes(2 * transfer)

    def at(self, offset: int) -> bytes:
        start = (offset // self.transfer * 7919) % self.transfer
        return self.base[start : start + self.transfer]


def _remove_and_check(dep: Deployment, path: str) -> list:
    problems: list = []
    client = dep.clients[0]
    client.unlink(path)
    _expect(problems, "listdir after the run", client.listdir(WORKDIR), [])
    _expect(problems, "chunk bytes left per daemon",
            [d.storage.used_bytes() for d in dep.daemons], [0] * len(dep.daemons))
    return problems


class Ior(Workload):
    """File-per-process IOR, one rank: ``count`` sequential transfers
    written, then read back and compared.

    The warm-up round creates the file; every later round rewrites it in
    place.  Creating and deleting the chunk files each round (512 of them
    at 1 MiB transfers) ties a round's speed to whether the sandbox's ext4
    journal commits during it: every third round ran 3x slower.
    """

    classes = {"write": "mutate", "read": "query"}

    def __init__(self, name: str, config: str, transfer: int, count: int):
        super().__init__(name, config)
        self.transfer = transfer
        self.count = count
        self.pattern = None
        self.path = None

    def setup(self, dep, seed):
        dep.clients[0].mkdir(WORKDIR)
        self.pattern = _Pattern(seed, self.transfer)
        self.path = f"{WORKDIR}/ior.{seed & 0xFFFFFFFF:08x}"

    def teardown(self, dep):
        return _remove_and_check(dep, self.path)

    def run_round(self, dep, seed, index, tracer):
        client, transfer, pattern = dep.clients[0], self.transfer, self.pattern
        path = self.path
        fd = client.open(
            path, os.O_RDWR | (os.O_CREAT | os.O_EXCL if index == 0 else 0)
        )
        audit = _Audit(dep)
        write, read = Phase("write"), Phase("read")
        generator = 0.0

        start = perf_counter()
        for i in range(self.count):
            g = perf_counter()
            data = pattern.at(i * transfer)
            generator += perf_counter() - g
            if timed_op(write, tracer, client.pwrite, fd, data, i * transfer) not in (
                transfer, None,
            ):
                write.fail(f"short write at {i * transfer}")
        write.seconds = perf_counter() - start
        stored = audit.stored_bytes()

        start = perf_counter()
        for i in range(self.count):
            data = timed_op(read, tracer, client.pread, fd, transfer, i * transfer)
            g = perf_counter()
            if data is not None and data != pattern.at(i * transfer):
                read.fail(f"{path}: bytes at {i * transfer} differ from what was written")
            generator += perf_counter() - g
        read.seconds = perf_counter() - start

        problems: list = []
        audit.check(problems, writes=self.count, reads=self.count,
                    bytes_written=self.count * transfer,
                    bytes_read=self.count * transfer)
        client.close(fd)
        _expect(problems, "file size", client.stat(path).size, self.count * transfer)
        _expect(problems, "chunk bytes stored",
                sum(d.storage.used_bytes() for d in dep.daemons), self.count * transfer)
        return Round(
            phases={"write": write, "read": read},
            wall=write.seconds + read.seconds, generator_s=generator,
            stored_bytes=stored, stored_ops=self.count, problems=problems,
        )


class SharedMixed(Workload):
    """Two clients on one preloaded shared file: seeded random aligned
    offsets, pwrite and pread alternating, the two threads out of step so
    a write is always in flight beside a read."""

    classes = {"write": "mutate", "read": "query"}
    clients = 2

    def __init__(self, name: str, config: str, file_bytes: int, transfer: int, ops: int):
        super().__init__(name, config)
        self.file_bytes = file_bytes
        self.transfer = transfer
        self.ops = ops  # per thread per round
        self.pattern = None
        self.path = f"{WORKDIR}/shared.dat"

    def setup(self, dep, seed):
        client = dep.clients[0]
        client.mkdir(WORKDIR)
        self.pattern = _Pattern(seed, self.transfer)
        fd = client.open(self.path, os.O_CREAT | os.O_EXCL | os.O_RDWR)
        for offset in range(0, self.file_bytes, self.transfer):
            client.pwrite(fd, self.pattern.at(offset), offset)
        client.close(fd)

    def teardown(self, dep):
        return _remove_and_check(dep, self.path)

    def _thread(self, client, rank, offsets, barrier, tracer, out):
        write, read = Phase("write"), Phase("read")
        generator = 0.0
        pattern, transfer = self.pattern, self.transfer
        try:
            fd = client.open(self.path, os.O_RDWR)
            barrier.wait()
            start = perf_counter()
            for k, offset in enumerate(offsets):
                g = perf_counter()
                data = pattern.at(offset)
                generator += perf_counter() - g
                if (k + rank) % 2 == 0:
                    timed_op(write, tracer, client.pwrite, fd, data, offset)
                else:
                    got = timed_op(read, tracer, client.pread, fd, transfer, offset)
                    g = perf_counter()
                    if got is not None and got != data:
                        read.fail(f"bytes at {offset} differ from the pattern")
                    generator += perf_counter() - g
            end = perf_counter()
            client.close(fd)
            out[rank] = (write, read, start, end, generator)
        except BaseException as exc:  # re-raised by the round in the main thread
            barrier.abort()
            out[rank] = exc

    def run_round(self, dep, seed, index, tracer):
        blocks = self.file_bytes // self.transfer
        audit = _Audit(dep)
        barrier = threading.Barrier(self.clients)
        out: list = [None] * self.clients
        threads = []
        for rank, client in enumerate(dep.clients):
            rng = random.Random((seed * 1_000_003 + index) * 131 + rank)
            offsets = [rng.randrange(blocks) * self.transfer for _ in range(self.ops)]
            threads.append(threading.Thread(
                target=self._thread, name=f"bench-client-{rank}",
                args=(client, rank, offsets, barrier, tracer, out),
            ))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        for result in out:
            if isinstance(result, BaseException):
                raise result
        write, read = Phase("write"), Phase("read")
        for w, r, _start, _end, _gen in out:
            for total, part in ((write, w), (read, r)):
                total.ops += part.ops
                total.failed += part.failed
                total.latencies += part.latencies
                total.errors += part.errors
        wall = max(o[3] for o in out) - min(o[2] for o in out)
        write.seconds = read.seconds = wall

        problems: list = []
        audit.check(problems, writes=write.ops, reads=read.ops,
                    bytes_written=write.ops * self.transfer,
                    bytes_read=read.ops * self.transfer)
        _expect(problems, "shared file size",
                dep.clients[0].stat(self.path).size, self.file_bytes)
        return Round(
            phases={"write": write, "read": read}, wall=wall,
            generator_s=sum(o[4] for o in out),
            stored_bytes=audit.stored_bytes(), stored_ops=write.ops, problems=problems,
        )


def build(name: str, scale: float = 1.0) -> Workload:
    """The workload called ``name`` with its per-round sizes times ``scale``."""

    def n(count: int) -> int:
        return max(4, int(count * scale))

    if name == "mdtest_paper":
        return Mdtest(name, "paper", files=n(2500))
    if name == "mdtest_full":
        return Mdtest(name, "full", files=n(2500))
    if name == "ior_small_full":
        return Ior(name, "full", transfer=8 * KIB, count=n(1536))
    if name == "ior_large_paper":
        return Ior(name, "paper", transfer=MIB, count=n(256))
    if name == "ior_large_full":
        return Ior(name, "full", transfer=MIB, count=n(256))
    if name == "ior_shared_mixed_full":
        return SharedMixed(name, "full", file_bytes=32 * MIB, transfer=64 * KIB,
                           ops=n(1000))
    raise ValueError(f"unknown workload {name!r}")


def percentile(samples: list, p: float) -> float:
    """Nearest-rank percentile of ``samples`` (0 < p <= 100)."""
    ordered = sorted(samples)
    rank = max(1, -(-len(ordered) * p // 100))
    return ordered[int(rank) - 1]


def round_values(workload: Workload, r: Round) -> dict:
    """One round's rates and latencies, at the reference machine speed.

    ``ops_s`` divides by the wall time of the timed loops; a class rate
    divides by the time that class's operations were in progress per client
    thread (their summed latencies over the thread count), which leaves the
    generator's own payload work out and is defined when reads and writes
    interleave.  A class p50 is the mean, over the class's operation kinds,
    of that kind's median latency (so create and remove do not form one
    bimodal sample).  Every time is divided by the round's speed factor.
    """
    factor = r.speed_factor
    values = {
        "ops_s": factor * sum(p.ops for p in r.phases.values()) / r.wall,
    }
    for klass in ("mutate", "query"):
        phases = [r.phases[k] for k, c in workload.classes.items() if c == klass]
        busy = sum(sum(p.latencies) for p in phases) / workload.clients
        values[f"{klass}_ops_s"] = factor * sum(p.ops for p in phases) / busy
        values[f"{klass}_p50_us"] = (
            1e6 * sum(median(p.latencies) for p in phases) / len(phases) / factor
        )
    return values


def summarise(workload: Workload, rounds: list, warm_up: Round) -> tuple[dict, dict, dict]:
    """End-to-end values, their per-round samples, and raw per-kind rows.

    An end-to-end value is the median over the measured rounds of the
    round's own value.  ``stored_bytes_per_op`` comes from the warm-up
    round, the one that first creates what the workload stores.  The
    per-kind rows are raw wall-clock numbers, not speed-corrected.
    """
    samples: dict = {}
    for r in rounds:
        for name, value in round_values(workload, r).items():
            samples.setdefault(name, []).append(value)
    e2e = {name: median(values) for name, values in samples.items()}
    e2e["stored_bytes_per_op"] = warm_up.stored_bytes / warm_up.stored_ops

    kinds: dict = {}
    for kind in workload.classes:
        lats = [lat for r in rounds for lat in r.phases[kind].latencies]
        rate = median(r.phases[kind].ops / r.phases[kind].seconds for r in rounds)
        row = {"samples": len(lats), "ops_s": rate, "p50_us": 1e6 * median(lats),
               "p99_us": 1e6 * percentile(lats, 99)}
        if workload.transfer:
            row["mib_s"] = rate * workload.transfer / MIB
        kinds[kind] = row
    return e2e, samples, kinds
