"""The deployment every workload runs against, and the host it ran on.

One shape only: ``repro.net.LocalSocketCluster(2)`` — both daemons in this
process, each behind a real TCP socket, disk-backed LSM+WAL and one file per
chunk under a fresh directory inside ``bench/out``.  That is the whole
functional path (client → chunking/placement → retry/breaker → QoS window →
codec → socket → selector server → pool → handler → LSM / chunk store /
checksum) with the daemon objects still reachable for the traced run.

Two configs: ``paper`` is ``FSConfig()`` plus the two directories (the
paper's design: no retry, no QoS, no checksums); ``full`` adds the four
planes the ROADMAP's north star names.  Caches, telemetry and replication
stay off in both: their behaviour depends on time or TTLs.
"""

from __future__ import annotations

import os
import platform
import shutil
import subprocess
import sys
import tempfile
import threading
import time

from repro.core.config import FSConfig
from repro.net import LocalSocketCluster
from repro.net.serve import config_to_json

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(BENCH_DIR, "out")

DAEMONS = 2
MOUNT = FSConfig().mountpoint
WORKDIR = MOUNT + "/bench"

FULL_PLANES = dict(
    rpc_retries=2, breaker_enabled=True, qos_enabled=True, integrity_enabled=True
)


def make_config(name: str, root: str) -> FSConfig:
    if name not in ("paper", "full"):
        raise ValueError(f"unknown config {name!r}")
    planes = FULL_PLANES if name == "full" else {}
    return FSConfig(
        kv_dir=os.path.join(root, "kv"), data_dir=os.path.join(root, "data"), **planes
    )


def pin_to_one_cpu() -> None:
    """Run every thread of this process on one CPU.

    Client, reader threads, selector loops and handler pools share one GIL,
    so a second CPU adds no parallelism — but on this 2-vCPU sandbox the
    scheduler flips between keeping the threads together and spreading
    them, and a cross-vCPU wake-up costs more than the RPC it wakes: the
    same code then runs at either of two speeds 2x apart.  Pinning removes
    that coin flip; the README lists what it hides.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


#: Seconds the calibration loop takes at the reference machine speed
#: (25 ns per iteration, about what this sandbox does when it is quiet).
REFERENCE_LOOP_S = 0.0125
_LOOP_ITERATIONS = 500_000


def machine_speed_factor() -> float:
    """How much slower than the reference this machine runs *right now*.

    The sandbox is a shared VM whose CPU speed wanders by +-15 % over tens
    of seconds; a fixed pure-Python loop timed next to a round follows the
    round's own speed with correlation 0.9 or more on the metadata and
    small-I/O workloads (whose cost is interpreter time) and cuts their
    run-to-run spread from ~9 % to ~2-4 %.  Rates and latencies are
    therefore reported as they would be with the loop at its reference
    time; the raw wall-clock numbers are printed beside them.
    """
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        n = 0
        for _ in range(_LOOP_ITERATIONS):
            n += 1
        best = min(best, time.perf_counter() - start)
    return best / REFERENCE_LOOP_S


def settle_allocator() -> None:
    """Put glibc malloc in the state a long-running daemon is in.

    glibc serves allocations above its *dynamic* mmap threshold (128 KiB at
    start) with a fresh ``mmap`` each, and raises the threshold the first
    time such a block is freed.  The RPC server allocates a 256 KiB receive
    buffer per readable event, so a young process pays an mmap, a page
    fault and a munmap per RPC — until some unrelated large free (a dict
    of ~11 k metadata records resizing, the first 1 MiB transfer) lifts the
    threshold and the same code runs 1.3x faster.  That flip would land in
    the middle of a measured run; freeing one large block first puts every
    round of every workload on the far side of it.  What that hides is in
    the README's blind spots; ``bench.minor_faults_per_op`` in the traced
    run shows whether a workload still faults once settled.
    """
    block = bytearray(16 * 1024 * 1024)
    del block


class Deployment:
    """A running two-daemon socket cluster with its clients and scratch dir."""

    def __init__(self, config_name: str, clients: int = 1):
        os.makedirs(OUT_DIR, exist_ok=True)
        self.root = tempfile.mkdtemp(prefix="tmp-", dir=OUT_DIR)
        try:
            self.config = make_config(config_name, self.root)
            self.cluster = LocalSocketCluster(DAEMONS, self.config)
        except BaseException:
            shutil.rmtree(self.root, ignore_errors=True)
            raise
        self.clients = [self.cluster.client(node) for node in range(clients)]

    @property
    def daemons(self) -> list:
        return [served.daemon for served in self.cluster.served]

    @property
    def network(self):
        return self.cluster.deployment.network

    def client_rpcs(self) -> int:
        """RPCs the client side has put on the wire so far."""
        return self.network.inflight.launched

    def served_rpcs(self) -> int:
        """RPCs the daemons' engines have served so far."""
        return sum(sum(d.engine.calls_served.values()) for d in self.daemons)

    def disk_bytes(self) -> int:
        """Apparent size of everything under kv_dir and data_dir."""
        total = 0
        for base, _dirs, files in os.walk(self.root):
            for name in files:
                total += os.path.getsize(os.path.join(base, name))
        return total

    def close(self) -> list[str]:
        """Stop the cluster, remove the scratch dir; returns what leaked."""
        self.cluster.shutdown()
        shutil.rmtree(self.root, ignore_errors=True)
        leaks = []
        if os.path.exists(self.root):
            leaks.append(f"scratch dir {self.root} not removed")
        deadline = time.monotonic() + 5.0
        main = threading.main_thread()
        while True:
            alive = [t.name for t in threading.enumerate() if t is not main]
            if not alive or time.monotonic() > deadline:
                break
            time.sleep(0.01)
        leaks.extend(f"thread {name} still alive" for name in alive)
        return leaks


def _fs_type(path: str) -> str:
    """File-system type of the mount holding ``path`` (longest prefix wins)."""
    best, fstype = "", "unknown"
    try:
        with open("/proc/mounts") as fh:
            for line in fh:
                _dev, mount, kind = line.split()[:3]
                if path.startswith(mount) and len(mount) > len(best):
                    best, fstype = mount, kind
    except OSError:
        pass
    return fstype


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO_ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def host_fingerprint() -> dict:
    """Where these numbers were taken, and with exactly which configs."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    os.makedirs(OUT_DIR, exist_ok=True)
    return {
        "nproc": os.cpu_count(),
        "cpus_used": sorted(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": _cpu_model(),
        "python": sys.version.split()[0],
        "numpy": numpy_version,
        "kernel": platform.release(),
        "scratch_fs": _fs_type(OUT_DIR),
        "git_commit": _git_commit(),
        "configs": {
            name: config_to_json(make_config(name, "<scratch>"))
            for name in ("paper", "full")
        },
    }
