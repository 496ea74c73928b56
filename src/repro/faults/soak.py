"""Randomized chaos soak over a real multi-process cluster.

``faults/chaos.py`` drives seeded fault plans against *in-process*
clusters, where a "crash" is a method call.  The soak closes the realism
gap: it runs a :class:`~repro.net.cluster.ProcessCluster` (one OS
process per daemon), keeps a foreground workload writing and reading
through the full wire stack, lets a seeded schedule inject **real**
faults —

* ``SIGKILL`` (crash: the process dies, volatile state gone),
* ``SIGSTOP``/``SIGCONT`` (hang: the process lives, its sockets accept,
  nothing answers — the per-call stall watchdog turns this into
  timeouts),
* client-side partitions and latency storms (the spliced fault layer —
  the *must never condemn* cases),
* on-disk bitrot (a byte flipped in a chunk file under a daemon's
  ``data_dir``, sidecar untouched — silent corruption for the integrity
  plane) —

while the self-healing control plane (:mod:`repro.selfheal`) runs
hands-free, and checks **continuous invariants**:

1. **no acked byte lost** — every file whose last write was
   acknowledged reads back exactly, after the dust settles;
2. **availability floor** — the overall op success ratio stays above a
   floor, and no blackout (consecutive windows with zero successes)
   outlasts a bound;
3. **bounded MTTR** — every hands-free repair completes within the
   budget, and the cluster returns to *full redundancy* (a final wire
   repair pass after the verification pass is a no-op);
4. **zero false condemnations** — every condemned daemon had a lethal
   fault (kill/hang) actually applied since its last repair; a daemon
   that only ever saw partitions, latency or bitrot is never replaced.

The schedule is driven by one seeded RNG: the same seed replays the
same fault sequence, so CI pins seeds and failures reproduce.
"""

from __future__ import annotations

import os
import random
import threading
import time
from concurrent.futures import ThreadPoolExecutor, wait
from dataclasses import dataclass, field, fields
from typing import Optional

from repro.common.errors import UNREACHABLE, GekkoError
from repro.core.cluster import node_dir
from repro.core.config import FSConfig
from repro.faults.transports import splice_faults
from repro.net.cluster import ProcessCluster
from repro.selfheal import PhiAccrualDetector, Supervisor, WireRepairer

__all__ = ["LedgeredWorkload", "SoakHarness", "SoakReport"]

#: Fault kinds the scheduler draws from, with weights.
_FAULT_WEIGHTS = (
    ("kill", 25),
    ("hang", 20),
    ("partition", 20),
    ("latency", 15),
    ("bitrot", 20),
)


class LedgeredWorkload:
    """The foreground workload under faults: whole-file writes retried
    until acked, each acked version kept in a ledger, read back at the end.

    Every file converges to a version the ledger records, so "no acked
    byte lost" stays crisp even when a write tears across a crash.  A
    failure it tolerates — :data:`TOLERATED` — counts as a failed op and
    is retried; any other error ends :meth:`run` and reaches its caller.

    :param tag: names the run in every payload (a seed, say), so a body
        is verifiable from the ledger alone.
    :param seed: drives which file each round writes and spot-checks.
    """

    #: What a write or read may fail with under faults: the daemon is
    #: unreachable (crashed, hung, partitioned, breaker open) or answered
    #: with a file-system error.
    TOLERATED = UNREACHABLE + (GekkoError,)

    def __init__(self, tag: str, seed: int, files: int, file_size: int,
                 prefix: str = "/gkfs/soak"):
        self.tag = tag
        self.rng = random.Random(seed)
        self.files = files
        self.file_size = file_size
        self.prefix = prefix
        self.ledger: dict[int, int] = {}  # file index -> last acked version
        self.ops: list = []  # (monotonic stamp, success)

    def payload(self, index: int, version: int) -> bytes:
        tag = f"{self.tag}:{index}:{version}:".encode()
        return (tag * (self.file_size // len(tag) + 1))[:self.file_size]

    def path(self, index: int) -> str:
        return f"{self.prefix}/f{index:03d}"

    def write(self, client, index: int, version: int = 1) -> None:
        """Write file ``index`` whole at ``version``; once acked, ledger it."""
        fd = client.open(self.path(index), os.O_CREAT | os.O_RDWR)
        client.pwrite(fd, self.payload(index, version), 0)
        client.close(fd)
        self.ledger[index] = version

    def populate(self, client) -> None:
        """Write every file once, at version 1; any error raises."""
        for index in range(self.files):
            self.write(client, index)

    def run(self, client, stop: threading.Event) -> None:
        """Write (and spot-check) until ``stop`` is set."""
        version = 0
        while not stop.is_set():
            index = self.rng.randrange(self.files)
            version += 1
            for _ in range(200):
                if stop.is_set():
                    return
                try:
                    self.write(client, index, version)
                except self.TOLERATED:
                    self.ops.append((time.monotonic(), False))
                    time.sleep(0.05)
                    continue
                self.ops.append((time.monotonic(), True))
                break
            # Spot-check an already-acked file (success only — content
            # mismatches surface in the final verification).
            check = self.rng.randrange(self.files)
            if check in self.ledger:
                try:
                    fd = client.open(self.path(check), os.O_RDONLY)
                    client.pread(fd, self.file_size, 0)
                    client.close(fd)
                    self.ops.append((time.monotonic(), True))
                except self.TOLERATED:
                    self.ops.append((time.monotonic(), False))
            time.sleep(0.01)

    def verify(self, client) -> tuple[list, list, int]:
        """Read every acked file back: ``(unreadable, mismatched, files
        verified)``, one violation message per file in the two lists.  Each
        read asks for one byte more than the body, so a file that grew past
        it counts as mismatched."""
        unreadable, mismatched = [], []
        for index, version in sorted(self.ledger.items()):
            path = self.path(index)
            try:
                fd = client.open(path, os.O_RDONLY)
                data = client.pread(fd, self.file_size + 1, 0)
                client.close(fd)
            except self.TOLERATED as exc:
                unreadable.append(
                    f"acked file {path} unreadable: {type(exc).__name__}: {exc}"
                )
                continue
            if data != self.payload(index, version):
                mismatched.append(
                    f"acked data lost: {path} version {version} reads back "
                    f"wrong ({len(data)} bytes)"
                )
        verified = len(self.ledger) - len(unreadable) - len(mismatched)
        return unreadable, mismatched, verified


@dataclass
class SoakReport:
    """Everything one soak run measured, plus its invariant verdicts."""

    seed: int = 0
    duration: float = 0.0
    ops: int = 0
    ops_failed: int = 0
    availability: float = 1.0
    windows: list = field(default_factory=list)
    max_blackout_windows: int = 0
    faults: list = field(default_factory=list)
    repairs: int = 0
    repair_failures: int = 0
    restarts: int = 0
    replaces: int = 0
    max_mttr: float = 0.0
    partitions_detected: int = 0
    false_condemnations: list = field(default_factory=list)
    bytes_verified: int = 0
    files_verified: int = 0
    residual_restores: int = 0
    resyncs: int = 0
    violations: list = field(default_factory=list)
    #: Full supervisor decision journal (transitions, repairs, resyncs)
    #: — the black box CI archives next to the verdict.
    supervisor: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.violations

    def as_dict(self) -> dict:
        return {**{f.name: getattr(self, f.name) for f in fields(self)},
                "passed": self.passed}


class SoakHarness:
    """One seeded chaos soak: build, load, hurt, heal, verify.

    :param workdir: scratch root for the daemons' ``data_dir`` and
        ``kv_dir`` (must be durable — bitrot is injected into real chunk
        files, and a killed daemon restarts on its WAL and SSTables).
    :param seed: drives the entire fault schedule.
    :param duration: seconds of fault injection (the run itself is a
        few seconds longer: setup, quiesce and final verification).
    :param num_nodes: daemon processes (replication is fixed at 2, so
        any ``>= 3`` keeps a quorum of replicas through single faults).
    :param fault_interval: mean seconds between scheduled faults.
    :param availability_floor: minimum overall op success ratio.
    :param max_blackout: longest tolerated run of 1-second windows with
        zero successful ops.
    :param mttr_budget: per-repair bound in seconds (``None`` = derive
        nothing; the EXT experiment passes ``2x`` the analytic twin).
    :param files: foreground working-set size.
    """

    def __init__(
        self,
        workdir: str,
        *,
        seed: int = 101,
        duration: float = 20.0,
        num_nodes: int = 4,
        fault_interval: float = 2.0,
        availability_floor: float = 0.5,
        max_blackout: int = 4,
        mttr_budget: Optional[float] = None,
        files: int = 8,
        chunk_size: int = 16384,
        file_chunks: int = 3,
        probe_interval: float = 0.15,
        call_timeout: float = 0.75,
    ):
        if num_nodes < 3:
            raise ValueError(f"num_nodes must be >= 3, got {num_nodes}")
        if duration <= 0:
            raise ValueError(f"duration must be > 0, got {duration}")
        self.workdir = workdir
        self.seed = seed
        self.duration = duration
        self.num_nodes = num_nodes
        self.fault_interval = fault_interval
        self.availability_floor = availability_floor
        self.max_blackout = max_blackout
        self.mttr_budget = mttr_budget
        self.files = files
        self.file_size = chunk_size * file_chunks
        self.probe_interval = probe_interval
        self.call_timeout = call_timeout
        self.rng = random.Random(seed)
        self.config = FSConfig(
            replication=2,
            chunk_size=chunk_size,
            data_dir=os.path.join(workdir, "data"),
            kv_dir=os.path.join(workdir, "kv"),  # every SIGKILL meets the LSM store
            integrity_enabled=True,
            breaker_enabled=True,
            rpc_retries=1,
            rpc_call_timeout=call_timeout,
        )
        # Ground truth, written only by the scheduler / workload threads.
        self.workload = LedgeredWorkload(f"soak:{seed}", seed + 1, files, self.file_size)
        self._schedule: list = []  # {"t", "kind", "target", ...}
        self._lethal_since: dict[int, float] = {}  # addr -> last kill/hang
        self._rotted: set = set()  # (encoded dir, chunk name) already hit
        self._heals: list = []  # (due time, fn) for self-lifting faults
        self._stop = threading.Event()

    # -- fault injection ------------------------------------------------------

    def _note(self, kind: str, target, **extra) -> dict:
        entry = {"t": time.monotonic(), "kind": kind, "target": target, **extra}
        self._schedule.append(entry)
        return entry

    def _lethal_outstanding(
        self, cluster: ProcessCluster, supervisor: Supervisor
    ) -> bool:
        """Is the cluster still digesting a kill/hang?  (One at a time:
        replication 2 tolerates exactly one lost copy.)

        A hang that resumes (SIGCONT) before condemnation needs no
        repair, so this checks *live state* — dead or condemned daemons,
        queued or running repairs — not the fault ledger.
        """
        if supervisor.busy:
            return True
        if supervisor.resync_pending():
            # A replica is stale (a write acked with one leg down): that
            # copy is as good as lost until resynced, so a kill now could
            # wipe the only current copy — outside the one-loss envelope.
            return True
        if any(kind == "resume" for _, _, kind in self._heals):
            return True  # a SIGSTOP is still in force (SIGCONT scheduled)
        detector = supervisor.detector
        for address in range(self.num_nodes):
            if not cluster.daemon_alive(address):
                return True
            if detector.state(address) == "condemned":
                return True
        return False

    def _pick_fault(self) -> str:
        total = sum(w for _, w in _FAULT_WEIGHTS)
        roll = self.rng.randrange(total)
        for kind, weight in _FAULT_WEIGHTS:
            if roll < weight:
                return kind
            roll -= weight
        return _FAULT_WEIGHTS[-1][0]  # pragma: no cover

    def _bitrot(self, cluster: ProcessCluster, address: int) -> bool:
        """Flip one byte in one chunk file on disk, sidecar untouched.

        Never rots a chunk whose sibling copy was already hit — with
        replication 2 that would destroy both copies of real data, which
        is beyond what any repairer can heal.
        """
        root = node_dir(self.config.data_dir, address)
        if root is None or not os.path.isdir(root):
            return False
        candidates = []
        for dirname in sorted(os.listdir(root)):
            subdir = os.path.join(root, dirname)
            if not os.path.isdir(subdir):
                continue
            for name in sorted(os.listdir(subdir)):
                if name.endswith(".sum") or (dirname, name) in self._rotted:
                    continue
                path = os.path.join(subdir, name)
                if os.path.getsize(path) > 0:
                    candidates.append((dirname, name, path))
        if not candidates:
            return False
        dirname, name, path = candidates[self.rng.randrange(len(candidates))]
        with open(path, "r+b") as fh:
            size = os.path.getsize(path)
            offset = self.rng.randrange(size)
            fh.seek(offset)
            byte = fh.read(1)
            fh.seek(offset)
            fh.write(bytes([byte[0] ^ 0xFF]))
        self._rotted.add((dirname, name))
        return True

    def _inject(self, cluster: ProcessCluster, supervisor: Supervisor) -> None:
        kind = self._pick_fault()
        lethal_busy = self._lethal_outstanding(cluster, supervisor)
        if kind in ("kill", "hang"):
            if lethal_busy:
                return  # stay within the single-loss envelope
            address = self.rng.randrange(self.num_nodes)
            if not cluster.daemon_alive(address):
                return
            if kind == "kill":
                cluster.crash_daemon(address)
            else:
                cluster.suspend_daemon(address)
                resume_at = time.monotonic() + self.rng.uniform(1.0, 2.5)

                def resume(addr=address):
                    try:
                        # If the supervisor already force-killed and
                        # respawned it, SIGCONT on a running child is a
                        # no-op; on a reaped one it raises — ignore.
                        cluster.resume_daemon(addr)
                    except (ProcessLookupError, PermissionError):
                        pass

                self._heals.append((resume_at, resume, "resume"))
            self._lethal_since[address] = time.monotonic()
            self._note(kind, address)
        elif kind == "partition":
            address = self.rng.randrange(self.num_nodes)
            if address in self._lethal_since and lethal_busy:
                return
            self.faults.partition([address])
            heal_at = time.monotonic() + self.rng.uniform(0.8, 2.0)
            self._heals.append(
                (heal_at, lambda a=address: self.faults.heal([a]),
                 "heal")
            )
            self._note("partition", address)
        elif kind == "latency":
            address = self.rng.randrange(self.num_nodes)
            delay = self.rng.uniform(0.02, 0.1)
            self.faults.set_delay(address, delay)
            heal_at = time.monotonic() + self.rng.uniform(0.8, 2.0)
            self._heals.append(
                (heal_at, lambda a=address: self.faults.clear_delay(a),
                 "heal")
            )
            self._note("latency", address, delay=delay)
        elif kind == "bitrot":
            address = self.rng.randrange(self.num_nodes)
            if self._bitrot(cluster, address):
                self._note("bitrot", address)

    def _run_due_heals(self) -> None:
        now = time.monotonic()
        due = [h for h in self._heals if h[0] <= now]
        self._heals = [h for h in self._heals if h[0] > now]
        for _, fn, _kind in due:
            fn()

    # -- invariants -----------------------------------------------------------

    def _check_availability(self, report: SoakReport, started: float) -> None:
        window = 1.0
        ops = self.workload.ops
        ok = sum(1 for _, success in ops if success)
        report.ops = len(ops)
        report.ops_failed = report.ops - ok
        report.availability = ok / report.ops if report.ops else 1.0
        buckets: dict[int, list] = {}
        for stamp, success in ops:
            buckets.setdefault(int((stamp - started) / window), []).append(
                success
            )
        report.windows = [
            {
                "window": w,
                "ops": len(results),
                "ok": sum(1 for r in results if r),
            }
            for w, results in sorted(buckets.items())
        ]
        blackout = longest = 0
        for entry in report.windows:
            blackout = blackout + 1 if entry["ok"] == 0 else 0
            longest = max(longest, blackout)
        report.max_blackout_windows = longest
        if report.availability < self.availability_floor:
            report.violations.append(
                f"availability {report.availability:.3f} below floor "
                f"{self.availability_floor}"
            )
        if longest > self.max_blackout:
            report.violations.append(
                f"blackout of {longest} consecutive windows exceeds "
                f"{self.max_blackout}"
            )

    def _check_condemnations(
        self, report: SoakReport, supervisor: Supervisor
    ) -> None:
        repairs = supervisor.repairs()
        for entry in supervisor.report()["journal"]:
            if entry["event"] != "transition" or entry["new"] != "condemned":
                continue
            address = entry["address"]
            lethal = [
                f for f in self._schedule
                if f["kind"] in ("kill", "hang") and f["target"] == address
            ]
            cleared = [
                r["t"] for r in repairs
                if r["address"] == address and r["t"] < entry["t"]
            ]
            horizon = max(cleared) if cleared else 0.0
            justified = any(f["t"] >= horizon for f in lethal)
            if not justified:
                report.false_condemnations.append(
                    {"address": address, "t": entry["t"]}
                )
        if report.false_condemnations:
            report.violations.append(
                f"{len(report.false_condemnations)} false condemnation(s): "
                "a daemon with no lethal fault was condemned"
            )

    def _check_repairs(self, report: SoakReport, supervisor: Supervisor) -> None:
        sup = supervisor.report()
        report.repairs = len(sup["repairs"])
        report.repair_failures = len(sup["failures"])
        report.restarts = sup["restarts"]
        report.replaces = sup["replaces"]
        report.resyncs = sup["resyncs"]
        report.partitions_detected = sup["partitions_detected"]
        report.supervisor = sup
        if sup["repairs"]:
            report.max_mttr = max(r["mttr"] for r in sup["repairs"])
        if self.mttr_budget is not None and report.max_mttr > self.mttr_budget:
            report.violations.append(
                f"max MTTR {report.max_mttr:.2f}s exceeds budget "
                f"{self.mttr_budget:.2f}s"
            )
        if report.repair_failures:
            report.violations.append(
                f"{report.repair_failures} repair(s) failed outright"
            )

    def _final_verify(
        self, report: SoakReport, cluster: ProcessCluster
    ) -> None:
        # Pass 1 settles residual damage (bitrot on cold chunks the
        # workload never rewrote); pass 2 proves full redundancy — on a
        # healed cluster a repair pass must find nothing to do.
        repairer = WireRepairer(cluster)
        first = repairer.repair()
        second = repairer.repair()
        report.residual_restores = (
            first.chunks_restored + first.records_restored
        )
        if (
            second.chunks_restored
            or second.records_restored
            or second.unreachable
        ):
            report.violations.append(
                "cluster not at full redundancy after quiesce: second "
                f"repair pass restored {second.records_restored} records / "
                f"{second.chunks_restored} chunks, unreachable "
                f"{sorted(set(second.unreachable))}"
            )
        unreadable, mismatched, verified = self.workload.verify(cluster.client())
        report.violations.extend(unreadable + mismatched)
        report.files_verified = verified
        report.bytes_verified = verified * self.file_size

    # -- the run --------------------------------------------------------------

    def run(self) -> SoakReport:
        """Execute the soak end to end; returns the invariant report."""
        report = SoakReport(seed=self.seed)
        cluster = ProcessCluster(self.num_nodes, self.config)
        pool = ThreadPoolExecutor(1, thread_name_prefix="soak-workload")
        try:
            self.faults = splice_faults(cluster.network, self.seed)
            detector = PhiAccrualDetector(cluster, probe_timeout=self.call_timeout)
            supervisor = Supervisor(cluster, detector)
            workload_client = cluster.client()
            supervisor.register_client(workload_client)
            started = time.monotonic()
            worker = pool.submit(self.workload.run, workload_client, self._stop)
            supervisor.start(interval=self.probe_interval)
            deadline = started + self.duration
            try:
                next_fault = started + self.fault_interval * self.rng.uniform(
                    0.5, 1.0
                )
                while time.monotonic() < deadline:
                    self._run_due_heals()
                    if time.monotonic() >= next_fault:
                        self._inject(cluster, supervisor)
                        next_fault = time.monotonic() + (
                            self.fault_interval * self.rng.uniform(0.5, 1.5)
                        )
                    time.sleep(0.05)
                # Quiesce: lift every self-healing fault, then wait for
                # the supervisor to finish outstanding repairs.
                for _, fn, _kind in self._heals:
                    fn()
                self._heals = []
                self.faults.heal()
                quiesce_deadline = time.monotonic() + 30.0
                while (
                    self._lethal_outstanding(cluster, supervisor)
                    and time.monotonic() < quiesce_deadline
                ):
                    time.sleep(0.1)
                if self._lethal_outstanding(cluster, supervisor):
                    report.violations.append(
                        "repair did not converge within 30s of quiesce"
                    )
            finally:
                self._stop.set()
                wait([worker], timeout=30.0)
                supervisor.stop()
            report.duration = time.monotonic() - started
            report.faults = [
                {**f, "t": f["t"] - started} for f in self._schedule
            ]
            self._check_availability(report, started)
            self._check_condemnations(report, supervisor)
            self._check_repairs(report, supervisor)
            if not any("converge" in v for v in report.violations):
                self._final_verify(report, cluster)
            error = worker.exception(timeout=0) if worker.done() else None
            if error is not None:
                report.violations.append(
                    f"workload error: {type(error).__name__}: {error}"
                )
        finally:
            pool.shutdown(wait=False)
            cluster.shutdown()
        return report
