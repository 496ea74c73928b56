"""Randomized chaos soak over a real multi-process cluster.

The soak runs a :class:`~repro.net.cluster.ProcessCluster` (one OS
process per daemon), keeps a foreground workload writing and reading
through the full wire stack, and lets a seeded policy inject **real**
faults, each through the deployment's one
:class:`~repro.faults.chaos.ChaosController` —

* ``crash`` (``SIGKILL``: the process dies, volatile state gone),
* ``hang`` (``SIGSTOP``, lifted by ``resume``: the process lives, its
  sockets accept, nothing answers — the per-call stall watchdog turns
  this into timeouts),
* ``partition`` and ``slow`` (client-side partitions and latency storms
  in the spliced fault layer — the *must never condemn* cases),
* ``bitrot`` (a byte flipped in a chunk file under a daemon's
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
   fault (crash/hang) in the controller's log since its last repair; a
   daemon that only ever saw partitions, latency or bitrot is never
   replaced.

The soak itself is only policy — the seeded weighted draw, the
single-loss envelope, the due lifts — and invariants.  The draw is one
method, :meth:`SoakHarness.policy`: replacing it scripts a run, which is
how EXT-SELFHEAL's one kill is a soak.  The schedule is driven by one
seeded RNG: the same seed replays the same fault sequence, so CI pins
seeds and failures reproduce.
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
from repro.core.config import FSConfig
from repro.faults.chaos import ChaosController, FaultEvent
from repro.net.cluster import ProcessCluster
from repro.selfheal import PhiAccrualDetector, Supervisor, WireRepairer

__all__ = ["LedgeredWorkload", "SoakHarness", "SoakReport"]

#: Fault kinds the policy draws from, with weights: controller verbs.
_FAULT_WEIGHTS = {"crash": 25, "hang": 20, "partition": 20, "slow": 15, "bitrot": 20}

#: The faults that take a daemon out until it is repaired or resumed.
LETHAL = ("crash", "hang")


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
    setup_s: float = 0.0
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
    lost_files: int = 0
    mismatched_files: int = 0
    workload_finished: bool = True
    workload_error: Optional[str] = None
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
    :param mttr_budget: per-repair bound in seconds (``None`` = no bound).
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
        self.seed = seed
        self.duration = duration
        self.num_nodes = num_nodes
        self.fault_interval = fault_interval
        self.availability_floor = availability_floor
        self.max_blackout = max_blackout
        self.mttr_budget = mttr_budget
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
        # Ground truth, written only by the policy / workload threads.
        self.workload = LedgeredWorkload(f"soak:{seed}", seed + 1, files, self.file_size)
        self._rotted: set = set()  # (path, chunk_id) rotted on some replica
        self._lifts: list = []  # (due time, FaultEvent) lifting a fault
        self._next_fault: Optional[float] = None
        self._stop = threading.Event()
        # What the policy acts through, while :meth:`run` runs.
        self.cluster: Optional[ProcessCluster] = None
        self.chaos: Optional[ChaosController] = None
        self.supervisor: Optional[Supervisor] = None

    # -- the policy -----------------------------------------------------------

    def _lethal_outstanding(self) -> bool:
        """Is the cluster still digesting a crash/hang?  (One at a time:
        replication 2 tolerates exactly one lost copy.)

        A hang that resumes before condemnation needs no repair, so this
        checks *live state* — dead or condemned daemons, queued or
        running repairs, a hang not yet lifted — not the fault log.
        """
        supervisor = self.supervisor
        if supervisor.busy:
            return True
        if supervisor.resync_pending():
            # A replica is stale (a write acked with one leg down): that
            # copy is as good as lost until resynced, so a crash now could
            # wipe the only current copy — outside the one-loss envelope.
            return True
        if any(event.action == "resume" for _, event in self._lifts):
            return True
        detector = supervisor.detector
        return any(
            not self.cluster.daemon_alive(address)
            or detector.state(address) == "condemned"
            for address in range(self.num_nodes)
        )

    def _lift_in(self, low: float, high: float, action: str, address: int) -> None:
        """Schedule ``action`` on ``address`` a seeded ``U(low, high)`` s out."""
        due = time.monotonic() + self.rng.uniform(low, high)
        self._lifts.append((due, FaultEvent(action, address)))

    def policy(self, elapsed: float) -> None:
        """The fault policy, called every tick with the seconds since the
        load started: one seeded draw every ``fault_interval * U(0.5,
        1.5)`` s (the first after ``U(0.5, 1.0)`` intervals).  Replace it
        on an instance to script the faults of a run instead."""
        if self._next_fault is None:
            self._next_fault = self.fault_interval * self.rng.uniform(0.5, 1.0)
        if elapsed >= self._next_fault:
            self._inject()
            self._next_fault = elapsed + self.fault_interval * self.rng.uniform(0.5, 1.5)

    def _inject(self) -> None:
        kind = self.rng.choices(list(_FAULT_WEIGHTS), list(_FAULT_WEIGHTS.values()))[0]
        chaos = self.chaos
        lethal_busy = self._lethal_outstanding()
        if kind in LETHAL and lethal_busy:
            return  # stay within the single-loss envelope
        address = self.rng.randrange(self.num_nodes)
        if kind == "crash":
            if self.cluster.daemon_alive(address):
                chaos.crash(address)
        elif kind == "hang":
            if self.cluster.daemon_alive(address):
                chaos.hang(address)
                self._lift_in(1.0, 2.5, "resume", address)
        elif kind == "partition":
            if lethal_busy and any(
                e.action in LETHAL and e.target == address for e in chaos.log
            ):
                return
            chaos.partition([address])
            self._lift_in(0.8, 2.0, "heal", address)
        elif kind == "slow":
            chaos.slow(address, self.rng.uniform(0.02, 0.1))
            self._lift_in(0.8, 2.0, "clear_slow", address)
        elif kind == "bitrot":
            # Never rot a chunk whose sibling copy was already hit: with
            # replication 2 that would destroy both copies of real data,
            # beyond what any repairer can heal.  A daemon with a fault
            # still to lift is spared this round: a hung one would stall
            # the listing, a partitioned or dead one cannot answer it.
            if any(event.target == address for _, event in self._lifts):
                return
            try:
                chunks = [
                    (path, chunk_id, length)
                    for path, chunk_id, length in chaos.chunks(address)
                    if length and (path, chunk_id) not in self._rotted
                ]
            except UNREACHABLE:
                return
            if chunks:
                path, chunk_id, length = chunks[self.rng.randrange(len(chunks))]
                if chaos.damage(address, path, chunk_id, length):
                    self._rotted.add((path, chunk_id))

    def _lift_due(self, now: float) -> None:
        due = [event for t, event in self._lifts if t <= now]
        self._lifts = [(t, event) for t, event in self._lifts if t > now]
        for event in due:
            self.chaos.apply(event)

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
            cleared = [
                r["t"] for r in repairs
                if r["address"] == address and r["t"] < entry["t"]
            ]
            horizon = max(cleared) if cleared else 0.0
            justified = any(
                event.action in LETHAL and event.target == address
                and event.t >= horizon
                for event in self.chaos.log
            )
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
        report.lost_files, report.mismatched_files = len(unreadable), len(mismatched)
        report.files_verified = verified
        report.bytes_verified = verified * self.file_size

    # -- the run --------------------------------------------------------------

    def run(self) -> SoakReport:
        """Execute the soak end to end; returns the invariant report."""
        report = SoakReport(seed=self.seed)
        setup_started = time.monotonic()
        self.cluster = cluster = ProcessCluster(self.num_nodes, self.config)
        report.setup_s = time.monotonic() - setup_started
        pool = ThreadPoolExecutor(1, thread_name_prefix="soak-workload")
        try:
            self.chaos = ChaosController(cluster, seed=self.seed)
            detector = PhiAccrualDetector(cluster, probe_timeout=self.call_timeout)
            self.supervisor = supervisor = Supervisor(cluster, detector)
            workload_client = cluster.client()
            supervisor.register_client(workload_client)
            started = time.monotonic()
            worker = pool.submit(self.workload.run, workload_client, self._stop)
            supervisor.start(interval=self.probe_interval)
            try:
                while (now := time.monotonic()) < started + self.duration:
                    self._lift_due(now)
                    self.policy(now - started)
                    time.sleep(0.05)
                # Quiesce: lift every fault, then wait for the supervisor
                # to finish outstanding repairs.
                self._lift_due(float("inf"))
                self.chaos.heal()
                quiesce_deadline = time.monotonic() + 30.0
                while (
                    self._lethal_outstanding()
                    and time.monotonic() < quiesce_deadline
                ):
                    time.sleep(0.1)
                if self._lethal_outstanding():
                    report.violations.append(
                        "repair did not converge within 30s of quiesce"
                    )
            finally:
                self._stop.set()
                wait([worker], timeout=30.0)
                supervisor.stop()
            report.duration = time.monotonic() - started
            report.faults = [
                {"t": e.t - started, "kind": e.action, "target": e.target, "value": e.value}
                for e in self.chaos.log
            ]
            self._check_availability(report, started)
            self._check_condemnations(report, supervisor)
            self._check_repairs(report, supervisor)
            if not any("converge" in v for v in report.violations):
                self._final_verify(report, cluster)
            report.workload_finished = worker.done()
            error = worker.exception(timeout=0) if worker.done() else None
            if not report.workload_finished:
                report.violations.append("workload did not stop within 30s of quiesce")
            elif error is not None:
                report.workload_error = f"{type(error).__name__}: {error}"
                report.violations.append(f"workload error: {report.workload_error}")
        finally:
            pool.shutdown(wait=False)
            cluster.shutdown()
        return report
