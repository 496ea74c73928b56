"""The chaos controller: the one fault injector, on every substrate.

A :class:`ChaosController` attaches to a live
:class:`~repro.core.cluster.Deployment` — in-process engines, socket
daemons or one process per daemon — and drives faults against it:
daemon crash/restart (through the deployment's crash-stop APIs), hang
and resume (``SIGSTOP``/``SIGCONT``, process deployments only), network
faults (latency, message drop, partition, one-shot triggers) through the
network's one :class:`~repro.faults.transports.FaultTransport`, spliced
in directly above the base transport — *below* the client's retry,
breaker and instrumentation layers, where a real fabric fault would
occur — and silent data corruption (:meth:`ChaosController.bitrot`,
:meth:`ChaosController.torn_write`).  Corruption picks its chunks from
the daemon's ``gkfs_inventory`` listing over the wire, the listing the
scrubber reads, and lands through the deployment's
:meth:`~repro.core.cluster.Deployment.damage_chunk` hook, below the file
system, for the integrity plane to catch.

Two driving styles:

* **Scripted** (:meth:`run_scripted`): an explicit list of
  :class:`FaultEvent`\\ s applied in order — the deterministic
  reproduction of one failure scenario.
* **Seeded random** (:meth:`step`): call between workload operations;
  each call makes one RNG-driven decision (crash a daemon, restart a
  crashed one, slow a link, heal it, or do nothing).  The RNG is seeded,
  so the same seed over the same workload replays the same fault
  sequence — chaos tests are deterministic and CI can pin seeds.

Every action is appended to :attr:`ChaosController.log`, a timestamped
:class:`FaultEvent` each, so a failing test can print exactly what the
plan did and a soak can hold its verdicts against it.
"""

from __future__ import annotations

import functools
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional, TYPE_CHECKING

from repro.core.daemon import read_chunks
from repro.faults.transports import splice_faults

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.cluster import Deployment
    from repro.faults.recovery import RecoveryReport

__all__ = ["FaultEvent", "ChaosController"]


@dataclass(frozen=True)
class FaultEvent:
    """One step of a scripted fault plan, and one entry of a controller's log.

    :ivar action: ``crash`` | ``restart`` | ``hang`` | ``resume`` |
        ``slow`` | ``clear_slow`` | ``drop`` | ``clear_drop`` |
        ``partition`` | ``heal`` | ``bitrot`` | ``torn_write``.
    :ivar target: daemon address the action applies to (``heal`` may
        omit it to lift the whole partition).
    :ivar value: action parameter — seconds for ``slow``, probability
        for ``drop``, chunk fraction for ``bitrot``/``torn_write`` (a
        logged ``bitrot``/``torn_write`` holds the damaged chunk's id).
    :ivar recover: for ``restart``: run the recovery pipeline.
    :ivar t: for a logged event, the ``time.monotonic()`` it was applied
        at; not part of an event's identity, so a log compares equal to
        the plan that produced it.
    """

    action: str
    target: Optional[int] = None
    value: float = 0.0
    recover: bool = True
    t: float = field(default=0.0, compare=False)


class ChaosController:
    """Drive faults against a live deployment, deterministically.

    Splices the network's fault layer (:func:`splice_faults`) at
    construction; controllers on one cluster share it.  All immediate
    methods (:meth:`crash`, :meth:`slow`, ...) are also usable directly
    from tests that want precise control.

    :param cluster: the deployment under test (any substrate).
    :param seed: seeds the random fault policy, and message drops when
        this controller is the one that splices the fault layer.
    :param sleep: injectable sleep used between scripted events.
    :param crash_prob: per-:meth:`step` probability of crashing a live
        daemon (while fewer than ``max_down`` are down).
    :param restart_prob: per-step probability of restarting a crashed
        daemon.
    :param slow_prob: per-step probability of slowing a live daemon.
    :param heal_prob: per-step probability of clearing one slowdown.
    :param max_down: bound on simultaneously crashed daemons (keep it
        below the replication factor to preserve availability).
    :param slow_delay: delay injected by random slowdowns, seconds.
    """

    def __init__(
        self,
        cluster: "Deployment",
        seed: int = 0,
        sleep: Callable[[float], None] = time.sleep,
        crash_prob: float = 0.05,
        restart_prob: float = 0.3,
        slow_prob: float = 0.05,
        heal_prob: float = 0.3,
        max_down: int = 1,
        slow_delay: float = 0.0005,
    ):
        self.cluster = cluster
        self.rng = random.Random(seed)
        self._sleep = sleep
        self.crash_prob = crash_prob
        self.restart_prob = restart_prob
        self.slow_prob = slow_prob
        self.heal_prob = heal_prob
        self.max_down = max_down
        self.slow_delay = slow_delay
        #: Every action taken, in order, each stamped with its time.
        self.log: list[FaultEvent] = []
        self.faults = splice_faults(cluster.network, seed)

    def _note(self, action: str, target: Optional[int] = None, value: float = 0.0,
              recover: bool = True) -> None:
        self.log.append(FaultEvent(action, target, value, recover, time.monotonic()))
        # With the observability plane up, faults land in the same event
        # stream as spans, health transitions, and degraded broadcasts —
        # one causally ordered timeline per chaos run.
        collector = getattr(self.cluster, "trace_collector", None)
        if collector is not None:
            collector.instant(f"fault.{action}", "fault", target=target, value=value)

    # -- immediate fault actions -------------------------------------------

    def crash(self, address: int) -> None:
        """Crash-stop a daemon (volatile state lost, no clean close)."""
        self.cluster.crash_daemon(address)
        self._note("crash", address)

    def restart(self, address: int, recover: bool = True) -> "Optional[RecoveryReport]":
        """Restart a crashed daemon; returns its recovery report."""
        report = self.cluster.restart_daemon(address, recover=recover)
        self._note("restart", address, recover=recover)
        return report

    def hang(self, address: int) -> None:
        """Freeze a daemon's process (``SIGSTOP``): it keeps its sockets
        open and answers nothing.  Process deployments only."""
        self.cluster.suspend_daemon(address)
        self._note("hang", address)

    def resume(self, address: int) -> None:
        """Lift a hang (``SIGCONT``).  A hung daemon the supervisor has
        since killed is gone or runs respawned; either way nothing is
        left frozen, and the lift is still logged."""
        try:
            self.cluster.resume_daemon(address)
        except (ProcessLookupError, PermissionError):
            pass
        self._note("resume", address)

    def slow(self, address: int, delay: float) -> None:
        """Inject per-request latency on one daemon."""
        self.faults.set_delay(address, delay)
        self._note("slow", address, delay)

    def clear_slow(self, address: int) -> None:
        self.faults.clear_delay(address)
        self._note("clear_slow", address)

    def drop_messages(self, address: int, rate: float) -> None:
        """Drop a seeded-random fraction of requests to one daemon."""
        self.faults.set_drop_rate(address, rate)
        self._note("drop", address, rate)

    def clear_drop(self, address: int) -> None:
        self.faults.clear_drop_rate(address)
        self._note("clear_drop", address)

    def partition(self, addresses: Iterable[int]) -> None:
        """Cut a set of daemons off the network (state preserved)."""
        addresses = list(addresses)
        self.faults.partition(addresses)
        for address in addresses:
            self._note("partition", address)

    def heal(self, addresses: Optional[Iterable[int]] = None) -> None:
        """Lift the partition (entirely, or for specific addresses); logs
        each address lifted."""
        for address in self.faults.heal(addresses):
            self._note("heal", address)

    def crash_on(self, handler: str, target: Optional[int] = None) -> None:
        """Arm a one-shot trigger: crash the addressed daemon the moment
        a matching request arrives (before it is served).

        The canonical crash-consistency probe: ``crash_on
        ("gkfs_update_size")`` kills the metadata owner mid-``pwrite``,
        after the data fan-out but before the size publishes.  Only a write
        with a chunk group off the owner (or with replicas) sends that RPC:
        one whose only group the owner stores carries its size in the
        ``gkfs_write_chunks``, so ``crash_on("gkfs_write_chunks", owner)``
        kills it before either the bytes or the size land.
        """

        def predicate(request) -> bool:
            if request.handler != handler:
                return False
            return target is None or request.target == target

        def callback(request) -> None:
            self.crash(request.target)

        self.faults.arm(predicate, callback)

    def crashed(self) -> set[int]:
        return self.cluster.crashed_daemons

    # -- data corruption (integrity plane) ----------------------------------

    def chunks(self, address: int) -> list[tuple[str, int, int]]:
        """One daemon's chunks as ``(path, chunk_id, length)``, in the
        order its ``gkfs_inventory`` lists them — the scrubber's listing."""
        fetch = functools.partial(self.cluster.network.call, address, "gkfs_inventory")
        return [tuple(entry[:3]) for entry in read_chunks(fetch)]

    def damage(self, address: int, path: str, chunk_id: int, length: int,
               tear: bool = False) -> bool:
        """Flip one byte of one chunk at a seeded-random offset below
        ``length``, or (``tear``) cut its payload there; the stored digests
        stay as they are.  Logs and returns whether the chunk was hit."""
        if length == 0 or not self.cluster.damage_chunk(
            address, path, chunk_id, self.rng.randrange(length), tear
        ):
            return False
        self._note("torn_write" if tear else "bitrot", address, chunk_id)
        return True

    def _damage(self, address: int, fraction: float, tear: bool) -> list[tuple[str, int]]:
        """:meth:`damage` a seeded-random ``fraction`` of one daemon's chunks."""
        if not 0.0 < fraction <= 1.0:
            raise ValueError(f"fraction must be in (0, 1], got {fraction}")
        chunks = self.chunks(address)
        count = max(1, int(len(chunks) * fraction)) if chunks else 0
        return [
            (path, chunk_id)
            for path, chunk_id, length in sorted(self.rng.sample(chunks, count))
            if self.damage(address, path, chunk_id, length, tear)
        ]

    def bitrot(self, address: int, fraction: float = 0.25) -> list[tuple[str, int]]:
        """Flip one byte in a seeded-random ``fraction`` of a daemon's chunks.

        Silent corruption below the file system — the payload changes,
        the stored digests do not, so the damage is invisible until a
        verified read or a scrub pass recomputes them.  Returns the
        ``(path, chunk_id)`` list actually damaged, so a test can assert
        the scrubber found every one.
        """
        return self._damage(address, fraction, tear=False)

    def torn_write(
        self, address: int, fraction: float = 0.25
    ) -> list[tuple[str, int]]:
        """Truncate a seeded-random ``fraction`` of a daemon's chunks.

        The crash artifact a power loss leaves behind: a chunk file whose
        payload stops short of its checksummed length (possibly at zero
        bytes).  Verified reads detect the short payload as *torn* rather
        than serving silently truncated data.
        """
        return self._damage(address, fraction, tear=True)

    # -- scripted plans -----------------------------------------------------

    def apply(self, event: FaultEvent) -> None:
        """Apply one scripted fault event."""
        action, target = event.action, event.target
        if action in ("crash", "hang", "resume", "clear_slow", "clear_drop"):
            getattr(self, action)(target)
        elif action == "restart":
            self.restart(target, recover=event.recover)
        elif action == "slow":
            self.slow(target, event.value)
        elif action == "drop":
            self.drop_messages(target, event.value)
        elif action == "partition":
            self.partition([target])
        elif action == "heal":
            self.heal(None if target is None else [target])
        elif action in ("bitrot", "torn_write"):
            getattr(self, action)(target, event.value or 0.25)
        else:
            raise ValueError(f"unknown fault action {action!r}")

    def run_scripted(self, events: Iterable[FaultEvent], interval: float = 0.0) -> None:
        """Apply ``events`` in order, sleeping ``interval`` between them."""
        for i, event in enumerate(events):
            if i and interval > 0:
                self._sleep(interval)
            self.apply(event)

    # -- seeded random plans -------------------------------------------------

    def step(self) -> Optional[tuple]:
        """One random fault decision; call between workload operations.

        Returns the action taken (a ``log`` entry) or ``None``.  The
        decision order is fixed — restart, crash, heal, slow — so a seed
        fully determines the fault sequence for a given workload.
        """
        roll = self.rng.random()
        threshold = 0.0

        crashed = sorted(self.cluster.crashed_daemons)
        threshold += self.restart_prob
        if roll < threshold:
            if crashed:
                self.restart(crashed[self.rng.randrange(len(crashed))])
                return self.log[-1]
            return None

        threshold += self.crash_prob
        if roll < threshold:
            live = self.cluster.live_addresses()
            if len(crashed) < self.max_down and live:
                self.crash(live[self.rng.randrange(len(live))])
                return self.log[-1]
            return None

        threshold += self.heal_prob
        if roll < threshold:
            slowed = sorted(self.faults.delays)
            if slowed:
                self.clear_slow(slowed[self.rng.randrange(len(slowed))])
                return self.log[-1]
            return None

        threshold += self.slow_prob
        if roll < threshold:
            live = self.cluster.live_addresses()
            if live:
                self.slow(live[self.rng.randrange(len(live))], self.slow_delay)
                return self.log[-1]
        return None
