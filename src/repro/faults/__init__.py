"""Fault injection, chaos plans, and crash recovery.

The paper's GekkoFS explicitly has no fault-tolerance story (§I): a
daemon failure takes its shard of the temporary file system with it.
This package is the repository's robustness extension — the machinery to
*produce* failures deterministically and to *survive* them:

* :mod:`repro.faults.transports` — the one fault layer,
  :class:`FaultTransport` (one-shot rules, partition, seeded message
  drop, latency), and :func:`splice_faults`, which puts it above a
  network's base transport once;
* :mod:`repro.faults.chaos` — the :class:`ChaosController`, the one
  fault injector: scripted or seeded-random fault plans against a live
  deployment of any substrate, corruption chosen over the wire and
  landed through the deployment's ``damage_chunk`` hook;
* :mod:`repro.faults.soak` — the chaos soak over daemon processes: a
  seeded policy drawing through the controller, and its invariants;
* :mod:`repro.faults.recovery` — daemon restart recovery: WAL-replay
  accounting, a wire repair from replicas, root recreation, fsck reconcile;
* :mod:`repro.faults.scrub` — the background :class:`Scrubber`, walking
  chunk stores to verify digests and self-heal corruption from replicas;
* :mod:`repro.faults.sim` — virtual-time fault timelines and the
  closed-form availability model for the discrete-event simulator.
"""

from repro.faults.chaos import ChaosController, FaultEvent
from repro.faults.recovery import RecoveryReport, recover_daemon
from repro.faults.scrub import Scrubber, ScrubReport
from repro.faults.sim import FaultTimeline, Outage, op_availability
from repro.faults.transports import FaultTransport, splice_faults

__all__ = [
    "ChaosController",
    "FaultEvent",
    "FaultTimeline",
    "FaultTransport",
    "Outage",
    "RecoveryReport",
    "ScrubReport",
    "Scrubber",
    "op_availability",
    "recover_daemon",
    "splice_faults",
]
