"""Self-healing control plane: graded detection, hands-free repair.

Three pieces, layered:

* :class:`PhiAccrualDetector` — phi-accrual suspicion over ``gkfs_ping``
  RTT history, with second-vantage corroboration so pure partitions are
  never condemned (:mod:`repro.selfheal.detector`);
* :class:`Supervisor` — subscribes to detector transitions, pushed SLO
  alerts and flight-recorder terminal stamps, and drives a restart-first
  escalation ladder under a single-repair interlock and per-daemon
  cooldowns (:mod:`repro.selfheal.supervisor`);
* :class:`WireRepairer` — restores full replication over plain RPCs,
  epoch-safely, against any deployment a client can mount
  (:mod:`repro.selfheal.repair`).

The analytic twin lives in :mod:`repro.models.selfheal`; the chaos soak
that exercises all of it over real process clusters is
:mod:`repro.faults.soak`.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "detector": ["CONDEMNED", "HEALTHY", "SUSPECT", "PhiAccrualDetector"],
    "repair": ["EpochMovedError", "RepairReport", "WireRepairer"],
    "supervisor": ["Supervisor"],
})
