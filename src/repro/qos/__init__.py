"""Request scheduling & QoS plane — fairness and backpressure, end to end.

The paper's daemons multiplex all RPCs through dedicated Argobots
execution streams (§III-C) but offer no admission control and no
fairness between clients: one hot tenant can starve a whole deployment.
This package adds the missing scheduling plane on both sides of the
wire, entirely opt-in (``FSConfig(qos_enabled=True)``):

* :mod:`repro.qos.wfq` — start-time fair queueing: per-client service
  tags so backlogged clients share each lane by weight, not by queue
  depth;
* :mod:`repro.qos.admission` — token buckets for optional per-tenant
  rate caps;
* :mod:`repro.qos.pool` — per-daemon :class:`ExecutionPool`s (separate
  ``meta``/``data`` lanes mirroring the dedicated-stream design) behind
  a :class:`ScheduledTransport`, with queue-depth admission control
  that answers overload with retryable EAGAIN throttles;
* :mod:`repro.qos.window` — the client side: an AIMD in-flight window
  per daemon plus transparent throttle retry, stamped with the client's
  identity so daemon-side accounting can attribute shares.

The analytic twin lives in :mod:`repro.models.queueing`
(``mmck_metrics``/``saturation_curve``/``weighted_fair_shares``), and
EXT-OVERLOAD (:mod:`repro.experiments`) measures the headline claims:
a victim client keeps its fair share against greedy neighbours, and
aggregate throughput saturates instead of collapsing at 2x overload.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "admission": ["TokenBucket"],
    "pool": ["DATA_LANE", "META_LANE", "ExecutionPool", "ScheduledTransport"],
    "wfq": ["WeightedFairQueue"],
    "window": ["AimdWindow", "ClientPort", "ClientQosStats"],
})
