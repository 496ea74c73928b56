"""Discrete-event simulation substrate — the MOGON II stand-in.

The paper's evaluation ran on 512 real nodes with Omni-Path and node-local
SSDs.  This package provides the machinery to execute GekkoFS's *protocol*
(RPC fan-out, chunking, size updates, handler pools) against calibrated
resource costs in virtual time:

* :mod:`repro.simulator.engine` — event loop, processes, timeouts,
* :mod:`repro.simulator.resources` — queued resources (handler pools,
  devices) and all-of joins for RPC fan-out,
* :mod:`repro.simulator.network` — fabric model: per-NIC bandwidth,
  per-hop latency, bisection ceiling,
* :mod:`repro.simulator.node` — one compute node: NIC + SSD + RPC
  handler pool,
* :mod:`repro.simulator.cluster` — wiring N nodes into a cluster.

The DES executes faithfully at small scale (tests validate the analytic
models in :mod:`repro.models` against it); paper-scale sweeps use the
validated analytic models, which is what keeps the benchmark harness fast.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "engine": ["AllOf", "Event", "Process", "Simulator", "Timeout"],
    "resources": ["Resource"],
    "network": ["NetworkModel", "OMNIPATH_100G"],
    "node": ["SimNode", "NodeParams"],
    "cluster": ["SimCluster"],
})
