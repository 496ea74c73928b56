"""Fabric model: MOGON II's 100 Gbit/s Omni-Path fat tree.

The fat tree gives (near) full bisection bandwidth, so the binding
constraints are the endpoints: each node's NIC injects/ejects at
``nic_bandwidth`` and every message pays a small base latency.  An
optional bisection ceiling exists for modelling oversubscribed fabrics
(not MOGON II, but useful for sensitivity studies).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.common.units import GiB

__all__ = ["NetworkModel", "OMNIPATH_100G"]


@dataclass(frozen=True)
class NetworkModel:
    """Latency/bandwidth parameters of the interconnect.

    :ivar nic_bandwidth: per-node injection bandwidth (bytes/s).
    :ivar base_latency: one-way small-message latency (s) including the
        software stack (Mercury + Margo dispatch), not just the wire.
    :ivar bisection_per_node: fabric core capacity divided by node count;
        ``None`` models a non-blocking fat tree.
    """

    nic_bandwidth: float
    base_latency: float
    bisection_per_node: float | None = None

    def __post_init__(self):
        if self.nic_bandwidth <= 0:
            raise ValueError("nic_bandwidth must be > 0")
        if self.base_latency < 0:
            raise ValueError("base_latency must be >= 0")
        if self.bisection_per_node is not None and self.bisection_per_node <= 0:
            raise ValueError("bisection_per_node must be > 0")

    def wire_time(self, nbytes: int) -> float:
        """Serialisation time of ``nbytes`` through one NIC."""
        if nbytes < 0:
            raise ValueError(f"nbytes must be >= 0, got {nbytes}")
        bw = self.nic_bandwidth
        if self.bisection_per_node is not None:
            bw = min(bw, self.bisection_per_node)
        return nbytes / bw

    def message_time(self, nbytes: int) -> float:
        """One-way delivery time of a single message of ``nbytes``."""
        return self.base_latency + self.wire_time(nbytes)


#: Intel Omni-Path 100 Gbit/s as deployed on MOGON II: ~11.6 GiB/s usable
#: per NIC after protocol overhead; ~5 µs one-way latency through the
#: Mercury/Margo software stack (hardware alone is ~1 µs; the paper
#: interfaces Mercury indirectly through Margo, §III-B).
OMNIPATH_100G = NetworkModel(
    nic_bandwidth=11.6 * GiB,
    base_latency=5e-6,
)
