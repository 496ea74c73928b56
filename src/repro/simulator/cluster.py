"""A simulated cluster: N nodes plus the RPC protocol executor.

``SimCluster.rpc`` is the virtual-time twin of
:meth:`repro.rpc.RpcNetwork.call`: base latency, NIC serialisation on both
endpoints, a handler slot on the target, server work, and the response —
the exact cost structure a Mercury RPC pays on a real fabric.  Models in
:mod:`repro.models` build mdtest/IOR runs out of these pieces.
"""

from __future__ import annotations

from typing import Callable, Generator, Optional

from repro.simulator.engine import Simulator
from repro.simulator.network import NetworkModel, OMNIPATH_100G
from repro.simulator.node import NodeParams, SimNode

__all__ = ["SimCluster"]


class SimCluster:
    """``num_nodes`` simulated nodes sharing one fabric."""

    def __init__(
        self,
        sim: Simulator,
        num_nodes: int,
        params: Optional[NodeParams] = None,
        network: NetworkModel = OMNIPATH_100G,
    ):
        if num_nodes <= 0:
            raise ValueError(f"num_nodes must be > 0, got {num_nodes}")
        self.sim = sim
        self.network = network
        self.params = params or NodeParams()
        self.nodes = [SimNode(sim, i, self.params, network) for i in range(num_nodes)]

    def __len__(self) -> int:
        return len(self.nodes)

    def rpc(
        self,
        src: int,
        dst: int,
        request_bytes: int,
        response_bytes: int,
        server_work: Callable[[SimNode], Generator],
        charge_client: bool = True,
    ) -> Generator:
        """One synchronous RPC as a sub-process (``yield from`` it).

        :param server_work: generator factory run on the destination node
            while the RPC is being served (e.g. ``lambda n:
            n.serve_metadata_op()``).
        :param charge_client: charge the per-operation client overhead;
            fan-out callers charge it once per transfer instead.
        """
        source, target = self.nodes[src], self.nodes[dst]
        if charge_client:
            # Client overhead: interception, file map, hashing, marshalling.
            yield self.sim.timeout(self.params.client_overhead)
        if src != dst:
            yield from source.send(request_bytes)
            yield self.sim.timeout(self.network.base_latency)
            yield from target.receive(request_bytes)
        yield from server_work(target)
        if src != dst:
            yield from target.send(response_bytes)
            yield self.sim.timeout(self.network.base_latency)
            yield from source.receive(response_bytes)

    def metadata_rpc(self, src: int, dst: int) -> Generator:
        """Small-message metadata RPC (create/stat/remove/size-update)."""
        yield from self.rpc(src, dst, 128, 128, lambda node: node.serve_metadata_op())

    def data_rpc(
        self, src: int, dst: int, nbytes: int, *, write: bool, random: bool = False
    ) -> Generator:
        """Chunk I/O RPC: bulk payload plus the SSD access on the target."""
        request = 128 + (nbytes if write else 0)
        response = 64 + (0 if write else nbytes)
        yield from self.rpc(
            src,
            dst,
            request,
            response,
            lambda node: node.serve_data_op(nbytes, write=write, random=random),
        )

    # -- aggregate statistics ----------------------------------------------

    def total_ops_served(self) -> int:
        return sum(node.ops_served for node in self.nodes)

    def utilisation_report(self) -> str:
        """Per-node resource utilisation table for a finished run.

        The where-did-time-go view: handler-pool, SSD, and NIC busy
        fractions plus served ops — how the models justify statements
        like "the data path is SSD-bound".
        """
        from repro.analysis.report import render_table

        rows = []
        for node in self.nodes:
            rows.append(
                [
                    str(node.node_id),
                    str(node.ops_served),
                    f"{node.handlers.utilisation():.1%}",
                    f"{node.ssd.utilisation():.1%}",
                    f"{node.nic.utilisation():.1%}",
                    f"{node.bytes_in:,}",
                    f"{node.bytes_out:,}",
                ]
            )
        return render_table(
            ["node", "ops", "handlers", "ssd", "nic", "bytes in", "bytes out"],
            rows,
            title=f"simulated cluster utilisation at t={self.sim.now * 1e3:.2f} ms",
        )
