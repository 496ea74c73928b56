"""Virtual-time (DES) transport: functional execution, fabric accounting.

The figures that matter in the paper are *times*, and in-process dispatch
has none.  :class:`SimulatedTransport` runs every handler eagerly — real
bytes land, exactly like loopback — while charging each RPC's life cycle
on a discrete-event clock built from the
:class:`~repro.simulator.network.NetworkModel`:

* **injection** — request legs serialise through the issuing client's
  NIC (one wire at the endpoint, §III-B's binding constraint),
* **propagation** — one base latency each way; concurrent legs overlap,
* **service** — a bounded per-daemon handler-slot pool (the Margo
  xstream count): legs to the same daemon queue, legs to different
  daemons proceed in parallel,
* **response** — base latency plus response serialisation.

The clock advances when results are *collected*: a synchronous ``send``
collects immediately, so sequential calls accumulate sum-of-legs; an
asynchronous fan-out issues every leg at the same virtual instant and a
gather advances to the **max of the legs** — the accounting the paper's
pipelined client earns and the analytic model
(:meth:`repro.models.gekkofs.GekkoFSModel.data_fanout_time`) assumes.
"""

from __future__ import annotations

import heapq
from typing import Callable, Mapping, Optional, Union, TYPE_CHECKING

from repro.rpc.future import RpcFuture
from repro.rpc.message import RpcRequest, RpcResponse
from repro.rpc.transport import Transport
from repro.simulator.network import NetworkModel, OMNIPATH_100G

if TYPE_CHECKING:  # pragma: no cover
    from repro.rpc.engine import RpcEngine

__all__ = ["SimulatedTransport"]

#: Default per-RPC handler occupancy: dispatch + KV/storage work at the
#: calibrated small-op scale (seconds).
DEFAULT_SERVICE_TIME = 2e-6

ServiceModel = Callable[[RpcRequest, RpcResponse], float]


class SimulatedTransport(Transport):
    """One client's virtual-time view of the deployment fabric.

    :param engines: live engine table (shared by reference with
        :class:`~repro.rpc.engine.RpcNetwork`).
    :param network: latency/bandwidth parameters of the interconnect.
    :param handlers_per_daemon: handler-slot pool width per daemon.
    :param service_time: seconds of handler occupancy per request —
        either a constant or ``fn(request, response) -> seconds`` (the
        response is already computed, so data handlers can charge for
        ``response.bulk_bytes``).

    The clock models a *single* issuing client (one NIC); daemon handler
    pools are shared state, so several transports over the same engines
    would each keep an independent client-side view.
    """

    def __init__(
        self,
        engines: Mapping[int, "RpcEngine"],
        network: NetworkModel = OMNIPATH_100G,
        handlers_per_daemon: int = 4,
        service_time: Union[float, ServiceModel] = DEFAULT_SERVICE_TIME,
    ):
        if handlers_per_daemon <= 0:
            raise ValueError(f"handlers_per_daemon must be > 0, got {handlers_per_daemon}")
        self._engines = engines
        self.network = network
        self._handlers = handlers_per_daemon
        if callable(service_time):
            self._service_model: ServiceModel = service_time
        else:
            constant = float(service_time)
            if constant < 0:
                raise ValueError(f"service_time must be >= 0, got {constant}")
            self._service_model = lambda request, response: constant
        self.now = 0.0  # virtual seconds at this client
        self._nic_free = 0.0  # when the client NIC finishes its last injection
        self._slots: dict[int, list[float]] = {}  # per-daemon handler free times
        self.virtual_rpcs = 0

    def reset_clock(self) -> None:
        """Zero the virtual clock (between measured phases)."""
        self.now = 0.0
        self._nic_free = 0.0
        self._slots.clear()
        self.virtual_rpcs = 0

    # -- delivery ----------------------------------------------------------

    def send_async(self, request: RpcRequest) -> RpcFuture:
        """Execute eagerly; schedule completion on the virtual clock.

        The returned future is already resolved (the bytes have moved),
        but collecting its result advances ``now`` to the leg's virtual
        completion time — idempotently, so gathers take the max.
        """
        issue = self.now
        try:
            engine = self._engines[request.target]
        except KeyError:
            return self.failed(request, LookupError(f"no daemon at address {request.target}"))
        bulk = request.bulk
        pulled_before = bulk.bytes_pulled if bulk is not None else 0
        pushed_before = bulk.bytes_pushed if bulk is not None else 0
        try:
            response = engine.handle(request)
        except Exception as exc:
            return self.failed(request, exc)
        # Bulk traffic rides the direction it moved: pulls travel with the
        # request (daemon reads client memory), pushes with the response.
        pulled = (bulk.bytes_pulled - pulled_before) if bulk is not None else 0
        pushed = (bulk.bytes_pushed - pushed_before) if bulk is not None else 0

        send_start = max(issue, self._nic_free)
        injected = send_start + self.network.wire_time(request.wire_size + pulled)
        self._nic_free = injected
        arrival = injected + self.network.base_latency

        slots = self._slots.setdefault(request.target, [0.0] * self._handlers)
        slot_free = heapq.heappop(slots)
        service_start = max(arrival, slot_free)
        served = service_start + self._service_model(request, response)
        heapq.heappush(slots, served)

        completed_at = (
            served
            + self.network.base_latency
            + self.network.wire_time(response.wire_size + pushed)
        )
        self.virtual_rpcs += 1

        def advance(value):
            if completed_at > self.now:
                self.now = completed_at
            return value

        return RpcFuture.completed(response, request).with_transform(advance)
