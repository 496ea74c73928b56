"""RPC framework — the Mercury/Margo/Argobots substitute.

GekkoFS forwards every file-system operation as an RPC to the daemon that
owns the target path/chunk, and moves data through a *bulk* channel
(RDMA when the fabric supports it) separate from the RPC channel
(§III-B).  This package reproduces that structure:

* :mod:`repro.rpc.message` — request/response envelopes with wire-size
  accounting,
* :mod:`repro.rpc.bulk` — zero-copy bulk handles standing in for RDMA
  exposure/transfer,
* :mod:`repro.rpc.future` — completion handles for non-blocking forwards
  (``margo_iforward``) plus the :func:`wait_all` gather combinator,
* :mod:`repro.rpc.engine` — a Margo-like engine: named handler
  registration, addressing, synchronous ``call`` and pipelined
  ``call_async``, per-handler statistics, in-flight depth telemetry,
* :mod:`repro.rpc.transport` — pluggable delivery, one ``send_async``
  per transport: in-process loopback, instrumentation and retry/breaker
  wrappers (fault injection is :mod:`repro.faults.transports`),
* :mod:`repro.rpc.threaded` — per-daemon handler pools (Argobots
  execution model) with native non-parking enqueue,
* :mod:`repro.rpc.sim` — virtual-time (DES) delivery: functional
  execution with fabric-accurate completion accounting.
"""

from repro.rpc.bulk import BulkHandle
from repro.rpc.engine import RpcEngine, RpcNetwork
from repro.rpc.future import RpcFuture, wait_all
from repro.rpc.health import DaemonHealthTracker
from repro.rpc.message import RemoteError, RpcRequest, RpcResponse, estimate_wire_size
from repro.rpc.sim import SimulatedTransport
from repro.rpc.threaded import ThreadedTransport
from repro.rpc.transport import (
    InstrumentedTransport,
    LoopbackTransport,
    RetryingTransport,
    Transport,
)

__all__ = [
    "BulkHandle",
    "RpcEngine",
    "RpcNetwork",
    "RpcFuture",
    "wait_all",
    "RemoteError",
    "RpcRequest",
    "RpcResponse",
    "estimate_wire_size",
    "Transport",
    "LoopbackTransport",
    "InstrumentedTransport",
    "RetryingTransport",
    "DaemonHealthTracker",
    "ThreadedTransport",
    "SimulatedTransport",
]
