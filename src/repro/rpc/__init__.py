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

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "bulk": ["BulkHandle"],
    "engine": ["RpcEngine", "RpcNetwork"],
    "future": ["RpcFuture", "wait_all"],
    "health": ["DaemonHealthTracker"],
    "message": ["RemoteError", "RpcRequest", "RpcResponse", "estimate_wire_size"],
    "sim": ["SimulatedTransport"],
    "threaded": ["ThreadedTransport"],
    "transport": ["InstrumentedTransport", "LoopbackTransport", "RetryingTransport", "Transport"],
})
