"""Real networking for GekkoFS daemons: sockets, wire codec, processes.

Everything below :mod:`repro.rpc`'s ``Transport`` contract, made real:

* :mod:`repro.net.codec` — length-prefixed binary framing (no pickle).
* :mod:`repro.net.addr` — one endpoint spelling for TCP and UDS.
* :mod:`repro.net.server` / :mod:`repro.net.client` — the daemon-side
  RPC server and the drop-in :class:`SocketTransport`.
* :mod:`repro.net.serve` — the daemon-process entry (``repro serve``).
* :mod:`repro.net.cluster` — address-book deployments, in-process
  socket clusters, and one-process-per-daemon clusters.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "addr": ["format_endpoint", "parse_endpoint"],
    "client": ["SocketTransport"],
    "cluster": ["LocalSocketCluster", "ProcessCluster", "SocketDeployment"],
    "serve": ["serve_daemon", "start_daemon"],
    "server": ["RpcServer"],
})
