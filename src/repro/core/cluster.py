"""The deployment lifecycle: bring up a GekkoFS instance, hand out clients.

The paper deploys GekkoFS one way: a job prologue starts one daemon per
node, hands every client the hosts file, and the job's end tears it all
down — GekkoFS is a *temporary* file system whose lifetime is the job's
(§I, §III).  :class:`Deployment` is that lifecycle, written once: the
placement view, the client stack, clients, the migrator's port, the root
record, the crashed set, crash / restart / replace, the live resize and
the tear-down.  Each reaches the nodes over the wire only, so it means
the same on every node substrate.  A substrate only starts and stops one
node:

* :class:`GekkoFSCluster` — in-process engines (synchronous loopback, a
  threaded handler pool, or the QoS pool);
* :class:`~repro.net.cluster.LocalSocketCluster` — in-process daemons,
  each behind a real socket;
* :class:`~repro.net.cluster.ProcessCluster` — one child process per
  daemon.
"""

from __future__ import annotations

import itertools
import os
import shutil
from typing import TYPE_CHECKING, Callable, Optional

from repro.core.client import GekkoFSClient
from repro.core.config import FSConfig
from repro.core.daemon import GekkoDaemon, build_node_stores, node_dir
from repro.core.distributor import Distributor, SimpleHashDistributor, replica_set
from repro.core.membership import MembershipView
from repro.core.metadata import new_dir_metadata
from repro.rpc.engine import RpcNetwork
from repro.rpc.threaded import ThreadedTransport
from repro.rpc.transport import InstrumentedTransport, RetryingTransport

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.fileobj import GekkoFile
    from repro.core.manifest import DeploymentManifest
    from repro.core.resize import MigrationReport
    from repro.qos.pool import ScheduledTransport
    from repro.rpc.health import DaemonHealthTracker
    from repro.selfheal.repair import RepairReport
    from repro.telemetry.spans import TraceCollector

__all__ = ["Deployment", "GekkoFSCluster", "damage_store"]


def damage_store(storage, path: str, chunk_id: int, offset: int, tear: bool) -> bool:
    """:meth:`Deployment.damage_chunk` on a chunk store this process holds."""
    if tear:
        return storage.tear_chunk(path, chunk_id, offset)
    return storage.corrupt_chunk(path, chunk_id, offset)


class Deployment:
    """One running GekkoFS deployment over a node substrate.

    The client stack is assembled here, bottom to top, on the delivery
    transport the substrate supplies:

    * observability — one :class:`TraceCollector` per deployment when
      telemetry is on; ``network.tracer`` makes ``call_async`` stamp
      request ids and clients install op spans;
    * fault tolerance — one fused :class:`RetryingTransport` carries both
      the retry/deadline loop and (when enabled) the circuit breaker, so
      one logical request, retries included, is one health observation;
      breaker transitions land on the trace as ``health.transition``;
    * instrumentation — outermost, so its counters see what the
      application issued, not each retry.

    Every client routes through :attr:`view`, the versioned placement
    map: a resize reaches clients built before it, the client's mutation
    gate parks writes for the migrator's freeze, and the network stamps
    the view's epoch into every request.

    A substrate subclass supplies :meth:`_delivery_transport`,
    :meth:`_start_node` (start — or restart, reopening the node's
    ``kv_dir``/``data_dir`` — one node and return its handle) and
    :meth:`_stop_node`; optionally :meth:`_node_alive`, :meth:`probe`,
    :meth:`damage_chunk` (the fault plane's way below the file system)
    and :meth:`_close`.
    """

    def __init__(
        self,
        num_nodes: int,
        config: Optional[FSConfig] = None,
        distributor: Optional[Distributor] = None,
        instrument: bool = False,
    ):
        if num_nodes <= 0:
            raise ValueError(f"num_nodes must be > 0, got {num_nodes}")
        self.config = config or FSConfig()
        self.num_nodes = num_nodes
        self.distributor = distributor or SimpleHashDistributor(num_nodes)
        if self.distributor.num_daemons != num_nodes:
            raise ValueError(
                f"distributor spans {self.distributor.num_daemons} daemons, "
                f"deployment has {num_nodes}"
            )
        self.network = RpcNetwork()
        self.trace_collector: Optional[TraceCollector] = None
        self.network.transport = self._delivery_transport()
        # The raw policy stays in ``self.distributor`` (it seeds the
        # resize factory and is synced when a live change flips).
        self.view = MembershipView(self.distributor, self.network)
        self.health: Optional[DaemonHealthTracker] = None
        self.retrying: Optional[RetryingTransport] = None
        self.transport: Optional[InstrumentedTransport] = None
        self._client_ids = itertools.count()
        self._crashed: set[int] = set()
        self._nodes: list = []
        self._running = True
        try:
            # The daemons come up and the root record is laid down first,
            # as a job prologue does before any client mounts: the client
            # stack counts and traces application traffic only.
            for node in range(num_nodes):
                self._nodes.append(self._start_node(node))
            self.format()
            self._wire_client_stack(instrument)
        except BaseException:
            self.shutdown(wipe=False)
            raise

    def _wire_client_stack(self, instrument: bool) -> None:
        config = self.config
        if config.telemetry_enabled:
            if self.trace_collector is None:
                from repro.telemetry.spans import TraceCollector

                self.trace_collector = TraceCollector()
            self.network.tracer = self.trace_collector
        if config.breaker_enabled:
            from repro.rpc.health import DaemonHealthTracker

            self.health = DaemonHealthTracker(
                failure_threshold=config.breaker_failure_threshold
            )
            collector = self.trace_collector
            if collector is not None:
                self.health.listener = lambda address, old, new, reason: collector.instant(
                    "health.transition", "health", address=address,
                    from_state=old, to_state=new, reason=reason,
                )
        if config.rpc_retries > 0 or config.rpc_deadline is not None or self.health is not None:
            self.retrying = self.network.transport = RetryingTransport(
                self.network.transport,
                max_attempts=config.rpc_retries + 1,
                deadline=config.rpc_deadline,
                tracker=self.health,
            )
        if instrument:
            self.transport = self.network.transport = InstrumentedTransport(
                self.network.transport
            )

    # -- the substrate ---------------------------------------------------------

    def _delivery_transport(self):
        """The transport requests reach this substrate's nodes through."""
        raise NotImplementedError

    def _start_node(self, node: int):
        """Start node ``node`` (reopening its local dirs); return its handle."""
        raise NotImplementedError

    def _stop_node(self, handle, crash: bool) -> None:
        """Stop one node: abortively (``crash``, no flush) or drained."""
        raise NotImplementedError

    def _node_alive(self, address: int) -> bool:
        """Whether the node exists (a child process may die on its own)."""
        return True

    def probe(self, address: int, timeout: float) -> bool:
        """The failure detector's second vantage: does the daemon itself
        answer, whatever the client stack's faults or breaker say?"""
        return self.daemon_alive(address)

    def _close(self) -> None:
        """Substrate-wide tear-down, before the nodes stop."""

    def damage_chunk(self, address: int, path: str, chunk_id: int, offset: int,
                     tear: bool = False) -> bool:
        """Fault injection below the file system: flip the byte at
        ``offset`` of one chunk's payload on node ``address``, or
        (``tear``) cut the payload to ``offset`` bytes.  The digests stay
        as they are.  Returns whether the chunk had that byte."""
        raise NotImplementedError

    @property
    def deployment(self) -> "Deployment":
        """The deployment itself (code written against a socket
        cluster's client side reads it here)."""
        return self

    # -- clients --------------------------------------------------------------

    def client(self, node_id: int = 0) -> GekkoFSClient:
        """A client as it would run on ``node_id`` (any process on any node).

        With QoS enabled each client gets its own
        :class:`~repro.qos.window.ClientPort` — a unique identity for
        daemon-side fair-share accounting plus the per-daemon AIMD
        window and throttle retry; otherwise the client holds the
        deployment's network directly (read at call time, so a wrapper
        installed on :attr:`network` reaches clients built afterwards).
        """
        if not 0 <= node_id < self.num_nodes:
            raise ValueError(f"node_id {node_id} out of range [0, {self.num_nodes})")
        network = self.network
        if self.config.qos_enabled:
            from repro.qos.window import ClientPort

            network = ClientPort.from_config(network, next(self._client_ids), self.config)
        return GekkoFSClient(network, self.view, self.config, node_id)

    def migration_network(self):
        """The port the migrator's movers issue RPCs through.

        Under QoS this is a :class:`~repro.qos.window.ClientPort` bound
        to the reserved :data:`~repro.qos.pool.MIGRATION_CLIENT_ID`
        (low WFQ weight, AIMD window, throttle absorption); otherwise the
        raw network.  It has no freeze gate (that is the client's): the
        migrator is the deployment's own plane and keeps writing through
        its freeze.
        """
        if self.config.qos_enabled:
            from repro.qos.pool import MIGRATION_CLIENT_ID
            from repro.qos.window import ClientPort

            return ClientPort.from_config(self.network, MIGRATION_CLIENT_ID, self.config)
        return self.network

    def open_file(self, path: str, mode: str = "rb", node_id: int = 0) -> GekkoFile:
        """One-shot pythonic open through a fresh client."""
        from repro.core.fileobj import GekkoFile

        return GekkoFile(self.client(node_id), path, mode)

    def format(self) -> None:
        """Create the root directory record on its live owner daemon(s).

        With replication the root record goes to every successor replica,
        like any other path's metadata.  Idempotent (a create without
        ``O_EXCL`` keeps an existing record), so restart and replace
        re-run it to bring back a lost root, and any mounting process
        may run it.
        """
        record = new_dir_metadata(maintain_times=self.config.maintain_mtime).encode()
        view = self.view
        for address in replica_set(
            view.locate_metadata("/"), self.config.replication, view.num_daemons
        ):
            if self.daemon_alive(address):
                self.network.call(address, "gkfs_create", "/", record, False)

    # -- membership -----------------------------------------------------------

    def daemon_alive(self, address: int) -> bool:
        """False while ``address`` is crash-stopped (or its process died)."""
        return (
            0 <= address < self.num_nodes
            and address not in self._crashed
            and self._node_alive(address)
        )

    def live_addresses(self) -> list[int]:
        """Addresses of the daemons currently serving."""
        return [a for a in range(self.num_nodes) if self.daemon_alive(a)]

    @property
    def crashed_daemons(self) -> set[int]:
        return {a for a in range(self.num_nodes) if not self.daemon_alive(a)}

    def add_daemon(self) -> int:
        """Live join: start one more node and return its address.

        Placement is unchanged until :meth:`resize_live` installs a
        distributor spanning it; until then the joiner serves no hashed
        shard.
        """
        node = self.num_nodes
        self._nodes.append(self._start_node(node))
        self.num_nodes = node + 1
        return node

    def crash_daemon(self, address: int) -> None:
        """Crash-stop one daemon: no drain, no flush.

        Clients see transport failures on its shards from the next RPC
        on; an in-memory KV loses its records and a disk-backed one keeps
        exactly what had reached its WAL.  The address stays reserved
        (crashed) until :meth:`restart_daemon` or :meth:`replace_daemon`.
        """
        if not 0 <= address < self.num_nodes:
            raise ValueError(f"address {address} out of range [0, {self.num_nodes})")
        if address in self._crashed:
            raise RuntimeError(f"daemon {address} is already crashed")
        self._crashed.add(address)
        self._stop_node(self._nodes[address], crash=True)

    def _respawn(self, address: int) -> None:
        """Start a dead daemon again under its identity, at the current
        epoch floor, with any client-side breaker state forgotten."""
        if self.daemon_alive(address):
            raise RuntimeError(f"daemon {address} is still running; crash it first")
        self._nodes[address] = self._start_node(address)
        self._crashed.discard(address)
        if self.health is not None:
            self.health.reset(address)
        if self.view.epoch:
            # The successor must reject retired epochs like its predecessor.
            self.network.call(address, "gkfs_set_epoch", self.view.epoch)

    def restart_daemon(self, address: int, recover: bool = True):
        """Bring a dead daemon back on its node's local state.

        The successor reopens the node's ``kv_dir``/``data_dir`` (WAL
        replay + chunk rescan).  With ``recover`` it is then reconciled
        with the rest of the deployment over the wire — a
        :class:`~repro.selfheal.repair.WireRepairer` pass, the root
        record, a cluster-wide fsck repair — and the
        :class:`~repro.faults.recovery.RecoveryReport` is returned;
        without, ``None``.
        """
        self._respawn(address)
        if recover:
            from repro.faults.recovery import recover_daemon

            return recover_daemon(self, address)
        return None

    def replace_daemon(self, address: int) -> "RepairReport":
        """Crash-replace: swap a dead daemon for a blank one and restore
        everything it should hold from surviving replicas.

        The node's local state is wiped (nothing stale resurrects through
        WAL replay), the daemon respawns under the same identity, and one
        :class:`~repro.selfheal.repair.WireRepairer` pass restores
        redundancy; its report is returned.  Needs an effective
        replication of at least 2 — use :meth:`restart_daemon` when the
        node's disk outlived the process.
        """
        from repro.selfheal.repair import WireRepairer

        if self.daemon_alive(address):
            raise RuntimeError(f"daemon {address} is not crashed")
        if min(self.config.replication, self.num_nodes) < 2:
            raise ValueError(
                "crash-replace needs replication >= 2; with a single copy "
                "there is nothing to re-replicate from"
            )
        self._wipe(address)
        self._respawn(address)
        self.format()
        return WireRepairer(self).repair()

    def resize_live(
        self,
        new_num_nodes: int,
        distributor_factory: Optional[Callable[[int], Distributor]] = None,
        *,
        rate: Optional[float] = None,
    ) -> "MigrationReport":
        """Grow or shrink **online**: clients keep serving throughout.

        Joins new daemons first (live join), then drives the iterative
        pre-copy protocol of :func:`~repro.core.resize.live_migrate`:
        throttled background copy under the old placement, a brief write
        freeze for the final delta, the epoch flip, dual-epoch read
        fallback while releasing, verified source release, seal.  Any
        failure before the flip aborts with the old placement
        authoritative — heal the fault and call again to retry.  With no
        client running it is the stop-the-world resize between
        application phases.

        :param distributor_factory: builds the new placement policy from
            a daemon count; defaults to the current distributor's class.
            Use :class:`~repro.core.distributor.RendezvousDistributor`
            throughout to keep migration volume at ~1/n.
        :param rate: mover byte/s cap (default ``config.migration_rate``).
        """
        from repro.core.resize import live_migrate

        if not self._running:
            raise RuntimeError("cannot resize a stopped deployment")
        if self.crashed_daemons:
            raise RuntimeError(
                f"cannot resize with crashed daemons {sorted(self.crashed_daemons)}; "
                f"restart them first"
            )
        if new_num_nodes <= 0:
            raise ValueError(f"new_num_nodes must be > 0, got {new_num_nodes}")
        factory = distributor_factory or type(self.distributor)
        new_distributor = factory(new_num_nodes)
        if new_distributor.num_daemons != new_num_nodes:
            raise ValueError("distributor_factory produced a mismatched span")
        # Live join: bring the new daemons up before any data moves.  A
        # retry after an aborted attempt finds them already running.
        while self.num_nodes < new_num_nodes:
            self.add_daemon()
        report = live_migrate(self, new_distributor, rate=rate)
        # The flip made the new placement authoritative; on shrink the
        # drained daemons can now leave.
        for address in range(new_num_nodes, self.num_nodes):
            held = self.network.call(address, "gkfs_statfs")
            if held["used_bytes"] or held["metadata_records"]:
                raise RuntimeError(f"daemon {address} still holds data after migration")
        for handle in self._nodes[new_num_nodes:]:
            self._stop_node(handle, crash=False)
        del self._nodes[new_num_nodes:]
        self.num_nodes = new_num_nodes
        return report

    # -- manifest (campaign reuse) ----------------------------------------------

    def manifest(self) -> "DeploymentManifest":
        """Serialisable description of this deployment (hosts-file role)."""
        from repro.core.manifest import DeploymentManifest

        return DeploymentManifest.describe(self)

    # -- lifecycle ----------------------------------------------------------------

    @property
    def running(self) -> bool:
        return self._running

    def metrics(self, node_id: int = 0) -> dict:
        """Cluster-wide metrics via a fresh client's ``gkfs_metrics``
        broadcast (see :meth:`repro.core.client.GekkoFSClient.metrics`)."""
        return self.client(node_id).metrics()

    def _wipe(self, address: Optional[int] = None) -> None:
        """Remove one node's local dirs, or (``None``) every node's."""
        for base in (self.config.kv_dir, self.config.data_dir):
            directory = base if address is None else node_dir(base, address)
            if directory is not None and os.path.isdir(directory):
                shutil.rmtree(directory, ignore_errors=True)

    def shutdown(self, wipe: bool = True) -> None:
        """Stop every daemon, draining in-flight RPCs; by default wipe
        node-local state, as the paper's job end removes the SSD contents."""
        if not self._running:
            return
        self._running = False
        self._close()
        for address, handle in enumerate(self._nodes):
            if address not in self._crashed:
                self._stop_node(handle, crash=False)
        if wipe:
            self._wipe()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()


class GekkoFSCluster(Deployment):
    """A deployment whose daemons are in-process engines.

    :param num_nodes: daemon count (one per simulated node).
    :param config: deployment configuration; defaults are the paper's.
    :param distributor: placement policy; wide-striping hash by default.
    :param instrument: wrap the transport so tests/benchmarks can inspect
        RPC counts and per-daemon load.
    :param threaded: serve RPCs on real per-daemon handler pools
        (the Argobots execution model) instead of synchronous loopback —
        enables genuinely concurrent clients.
    :param handlers_per_daemon: pool width in threaded mode.
    """

    def __init__(
        self,
        num_nodes: int,
        config: Optional[FSConfig] = None,
        distributor: Optional[Distributor] = None,
        instrument: bool = False,
        threaded: bool = False,
        handlers_per_daemon: int = 4,
    ):
        self._threaded = threaded
        self._handlers_per_daemon = handlers_per_daemon
        self._scheduled_transport: Optional[ScheduledTransport] = None
        self._threaded_transport: Optional[ThreadedTransport] = None
        super().__init__(num_nodes, config, distributor, instrument)

    def _delivery_transport(self):
        if self.config.telemetry_enabled:
            from repro.telemetry.spans import TraceCollector

            # The engines trace into the deployment's one collector.
            self.trace_collector = TraceCollector()
        # Scheduling/QoS plane: every daemon serves through an execution
        # pool (meta/data lanes, WFQ, admission control) — itself a
        # threaded transport, so it supersedes the plain ThreadedTransport.
        engines = self.network.engine_table
        if self.config.qos_enabled:
            from repro.qos.pool import ScheduledTransport

            self._scheduled_transport = ScheduledTransport.from_config(engines, self.config)
            return self._scheduled_transport
        if self._threaded:
            self._threaded_transport = ThreadedTransport(engines, self._handlers_per_daemon)
            return self._threaded_transport
        return self.network.transport

    @property
    def daemons(self) -> list[GekkoDaemon]:
        """White-box daemon objects, indexed by address."""
        return self._nodes

    def live_daemons(self) -> list[GekkoDaemon]:
        """Daemons currently serving (crash-stopped ones excluded)."""
        return [self._nodes[a] for a in self.live_addresses()]

    def _start_node(self, node: int) -> GekkoDaemon:
        engine = self.network.create_engine(node)
        kv, storage, hotmeta = build_node_stores(self.config, node)
        daemon = GekkoDaemon(
            node, engine, self.config.chunk_size, kv=kv, storage=storage, hotmeta=hotmeta
        )
        pool = self._scheduled_transport or self._threaded_transport
        if pool is not None:
            daemon.queue_depth_fn = lambda t=pool, n=node: t.queue_depth(n)
        if self._scheduled_transport is not None:
            # Build + wire the pool now so qos gauges are in this daemon's
            # registry from the first snapshot (and after a restart).
            self._scheduled_transport.attach(node, daemon.metrics, self.trace_collector)
        if self.trace_collector is not None:
            # Handler spans + per-handler latency histograms.
            engine.collector = self.trace_collector
            engine.metrics = daemon.metrics
            from repro.telemetry.windows import MetricsWindows

            daemon.windows = MetricsWindows(
                daemon.metrics, interval=self.config.metrics_window_interval,
                daemon_id=node,
            )
        if self.config.flight_recorder_dir is not None:
            from repro.telemetry.flightrecorder import FlightRecorder

            daemon.flight_recorder = FlightRecorder(
                node, self.config.flight_recorder_dir,
                collector=self.trace_collector, windows=daemon.windows,
            )
        return daemon

    def _stop_node(self, daemon: GekkoDaemon, crash: bool) -> None:
        self.network.remove_engine(daemon.address)
        if crash:
            daemon.crash()
        else:
            daemon.shutdown()

    def _close(self) -> None:
        for pool in (self._scheduled_transport, self._threaded_transport):
            if pool is not None:
                pool.shutdown()  # drain in-flight RPCs before the daemons stop

    def damage_chunk(self, address: int, path: str, chunk_id: int, offset: int,
                     tear: bool = False) -> bool:
        return damage_store(self._nodes[address].storage, path, chunk_id, offset, tear)

    @classmethod
    def from_manifest(cls, manifest: "DeploymentManifest", **kwargs) -> "GekkoFSCluster":
        """Reconstruct a compatible deployment from a manifest.

        With the manifest's ``kv_dir``/``data_dir`` pointing at retained
        node-local state, this is the campaign-restart path: the same
        placement policy over the same stores makes every old path
        resolvable again.
        """
        return cls(
            num_nodes=manifest.num_nodes,
            config=manifest.config,
            distributor=manifest.build_distributor(),
            **kwargs,
        )

    # -- introspection --------------------------------------------------------

    def daemon_load(self) -> dict[int, int]:
        """RPCs served per daemon — the load-balance evidence for hashing."""
        return {d.address: sum(d.engine.calls_served.values()) for d in self.live_daemons()}

    def client_shares(self) -> dict:
        """Per-client service totals across every daemon's QoS pool.

        ``{client: {"ops": n, "bytes": n}}`` folded over the deployment;
        empty when QoS is off (no pools, no accounting).
        """
        totals: dict = {}
        if self._scheduled_transport is None:
            return totals
        for daemon in self.live_daemons():
            for client, share in self._scheduled_transport.client_shares(
                daemon.address
            ).items():
                entry = totals.setdefault(client, {"ops": 0, "bytes": 0})
                entry["ops"] += share["ops"]
                entry["bytes"] += share["bytes"]
        return totals

    def used_bytes(self) -> int:
        return sum(d.storage.used_bytes() for d in self.live_daemons())

    def metadata_records(self) -> int:
        return sum(len(d.kv) for d in self.live_daemons())
