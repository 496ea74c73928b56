"""Deployment orchestration: bring up a GekkoFS instance, hand out clients.

``GekkoFSCluster`` plays the role of the job-prologue script in the paper:
it starts one daemon per node, distributes the address book (our
:class:`~repro.rpc.RpcNetwork`), formats the root record, and builds
clients.  Tear-down wipes everything — GekkoFS is a *temporary* file
system whose lifetime is the job's (§I, §III).
"""

from __future__ import annotations

import itertools
import os
import shutil
from typing import TYPE_CHECKING, Callable, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.manifest import DeploymentManifest
    from repro.core.resize import MigrationReport
    from repro.selfheal.repair import RepairReport

from repro.core.client import GekkoFSClient
from repro.core.config import FSConfig
from repro.core.daemon import GekkoDaemon
from repro.core.distributor import Distributor, SimpleHashDistributor, replica_set
from repro.core.membership import EpochStampedNetwork, MembershipView
from repro.core.fileobj import GekkoFile
from repro.core.metadata import new_dir_metadata
from repro.kvstore import LSMStore
from repro.metacache import HotMetaPlane
from repro.qos import ClientPort, ScheduledTransport
from repro.qos.pool import MIGRATION_CLIENT_ID
from repro.rpc import (
    DaemonHealthTracker,
    InstrumentedTransport,
    RetryingTransport,
    RpcNetwork,
    ThreadedTransport,
)
from repro.storage import LocalFSChunkStorage, MemoryChunkStorage
from repro.telemetry.spans import TraceCollector

__all__ = ["GekkoFSCluster", "node_dir", "build_node_stores", "wire_client_stack"]


def node_dir(base: Optional[str], node: int) -> Optional[str]:
    """The node-local directory for ``node`` under ``base`` (None stays None)."""
    return None if base is None else os.path.join(base, f"node_{node:04d}")


def build_node_stores(config: FSConfig, node: int):
    """Build one node's KV store and chunk storage from ``config``.

    The single construction path shared by in-process deployments
    (:class:`GekkoFSCluster`) and socket daemons
    (:func:`repro.net.serve.serve_daemon`) — both restart by reopening
    the same ``kv_dir``/``data_dir`` paths (WAL replay + chunk rescan),
    so the layouts must match byte for byte.
    """
    kv = LSMStore(node_dir(config.kv_dir, node))
    integrity_opts = {}
    if config.integrity_enabled:
        integrity_opts = {
            "integrity": True,
            "integrity_block_size": config.integrity_block_size,
            "integrity_algorithm": config.integrity_algorithm,
        }
    if config.data_dir is not None:
        storage = LocalFSChunkStorage(
            config.chunk_size,
            node_dir(config.data_dir, node),
            **integrity_opts,
        )
    else:
        storage = MemoryChunkStorage(config.chunk_size, **integrity_opts)
    return kv, storage


def wire_client_stack(network: RpcNetwork, config: FSConfig, instrument: bool):
    """Stack the client-side planes on ``network.transport``, in place.

    The single assembly shared by in-process deployments
    (:class:`GekkoFSCluster`) and socket deployments
    (:class:`repro.net.cluster.SocketDeployment`); each installs its
    delivery transport first and calls this.  Bottom to top:

    * observability — one :class:`TraceCollector` per deployment when
      telemetry is on; ``network.tracer`` makes ``call_async`` stamp
      request ids and clients install op spans;
    * fault tolerance — one fused :class:`RetryingTransport` carries both
      the retry/deadline loop and (when enabled) the circuit-breaker
      gate, so one logical request, retries included, is one health
      observation; breaker transitions land on the trace as
      ``health.transition`` instants;
    * instrumentation — outermost, so its counters see what the
      application issued, not each retry.

    Returns ``(trace_collector, health, retrying, instrumented)``, each
    ``None`` when its plane is off.
    """
    collector: Optional[TraceCollector] = None
    if config.telemetry_enabled:
        collector = network.tracer = TraceCollector()
    health: Optional[DaemonHealthTracker] = None
    if config.breaker_enabled:
        health = DaemonHealthTracker(
            failure_threshold=config.breaker_failure_threshold
        )
        if collector is not None:
            health.listener = lambda address, old, new, reason: collector.instant(
                "health.transition",
                "health",
                address=address,
                from_state=old,
                to_state=new,
                reason=reason,
            )
    retrying: Optional[RetryingTransport] = None
    if config.rpc_retries > 0 or config.rpc_deadline is not None or health is not None:
        retrying = network.transport = RetryingTransport(
            network.transport,
            max_attempts=config.rpc_retries + 1,
            deadline=config.rpc_deadline,
            tracker=health,
        )
    instrumented: Optional[InstrumentedTransport] = None
    if instrument:
        instrumented = network.transport = InstrumentedTransport(network.transport)
    return collector, health, retrying, instrumented


class GekkoFSCluster:
    """A complete, running GekkoFS deployment.

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
        if num_nodes <= 0:
            raise ValueError(f"num_nodes must be > 0, got {num_nodes}")
        self.config = config or FSConfig()
        self.num_nodes = num_nodes
        self.distributor = distributor or SimpleHashDistributor(num_nodes)
        if self.distributor.num_daemons != num_nodes:
            raise ValueError(
                f"distributor spans {self.distributor.num_daemons} daemons, "
                f"cluster has {num_nodes}"
            )
        # Elastic membership: the versioned placement view every client
        # routes through.  ``self.distributor`` stays the raw policy (it
        # seeds ``distributor_factory or type(...)`` on resize and is
        # kept in sync when a live change flips).
        self.view = MembershipView(self.distributor)
        self.network = RpcNetwork()
        # Scheduling/QoS plane: when enabled, every daemon serves through
        # an execution pool (meta/data lanes, WFQ, admission control) —
        # itself a threaded transport, so it supersedes the plain
        # ThreadedTransport rather than stacking on it.
        self._scheduled_transport: Optional[ScheduledTransport] = None
        self._threaded_transport: Optional[ThreadedTransport] = None
        self._client_ids = itertools.count()
        if self.config.qos_enabled:
            self._scheduled_transport = ScheduledTransport.from_config(
                self.network.engine_table, self.config
            )
            self.network.transport = self._scheduled_transport
        elif threaded:
            self._threaded_transport = ThreadedTransport(
                self.network.engine_table, handlers_per_daemon
            )
            self.network.transport = self._threaded_transport
        # Engines get the collector attached in _build_daemon.
        self.trace_collector, self.health, self.retrying, self.transport = (
            wire_client_stack(self.network, self.config, instrument)
        )
        self.daemons: list[GekkoDaemon] = []
        self._crashed: set[int] = set()
        for node in range(num_nodes):
            self.daemons.append(self._build_daemon(node))
        self.format()
        self._running = True

    @staticmethod
    def _node_dir(base: Optional[str], node: int) -> Optional[str]:
        return node_dir(base, node)

    def _build_daemon(self, node: int) -> GekkoDaemon:
        """Bring up the daemon process for ``node``: engine, KV, storage.

        Reopening the same ``kv_dir``/``data_dir`` paths is what makes
        this double as the restart path — the LSM store replays its WAL
        and disk-backed chunk storage rescans its directory.
        """
        engine = self.network.create_engine(node)
        kv, storage = build_node_stores(self.config, node)
        daemon = GekkoDaemon(
            node,
            engine,
            self.config.chunk_size,
            kv=kv,
            storage=storage,
            hotmeta=HotMetaPlane.from_config(self.config),
        )
        if self._scheduled_transport is not None:
            scheduled = self._scheduled_transport
            daemon.queue_depth_fn = lambda t=scheduled, n=node: t.queue_depth(n)
            # Eagerly build + wire the pool so qos gauges/histograms are
            # present in this daemon's registry from the first snapshot
            # (and re-wired after a crash/restart rebuilds the daemon).
            scheduled.attach(node, daemon.metrics, self.trace_collector)
        elif self._threaded_transport is not None:
            transport = self._threaded_transport
            daemon.queue_depth_fn = lambda t=transport, n=node: t.queue_depth(n)
        if self.trace_collector is not None:
            # Instrumented serving: handler spans + per-handler latency
            # histograms (recorded into the daemon's registry).
            engine.collector = self.trace_collector
            engine.metrics = daemon.metrics
            from repro.telemetry.windows import MetricsWindows

            daemon.windows = MetricsWindows(
                daemon.metrics,
                interval=self.config.metrics_window_interval,
                daemon_id=node,
            )
        if self.config.flight_recorder_dir is not None:
            from repro.telemetry.flightrecorder import FlightRecorder

            daemon.flight_recorder = FlightRecorder(
                node,
                self.config.flight_recorder_dir,
                collector=self.trace_collector,
                windows=daemon.windows,
            )
        return daemon

    def format(self) -> None:
        """Create the root directory record on its live owner daemon(s).

        With replication enabled the root record goes to every successor
        replica, like any other path's metadata would.  Idempotent (a
        create without ``O_EXCL`` keeps an existing record), so restart
        and crash-replace re-run it to bring back a lost root.
        """
        record = new_dir_metadata(maintain_times=self.config.maintain_mtime).encode()
        for address in replica_set(
            self.distributor.locate_metadata("/"), self.config.replication, self.num_nodes
        ):
            if address not in self._crashed:
                self.daemons[address].create("/", record, False)

    # -- client factory -----------------------------------------------------

    def client(self, node_id: int = 0) -> GekkoFSClient:
        """A client as it would run on ``node_id`` (any process on any node).

        With QoS enabled each client gets its own
        :class:`~repro.qos.window.ClientPort` — a unique identity for
        daemon-side fair-share accounting plus the per-daemon AIMD
        window and throttle retry; otherwise the client holds the
        shared network directly (the legacy zero-overhead path).
        """
        if not 0 <= node_id < self.num_nodes:
            raise ValueError(f"node_id {node_id} out of range [0, {self.num_nodes})")
        network = self.network
        if self._scheduled_transport is not None:
            network = ClientPort.from_config(
                network, next(self._client_ids), self.config
            )
        # Epoch stamping + the freeze gate, and the membership view as
        # the placement source: clients follow resizes without being
        # rebuilt.
        network = EpochStampedNetwork(network, self.view)
        return GekkoFSClient(network, self.view, self.config, node_id)

    def migration_network(self):
        """The port the migrator's movers issue RPCs through.

        Under QoS this is a :class:`~repro.qos.window.ClientPort` bound
        to the reserved :data:`~repro.qos.pool.MIGRATION_CLIENT_ID`
        (low WFQ weight, AIMD window, throttle absorption); otherwise the
        raw network.  Deliberately *not* epoch-stamped: the migrator is
        the cluster's own plane and must keep writing through the freeze.
        """
        if self._scheduled_transport is not None:
            return ClientPort.from_config(
                self.network, MIGRATION_CLIENT_ID, self.config
            )
        return self.network

    def open_file(self, path: str, mode: str = "rb", node_id: int = 0) -> GekkoFile:
        """One-shot pythonic open through a fresh client."""
        return GekkoFile(self.client(node_id), path, mode)

    # -- manifest (campaign reuse) ------------------------------------------------

    def manifest(self) -> "DeploymentManifest":
        """Serialisable description of this deployment (hosts-file role)."""
        from repro.core.manifest import DeploymentManifest

        return DeploymentManifest.describe(self)

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

    # -- malleability -----------------------------------------------------------

    def resize_live(
        self,
        new_num_nodes: int,
        distributor_factory: Optional[Callable[[int], Distributor]] = None,
        *,
        rate: Optional[float] = None,
        verify: bool = True,
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
        :param verify: digest read-back per copied chunk, before its
            source copy is released (one extra digest RPC per chunk).
        """
        from repro.core.resize import live_migrate

        if not self._running:
            raise RuntimeError("cannot resize a stopped cluster")
        if self._crashed:
            raise RuntimeError(
                f"cannot resize with crashed daemons {sorted(self._crashed)}; "
                f"restart them first"
            )
        if new_num_nodes <= 0:
            raise ValueError(f"new_num_nodes must be > 0, got {new_num_nodes}")
        factory = distributor_factory or type(self.distributor)
        new_distributor = factory(new_num_nodes)
        if new_distributor.num_daemons != new_num_nodes:
            raise ValueError("distributor_factory produced a mismatched span")

        # Live join: bring the new daemons up before any data moves.  A
        # retry after an aborted attempt finds them already built.
        for node in range(len(self.daemons), new_num_nodes):
            self.daemons.append(self._build_daemon(node))
        if new_num_nodes > self.num_nodes:
            self.num_nodes = new_num_nodes

        report = live_migrate(self, new_distributor, rate=rate, verify=verify)

        # The flip already made the new placement authoritative (and
        # synced ``self.distributor``); on shrink the drained daemons
        # can now leave the deployment.
        for daemon in self.daemons[new_num_nodes:]:
            if len(daemon.kv) or daemon.storage.used_bytes():
                raise RuntimeError(
                    f"daemon {daemon.address} still holds data after migration"
                )
            daemon.shutdown()
            self.network.remove_engine(daemon.address)
        del self.daemons[new_num_nodes:]
        self.num_nodes = new_num_nodes
        return report

    def replace_daemon(self, address: int) -> "RepairReport":
        """Crash-replace: swap a dead daemon for an empty replacement and
        restore everything it should hold from surviving replicas.

        The replacement is a *new* node — the dead node's local state is
        wiped (nothing stale resurrects through WAL replay); redundancy
        is restored by :class:`~repro.selfheal.repair.WireRepairer`, the
        restore path restart and the supervisor use too, and its
        :class:`~repro.selfheal.repair.RepairReport` is returned.
        Requires an effective replication factor of at least 2, otherwise
        there are no surviving copies to restore from (use
        :meth:`restart_daemon` when the node's disk outlived the process).
        """
        from repro.selfheal.repair import WireRepairer

        if address not in self._crashed:
            raise RuntimeError(f"daemon {address} is not crashed")
        if min(self.config.replication, self.num_nodes) < 2:
            raise ValueError(
                "crash-replace needs replication >= 2; with a single copy "
                "there is nothing to re-replicate from"
            )
        for base in (self.config.kv_dir, self.config.data_dir):
            directory = node_dir(base, address)
            if directory is not None and os.path.isdir(directory):
                shutil.rmtree(directory, ignore_errors=True)
        self._crashed.discard(address)
        self.daemons[address] = self._build_daemon(address)
        self.daemons[address].set_epoch(self.view.epoch)
        if self.health is not None:
            self.health.reset(address)
        self.format()
        return WireRepairer(self, view=self.view).repair()

    # -- fault injection / recovery ------------------------------------------

    def daemon_alive(self, address: int) -> bool:
        """False while ``address`` is crash-stopped."""
        return 0 <= address < self.num_nodes and address not in self._crashed

    def live_daemons(self) -> list[GekkoDaemon]:
        """Daemons currently serving (crash-stopped ones excluded)."""
        return [d for d in self.daemons if d.address not in self._crashed]

    @property
    def crashed_daemons(self) -> set[int]:
        return set(self._crashed)

    def crash_daemon(self, address: int) -> None:
        """Crash-stop one daemon: drop it from the address book and lose
        its volatile state, with no clean shutdown.

        Clients see transport failures (``LookupError``) on its shards
        from the next RPC on; nothing is flushed, so an in-memory KV loses
        its records and a disk-backed one keeps exactly what had reached
        its WAL.  The daemon object stays in :attr:`daemons` (crashed) so
        addresses remain stable.
        """
        if not 0 <= address < self.num_nodes:
            raise ValueError(f"address {address} out of range [0, {self.num_nodes})")
        if address in self._crashed:
            raise RuntimeError(f"daemon {address} is already crashed")
        self.network.remove_engine(address)
        self.daemons[address].crash()
        self._crashed.add(address)

    def restart_daemon(self, address: int, recover: bool = True):
        """Bring a crashed daemon back, optionally running recovery.

        The replacement daemon reopens the node's ``kv_dir``/``data_dir``
        (WAL replay + chunk rescan); with ``recover=True`` it is then
        reconciled against the rest of the deployment — a
        :class:`~repro.selfheal.repair.WireRepairer` pass, root-record
        recreation, and a cluster-wide fsck repair — and the
        :class:`~repro.faults.recovery.RecoveryReport` is returned.  Any
        client-side breaker state for the address is reset so traffic
        resumes immediately.
        """
        if address not in self._crashed:
            raise RuntimeError(f"daemon {address} is not crashed")
        self._crashed.discard(address)
        self.daemons[address] = self._build_daemon(address)
        if self.health is not None:
            self.health.reset(address)
        if recover:
            from repro.faults.recovery import recover_daemon

            return recover_daemon(self, address)
        return None

    # -- introspection --------------------------------------------------------

    def daemon_load(self) -> dict[int, int]:
        """RPCs served per daemon — the load-balance evidence for hashing."""
        return {d.address: sum(d.engine.calls_served.values()) for d in self.live_daemons()}

    def metrics(self, node_id: int = 0) -> dict:
        """Cluster-wide metrics via a fresh client's ``gkfs_metrics``
        broadcast (see :meth:`repro.core.client.GekkoFSClient.metrics`)."""
        return self.client(node_id).metrics()

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

    # -- lifecycle ----------------------------------------------------------------

    @property
    def running(self) -> bool:
        return self._running

    def shutdown(self, wipe: bool = True) -> None:
        """Stop all daemons; by default wipe node-local state.

        Wiping mirrors the paper's deployment model: the SSD contents are
        removed when the job (or campaign) ends.
        """
        if not self._running:
            return
        if self._scheduled_transport is not None:
            self._scheduled_transport.shutdown()  # drain in-flight RPCs first
        if self._threaded_transport is not None:
            self._threaded_transport.shutdown()  # drain in-flight RPCs first
        for daemon in self.daemons:
            daemon.shutdown()
            self.network.remove_engine(daemon.address)
        if wipe:
            for base in (self.config.kv_dir, self.config.data_dir):
                if base is not None and os.path.isdir(base):
                    shutil.rmtree(base, ignore_errors=True)
        self._running = False

    def __enter__(self) -> "GekkoFSCluster":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()
