"""Socket deployments: address books, in-process servers, real processes.

Three pieces, layered:

* :class:`SocketDeployment` — the *client side* of a socket cluster: an
  address book (daemon id → endpoint), the full client transport stack
  (sockets → retry/breaker → instrumentation, wired by the function
  :class:`~repro.core.cluster.GekkoFSCluster` uses), and a client factory.
  This is GekkoFS's hosts file made live: any process that can parse the
  address book can mount the file system.
* :class:`LocalSocketCluster` — every daemon in *this* process, each
  behind a real socket.  The whole wire stack without process
  management; what tests and single-process baselines use.
* :class:`ProcessCluster` — one OS process per daemon (``repro serve``
  children), bound ports scraped from their READY lines.  The paper's
  actual deployment shape: daemons with private memory on separate
  cores, clients reaching them only through the fabric.
"""

from __future__ import annotations

import itertools
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
from collections import deque
from typing import Mapping, Optional

from repro.core.client import GekkoFSClient
from repro.core.cluster import node_dir, wire_client_stack
from repro.core.config import FSConfig
from repro.core.distributor import Distributor, SimpleHashDistributor, replica_set
from repro.core.membership import EpochStampedNetwork, MembershipView
from repro.core.metadata import new_dir_metadata
from repro.net.client import SocketTransport
from repro.net.serve import (
    READY_PREFIX,
    ServedDaemon,
    config_to_json,
    start_daemon,
)
from repro.qos import ClientPort
from repro.qos.pool import MIGRATION_CLIENT_ID
from repro.rpc import InstrumentedTransport, RpcNetwork

__all__ = [
    "SocketDeployment",
    "LocalSocketCluster",
    "ElasticLocalSocketCluster",
    "ProcessCluster",
]


class SocketDeployment:
    """Mount a socket-served cluster: address book in, clients out.

    :param addresses: daemon address → endpoint spec (any spelling
        :func:`~repro.net.addr.parse_endpoint` accepts).  Daemon
        addresses must be ``0..n-1`` — placement hashes over that range.
    :param config: must match what the daemons were started with (the
        hosts-file contract; chunk size and feature flags are not
        negotiated over the wire).
    :param instrument: wrap the transport for RPC-count inspection.
    """

    def __init__(
        self,
        addresses: Mapping[int, object],
        config: Optional[FSConfig] = None,
        distributor: Optional[Distributor] = None,
        instrument: bool = False,
        connect_timeout: float = 5.0,
        request_timeout: float = 30.0,
    ):
        if not addresses:
            raise ValueError("address book is empty")
        self.config = config or FSConfig()
        self.num_nodes = len(addresses)
        if sorted(addresses) != list(range(self.num_nodes)):
            raise ValueError(
                f"daemon addresses must be 0..{self.num_nodes - 1}, "
                f"got {sorted(addresses)}"
            )
        self.distributor = distributor or SimpleHashDistributor(self.num_nodes)
        if self.distributor.num_daemons != self.num_nodes:
            raise ValueError(
                f"distributor spans {self.distributor.num_daemons} daemons, "
                f"address book has {self.num_nodes}"
            )
        self.network = RpcNetwork()
        self.socket_transport = SocketTransport(
            addresses,
            connect_timeout=connect_timeout,
            request_timeout=request_timeout,
            call_timeout=self.config.rpc_call_timeout,
        )
        self.network.transport = self.socket_transport
        self.trace_collector, self.health, self.retrying, self.transport = (
            wire_client_stack(self.network, self.config, instrument)
        )
        self._client_ids = itertools.count()

    def client(self, node_id: int = 0) -> GekkoFSClient:
        """A client as it would run on ``node_id`` (same semantics as
        :meth:`repro.core.cluster.GekkoFSCluster.client`)."""
        if not 0 <= node_id < self.num_nodes:
            raise ValueError(f"node_id {node_id} out of range [0, {self.num_nodes})")
        network = self.network
        if self.config.qos_enabled:
            network = ClientPort.from_config(
                network, next(self._client_ids), self.config
            )
        return GekkoFSClient(network, self.distributor, self.config, node_id)

    def add_daemon(self, address: int, spec) -> None:
        """Register (or re-point) one daemon endpoint in the live address
        book — the restart and live-join path.

        Re-pointing an existing address drops any stale channel, so the
        next RPC connects to the replacement process.  A brand-new
        address grows ``num_nodes``; note the *placement* does not change
        until the deployment owner installs a distributor spanning the
        new count (and migrates — see ``core.resize``): until then the
        joined daemon serves no hashed shard.
        """
        self.socket_transport.add_daemon(address, spec)
        if self.health is not None:
            self.health.reset(address)
        if address >= self.num_nodes:
            self.num_nodes = address + 1

    def format(self) -> None:
        """Create the root directory record on its owner daemon(s).

        Idempotent (``gkfs_create`` without ``O_EXCL`` keeps an existing
        record), so every launcher and late-joining client may call it.
        """
        record = new_dir_metadata(maintain_times=self.config.maintain_mtime).encode()
        for address in replica_set(
            self.distributor.locate_metadata("/"), self.config.replication, self.num_nodes
        ):
            self.network.call(address, "gkfs_create", "/", record, False)

    def shutdown(self) -> None:
        self.socket_transport.shutdown()

    def __enter__(self) -> "SocketDeployment":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()


class _SocketClusterBase:
    """Shared client-facing surface of the two socket cluster shapes."""

    deployment: SocketDeployment

    @property
    def config(self) -> FSConfig:
        return self.deployment.config

    @property
    def num_nodes(self) -> int:
        return self.deployment.num_nodes

    @property
    def distributor(self) -> Distributor:
        return self.deployment.distributor

    @property
    def network(self) -> RpcNetwork:
        return self.deployment.network

    @property
    def transport(self) -> Optional[InstrumentedTransport]:
        return self.deployment.transport

    def client(self, node_id: int = 0) -> GekkoFSClient:
        return self.deployment.client(node_id)

    def _wipe(self) -> None:
        for base in (self.config.kv_dir, self.config.data_dir):
            if base is not None and os.path.isdir(base):
                shutil.rmtree(base, ignore_errors=True)

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()  # type: ignore[attr-defined]


class LocalSocketCluster(_SocketClusterBase):
    """Every daemon in this process, each behind a real socket.

    Exercises the complete wire stack — framing, bulk channel, failure
    mapping — without forking; daemons stay reachable as objects
    (``served[i].daemon``) for white-box assertions.
    """

    def __init__(
        self,
        num_nodes: int,
        config: Optional[FSConfig] = None,
        distributor: Optional[Distributor] = None,
        instrument: bool = False,
        handlers_per_daemon: int = 4,
    ):
        if num_nodes <= 0:
            raise ValueError(f"num_nodes must be > 0, got {num_nodes}")
        config = config or FSConfig()
        self._handlers_per_daemon = handlers_per_daemon
        self.served: list[ServedDaemon] = []
        try:
            for node in range(num_nodes):
                self.served.append(
                    start_daemon(config, node, handlers=handlers_per_daemon)
                )
            self.deployment = SocketDeployment(
                {s.daemon.address: s.address_spec for s in self.served},
                config=config,
                distributor=distributor,
                instrument=instrument,
            )
            self.deployment.format()
        except BaseException:
            for served in self.served:
                served.stop(drain=False)
            raise
        self._crashed: set[int] = set()
        self._running = True

    def crash_daemon(self, address: int) -> None:
        """Crash-stop one daemon: its sockets die abruptly, in-flight
        requests fail as lost connections, volatile state is gone."""
        if address in self._crashed:
            raise RuntimeError(f"daemon {address} is already crashed")
        self._crashed.add(address)
        self.served[address].stop(drain=False)

    def daemon_alive(self, address: int) -> bool:
        return address not in self._crashed

    def restart_daemon(self, address: int) -> str:
        """Rebuild a crashed daemon under the same identity (fresh port).

        The replacement reopens the same ``kv_dir``/``data_dir``; with
        in-memory stores it comes back empty — restoring redundancy from
        its replicas is the caller's job (see ``selfheal.WireRepairer``).
        Returns the new endpoint spec.
        """
        if address not in self._crashed:
            raise RuntimeError(
                f"daemon {address} is still running; crash it first"
            )
        served = start_daemon(
            self.config, address, handlers=self._handlers_per_daemon
        )
        self.served[address] = served
        self._crashed.discard(address)
        self.deployment.add_daemon(address, served.address_spec)
        return served.address_spec

    def shutdown(self, wipe: bool = True) -> None:
        if not self._running:
            return
        self._running = False
        self.deployment.shutdown()
        for address, served in enumerate(self.served):
            if address not in self._crashed:
                served.stop(drain=True)
        if wipe:
            self._wipe()


class ElasticLocalSocketCluster(LocalSocketCluster):
    """A :class:`LocalSocketCluster` with live membership: the elastic
    protocol (``live_migrate``) running over real sockets.

    The migrator needs two things a plain socket deployment lacks: a
    versioned :class:`~repro.core.membership.MembershipView` that every
    client routes through (so the write freeze and the epoch flip reach
    them), and white-box daemon objects for its record moves and source
releases (who holds what it lists over the wire).  An
    in-process socket cluster has both — ``served[i].daemon`` is the
    real :class:`~repro.core.daemon.GekkoDaemon` behind the socket — so
    this adapter only has to expose the :class:`~repro.core.cluster
    .GekkoFSCluster` elastic surface over the wire stack.  That makes it
    the vehicle for crash-during-migration tests with real connection
    failures, and for supervisors that must stamp repairs with the live
    epoch.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.view = MembershipView(self.deployment.distributor)

    # -- GekkoFSCluster elastic surface ------------------------------------

    @property
    def daemons(self):
        """White-box daemon objects, indexed by address (migrator API)."""
        return [served.daemon for served in self.served]

    @property
    def crashed_daemons(self) -> set:
        return set(self._crashed)

    def live_daemons(self) -> list:
        return [
            served.daemon
            for address, served in enumerate(self.served)
            if address not in self._crashed
        ]

    @property
    def distributor(self) -> Distributor:
        return self.deployment.distributor

    @distributor.setter
    def distributor(self, value: Distributor) -> None:
        # The migrator's post-flip sync; clients keep routing through
        # the view, the deployment book is for view-less consumers.
        self.deployment.distributor = value

    def client(self, node_id: int = 0) -> GekkoFSClient:
        """An epoch-stamped client: placement from the live view, writes
        parked at the freeze gate."""
        if not 0 <= node_id < self.num_nodes:
            raise ValueError(
                f"node_id {node_id} out of range [0, {self.num_nodes})"
            )
        network = self.deployment.network
        if self.config.qos_enabled:
            network = ClientPort.from_config(
                network, next(self.deployment._client_ids), self.config
            )
        network = EpochStampedNetwork(network, self.view)
        return GekkoFSClient(network, self.view, self.config, node_id)

    def migration_network(self):
        """The migrator's port (same contract as :meth:`repro.core.cluster
        .GekkoFSCluster.migration_network`): under QoS the reserved
        low-weight identity, and deliberately *not* epoch-stamped — the
        migration plane must keep writing through its own freeze."""
        if self.config.qos_enabled:
            return ClientPort.from_config(
                self.deployment.network, MIGRATION_CLIENT_ID, self.config
            )
        return self.deployment.network

    def restart_daemon(self, address: int) -> str:
        spec = super().restart_daemon(address)
        # The replacement must enforce the current epoch floor like its
        # predecessor did, or retired clients could write through it.
        self.served[address].daemon.set_epoch(self.view.epoch)
        return spec


class _Pump(threading.Thread):
    """Drain one child stream, scraping the READY line and keeping a tail."""

    def __init__(self, stream, name: str):
        super().__init__(daemon=True, name=name)
        self.stream = stream
        self.ready_addr: Optional[str] = None
        self.ready_event = threading.Event()
        self.tail: deque = deque(maxlen=50)
        self.start()

    def run(self) -> None:
        try:
            for line in self.stream:
                line = line.rstrip("\n")
                self.tail.append(line)
                if line.startswith(READY_PREFIX):
                    for token in line.split():
                        if token.startswith("addr="):
                            self.ready_addr = token[len("addr="):]
                    self.ready_event.set()
        finally:
            self.ready_event.set()  # EOF: unblock waiters (crash case)
            try:
                self.stream.close()
            except OSError:
                pass


class ProcessCluster(_SocketClusterBase):
    """One OS process per daemon — real multi-process deployment.

    Children run ``repro serve`` with an OS-assigned port each; the
    launcher scrapes bound endpoints from their READY lines, builds the
    address book, and formats the root record over the wire.  Teardown
    is SIGTERM + drain by default (exit code 0); :meth:`kill_daemon` is
    the crash path.
    """

    def __init__(
        self,
        num_nodes: int,
        config: Optional[FSConfig] = None,
        distributor: Optional[Distributor] = None,
        instrument: bool = False,
        handlers_per_daemon: int = 4,
        python: str = sys.executable,
        startup_timeout: float = 30.0,
    ):
        if num_nodes <= 0:
            raise ValueError(f"num_nodes must be > 0, got {num_nodes}")
        config = config or FSConfig()
        self._config_json = config_to_json(config)
        self._python = python
        self._handlers_per_daemon = handlers_per_daemon
        self._startup_timeout = startup_timeout
        env = dict(os.environ)
        package_root = os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))))
        env["PYTHONPATH"] = package_root + os.pathsep + env.get("PYTHONPATH", "")
        self._env = env
        self.processes: list[subprocess.Popen] = []
        self._pumps: list[tuple[_Pump, _Pump]] = []
        try:
            for node in range(num_nodes):
                proc, pumps = self._launch(node)
                self.processes.append(proc)
                self._pumps.append(pumps)
            addresses = {}
            deadline = time.monotonic() + startup_timeout
            for node, (out_pump, err_pump) in enumerate(self._pumps):
                remaining = deadline - time.monotonic()
                if not out_pump.ready_event.wait(max(0.0, remaining)) or (
                    out_pump.ready_addr is None
                ):
                    raise RuntimeError(
                        f"daemon {node} did not come up within "
                        f"{startup_timeout}s; stderr tail: "
                        f"{list(err_pump.tail)[-5:]}"
                    )
                addresses[node] = out_pump.ready_addr
            self.deployment = SocketDeployment(
                addresses,
                config=config,
                distributor=distributor,
                instrument=instrument,
            )
            self.deployment.format()
        except BaseException:
            for proc in self.processes:
                if proc.poll() is None:
                    proc.kill()
            for proc in self.processes:
                proc.wait()
            raise
        self._running = True

    def _launch(self, node: int) -> tuple[subprocess.Popen, tuple[_Pump, _Pump]]:
        """Fork one ``repro serve`` child for daemon ``node``."""
        proc = subprocess.Popen(
            [
                self._python, "-m", "repro", "serve",
                "--daemon-id", str(node),
                "--addr", "127.0.0.1:0",
                "--handlers", str(self._handlers_per_daemon),
                "--config-json", self._config_json,
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=self._env,
        )
        return proc, (
            _Pump(proc.stdout, f"gkfs-pump-out-{node}"),
            _Pump(proc.stderr, f"gkfs-pump-err-{node}"),
        )

    def _spawn_and_scrape(self, node: int) -> str:
        """Fork daemon ``node``, wait for READY, return its bound endpoint.

        The child slot in :attr:`processes`/:attr:`_pumps` is replaced
        (or appended for a brand-new address).
        """
        proc, pumps = self._launch(node)
        out_pump, err_pump = pumps
        if not out_pump.ready_event.wait(self._startup_timeout) or (
            out_pump.ready_addr is None
        ):
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            raise RuntimeError(
                f"daemon {node} did not come up within "
                f"{self._startup_timeout}s; stderr tail: "
                f"{list(err_pump.tail)[-5:]}"
            )
        if node < len(self.processes):
            self.processes[node] = proc
            self._pumps[node] = pumps
        else:
            self.processes.append(proc)
            self._pumps.append(pumps)
        return out_pump.ready_addr

    def restart_daemon(self, address: int) -> str:
        """Respawn a dead daemon under the same identity and re-point the
        address book at its fresh port.

        The child reopens the same ``kv_dir``/``data_dir`` (the config is
        identical), so a disk-backed KV replays its WAL and chunk storage
        rescans — everything that reached durable state before the crash
        is served again.  Returns the new endpoint spec.
        """
        proc = self.processes[address]
        if proc.poll() is None:
            raise RuntimeError(
                f"daemon {address} is still running (pid {proc.pid}); "
                f"kill or terminate it first"
            )
        spec = self._spawn_and_scrape(address)
        self.deployment.add_daemon(address, spec)
        return spec

    def add_daemon(self) -> int:
        """Live join: fork one more ``repro serve`` child and register it.

        Returns the new daemon's address.  Placement is unchanged until
        the caller installs a wider distributor and migrates (see
        :meth:`SocketDeployment.add_daemon`).
        """
        node = len(self.processes)
        spec = self._spawn_and_scrape(node)
        self.deployment.add_daemon(node, spec)
        return node

    def daemon_pid(self, address: int) -> int:
        return self.processes[address].pid

    def daemon_alive(self, address: int) -> bool:
        """Whether the child process still exists (a SIGSTOPped daemon
        counts as alive — it is hung, not dead)."""
        return self.processes[address].poll() is None

    def suspend_daemon(self, address: int) -> None:
        """SIGSTOP one daemon: hung-but-connected.  Its sockets stay
        open, so without per-call timeouts clients would stall silently.

        Returns only once the kernel reports the process stopped:
        ``kill(2)`` returns when the signal is *generated*, not
        *delivered*, so a daemon still runnable for a few more
        microseconds could answer one last RPC after this call.
        """
        pid = self.daemon_pid(address)
        os.kill(pid, signal.SIGSTOP)
        deadline = time.monotonic() + 5.0
        while time.monotonic() < deadline:
            try:
                with open(f"/proc/{pid}/stat", "rb") as f:
                    state = f.read().rsplit(b")", 1)[1].split()[0]
            except OSError:
                return  # no /proc or process gone: best effort
            if state in (b"T", b"t"):
                return
            time.sleep(0.001)

    def resume_daemon(self, address: int) -> None:
        """SIGCONT a suspended daemon."""
        os.kill(self.daemon_pid(address), signal.SIGCONT)

    def replace_daemon(self, address: int) -> str:
        """Crash-replace one daemon with a *blank* successor.

        Force-kills the child if it still exists (covers the hung case —
        a SIGSTOPped process cannot drain), wipes its node-local
        ``kv_dir``/``data_dir`` so the replacement starts empty, and
        respawns under the same identity.  Restoring redundancy from the
        surviving replicas is the caller's job (``selfheal.WireRepairer``,
        the one restore path).  Returns the new endpoint spec.
        """
        proc = self.processes[address]
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        for base in (self.config.kv_dir, self.config.data_dir):
            directory = node_dir(base, address)
            if directory is not None and os.path.isdir(directory):
                shutil.rmtree(directory, ignore_errors=True)
        spec = self._spawn_and_scrape(address)
        self.deployment.add_daemon(address, spec)
        return spec

    def terminate_daemon(self, address: int, timeout: float = 15.0) -> int:
        """SIGTERM one daemon and wait for its graceful drain; returns
        the child's exit code (0 = clean)."""
        proc = self.processes[address]
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
        return proc.wait(timeout)

    def kill_daemon(self, address: int) -> None:
        """SIGKILL one daemon — a crash, no drain, no KV flush."""
        proc = self.processes[address]
        if proc.poll() is None:
            proc.kill()
        proc.wait()

    def shutdown(self, wipe: bool = True) -> None:
        if not getattr(self, "_running", False):
            return
        self._running = False
        self.deployment.shutdown()
        for proc in self.processes:
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
        deadline = time.monotonic() + 15.0
        for proc in self.processes:
            try:
                proc.wait(max(0.1, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        if wipe:
            self._wipe()
