"""Socket node substrates: address books, in-process servers, real processes.

Each is a :class:`~repro.core.cluster.Deployment` whose delivery
transport is a :class:`~repro.net.client.SocketTransport` over an
address book (daemon id → endpoint).  What differs is only how one node
starts and stops:

* :class:`SocketDeployment` — a mount of daemons started elsewhere: the
  address book comes in, clients go out.  GekkoFS's hosts file made
  live: any process that can parse it can mount the file system.
* :class:`LocalSocketCluster` — every daemon in *this* process, each
  behind a real socket.  The whole wire stack without process
  management; what tests and single-process baselines use.
* :class:`ProcessCluster` — one OS process per daemon (``repro serve``
  children), bound ports scraped from their READY lines.  The paper's
  actual deployment shape: daemons with private memory on separate
  cores, clients reaching them only through the fabric.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from collections import deque
from typing import Mapping, Optional

from repro.common.errors import UNREACHABLE
from repro.core.cluster import Deployment, damage_store
from repro.core.daemon import node_dir
from repro.core.config import FSConfig
from repro.core.distributor import Distributor
from repro.net.client import SocketTransport
from repro.net.serve import READY_PREFIX, ServedDaemon, config_to_json, start_daemon
from repro.rpc.engine import RpcNetwork
from repro.storage.localfs import LocalFSChunkStorage

__all__ = ["SocketDeployment", "LocalSocketCluster", "ProcessCluster"]


class SocketDeployment(Deployment):
    """Mount a socket-served cluster: address book in, clients out.

    The base of the two socket substrates, and on its own a mount of
    daemons this process did not start: it neither stops their
    processes nor wipes their disks, and cannot restart one.

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
        if sorted(addresses) != list(range(len(addresses))):
            raise ValueError(
                f"daemon addresses must be 0..{len(addresses) - 1}, "
                f"got {sorted(addresses)}"
            )
        self._book = dict(addresses)
        self._timeouts = connect_timeout, request_timeout
        super().__init__(len(addresses), config, distributor, instrument)

    def _delivery_transport(self) -> SocketTransport:
        connect_timeout, request_timeout = self._timeouts
        self.socket_transport = SocketTransport(
            {},
            connect_timeout=connect_timeout,
            request_timeout=request_timeout,
            call_timeout=self.config.rpc_call_timeout,
        )
        return self.socket_transport

    def _start_node(self, node: int):
        handle, spec = self._launch(node)
        # Re-pointing an address drops its stale channel: the next RPC
        # connects to the successor.
        self.socket_transport.add_daemon(node, spec)
        return handle

    def _launch(self, node: int) -> tuple:
        """Start daemon ``node``: ``(handle, endpoint spec)``."""
        if node not in self._book:
            raise RuntimeError(
                f"daemon {node} runs outside this mount; start it there"
            )
        return None, self._book.pop(node)

    def _stop_node(self, handle, crash: bool) -> None:
        """The daemons of a mount are not this process's to stop."""

    def _wipe(self, address: Optional[int] = None) -> None:
        """Nor are their disks."""

    def probe(self, address: int, timeout: float) -> bool:
        """Fresh sockets straight to the daemon: shares nothing with the
        deployment's transport stack — chaos splices, breaker state,
        half-dead channels — so only the daemon itself (dead, hung, or
        truly unreachable at its endpoint) can fail it."""
        try:
            endpoint = self.socket_transport.endpoint(address)
        except KeyError:
            return False
        probe_net = RpcNetwork()
        probe_net.transport = SocketTransport(
            {address: endpoint},
            connect_timeout=timeout,
            request_timeout=timeout,
            call_timeout=timeout,
        )
        try:
            probe_net.call(address, "gkfs_ping")
            return True
        except UNREACHABLE:
            return False
        finally:
            probe_net.transport.shutdown()

    def _close(self) -> None:
        self.socket_transport.shutdown()


class LocalSocketCluster(SocketDeployment):
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
        self._handlers_per_daemon = handlers_per_daemon
        super().__init__(dict.fromkeys(range(num_nodes)), config, distributor, instrument)

    @property
    def served(self) -> list[ServedDaemon]:
        """The running servers, indexed by address."""
        return self._nodes

    def _launch(self, node: int) -> tuple:
        served = start_daemon(self.config, node, handlers=self._handlers_per_daemon)
        return served, served.address_spec

    def _stop_node(self, served: ServedDaemon, crash: bool) -> None:
        """A crash kills its sockets abruptly: in-flight requests fail as
        lost connections and volatile state is gone."""
        served.stop(drain=not crash)

    def damage_chunk(self, address: int, path: str, chunk_id: int, offset: int,
                     tear: bool = False) -> bool:
        return damage_store(self._nodes[address].daemon.storage, path, chunk_id, offset, tear)

    _wipe = Deployment._wipe


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


class _Child:
    """One ``repro serve`` child and the pumps draining its streams."""

    def __init__(self, cluster: "ProcessCluster", node: int):
        self.proc = subprocess.Popen(
            [
                cluster._python, "-m", "repro", "serve",
                "--daemon-id", str(node),
                "--addr", "127.0.0.1:0",
                "--handlers", str(cluster._handlers_per_daemon),
                "--config-json", cluster._config_json,
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env=cluster._env,
        )
        self.out = _Pump(self.proc.stdout, f"gkfs-pump-out-{node}")
        self.err = _Pump(self.proc.stderr, f"gkfs-pump-err-{node}")

    def ready(self, node: int, deadline: float) -> str:
        """Wait for the READY line; the bound endpoint spec."""
        if not self.out.ready_event.wait(max(0.0, deadline - time.monotonic())) or (
            self.out.ready_addr is None
        ):
            self.kill()
            raise RuntimeError(
                f"daemon {node} did not come up in time; stderr tail: "
                f"{list(self.err.tail)[-5:]}"
            )
        return self.out.ready_addr

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


class ProcessCluster(SocketDeployment):
    """One OS process per daemon — real multi-process deployment.

    Children run ``repro serve`` with an OS-assigned port each; the
    launcher scrapes bound endpoints from their READY lines, builds the
    address book, and formats the root record over the wire.  Teardown
    is SIGTERM + drain (exit code 0); :meth:`crash_daemon` is SIGKILL.
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
        self._config_json = config_to_json(config or FSConfig())
        self._python = python
        self._handlers_per_daemon = handlers_per_daemon
        self._startup_timeout = startup_timeout
        env = dict(os.environ)
        package_root = os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))))
        env["PYTHONPATH"] = package_root + os.pathsep + env.get("PYTHONPATH", "")
        self._env = env
        # Fork every first child at once; each start waits for its READY.
        self._forked = {node: _Child(self, node) for node in range(num_nodes)}
        try:
            super().__init__(dict.fromkeys(range(num_nodes)), config, distributor, instrument)
        finally:
            for child in self._forked.values():
                child.kill()  # never started: the bring-up failed

    @property
    def processes(self) -> list[subprocess.Popen]:
        return [child.proc for child in self._nodes]

    def _launch(self, node: int) -> tuple:
        child = self._forked.pop(node, None) or _Child(self, node)
        return child, child.ready(node, time.monotonic() + self._startup_timeout)

    def _node_alive(self, address: int) -> bool:
        """A SIGSTOPped daemon counts as alive — it is hung, not dead."""
        return self._nodes[address].proc.poll() is None

    def _stop_node(self, child: _Child, crash: bool, timeout: float = 15.0) -> None:
        if crash or child.proc.poll() is not None:
            child.kill()
            return
        child.proc.send_signal(signal.SIGTERM)
        try:
            child.proc.wait(timeout)
        except subprocess.TimeoutExpired:
            child.kill()

    def _close(self) -> None:
        super()._close()
        # Every child drains at once; the per-node stops then only wait.
        for child in self._nodes:
            if child.proc.poll() is None:
                child.proc.send_signal(signal.SIGTERM)

    _wipe = Deployment._wipe

    def damage_chunk(self, address: int, path: str, chunk_id: int, offset: int,
                     tear: bool = False) -> bool:
        """The store's own injectors on the node's ``data_dir``, from
        outside the daemon, as a failing disk would damage it; the daemon
        reads the change through its open descriptor."""
        root = node_dir(self.config.data_dir, address)
        if root is None:
            raise ValueError("damaging a daemon process's chunk needs a data_dir")
        disk = LocalFSChunkStorage(self.config.chunk_size, root)
        try:
            return damage_store(disk, path, chunk_id, offset, tear)
        finally:
            disk.close()

    def daemon_pid(self, address: int) -> int:
        return self._nodes[address].proc.pid

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

    def terminate_daemon(self, address: int, timeout: float = 15.0) -> int:
        """SIGTERM one daemon and wait for its graceful drain; returns
        the child's exit code (0 = clean)."""
        proc = self._nodes[address].proc
        if proc.poll() is None:
            proc.send_signal(signal.SIGTERM)
        return proc.wait(timeout)
