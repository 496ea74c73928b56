"""Run one GekkoFS daemon behind a socket — the daemon-process entry.

:func:`start_daemon` builds a complete daemon (engine, KV store, chunk
storage, QoS pool, telemetry) from the same :class:`~repro.core.config
.FSConfig` an in-process cluster uses and puts an
:class:`~repro.net.server.RpcServer` in front of it.  :func:`serve_daemon`
is the blocking wrapper the ``repro serve`` CLI and
:class:`~repro.net.cluster.ProcessCluster` children run: it prints a
machine-parseable READY line (the launcher scrapes the bound port from
it) and drains gracefully on SIGTERM/SIGINT.

Configs travel between launcher and daemon as JSON
(:func:`config_to_json` / :func:`config_from_json`); the round-trip
restores the int client ids JSON forces into strings.
"""

from __future__ import annotations

import dataclasses
import json
import signal
import sys
import threading
from functools import partial
from typing import Optional

from repro.core.config import FSConfig
from repro.core.daemon import GekkoDaemon, build_node_stores
from repro.net.server import RpcServer
from repro.rpc.engine import RpcEngine

__all__ = [
    "ServedDaemon",
    "start_daemon",
    "serve_daemon",
    "config_to_json",
    "config_from_json",
    "READY_PREFIX",
]

#: First token of the line a daemon prints once it is accepting requests:
#: ``GKFS-SERVE READY daemon=<id> addr=<endpoint>``.
READY_PREFIX = "GKFS-SERVE READY"


def config_to_json(config: FSConfig) -> str:
    """Serialise a config for shipping to a daemon process."""
    return json.dumps(dataclasses.asdict(config))


def config_from_json(text: str) -> FSConfig:
    """Rebuild a config from :func:`config_to_json` output
    (:meth:`FSConfig.from_dict`: unknown or retired keys are a
    ``ValueError``)."""
    return FSConfig.from_dict(json.loads(text))


class _ObservabilityTicker(threading.Thread):
    """Advance the window ring and flush the flight recorder on a beat.

    The flush half is the SIGKILL-survival property: a killed daemon
    cannot run any handler, so the black box on disk is whatever the
    last beat persisted — at most one interval stale.
    """

    def __init__(self, windows, recorder, interval: float):
        super().__init__(daemon=True, name="gkfs-obs-ticker")
        self.windows = windows
        self.recorder = recorder
        self.interval = interval
        self._stopped = threading.Event()

    def run(self) -> None:
        while not self._stopped.wait(self.interval):
            if self.windows is not None:
                self.windows.maybe_tick()
            if self.recorder is not None:
                try:
                    self.recorder.flush()
                except OSError:
                    pass  # a full/unwritable disk must not kill the daemon

    def stop(self) -> None:
        self._stopped.set()


class ServedDaemon:
    """One running socket-served daemon and everything it owns."""

    def __init__(self, daemon: GekkoDaemon, server: RpcServer, dispatch, ticker=None):
        self.daemon = daemon
        self.server = server
        self._dispatch = dispatch
        self._ticker = ticker

    @property
    def address_spec(self) -> str:
        return self.server.address_spec

    def stop(self, drain: bool = True) -> None:
        """Graceful (drain in-flight, flush the KV) or abortive stop."""
        if self._ticker is not None:
            self._ticker.stop()
        self.server.stop(drain=drain)
        if self._dispatch is not None:
            self._dispatch.shutdown()
        if drain:
            self.daemon.shutdown()
        else:
            self.daemon.crash()

    def __enter__(self) -> "ServedDaemon":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


def start_daemon(
    config: FSConfig,
    daemon_id: int,
    address=None,
    *,
    handlers: int = 4,
) -> ServedDaemon:
    """Build and start one daemon's full stack behind a socket.

    Mirrors :meth:`~repro.core.cluster.GekkoFSCluster._start_node`
    exactly — same stores, same QoS pool wiring, same telemetry
    attachment — except the engine fronts an
    :class:`~repro.net.server.RpcServer` instead of a shared in-process
    engine table.

    :param address: endpoint spec; ``None`` = loopback TCP, OS-chosen
        port (read it back from ``served.address_spec``).
    :param handlers: how many relief readers the server may run at once
        (:class:`~repro.net.server.RpcServer`).
    """
    engine = RpcEngine(daemon_id)
    kv, storage, hotmeta = build_node_stores(config, daemon_id)
    daemon = GekkoDaemon(
        daemon_id, engine, config.chunk_size, kv=kv, storage=storage, hotmeta=hotmeta
    )
    collector = None
    if config.telemetry_enabled:
        from repro.telemetry.spans import TraceCollector
        from repro.telemetry.windows import MetricsWindows

        collector = TraceCollector()
        engine.collector = collector
        engine.metrics = daemon.metrics
        daemon.windows = MetricsWindows(
            daemon.metrics,
            interval=config.metrics_window_interval,
            daemon_id=daemon_id,
        )
    if config.flight_recorder_dir is not None:
        from repro.telemetry.flightrecorder import FlightRecorder

        daemon.flight_recorder = FlightRecorder(
            daemon_id,
            config.flight_recorder_dir,
            collector=collector,
            windows=daemon.windows,
        )
    dispatch = None  # the server then owns a plain handler pool
    if config.qos_enabled:
        from repro.qos.pool import ScheduledTransport

        dispatch = ScheduledTransport.from_config({daemon_id: engine}, config)
        dispatch.attach(daemon_id, daemon.metrics, collector)
    ticker = None
    if daemon.windows is not None or daemon.flight_recorder is not None:
        ticker = _ObservabilityTicker(
            daemon.windows, daemon.flight_recorder, config.metrics_window_interval
        )
        ticker.start()
    server = RpcServer(engine, address, dispatch=dispatch, handlers=handlers)
    if dispatch is not None:  # without a pool nothing ever queues
        daemon.queue_depth_fn = partial(dispatch.queue_depth, daemon_id)
    daemon.metrics.gauge("server.relief_readers", lambda: server.relief_readers)
    daemon.metrics.gauge("server.relief_started", lambda: server.relief_started)
    server.start()
    return ServedDaemon(daemon, server, dispatch, ticker=ticker)


def serve_daemon(
    config: FSConfig,
    daemon_id: int,
    address,
    *,
    handlers: int = 4,
    install_signals: bool = True,
    ready_stream=None,
    stop_event: Optional[threading.Event] = None,
) -> int:
    """Serve until told to stop; the daemon-process main loop.

    Prints ``GKFS-SERVE READY daemon=<id> addr=<spec>`` once accepting
    (on ``ready_stream``, default stdout) so launchers can scrape the
    bound endpoint, then blocks.  SIGTERM/SIGINT trigger a *graceful*
    stop: the listener closes, in-flight requests run to completion and
    their responses are delivered, the KV store flushes.  Returns the
    process exit code (0 on clean drain).
    """
    stop = stop_event or threading.Event()
    if install_signals:
        for signum in (signal.SIGTERM, signal.SIGINT):
            signal.signal(signum, lambda *_: stop.set())
    served = start_daemon(config, daemon_id, address, handlers=handlers)
    stream = ready_stream or sys.stdout
    print(
        f"{READY_PREFIX} daemon={daemon_id} addr={served.address_spec}",
        file=stream,
        flush=True,
    )
    try:
        stop.wait()
    finally:
        served.stop(drain=True)
        if served.daemon.flight_recorder is not None:
            # Re-stamp after the drain so the black box on disk names the
            # signal, not the generic "shutdown" the drain wrote.
            served.daemon.flight_recorder.dump("sigterm")
    return 0
