"""Metrics registry: one enumeration path over every layer's counters.

Before this module each layer kept its own ad-hoc stats object
(``LSMStats``, ``StorageStats``, ``ClientStats``, the engine's
``calls_served`` counter) with its own spelling and no way to list them.
A :class:`MetricsRegistry` gives each daemon — and the client — a single
namespace of

* **counters**: monotonically increasing integers owned by the registry;
* **gauges**: zero-argument callables read at snapshot time, used to
  *mirror* the existing stats objects without moving them
  (``daemon.storage.stats`` / ``daemon.kv.stats`` stay where they are and
  the ``storage.*`` / ``kv.*`` gauges read them);
* **histograms**: :class:`~repro.telemetry.histogram.LatencyHistogram`
  per distribution (per-handler RPC latency), merged across daemons via
  their wire-state form.

A snapshot is plain JSON types so it rides the new ``gkfs_metrics`` RPC
unchanged; :func:`merge_snapshots` folds per-daemon snapshots into the
cluster view that feeds :mod:`repro.analysis.loadmap`.

Metric names are dotted paths, ``<layer>.<name>`` (``rpc.calls.write``,
``kv.flushes``, ``storage.bytes_written``, ``server.queue_depth``).
"""

from __future__ import annotations

import threading
from typing import Callable, Mapping, Optional

from repro.telemetry.histogram import LatencyHistogram

__all__ = ["MetricsRegistry", "merge_snapshots"]


class MetricsRegistry:
    """Thread-safe named counters, gauges, and latency histograms."""

    def __init__(self):
        self._lock = threading.Lock()
        self._counters: dict[str, int] = {}
        self._gauges: dict[str, Callable[[], float]] = {}
        self._histograms: dict[str, LatencyHistogram] = {}

    # -- counters ------------------------------------------------------------

    def inc(self, name: str, amount: int = 1) -> None:
        """Add ``amount`` (default 1) to counter ``name``, creating it at 0."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + amount

    def counter(self, name: str) -> int:
        with self._lock:
            return self._counters.get(name, 0)

    # -- gauges --------------------------------------------------------------

    def gauge(self, name: str, fn: Callable[[], float]) -> None:
        """Register ``fn`` to be evaluated at every snapshot."""
        with self._lock:
            self._gauges[name] = fn

    def mirror(self, prefix: str, source: Callable[[], object], fields) -> None:
        """A gauge ``prefix + field`` per field of the stats object
        ``source()`` returns, looked up at every snapshot (so a layer
        replaced after registration is the one read)."""
        for field in fields:
            self.gauge(prefix + field, lambda f=field: getattr(source(), f))

    def gauge_value(self, name: str) -> float:
        with self._lock:
            fn = self._gauges[name]
        return fn()

    # -- histograms ----------------------------------------------------------

    def observe(self, name: str, seconds: float) -> None:
        """Record one duration into histogram ``name``, creating it lazily.

        The lock guards only creation; the record itself runs unlocked,
        accepting the same GIL-level counter races the engine's own
        ``calls_served`` tolerates — this sits on every instrumented RPC.
        """
        hist = self._histograms.get(name)
        if hist is None:
            with self._lock:
                hist = self._histograms.setdefault(name, LatencyHistogram())
        hist.record(seconds)

    def histogram(self, name: str) -> Optional[LatencyHistogram]:
        with self._lock:
            return self._histograms.get(name)

    def histogram_for(self, name: str) -> LatencyHistogram:
        """The live histogram ``name``, created if absent.

        Hot-loop callers (the RPC engine) hold on to the returned object
        and record into it directly, skipping the per-observation name
        lookup entirely.
        """
        with self._lock:
            hist = self._histograms.get(name)
            if hist is None:
                hist = self._histograms[name] = LatencyHistogram()
            return hist

    # -- enumeration ---------------------------------------------------------

    def names(self) -> list[str]:
        """Every registered metric name, sorted."""
        with self._lock:
            return sorted(
                set(self._counters) | set(self._gauges) | set(self._histograms)
            )

    def snapshot(self) -> dict:
        """Point-in-time view, all plain JSON types.

        ``{"counters": {...}, "gauges": {...}, "histograms": {name:
        wire-state}}``.  Gauges are evaluated outside the lock (a gauge
        may itself take other locks, e.g. the LSM flush lock).
        """
        with self._lock:
            counters = dict(self._counters)
            gauges = dict(self._gauges)
            histograms = {
                name: hist.to_state() for name, hist in self._histograms.items()
            }
        return {
            "counters": counters,
            "gauges": {name: fn() for name, fn in gauges.items()},
            "histograms": histograms,
        }


def merge_snapshots(snapshots) -> dict:
    """Fold per-daemon snapshots into one cluster-wide snapshot.

    Counters and gauges sum; histograms merge via their wire state.  The
    result has the same shape as a single snapshot (histogram values are
    summaries rather than wire states, since the merged distribution is
    a terminal artifact).

    Pass a **mapping** of ``daemon_id → snapshot`` instead of a bare
    iterable and the fold keeps provenance: the result gains a
    ``daemons`` list and a ``per_daemon`` section with each daemon's raw
    counters and gauges, so skew between daemons stays recoverable from
    the merged object (nothing is *silently* summed away).
    """
    if isinstance(snapshots, Mapping):
        items = list(snapshots.items())
        keyed = True
    else:
        items = [(None, snap) for snap in snapshots]
        keyed = False
    counters: dict[str, float] = {}
    gauges: dict[str, float] = {}
    merged_hists: dict[str, LatencyHistogram] = {}
    per_daemon: dict = {}
    for daemon, snap in items:
        for name, value in snap.get("counters", {}).items():
            counters[name] = counters.get(name, 0) + value
        for name, value in snap.get("gauges", {}).items():
            gauges[name] = gauges.get(name, 0) + value
        for name, state in snap.get("histograms", {}).items():
            hist = LatencyHistogram.from_state(state)
            if name in merged_hists:
                merged_hists[name].merge(hist)
            else:
                merged_hists[name] = hist
        if keyed:
            per_daemon[daemon] = {
                "counters": dict(snap.get("counters", {})),
                "gauges": dict(snap.get("gauges", {})),
            }
    merged = {
        "counters": counters,
        "gauges": gauges,
        "histograms": {name: h.summary() for name, h in merged_hists.items()},
    }
    if keyed:
        merged["daemons"] = sorted(per_daemon)
        merged["per_daemon"] = per_daemon
    return merged
