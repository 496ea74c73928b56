"""SLO definitions and multi-window burn-rate alerting.

An :class:`SLO` states an objective over the existing metric planes:

* ``latency`` SLOs count an observation as *bad* when it lands above a
  threshold in a latency histogram (``rpc.latency.*`` per-handler
  histograms from the RPC engine, or any other registered histogram);
* ``error`` SLOs count *bad* from an error-counter delta against a
  total taken from a counter or cumulative-gauge delta (the engine's
  ``rpc.errors.{handler}`` counters against the ``rpc.calls.{handler}``
  mirrors).

Evaluation runs over :class:`~repro.telemetry.windows.MetricsWindows`
wire dumps (single daemon) or :func:`~repro.telemetry.windows.fold_windows`
output (cluster), using the SRE multi-window burn-rate recipe: with an
objective of ``p`` the error budget is ``1 - p``; the burn rate of a
trailing window is ``bad_fraction / (1 - p)`` (1.0 = budget exactly
exhausted at the objective horizon).  A rule fires only when **both**
its short and long trailing windows burn above the rule's threshold —
the short window gives fast detection, the long window keeps one noisy
interval from paging.  Fired alerts become ``slo.burn_rate`` instants
in the PR-3 event stream and are surfaced through the health tracker's
:meth:`~repro.rpc.health.DaemonHealthTracker.note_slo_alert`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.telemetry.windows import state_fraction_above

__all__ = [
    "SLO",
    "BurnRateRule",
    "DEFAULT_RULES",
    "DEFAULT_SLOS",
    "SloEngine",
    "render_slo_report",
]


@dataclass(frozen=True)
class BurnRateRule:
    """Fire when the short AND long trailing windows both burn this hot.

    ``short``/``long`` are window counts (multiples of the capture
    interval), not wall seconds — the engine is interval-agnostic.
    """

    short: int
    long: int
    burn: float
    severity: str = "page"


#: Classic two-rule ladder scaled to 1s-ish windows: a hard burn caught
#: within a few intervals pages; a slow sustained burn tickets.
DEFAULT_RULES: Tuple[BurnRateRule, ...] = (
    BurnRateRule(short=3, long=15, burn=10.0, severity="page"),
    BurnRateRule(short=15, long=60, burn=2.0, severity="ticket"),
)


@dataclass(frozen=True)
class SLO:
    """One objective.

    :param name: alert/report label, e.g. ``"write-p-latency"``.
    :param objective: good fraction promised, e.g. ``0.99``.
    :param kind: ``"latency"`` or ``"error"``.
    :param source: metric name the *bad* events come from.  A trailing
        ``*`` makes it a prefix match.  For ``latency`` this names
        histogram(s); for ``error`` it names counter(s) (falling back to
        gauge deltas when no counter matches).
    :param threshold: latency kind only — seconds above which an
        observation is bad.
    :param total: error kind only — metric name (counter or cumulative
        gauge, ``*`` prefix allowed) supplying the total event count.
    """

    name: str
    objective: float
    kind: str = "latency"
    source: str = "rpc.latency.*"
    threshold: float = 0.0
    total: str = ""

    def __post_init__(self):
        if not 0.0 < self.objective < 1.0:
            raise ValueError(f"objective must be in (0, 1), got {self.objective}")
        if self.kind not in ("latency", "error"):
            raise ValueError(f"unknown SLO kind {self.kind!r}")
        if self.kind == "latency" and self.threshold <= 0:
            raise ValueError("latency SLO needs a positive threshold")
        if self.kind == "error" and not self.total:
            raise ValueError("error SLO needs a total metric name")

    @property
    def budget(self) -> float:
        return 1.0 - self.objective


#: Stock cluster SLOs over metrics every daemon already exports.  Data
#: ops promise 50ms at the 99th percentile (generous for an in-memory
#: reproduction; chaos latency injection blows through it on purpose),
#: metadata ops 25ms, and the error SLO burns on any failed handler.
DEFAULT_SLOS: Tuple[SLO, ...] = (
    SLO(name="data-latency", objective=0.99, kind="latency",
        source="rpc.latency.gkfs_write_chunks", threshold=0.050),
    SLO(name="read-latency", objective=0.99, kind="latency",
        source="rpc.latency.gkfs_read_chunks", threshold=0.050),
    SLO(name="meta-latency", objective=0.99, kind="latency",
        source="rpc.latency.gkfs_stat", threshold=0.025),
    SLO(name="rpc-errors", objective=0.999, kind="error",
        source="rpc.errors.*", total="rpc.calls.*"),
)


def _matches(pattern: str, name: str) -> bool:
    if pattern.endswith("*"):
        return name.startswith(pattern[:-1])
    return name == pattern


def _sum_matching(values: Mapping, pattern: str) -> float:
    return sum(v for k, v in values.items() if _matches(pattern, k))


class SloEngine:
    """Evaluate SLOs over window streams and emit alerts.

    Stateless with respect to the streams (windows carry the history);
    holds only the definitions and rule ladder.
    """

    def __init__(
        self,
        slos: Sequence[SLO] = DEFAULT_SLOS,
        rules: Sequence[BurnRateRule] = DEFAULT_RULES,
    ):
        self.slos = tuple(slos)
        self.rules = tuple(rules)
        self._sinks: List = []
        #: Deliveries a sink raised on (also in each emitted report).
        self.sink_errors = 0

    # -- push-mode delivery ---------------------------------------------------

    def add_sink(self, sink) -> None:
        """Register a push-mode alert consumer.

        ``sink`` is any callable taking one alert dict (the same shape
        the report's ``alerts`` list carries).  Every alert fired by
        :meth:`evaluate_and_emit` is delivered to every sink — this is
        how the self-healing supervisor and ``repro top`` hear about
        burns without polling.  A sink that raises is dropped from that
        delivery only; alerting must never take down the evaluator.
        """
        if not callable(sink):
            raise TypeError(f"sink must be callable, got {type(sink).__name__}")
        self._sinks.append(sink)

    def remove_sink(self, sink) -> None:
        """Unregister a sink previously added; unknown sinks are ignored."""
        try:
            self._sinks.remove(sink)
        except ValueError:
            pass

    # -- per-window accounting ------------------------------------------------

    def _window_events(self, slo: SLO, window: Mapping) -> Tuple[float, float]:
        """(bad, total) contributed by one window."""
        if slo.kind == "latency":
            bad = total = 0.0
            for name, state in window.get("histograms", {}).items():
                if not _matches(slo.source, name) or not state:
                    continue
                count = state.get("count", 0)
                if not count:
                    continue
                total += count
                bad += count * state_fraction_above(state, slo.threshold)
            return bad, total
        counters = window.get("counters", {})
        gauge_deltas = window.get("gauge_deltas", {})
        bad = _sum_matching(counters, slo.source)
        if not bad:
            bad = _sum_matching(gauge_deltas, slo.source)
        total = _sum_matching(counters, slo.total)
        if not total:
            total = _sum_matching(gauge_deltas, slo.total)
        return bad, max(bad, total)

    def burn_rate(self, slo: SLO, windows: Sequence[Mapping], span: int) -> Optional[float]:
        """Burn rate over the trailing ``span`` windows; None when idle.

        An idle window range (zero total events) has no defined bad
        fraction — returning None keeps quiet periods from reading as
        either perfect health or total failure.
        """
        bad = total = 0.0
        for window in windows[-span:]:
            b, t = self._window_events(slo, window)
            bad += b
            total += t
        if total <= 0:
            return None
        return (bad / total) / slo.budget

    # -- reports --------------------------------------------------------------

    def evaluate(self, wire: Mapping) -> dict:
        """SLO report over one window stream.

        ``wire`` is either a single :meth:`MetricsWindows.to_wire` dump
        or a :func:`fold_windows` cluster fold — both carry a
        ``windows`` list of delta windows.
        """
        windows = list(wire.get("windows", []))
        report = {
            "daemon_id": wire.get("daemon_id"),
            "daemons": wire.get("daemons"),
            "interval": wire.get("interval"),
            "window_count": len(windows),
            "slos": [],
            "alerts": [],
        }
        for slo in self.slos:
            current = self.burn_rate(slo, windows, 1)
            entry = {
                "name": slo.name,
                "kind": slo.kind,
                "objective": slo.objective,
                "threshold": slo.threshold if slo.kind == "latency" else None,
                "burn_rate": current,
                "rules": [],
            }
            for rule in self.rules:
                short = self.burn_rate(slo, windows, rule.short)
                long = self.burn_rate(slo, windows, rule.long)
                fired = (
                    short is not None
                    and long is not None
                    and short >= rule.burn
                    and long >= rule.burn
                )
                entry["rules"].append(
                    {
                        "short": rule.short,
                        "long": rule.long,
                        "burn": rule.burn,
                        "severity": rule.severity,
                        "short_burn": short,
                        "long_burn": long,
                        "fired": fired,
                    }
                )
                if fired:
                    report["alerts"].append(
                        {
                            "slo": slo.name,
                            "severity": rule.severity,
                            "burn": rule.burn,
                            "short_windows": rule.short,
                            "long_windows": rule.long,
                            "short_burn": short,
                            "long_burn": long,
                            "objective": slo.objective,
                            "daemon_id": wire.get("daemon_id"),
                        }
                    )
            report["slos"].append(entry)
        return report

    def evaluate_and_emit(self, wire: Mapping, collector=None, health=None) -> dict:
        """Evaluate, then push fired alerts into the event stream/health.

        Each alert becomes a ``slo.burn_rate`` instant (PR-3 stream), a
        :meth:`note_slo_alert` on the health tracker when provided, and
        one call per registered push sink (:meth:`add_sink`); a sink that
        raises is counted in ``sink_errors``.
        """
        report = self.evaluate(wire)
        for alert in report["alerts"]:
            for sink in tuple(self._sinks):
                try:
                    sink(dict(alert))
                except Exception:  # a broken consumer must not break evaluation
                    self.sink_errors += 1
            if collector is not None:
                collector.instant(
                    "slo.burn_rate",
                    "slo",
                    slo=alert["slo"],
                    severity=alert["severity"],
                    short_burn=round(alert["short_burn"], 3),
                    long_burn=round(alert["long_burn"], 3),
                )
            if health is not None:
                health.note_slo_alert(
                    alert["slo"],
                    severity=alert["severity"],
                    burn=alert["short_burn"],
                    daemon=alert.get("daemon_id"),
                )
        report["sink_errors"] = self.sink_errors
        return report


def render_slo_report(report: Mapping) -> str:
    """Human-readable SLO report (``repro metrics --connect`` / `top`)."""
    lines = []
    scope = (
        f"daemon {report['daemon_id']}"
        if report.get("daemon_id") is not None
        else f"cluster daemons={report.get('daemons')}"
    )
    lines.append(
        f"SLO report · {scope} · {report.get('window_count', 0)} windows"
        f" @ {report.get('interval')}s"
    )
    for entry in report.get("slos", []):
        burn = entry.get("burn_rate")
        burn_s = f"{burn:6.2f}x" if burn is not None else "  idle "
        lines.append(
            f"  {entry['name']:<16} obj={entry['objective']:.3f}"
            f" burn={burn_s}"
            + (f" thr={entry['threshold'] * 1000:.0f}ms" if entry.get("threshold") else "")
        )
    alerts = report.get("alerts", [])
    if alerts:
        for alert in alerts:
            lines.append(
                f"  ALERT [{alert['severity']}] {alert['slo']}:"
                f" burn {alert['short_burn']:.1f}x/{alert['long_burn']:.1f}x"
                f" over {alert['short_windows']}/{alert['long_windows']} windows"
                f" (threshold {alert['burn']}x)"
            )
    else:
        lines.append("  no alerts firing")
    return "\n".join(lines)
