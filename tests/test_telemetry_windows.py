"""Metric windows, the cluster fold, and the SLO burn-rate engine."""

from __future__ import annotations

import pytest

from repro.models.observability import (
    flight_loss_bound,
    offset_error_bound,
    steady_burn_rate,
    time_to_budget_exhaustion,
    time_to_detect,
    windows_to_fire,
)
from repro.telemetry.histogram import LatencyHistogram
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.slo import (
    DEFAULT_RULES,
    DEFAULT_SLOS,
    SLO,
    BurnRateRule,
    SloEngine,
    render_slo_report,
)
from repro.telemetry.spans import TraceCollector
from repro.telemetry.windows import (
    MetricsWindows,
    fold_windows,
    merge_hist_states,
    state_fraction_above,
    state_percentile,
    subtract_hist_states,
)


class FakeClock:
    def __init__(self, start: float = 100.0):
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def _hist_state(durations) -> dict:
    hist = LatencyHistogram()
    hist.record_many(durations)
    return hist.to_state()


class TestHistStateMath:
    def test_subtract_is_bucketwise_delta(self):
        hist = LatencyHistogram()
        hist.record_many([0.001] * 10)
        before = hist.to_state()
        hist.record_many([0.100] * 5)
        delta = subtract_hist_states(hist.to_state(), before)
        assert delta["count"] == 5
        # Only the new observations survive: p50 of the delta is the slow one.
        assert state_percentile(delta, 50) == pytest.approx(0.1, rel=0.5)

    def test_subtract_from_empty_previous_is_identity(self):
        state = _hist_state([0.01, 0.02])
        assert subtract_hist_states(state, None) == state
        assert subtract_hist_states(state, {"count": 0}) == state

    def test_merge_sums_counts(self):
        merged = merge_hist_states([_hist_state([0.01] * 3), _hist_state([0.01] * 7)])
        assert merged["count"] == 10

    def test_merge_of_empties_is_none(self):
        assert merge_hist_states([{}, {"count": 0}]) is None

    def test_fraction_above_interpolates(self):
        state = _hist_state([0.001] * 50 + [0.5] * 50)
        assert state_fraction_above(state, 0.050) == pytest.approx(0.5, abs=0.05)
        assert state_fraction_above(state, 10.0) == 0.0
        assert state_fraction_above({}, 0.05) == 0.0


class TestMetricsWindows:
    def _registry(self):
        registry = MetricsRegistry()
        self.calls = 0
        registry.gauge("rpc.calls.gkfs_stat", lambda: self.calls)
        registry.gauge("server.queue_depth", lambda: 3)
        return registry

    def test_tick_captures_deltas_not_cumulatives(self):
        clock = FakeClock()
        registry = self._registry()
        windows = MetricsWindows(registry, interval=1.0, clock=clock, daemon_id=7)
        self.calls = 10
        registry.inc("rpc.errors.gkfs_stat", 2)
        registry.observe("rpc.latency.gkfs_stat", 0.004)
        clock.advance(1.0)
        first = windows.tick()
        assert first["gauge_deltas"]["rpc.calls.gkfs_stat"] == 10
        assert first["counters"]["rpc.errors.gkfs_stat"] == 2
        assert first["histograms"]["rpc.latency.gkfs_stat"]["count"] == 1
        assert first["gauges"]["server.queue_depth"] == 3
        self.calls = 25
        clock.advance(1.0)
        second = windows.tick()
        # Second window sees only the increment, not the cumulative 25.
        assert second["gauge_deltas"]["rpc.calls.gkfs_stat"] == 15
        assert second["counters"]["rpc.errors.gkfs_stat"] == 0
        assert second["histograms"]["rpc.latency.gkfs_stat"]["count"] == 0

    def test_maybe_tick_is_interval_gated(self):
        clock = FakeClock()
        windows = MetricsWindows(self._registry(), interval=1.0, clock=clock)
        assert not windows.maybe_tick()
        clock.advance(0.5)
        assert not windows.maybe_tick()
        clock.advance(0.6)
        assert windows.maybe_tick()
        assert not windows.maybe_tick()  # already captured this interval
        assert windows.ticks == 1

    def test_ring_evicts_oldest(self):
        clock = FakeClock()
        windows = MetricsWindows(self._registry(), interval=1.0, capacity=3, clock=clock)
        for i in range(5):
            self.calls = (i + 1) * 10
            clock.advance(1.0)
            windows.tick()
        assert len(windows.windows) == 3
        assert windows.ticks == 5
        # The retained deltas are the three most recent (each +10).
        assert all(w["gauge_deltas"]["rpc.calls.gkfs_stat"] == 10 for w in windows.windows)

    def test_to_wire_limit_and_provenance(self):
        clock = FakeClock()
        windows = MetricsWindows(self._registry(), interval=0.5, clock=clock, daemon_id=4)
        for _ in range(4):
            clock.advance(0.5)
            windows.tick()
        wire = windows.to_wire(limit=2)
        assert wire["daemon_id"] == 4
        assert wire["interval"] == 0.5
        assert wire["ticks"] == 4
        assert len(wire["windows"]) == 2

    def test_rate_is_per_second(self):
        clock = FakeClock()
        windows = MetricsWindows(self._registry(), interval=2.0, clock=clock)
        self.calls = 100
        clock.advance(2.0)
        windows.tick()
        assert windows.rate("rpc.calls.gkfs_stat") == pytest.approx(50.0)
        assert windows.rate("no.such.gauge") == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            MetricsWindows(MetricsRegistry(), interval=0)
        with pytest.raises(ValueError):
            MetricsWindows(MetricsRegistry(), capacity=0)


class TestFoldWindows:
    def _wire(self, daemon, deltas_list):
        return {
            "daemon_id": daemon,
            "interval": 1.0,
            "ticks": len(deltas_list),
            "windows": [
                {
                    "start": float(i),
                    "end": float(i + 1),
                    "counters": {},
                    "gauges": {"server.queue_depth": daemon},
                    "gauge_deltas": dict(deltas),
                    "histograms": {},
                }
                for i, deltas in enumerate(deltas_list)
            ],
        }

    def test_fold_sums_and_keeps_provenance(self):
        fold = fold_windows(
            {
                0: self._wire(0, [{"rpc.calls.gkfs_stat": 10}]),
                1: self._wire(1, [{"rpc.calls.gkfs_stat": 30}]),
            }
        )
        assert fold["daemons"] == [0, 1]
        assert fold["interval"] == 1.0
        window = fold["windows"][0]
        assert window["gauge_deltas"]["rpc.calls.gkfs_stat"] == 40
        # Per-daemon skew is recoverable from the fold alone.
        assert window["per_daemon"][0]["gauge_deltas"]["rpc.calls.gkfs_stat"] == 10
        assert window["per_daemon"][1]["gauge_deltas"]["rpc.calls.gkfs_stat"] == 30

    def test_fold_aligns_from_most_recent_backwards(self):
        fold = fold_windows(
            {
                0: self._wire(0, [{"x": 1}, {"x": 2}, {"x": 3}]),
                1: self._wire(1, [{"x": 30}]),
            }
        )
        # Shallowest daemon has one window -> one folded window, latest-aligned.
        assert len(fold["windows"]) == 1
        assert fold["windows"][0]["gauge_deltas"]["x"] == 33

    def test_fold_depth_bound(self):
        fold = fold_windows(
            {0: self._wire(0, [{"x": 1}, {"x": 2}, {"x": 3}])}, depth=2
        )
        assert [w["gauge_deltas"]["x"] for w in fold["windows"]] == [2, 3]

    def test_fold_empty(self):
        assert fold_windows({}) == {"daemons": [], "interval": None, "windows": []}

    def test_fold_merges_histograms(self):
        wire0 = self._wire(0, [{}])
        wire1 = self._wire(1, [{}])
        wire0["windows"][0]["histograms"] = {"rpc.latency.gkfs_stat": _hist_state([0.01] * 4)}
        wire1["windows"][0]["histograms"] = {"rpc.latency.gkfs_stat": _hist_state([0.01] * 6)}
        fold = fold_windows({0: wire0, 1: wire1})
        assert fold["windows"][0]["histograms"]["rpc.latency.gkfs_stat"]["count"] == 10


def _window(bad: int, good: int, errors: int = 0, calls: int = 0) -> dict:
    """One synthetic window: `bad` slow stats, `good` fast ones."""
    return {
        "start": 0.0,
        "end": 1.0,
        "counters": {"rpc.errors.gkfs_stat": errors} if errors else {},
        "gauges": {},
        "gauge_deltas": {"rpc.calls.gkfs_stat": calls} if calls else {},
        "histograms": {
            "rpc.latency.gkfs_stat": _hist_state([0.200] * bad + [0.001] * good)
        }
        if bad or good
        else {},
    }


class TestSloEngine:
    def test_slo_validation(self):
        with pytest.raises(ValueError):
            SLO(name="x", objective=1.5)
        with pytest.raises(ValueError):
            SLO(name="x", objective=0.99, kind="weird")
        with pytest.raises(ValueError):
            SLO(name="x", objective=0.99, kind="latency", threshold=0)
        with pytest.raises(ValueError):
            SLO(name="x", objective=0.99, kind="error", total="")

    def test_idle_windows_report_none_not_zero(self):
        engine = SloEngine()
        slo = DEFAULT_SLOS[2]  # meta-latency
        assert engine.burn_rate(slo, [_window(0, 0)], 1) is None

    def test_latency_burn_rate(self):
        engine = SloEngine()
        slo = SLO(name="meta", objective=0.99, kind="latency",
                  source="rpc.latency.gkfs_stat", threshold=0.025)
        # All observations bad -> bad fraction 1.0 -> burn 1/0.01 = 100x.
        burn = engine.burn_rate(slo, [_window(bad=10, good=0)], 1)
        assert burn == pytest.approx(100.0, rel=0.05)
        # Half bad -> 50x.
        burn = engine.burn_rate(slo, [_window(bad=10, good=10)], 1)
        assert burn == pytest.approx(50.0, rel=0.15)

    def test_error_burn_rate_counters_vs_call_mirror(self):
        engine = SloEngine()
        slo = SLO(name="errors", objective=0.999, kind="error",
                  source="rpc.errors.*", total="rpc.calls.*")
        burn = engine.burn_rate(slo, [_window(0, 0, errors=1, calls=1000)], 1)
        assert burn == pytest.approx(1.0, rel=0.01)

    def test_rule_needs_both_windows_hot(self):
        engine = SloEngine(
            slos=[SLO(name="meta", objective=0.99, kind="latency",
                      source="rpc.latency.gkfs_stat", threshold=0.025)],
            rules=[BurnRateRule(short=1, long=3, burn=10.0)],
        )
        # Latest window burns ~15x (above threshold) but diluted over the
        # long window it is only ~5x: short hot, long cool, no alert.
        cool = {"windows": [_window(0, 100), _window(0, 100), _window(15, 85)]}
        report = engine.evaluate(cool)
        assert report["alerts"] == []
        # Three hot windows: both cross, the rule fires.
        hot = {"windows": [_window(100, 0)] * 3}
        report = engine.evaluate(hot)
        assert len(report["alerts"]) == 1
        alert = report["alerts"][0]
        assert alert["slo"] == "meta"
        assert alert["short_burn"] >= 10.0 and alert["long_burn"] >= 10.0

    def test_evaluate_and_emit_reaches_stream_and_health(self):
        from repro.rpc.health import DaemonHealthTracker

        engine = SloEngine(
            slos=[SLO(name="meta", objective=0.99, kind="latency",
                      source="rpc.latency.gkfs_stat", threshold=0.025)],
            rules=[BurnRateRule(short=1, long=1, burn=10.0, severity="page")],
        )
        collector = TraceCollector()
        health = DaemonHealthTracker()
        report = engine.evaluate_and_emit(
            {"windows": [_window(50, 0)]}, collector=collector, health=health
        )
        assert report["alerts"]
        events = [e for e in collector.events if e.name == "slo.burn_rate"]
        assert events and events[0].args["slo"] == "meta"
        alerts = health.recent_slo_alerts()
        assert alerts and alerts[0]["slo"] == "meta"
        assert alerts[0]["severity"] == "page"

    def test_a_raising_sink_is_counted_and_the_rest_still_fire(self):
        engine = SloEngine(
            slos=[SLO(name="meta", objective=0.99, kind="latency",
                      source="rpc.latency.gkfs_stat", threshold=0.025)],
            rules=[BurnRateRule(short=1, long=1, burn=10.0, severity="page")],
        )
        delivered: list = []

        def broken(alert):
            raise RuntimeError("consumer down")

        engine.add_sink(delivered.append)
        engine.add_sink(broken)
        engine.add_sink(lambda alert: delivered.append(alert["severity"]))
        collector = TraceCollector()
        report = engine.evaluate_and_emit({"windows": [_window(50, 0)]}, collector=collector)
        assert len(report["alerts"]) == 1
        assert engine.sink_errors == report["sink_errors"] == 1
        assert [a if isinstance(a, str) else a["slo"] for a in delivered] == ["meta", "page"]
        assert [e.args["slo"] for e in collector.events if e.name == "slo.burn_rate"] == ["meta"]
        engine.evaluate_and_emit({"windows": [_window(50, 0)]})
        assert engine.sink_errors == 2

    def test_render_report_mentions_alerts(self):
        engine = SloEngine(
            slos=[SLO(name="meta", objective=0.99, kind="latency",
                      source="rpc.latency.gkfs_stat", threshold=0.025)],
            rules=[BurnRateRule(short=1, long=1, burn=10.0)],
        )
        text = render_slo_report(engine.evaluate({"windows": [_window(50, 0)]}))
        assert "ALERT" in text and "meta" in text
        text = render_slo_report(engine.evaluate({"windows": [_window(0, 50)]}))
        assert "no alerts firing" in text


class TestAnalyticTwin:
    def test_steady_burn(self):
        assert steady_burn_rate(0.10, 0.99) == pytest.approx(10.0)
        assert steady_burn_rate(0.0, 0.999) == 0.0

    def test_too_mild_failures_never_fire(self):
        # 0.5% bad against a 99% objective burns at 0.5x: below every rule.
        assert time_to_detect(0.005, 0.99, DEFAULT_RULES, interval=1.0) is None

    def test_hard_burn_pages_fast(self):
        # Total failure against 99%: burn 100x; the 3/15 page rule needs
        # ceil(10 * 0.01 * 15 / 1.0) = 2 windows (long window dominates).
        detect = time_to_detect(1.0, 0.99, DEFAULT_RULES, interval=1.0)
        assert detect == 2.0

    def test_engine_fires_exactly_when_twin_predicts(self):
        """Step failure, constant bad fraction: the measured engine must
        first fire on the window index the closed form gives."""
        # 0.6 keeps every crossing strictly off the threshold boundary, so
        # float noise in the bucket math cannot shift the firing window.
        objective = 0.99
        bad_fraction = 0.6
        rule = BurnRateRule(short=3, long=15, burn=10.0)
        engine = SloEngine(
            slos=[SLO(name="meta", objective=objective, kind="latency",
                      source="rpc.latency.gkfs_stat", threshold=0.025)],
            rules=[rule],
        )
        predicted = windows_to_fire(rule, bad_fraction, objective)
        assert predicted is not None
        windows: list = [_window(0, 100)] * 30  # healthy history
        fired_at = None
        for k in range(1, 25):
            windows.append(_window(bad=60, good=40))
            report = engine.evaluate({"windows": windows})
            if report["alerts"]:
                fired_at = k
                break
        assert fired_at == predicted

    def test_budget_exhaustion(self):
        # 100% bad vs 99.9% objective: a 30-day budget gone in 30d/1000.
        horizon = 30 * 24 * 3600.0
        t = time_to_budget_exhaustion(1.0, 0.999, horizon)
        assert t == pytest.approx(horizon / 1000.0)
        assert time_to_budget_exhaustion(0.0, 0.999, horizon) is None

    def test_bounds(self):
        assert offset_error_bound(0.004) == 0.002
        assert flight_loss_bound(0.5) == 0.5
        with pytest.raises(ValueError):
            offset_error_bound(-1.0)
        with pytest.raises(ValueError):
            flight_loss_bound(0.0)
        with pytest.raises(ValueError):
            steady_burn_rate(2.0, 0.99)
        with pytest.raises(ValueError):
            steady_burn_rate(0.5, 1.0)
