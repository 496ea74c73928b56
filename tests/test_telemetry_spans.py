"""TraceCollector: span context, recording, export round-trip, timeline."""

import json
import threading

import pytest

from repro.telemetry.spans import (
    CLIENT_PID,
    DAEMON_PID_BASE,
    InstantEvent,
    SpanRecord,
    TraceCollector,
    ascii_timeline,
    parse_chrome_trace,
)


class FakeClock:
    def __init__(self):
        self.t = 100.0

    def __call__(self):
        return self.t

    def advance(self, dt):
        self.t += dt


@pytest.fixture
def collector():
    return TraceCollector(clock=FakeClock())


class TestContext:
    def test_no_context_outside_spans(self, collector):
        assert collector.current() is None

    def test_push_allocates_fresh_request(self, collector):
        ctx, token = collector.push()
        assert ctx.request_id.startswith("r")
        assert ctx.span_id.startswith("s")
        assert ctx.parent_span is None
        assert collector.current() is ctx
        collector.pop(token)
        assert collector.current() is None

    def test_nested_push_inherits_request_chains_parent(self, collector):
        outer, t1 = collector.push()
        inner, t2 = collector.push()
        assert inner.request_id == outer.request_id
        assert inner.parent_span == outer.span_id
        assert inner.span_id != outer.span_id
        collector.pop(t2)
        assert collector.current() is outer
        collector.pop(t1)

    def test_ids_are_unique_across_threads(self, collector):
        ids = []
        lock = threading.Lock()

        def grab():
            got = [collector.new_span_id() for _ in range(200)]
            with lock:
                ids.extend(got)

        threads = [threading.Thread(target=grab) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert len(set(ids)) == 800

    def test_context_is_per_thread(self, collector):
        seen = {}

        def worker():
            seen["other"] = collector.current()

        _ctx, token = collector.push()
        t = threading.Thread(target=worker)
        t.start()
        t.join()
        # A new thread starts with a fresh contextvars context.
        assert seen["other"] is None
        collector.pop(token)


class TestRecording:
    def test_record_span_assigns_monotonic_seq(self, collector):
        collector.record_span("a", "client", 0.0, 1.0, pid=0, tid=0, span_id="s1")
        collector.record_span("b", "client", 0.5, 1.0, pid=0, tid=0, span_id="s2")
        a, b = collector.spans
        assert b.seq == a.seq + 1

    def test_instants_share_the_seq_stream(self, collector):
        collector.record_span("a", "client", 0.0, 1.0, pid=0, tid=0, span_id="s1")
        collector.instant("fault.crash", "fault", target=2)
        span, event = collector.spans[0], collector.events[0]
        assert event.seq == span.seq + 1
        assert event.args == {"target": 2}

    def test_now_uses_collector_epoch(self, collector):
        assert collector.now() == 0.0
        collector._clock.advance(2.5)
        assert collector.now() == pytest.approx(2.5)

    def test_queries(self, collector):
        collector.record_span("op", "client", 0.0, 2.0, pid=0, tid=0, span_id="p")
        parent = collector.spans[0]
        collector.record_span(
            "h", "daemon", 0.5, 1.0, pid=1000, tid=1, span_id="c",
            request_id="r1", parent_span="p",
        )
        assert [s.name for s in collector.spans_named("op")] == ["op"]
        assert [s.name for s in collector.children_of(parent)] == ["h"]
        assert [s.name for s in collector.request_tree("r1")] == ["h"]

    def test_clear_keeps_id_counter(self, collector):
        collector.record_span("a", "client", 0.0, 1.0, pid=0, tid=0, span_id="x")
        before = collector.new_span_id()
        collector.clear()
        assert collector.spans == [] and collector.events == []
        assert collector.new_span_id() != before


class TestChromeExport:
    def _populate(self, collector):
        collector.record_span(
            "pwrite", "client", 0.001, 0.004, pid=CLIENT_PID, tid=3,
            span_id="s1", request_id="r1", args={"bytes": 42},
        )
        collector.record_span(
            "gkfs_write_chunks", "daemon", 0.002, 0.001, pid=DAEMON_PID_BASE + 2,
            tid=7, span_id="d1", request_id="r1", parent_span="s1",
            error="NotFoundError",
        )
        collector.instant("fault.crash", "fault", target=2)

    def test_export_shape(self, collector):
        self._populate(collector)
        trace = collector.to_chrome_trace()
        assert set(trace) == {"traceEvents", "displayTimeUnit"}
        phases = [e["ph"] for e in trace["traceEvents"]]
        assert phases == ["X", "X", "i"]
        span = trace["traceEvents"][0]
        assert span["ts"] == pytest.approx(1000)  # microseconds
        assert span["dur"] == pytest.approx(4000)
        assert span["args"]["request_id"] == "r1"
        assert span["args"]["bytes"] == 42

    def test_round_trip_preserves_records(self, collector):
        self._populate(collector)
        spans, events = parse_chrome_trace(collector.to_chrome_json())
        assert [s.name for s in spans] == ["pwrite", "gkfs_write_chunks"]
        daemon = spans[1]
        assert daemon.parent_span == "s1"
        assert daemon.request_id == "r1"
        assert daemon.error == "NotFoundError"
        assert daemon.pid == DAEMON_PID_BASE + 2
        assert [e.name for e in events] == ["fault.crash"]
        assert events[0].args == {"target": 2}

    def test_json_is_plain_and_loadable(self, collector):
        self._populate(collector)
        payload = json.loads(collector.to_chrome_json())
        assert isinstance(payload["traceEvents"], list)

    @pytest.mark.parametrize(
        "bad",
        [
            "[]",  # not an object
            '{"events": []}',  # wrong key
            '{"traceEvents": [{"ph": "X", "name": "x"}]}',  # no ts
            '{"traceEvents": [{"ph": "X", "name": "x", "ts": 0}]}',  # no dur
            '{"traceEvents": [{"ph": "B", "name": "x", "ts": 0}]}',  # bad phase
            '{"traceEvents": [42]}',  # entry not an object
        ],
    )
    def test_parse_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_chrome_trace(bad)

    def test_parse_accepts_dict_input(self, collector):
        self._populate(collector)
        spans, _events = parse_chrome_trace(collector.to_chrome_trace())
        assert len(spans) == 2


class TestAsciiTimeline:
    def test_orders_chronologically_and_indents_children(self, collector):
        # Child records BEFORE parent (real finish order) but must still
        # render under it, indented.
        collector.record_span(
            "gkfs_create", "daemon", 0.002, 0.001, pid=DAEMON_PID_BASE, tid=0,
            span_id="d1", request_id="r1", parent_span="s1",
        )
        collector.record_span(
            "open", "client", 0.001, 0.003, pid=CLIENT_PID, tid=0,
            span_id="s1", request_id="r1",
        )
        out = ascii_timeline(collector)
        lines = out.splitlines()
        open_line = next(i for i, l in enumerate(lines) if " open" in l)
        create_line = next(i for i, l in enumerate(lines) if "gkfs_create" in l)
        assert open_line < create_line
        assert ". gkfs_create" in lines[create_line]

    def test_instants_and_truncation(self, collector):
        for i in range(5):
            collector.record_span(
                f"op{i}", "client", i * 0.001, 0.001, pid=0, tid=0, span_id=f"s{i}"
            )
        collector.instant("fault.crash", "fault", target=1)
        out = ascii_timeline(collector, limit=3)
        assert "3 more rows truncated" in out
        full = ascii_timeline(collector)
        assert "fault.crash" in full
