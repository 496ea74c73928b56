"""Flight recorder: the per-daemon black box and its crash recoverability.

The unit half exercises the file format (atomic write, capacity bound,
format validation, rendering).  The integration half proves the property
the recorder exists for: after an uncatchable SIGKILL the file on disk
still holds the daemon's recent history — at most one ticker interval
stale — and ``repro postmortem`` machinery can read it back.
"""

from __future__ import annotations

import json
import os
import time

import pytest

from repro.core.config import FSConfig
from repro.net import LocalSocketCluster, ProcessCluster
from repro.telemetry import (
    FLIGHT_FORMAT,
    FlightRecorder,
    find_flight_dumps,
    load_flight_dump,
    render_flight_dump,
)
from repro.telemetry.spans import TraceCollector
from repro.telemetry.windows import MetricsWindows


def _collector_with_spans(n: int) -> TraceCollector:
    collector = TraceCollector()
    for i in range(n):
        collector.record_span(
            f"op-{i}", "daemon", start=float(i), duration=0.001,
            pid=1, tid=1, span_id=f"s{i}",
        )
    return collector


class TestFlightRecorderUnit:
    def test_dump_round_trips_through_load(self, tmp_path):
        collector = _collector_with_spans(3)
        collector.instant("mark", "test", step=7)
        recorder = FlightRecorder(5, str(tmp_path), collector=collector)
        path = recorder.dump("crash", errno=5)
        assert os.path.basename(path) == "flight-d5.json"
        payload = load_flight_dump(path)
        assert payload["format"] == FLIGHT_FORMAT
        assert payload["daemon_id"] == 5
        assert payload["reason"] == "crash"
        assert payload["context"] == {"errno": 5}
        assert [s.name for s in payload["span_records"]] == ["op-0", "op-1", "op-2"]
        assert payload["event_records"][0].args == {"step": 7}

    def test_capacity_bounds_every_stream(self, tmp_path):
        class Clock:
            now = 0.0
            def __call__(self):
                return self.now
        clock = Clock()
        from repro.telemetry.metrics import MetricsRegistry
        metrics = MetricsRegistry()
        windows = MetricsWindows(metrics, interval=1.0, capacity=64, clock=clock)
        collector = _collector_with_spans(50)
        for _ in range(10):
            metrics.inc("ticks")
            clock.now += 1.0
            windows.maybe_tick()
        recorder = FlightRecorder(
            0, str(tmp_path), capacity=4, collector=collector, windows=windows
        )
        payload = load_flight_dump(recorder.dump("shutdown"))
        assert len(payload["spans"]) == 4
        assert len(payload["windows"]) <= 4
        # The *most recent* spans survive, not the oldest.
        assert payload["span_records"][-1].name == "op-49"

    def test_flush_is_the_periodic_reason(self, tmp_path):
        recorder = FlightRecorder(1, str(tmp_path))
        recorder.flush()
        recorder.flush()
        payload = load_flight_dump(recorder.path)
        assert payload["reason"] == "periodic"
        assert payload["flushes"] == 2
        assert recorder.flushes == 2

    def test_terminal_dump_overwrites_periodic_flush(self, tmp_path):
        recorder = FlightRecorder(1, str(tmp_path))
        recorder.flush()
        recorder.dump("sigterm")
        assert load_flight_dump(recorder.path)["reason"] == "sigterm"

    def test_write_leaves_no_tmp_litter(self, tmp_path):
        recorder = FlightRecorder(2, str(tmp_path))
        recorder.flush()
        recorder.dump("shutdown")
        assert sorted(os.listdir(tmp_path)) == ["flight-d2.json"]

    def test_capacity_validated(self, tmp_path):
        with pytest.raises(ValueError):
            FlightRecorder(0, str(tmp_path), capacity=0)

    def test_load_rejects_foreign_json(self, tmp_path):
        path = tmp_path / "flight-d9.json"
        path.write_text(json.dumps({"format": "not-a-flight"}))
        with pytest.raises(ValueError, match="not a flight dump"):
            load_flight_dump(str(path))

    def test_find_sorts_by_daemon_id_numerically(self, tmp_path):
        for daemon in (10, 2, 0):
            FlightRecorder(daemon, str(tmp_path)).flush()
        (tmp_path / "unrelated.json").write_text("{}")
        found = [os.path.basename(p) for p in find_flight_dumps(str(tmp_path))]
        assert found == ["flight-d0.json", "flight-d2.json", "flight-d10.json"]

    def test_find_on_missing_directory_is_empty(self, tmp_path):
        assert find_flight_dumps(str(tmp_path / "nope")) == []

    def test_render_names_reason_and_tail_of_history(self, tmp_path):
        collector = _collector_with_spans(30)
        recorder = FlightRecorder(3, str(tmp_path), collector=collector)
        payload = load_flight_dump(recorder.dump("quarantine", chunk="f:0"))
        text = render_flight_dump(payload, tail=5)
        assert "daemon 3" in text
        assert "reason='quarantine'" in text
        assert '"chunk": "f:0"' in text
        assert "op-29" in text, "tail must show the most recent span"
        assert "op-10" not in text, "tail=5 must not show deep history"


class TestServedDaemonFlight:
    """In-process socket daemons: ticker flush plus stop-path re-stamps."""

    def test_ticker_flushes_without_any_rpc_asking(self, tmp_path):
        config = FSConfig(
            chunk_size=4096,
            telemetry_enabled=True,
            flight_recorder_dir=str(tmp_path),
            metrics_window_interval=0.05,
        )
        with LocalSocketCluster(1, config) as cluster:
            client = cluster.client(0)
            fd = client.open("/gkfs/fly.bin", os.O_CREAT | os.O_RDWR)
            client.pwrite(fd, b"x" * 4096, 0)
            client.close(fd)
            deadline = time.monotonic() + 5.0
            path = os.path.join(str(tmp_path), "flight-d0.json")
            while not os.path.exists(path) and time.monotonic() < deadline:
                time.sleep(0.02)
            assert os.path.exists(path), "ticker never flushed the recorder"
            assert load_flight_dump(path)["reason"] == "periodic"

    def test_crash_and_shutdown_stamp_their_reasons(self, tmp_path):
        config = FSConfig(
            chunk_size=4096,
            telemetry_enabled=True,
            flight_recorder_dir=str(tmp_path),
            metrics_window_interval=60.0,  # ticker stays quiet
        )
        with LocalSocketCluster(2, config) as cluster:
            client = cluster.client(0)
            fd = client.open("/gkfs/fly.bin", os.O_CREAT | os.O_RDWR)
            client.pwrite(fd, b"y" * 8192, 0)
            client.close(fd)
            cluster.crash_daemon(1)
            crashed = load_flight_dump(os.path.join(str(tmp_path), "flight-d1.json"))
            assert crashed["reason"] == "crash"
        # Context exit drained daemon 0 gracefully.
        clean = load_flight_dump(os.path.join(str(tmp_path), "flight-d0.json"))
        assert clean["reason"] == "shutdown"
        assert clean["spans"], "graceful dump must retain handler spans"


class TestProcessClusterFlight:
    """The ISSUE acceptance: a dump recovered after SIGKILL, across real
    OS processes where no handler could possibly have run at kill time."""

    @pytest.fixture(scope="class")
    def aftermath(self, tmp_path_factory):
        flight_dir = tmp_path_factory.mktemp("flight")
        config = FSConfig(
            chunk_size=4096,
            telemetry_enabled=True,
            degraded_mode=True,
            flight_recorder_dir=str(flight_dir),
            metrics_window_interval=0.1,
        )
        with ProcessCluster(2, config) as cluster:
            client = cluster.client(0)
            fd = client.open("/gkfs/box.bin", os.O_CREAT | os.O_RDWR)
            data = os.urandom(4 * 4096)
            client.pwrite(fd, data, 0)
            client.pread(fd, len(data), 0)
            client.close(fd)
            # Wait for at least one periodic flush from the victim — and
            # from the survivor: its beat ticks the window ring first, and
            # the drained dump is asserted to carry window history.
            paths = [
                os.path.join(str(flight_dir), f"flight-d{node}.json") for node in (0, 1)
            ]
            deadline = time.monotonic() + 10.0
            while not all(map(os.path.exists, paths)) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert all(map(os.path.exists, paths)), "no periodic flush before the kill"
            cluster.crash_daemon(1)
            exit_code = cluster.terminate_daemon(0)
        return {"dir": str(flight_dir), "sigterm_exit": exit_code}

    def test_sigkill_leaves_a_readable_black_box(self, aftermath):
        payload = load_flight_dump(os.path.join(aftermath["dir"], "flight-d1.json"))
        assert payload["format"] == FLIGHT_FORMAT
        assert payload["daemon_id"] == 1
        # SIGKILL cannot run a handler: the file is the last periodic beat.
        assert payload["reason"] == "periodic"
        assert payload["span_records"], "black box must hold pre-kill spans"
        assert {s.name for s in payload["span_records"]} & {
            "gkfs_write_chunks", "gkfs_read_chunks", "gkfs_create", "gkfs_stat"
        }

    def test_sigterm_drains_and_stamps_the_signal(self, aftermath):
        assert aftermath["sigterm_exit"] == 0
        payload = load_flight_dump(os.path.join(aftermath["dir"], "flight-d0.json"))
        assert payload["reason"] == "sigterm"
        assert payload["windows"], "drained dump must carry window history"

    def test_postmortem_lists_both_daemons(self, aftermath):
        found = find_flight_dumps(aftermath["dir"])
        assert [os.path.basename(p) for p in found] == [
            "flight-d0.json", "flight-d1.json"
        ]
        for path in found:
            assert "span" in render_flight_dump(load_flight_dump(path))
