"""Command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "repro" in capsys.readouterr().out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_size_parsing_in_ior_args(self):
        args = build_parser().parse_args(
            ["ior", "--transfer-size", "8k", "--block-size", "1m"]
        )
        assert args.transfer_size == 8192
        assert args.block_size == 1024 * 1024


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "512 KiB" in out
        assert "mountpoint" in out

    def test_mdtest(self, capsys):
        assert main(["mdtest", "--nodes", "2", "--procs", "2", "--files-per-proc", "10"]) == 0
        out = capsys.readouterr().out
        assert "create" in out and "stat" in out and "remove" in out
        assert "20 files" in out

    def test_mdtest_unique_dir(self, capsys):
        assert main(["mdtest", "--procs", "2", "--files-per-proc", "5", "--unique-dir"]) == 0
        assert "unique dir" in capsys.readouterr().out

    def test_ior(self, capsys):
        assert main(
            ["ior", "--nodes", "2", "--procs", "2",
             "--transfer-size", "4k", "--block-size", "64k"]
        ) == 0
        out = capsys.readouterr().out
        assert "write" in out and "read" in out

    def test_ior_shared_random_cached(self, capsys):
        assert main(
            ["ior", "--procs", "2", "--transfer-size", "4k", "--block-size", "32k",
             "--shared-file", "--random", "--size-cache"]
        ) == 0
        out = capsys.readouterr().out
        assert "shared" in out and "random" in out

    def test_figures_single_panel(self, capsys):
        assert main(["figures", "fig2a"]) == 0
        out = capsys.readouterr().out
        assert "Figure 2a" in out
        assert "GekkoFS" in out and "Lustre" in out

    def test_figures_all_with_plot(self, capsys):
        assert main(["figures", "--plot"]) == 0
        out = capsys.readouterr().out
        for label in ("Figure 2a", "Figure 2b", "Figure 2c", "Figure 3a", "Figure 3b"):
            assert label in out
        assert "[log-log]" in out

    def test_claims(self, capsys):
        assert main(["claims"]) == 0
        out = capsys.readouterr().out
        assert "46.1 M" in out
        assert "150 K ops/s" in out
        assert "< 20 s" in out


class TestStressAndSensitivity:
    def test_stress(self, capsys):
        assert main(["stress", "--nodes", "2", "--operations", "100", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "all reads verified" in out
        assert "bytes verified" in out

    def test_sensitivity(self, capsys):
        assert main(["sensitivity"]) == 0
        out = capsys.readouterr().out
        assert "elasticity" in out
        assert "write_path_efficiency" in out
        assert "+1.00" in out  # the efficiency-anchor 1:1 elasticity


class TestModuleEntrypoint:
    def test_python_dash_m(self):
        import subprocess
        import sys

        proc = subprocess.run(
            [sys.executable, "-m", "repro", "info"], capture_output=True, text=True
        )
        assert proc.returncode == 0
        assert "GekkoFS" in proc.stdout


class TestObservabilityCommands:
    def test_trace_prints_summary_and_validates(self, capsys):
        assert main(
            ["trace", "--nodes", "2", "--procs", "2",
             "--transfer-size", "16k", "--block-size", "64k"]
        ) == 0
        out = capsys.readouterr().out
        assert "client spans" in out
        assert "daemon spans" in out
        assert "ERROR" not in out

    def test_trace_writes_round_trippable_json(self, capsys, tmp_path):
        from repro.telemetry.spans import parse_chrome_trace

        out_file = tmp_path / "trace.json"
        assert main(
            ["trace", "--nodes", "2", "--procs", "2", "--shared-file",
             "--transfer-size", "16k", "--block-size", "64k",
             "--out", str(out_file)]
        ) == 0
        spans, _events = parse_chrome_trace(out_file.read_text())
        assert any(s.cat == "client" for s in spans)
        assert any(s.cat == "daemon" for s in spans)

    def test_trace_timeline(self, capsys):
        assert main(
            ["trace", "--nodes", "2", "--procs", "1", "--timeline",
             "--timeline-rows", "10",
             "--transfer-size", "16k", "--block-size", "32k"]
        ) == 0
        out = capsys.readouterr().out
        assert "pwrite" in out

    def test_metrics_balance_report(self, capsys):
        assert main(
            ["metrics", "--nodes", "4", "--procs", "4",
             "--transfer-size", "16k", "--block-size", "128k"]
        ) == 0
        out = capsys.readouterr().out
        assert "chunk writes" in out
        assert "gini" in out
        assert "storage.write_ops" in out

    def test_metrics_json_dump(self, capsys, tmp_path):
        import json

        out_file = tmp_path / "metrics.json"
        assert main(
            ["metrics", "--nodes", "2", "--procs", "2",
             "--transfer-size", "16k", "--block-size", "64k",
             "--out", str(out_file)]
        ) == 0
        payload = json.loads(out_file.read_text())
        assert "per_daemon" in payload and "cluster" in payload
        assert payload["daemons"] == 2


class TestConnectedObservability:
    """--connect plumbing: the CLI harvesting live socket daemons."""

    @pytest.fixture(scope="class")
    def specs(self, request):
        from repro.core.config import FSConfig
        from repro.net import LocalSocketCluster

        cluster = LocalSocketCluster(
            2, FSConfig(telemetry_enabled=True, metrics_window_interval=0.1)
        )
        request.addfinalizer(cluster.shutdown)
        return ",".join(served.address_spec for served in cluster.served)

    def test_trace_connect_reports_harvest(self, capsys, specs):
        assert main(
            ["trace", "--connect", specs, "--procs", "2",
             "--transfer-size", "4k", "--block-size", "16k"]
        ) == 0
        out = capsys.readouterr().out
        assert "daemons harvested" in out
        assert "worst clock offset" in out
        assert "(harvested)" in out
        assert "ERROR" not in out

    def test_metrics_connect_slo_report(self, capsys, specs):
        assert main(
            ["metrics", "--connect", specs, "--slo", "--procs", "2",
             "--transfer-size", "4k", "--block-size", "16k"]
        ) == 0
        out = capsys.readouterr().out
        assert "(harvested)" in out
        assert "SLO report" in out
        assert "meta-latency" in out

    def test_metrics_slo_without_connect_rejected(self, capsys):
        assert main(
            ["metrics", "--nodes", "2", "--procs", "1", "--slo",
             "--transfer-size", "4k", "--block-size", "8k"]
        ) == 2
        assert "--slo needs --connect" in capsys.readouterr().out

    def test_top_once_renders_dashboard(self, capsys, specs):
        assert main(["top", "--connect", specs, "--once"]) == 0
        out = capsys.readouterr().out
        assert "gkfs top — 2 daemons" in out
        assert "d0" in out and "d1" in out
        assert "cluster:" in out
        assert "SLOs:" in out or "ALERT" in out

    def test_top_without_connect_rejected(self, capsys):
        assert main(["top", "--once"]) == 2
        assert "--connect" in capsys.readouterr().out


class TestPostmortemCommand:
    def test_renders_every_dump_in_directory(self, capsys, tmp_path):
        from repro.telemetry import FlightRecorder
        from repro.telemetry.spans import TraceCollector

        for daemon in (0, 1):
            collector = TraceCollector()
            collector.record_span(
                "gkfs_write_chunks", "daemon", start=0.0, duration=0.002,
                pid=1, tid=1, span_id=f"s{daemon}",
            )
            FlightRecorder(daemon, str(tmp_path), collector=collector).dump(
                "crash"
            )
        assert main(["postmortem", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        assert "daemon 0" in out and "daemon 1" in out
        assert "reason='crash'" in out
        assert "gkfs_write_chunks" in out

    def test_single_file_and_tail(self, capsys, tmp_path):
        from repro.telemetry import FlightRecorder
        from repro.telemetry.spans import TraceCollector

        collector = TraceCollector()
        for i in range(10):
            collector.record_span(
                f"op-{i}", "daemon", start=float(i), duration=0.001,
                pid=1, tid=1, span_id=f"s{i}",
            )
        path = FlightRecorder(7, str(tmp_path), collector=collector).dump("sigterm")
        assert main(["postmortem", path, "--tail", "2"]) == 0
        out = capsys.readouterr().out
        assert "op-9" in out
        assert "op-0" not in out

    def test_missing_target_fails(self, capsys, tmp_path):
        assert main(["postmortem", str(tmp_path / "gone")]) == 1
        assert main(["postmortem", str(tmp_path)]) == 1  # empty dir


class TestOverloadCommand:
    def test_share_table(self, capsys):
        assert main(
            ["overload", "--greedy", "2", "--greedy-depth", "8",
             "--victim-depth", "2", "--duration", "0.15"]
        ) == 0
        out = capsys.readouterr().out
        assert "victim" in out
        assert "greedy-" in out
        assert "share vs fair" in out

    def test_victim_weight_doubles_service(self, capsys):
        assert main(
            ["overload", "--greedy", "2", "--greedy-depth", "8",
             "--victim-depth", "8", "--duration", "0.3",
             "--victim-weight", "2"]
        ) == 0
        out = capsys.readouterr().out
        victim_row = next(l for l in out.splitlines() if "victim" in l)
        # Weighted 2x against unit-weight rivals: share ratio well above 1.
        share = float(victim_row.split()[-1].rstrip("x"))
        assert share > 1.2


class TestScrubCommand:
    def test_replicated_rot_converges(self, capsys, tmp_path):
        import json

        out_path = tmp_path / "damage.json"
        assert main(["scrub", "--seed", "101", "--out", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "unrepairable" in out
        assert "post-scrub fsck clean" in out
        report = json.loads(out_path.read_text())
        assert report["seed"] == 101
        assert report["injected"] > 0
        assert report["fsck_clean"] is True
        assert report["unrepairable"] == 0

    def test_unreplicated_rot_is_quarantined(self, capsys, tmp_path):
        import json

        out_path = tmp_path / "damage.json"
        assert main(
            ["scrub", "--seed", "101", "--replication", "1", "--out", str(out_path)]
        ) == 1
        assert "failed loudly" in capsys.readouterr().out
        report = json.loads(out_path.read_text())
        assert report["quarantined"]
        assert report["unrepairable"] == len(report["quarantined"])
        assert report["fsck_clean"] is False


class TestResizeCommand:
    def test_grow(self, capsys, tmp_path):
        import json

        out_path = tmp_path / "grow.json"
        assert main(["resize", "--grow", "8", "--out", str(out_path)]) == 0
        out = capsys.readouterr().out
        assert "resize: live 4 -> 8 daemons" in out
        assert "read-back: all 12 files verified correct" in out
        report = json.loads(out_path.read_text())
        assert report["data_verified"] is True

    def test_replace(self, capsys, tmp_path):
        import json

        out_path = tmp_path / "replace.json"
        assert main(
            ["resize", "--replace", "1", "--replication", "2", "--out", str(out_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "crash-replace daemon 1 of 4" in out
        assert "fsck clean, scrub found 0 corrupt" in out
        report = json.loads(out_path.read_text())
        assert report["data_verified"] is True
        assert report["fsck_clean"] is True
        assert report["scrub_corrupt_found"] == 0

    @pytest.mark.parametrize(
        "argv",
        [
            ["resize"],
            ["resize", "--grow", "8", "--replace", "1"],
            ["resize", "--replace", "1"],
        ],
        ids=["neither-mode", "both-modes", "replace-unreplicated"],
    )
    def test_argument_errors(self, capsys, argv):
        assert main(argv) == 2
        assert capsys.readouterr().out.startswith("resize: ")


class TestHotspotCommand:
    def test_curve_and_report(self, capsys, tmp_path):
        import json

        out_path = tmp_path / "storm.json"
        assert main(
            ["hotspot", "--daemons", "4", "--threads", "4",
             "--duration", "0.5", "--seed", "101",
             "--out", str(out_path)]
        ) == 0
        out = capsys.readouterr().out
        assert "hottest-daemon share" in out
        assert "flatter" in out
        assert "cache hit rate" in out
        report = json.loads(out_path.read_text())
        assert report["share_ratio"] > 1.0
        assert report["on"]["errors"] == 0
        assert len(report["off"]["per_daemon_stat_rpcs"]) == 4
