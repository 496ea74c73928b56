"""End-to-end observability plane: tracing, metrics broadcast, event stream.

These are the ISSUE's acceptance criteria as tests: a traced shared-file
run must yield a parseable Chrome trace whose client spans contain the
daemon handler spans of the same request; the metrics broadcast must
account every chunk written; chaos faults, breaker transitions and
degraded broadcasts must land in one causally ordered timeline; and with
the plane off, nothing may touch the hot path.
"""

import os

import pytest

from repro.core import FSConfig, GekkoFSCluster
from repro.core.client import GekkoFSClient
from repro.core.daemon import HANDLER_NAMES
from repro.faults import ChaosController
from repro.telemetry.slo import DEFAULT_SLOS
from repro.telemetry.spans import ascii_timeline, parse_chrome_trace
from repro.telemetry.tracer import TRACED_METHODS
from repro.workloads.ior import IorSpec, run_ior

CHUNK = 256
NODES = 4


@pytest.fixture
def traced_cluster():
    with GekkoFSCluster(
        num_nodes=NODES, config=FSConfig(chunk_size=CHUNK, telemetry_enabled=True)
    ) as fs:
        yield fs


class TestDistributedTracing:
    def test_client_ops_open_spans(self, traced_cluster):
        client = traced_cluster.client(0)
        fd = client.open("/gkfs/f", os.O_CREAT | os.O_RDWR)
        client.pwrite(fd, b"x" * CHUNK, 0)
        client.close(fd)
        collector = traced_cluster.trace_collector
        names = {s.name for s in collector.spans if s.cat == "client"}
        assert {"open", "pwrite", "close"} <= names

    def test_daemon_spans_are_children_linked_by_request_id(self, traced_cluster):
        client = traced_cluster.client(0)
        fd = client.open("/gkfs/f", os.O_CREAT | os.O_RDWR)
        client.pwrite(fd, b"y" * (3 * CHUNK), 0)
        client.close(fd)
        collector = traced_cluster.trace_collector
        pwrite = collector.spans_named("pwrite")[0]
        children = collector.children_of(pwrite)
        assert children, "pwrite span has no daemon children"
        for child in children:
            assert child.cat == "daemon"
            assert child.request_id == pwrite.request_id
        assert "gkfs_write_chunks" in {c.name for c in children}

    def test_nested_convenience_call_stays_one_request(self, traced_cluster):
        client = traced_cluster.client(0)
        client.write_bytes("/gkfs/nested", b"z" * CHUNK)
        collector = traced_cluster.trace_collector
        outer = collector.spans_named("write_bytes")[0]
        inner = collector.spans_named("pwrite")[0]
        assert inner.request_id == outer.request_id
        assert inner.parent_span == outer.span_id

    def test_failed_op_records_error_on_span(self, traced_cluster):
        client = traced_cluster.client(0)
        with pytest.raises(Exception):
            client.stat("/gkfs/missing")
        collector = traced_cluster.trace_collector
        stat = collector.spans_named("stat")[0]
        assert stat.error == "NotFoundError"

    def test_threaded_transport_propagates_context_across_threads(self):
        with GekkoFSCluster(
            num_nodes=NODES,
            config=FSConfig(chunk_size=CHUNK, telemetry_enabled=True),
            threaded=True,
        ) as fs:
            client = fs.client(0)
            fd = client.open("/gkfs/t", os.O_CREAT | os.O_RDWR)
            client.pwrite(fd, b"w" * (4 * CHUNK), 0)
            client.close(fd)
            collector = fs.trace_collector
            pwrite = collector.spans_named("pwrite")[0]
            # Handler spans executed on pool threads still carry the
            # request id because it travels in the RPC envelope.
            assert collector.children_of(pwrite)
            for child in collector.children_of(pwrite):
                assert child.request_id == pwrite.request_id

    def test_chrome_export_round_trips_with_linked_spans(self, traced_cluster):
        spec = IorSpec(
            procs=2, transfer_size=CHUNK, block_size=4 * CHUNK, file_per_process=False
        )
        run_ior(traced_cluster, spec)
        collector = traced_cluster.trace_collector
        payload = collector.to_chrome_json()
        spans, _events = parse_chrome_trace(payload)
        assert len(spans) == len(collector.spans)
        client_spans = [s for s in spans if s.cat == "client"]
        daemon_spans = [s for s in spans if s.cat == "daemon"]
        assert client_spans and daemon_spans
        by_id = {s.span_id: s for s in spans}
        linked = [
            d for d in daemon_spans
            if d.parent_span in by_id
            and by_id[d.parent_span].cat == "client"
            and by_id[d.parent_span].request_id == d.request_id
        ]
        assert linked, "no daemon span is linked under a client span"

    def test_ascii_timeline_renders(self, traced_cluster):
        client = traced_cluster.client(0)
        client.write_bytes("/gkfs/tl", b"q" * CHUNK)
        out = ascii_timeline(traced_cluster.trace_collector)
        assert "write_bytes" in out
        assert "daemon" in out


class TestMetricsBroadcast:
    def test_gkfs_metrics_is_a_registered_handler(self, traced_cluster):
        assert "gkfs_metrics" in HANDLER_NAMES
        for daemon in traced_cluster.daemons:
            assert "gkfs_metrics" in daemon.engine.handler_names

    def test_chunk_writes_sum_to_expected_chunk_count(self, traced_cluster):
        chunks = 32
        client = traced_cluster.client(0)
        client.write_bytes("/gkfs/shared", b"d" * (chunks * CHUNK))
        metrics = traced_cluster.metrics()
        per_daemon_writes = {
            address: snap["gauges"]["storage.write_ops"]
            for address, snap in metrics["per_daemon"].items()
        }
        assert sum(per_daemon_writes.values()) == chunks
        assert set(per_daemon_writes) == set(range(NODES))

    def test_imbalance_coefficient_validates_even_striping(self, traced_cluster):
        from repro.analysis.loadmap import balance_report

        chunks = 64
        client = traced_cluster.client(0)
        client.write_bytes("/gkfs/big", b"e" * (chunks * CHUNK))
        stats = {s.metric: s for s in balance_report(traced_cluster.metrics())}
        chunk_stat = stats["chunk writes"]
        assert chunk_stat.total == chunks
        assert chunk_stat.skew <= 2.0, f"striping skew {chunk_stat.skew}"
        assert chunk_stat.gini <= 0.3, f"striping gini {chunk_stat.gini}"

    def test_registry_mirrors_statfs_alias_keys(self, traced_cluster):
        client = traced_cluster.client(0)
        client.write_bytes("/gkfs/alias", b"a" * CHUNK)
        daemon = traced_cluster.daemons[0]
        snap = daemon.metrics.snapshot()
        # The registry reads the layers' own stats objects.
        for field, value in daemon.storage.stats.as_dict().items():
            assert snap["gauges"][f"storage.{field}"] == value
        for field, value in daemon.kv.stats.as_dict().items():
            if field == "scans":
                # Counting records is itself a scan, so every snapshot /
                # statfs call bumps this; exact equality can't hold.
                assert value >= snap["gauges"]["kv.scans"]
                continue
            assert snap["gauges"][f"kv.{field}"] == value
        usage = daemon.statfs()
        assert set(usage) == {"used_bytes", "metadata_records"}
        assert snap["gauges"]["storage.used_bytes"] == usage["used_bytes"]
        assert snap["gauges"]["kv.records"] == usage["metadata_records"]

    def test_client_counters_mirrored_in_registry(self, traced_cluster):
        client = traced_cluster.client(0)
        client.write_bytes("/gkfs/m", b"m" * CHUNK)
        client.read_bytes("/gkfs/m")
        snap = client.metrics_registry.snapshot()["gauges"]
        assert snap["client.writes"] == client.stats.writes
        assert snap["client.reads"] == client.stats.reads
        assert snap["client.degraded_ops"] == 0
        assert snap["client.leg_failures"] == 0
        metrics = client.metrics()
        assert metrics["client"]["gauges"]["client.writes"] == client.stats.writes

    def test_per_handler_latency_histograms_recorded(self, traced_cluster):
        client = traced_cluster.client(0)
        client.write_bytes("/gkfs/h", b"h" * (4 * CHUNK))
        metrics = traced_cluster.metrics()
        merged = metrics["cluster"]["histograms"]
        write_hists = [k for k in merged if k.startswith("rpc.latency.gkfs_write")]
        assert write_hists
        for key in write_hists:
            assert merged[key]["count"] > 0
            assert merged[key]["mean"] > 0

    def test_one_small_transfer_reaches_the_stock_data_slos(self):
        """A transfer at or below the chunk size is the common case; the
        histograms the stock data SLOs read must see it."""
        sources = {
            slo.name: slo.source for slo in DEFAULT_SLOS if slo.kind == "latency"
        }
        config = FSConfig(chunk_size=8192, telemetry_enabled=True)
        with GekkoFSCluster(num_nodes=2, config=config) as fs:
            client = fs.client(0)
            fd = client.open("/gkfs/slo", os.O_CREAT | os.O_RDWR)
            client.pwrite(fd, b"s" * 8192, 0)
            assert client.pread(fd, 8192, 0) == b"s" * 8192
            client.close(fd)
            merged = fs.metrics()["cluster"]["histograms"]
            assert merged[sources["data-latency"]]["count"] == 1
            assert merged[sources["read-latency"]]["count"] == 1

    def test_degraded_partial_metrics(self):
        config = FSConfig(chunk_size=CHUNK, telemetry_enabled=True, degraded_mode=True)
        with GekkoFSCluster(num_nodes=NODES, config=config) as fs:
            client = fs.client(0)
            client.write_bytes("/gkfs/d", b"d" * CHUNK)
            fs.crash_daemon(1)
            metrics = client.metrics()
            assert metrics["degraded"] is True
            assert metrics["missing_daemons"] == [1]
            assert 1 not in metrics["per_daemon"]
            assert client.stats.degraded_ops == 1

    def test_strict_mode_metrics_raise_on_dead_daemon(self):
        config = FSConfig(chunk_size=CHUNK, telemetry_enabled=True)
        with GekkoFSCluster(num_nodes=NODES, config=config) as fs:
            fs.crash_daemon(2)
            with pytest.raises(Exception):
                fs.client(0).metrics()

    def test_queue_depth_gauge_wired_for_threaded(self):
        with GekkoFSCluster(
            num_nodes=2,
            config=FSConfig(chunk_size=CHUNK, telemetry_enabled=True),
            threaded=True,
        ) as fs:
            client = fs.client(0)
            client.write_bytes("/gkfs/q", b"q" * CHUNK)
            snap = fs.daemons[0].metrics.snapshot()
            assert snap["gauges"]["server.queue_depth"] >= 0

    def test_metrics_work_without_telemetry(self):
        # The registry and RPC exist unconditionally; only spans and
        # latency histograms need the plane.
        with GekkoFSCluster(num_nodes=2, config=FSConfig(chunk_size=CHUNK)) as fs:
            client = fs.client(0)
            client.write_bytes("/gkfs/p", b"p" * CHUNK)
            metrics = client.metrics()
            assert metrics["cluster"]["gauges"]["storage.write_ops"] == 1
            assert metrics["cluster"]["histograms"] == {}


class TestZeroCostWhenOff:
    def test_no_collector_no_tracer(self):
        with GekkoFSCluster(num_nodes=2, config=FSConfig(chunk_size=CHUNK)) as fs:
            assert fs.trace_collector is None
            assert fs.network.tracer is None
            for daemon in fs.daemons:
                assert daemon.engine.collector is None
                assert daemon.engine.metrics is None

    def test_client_methods_stay_unwrapped(self):
        with GekkoFSCluster(num_nodes=2, config=FSConfig(chunk_size=CHUNK)) as fs:
            client = fs.client(0)
            for name in TRACED_METHODS:
                # Wrapped methods are instance attributes; unwrapped ones
                # resolve through the class.
                assert name not in vars(client)

    def test_wrapped_when_on(self, traced_cluster):
        client = traced_cluster.client(0)
        for name in TRACED_METHODS:
            assert name in vars(client)

    def test_requests_carry_no_ids_when_off(self):
        from repro.rpc.message import RpcRequest

        seen = []
        with GekkoFSCluster(num_nodes=2, config=FSConfig(chunk_size=CHUNK)) as fs:
            original = fs.network.transport.send_async

            def spy(request: RpcRequest):
                seen.append((request.request_id, request.parent_span))
                return original(request)

            fs.network.transport.send_async = spy
            fs.client(0).write_bytes("/gkfs/z", b"z" * CHUNK)
        assert seen
        assert all(rid is None and span is None for rid, span in seen)


class TestUnifiedEventStream:
    def test_chaos_run_produces_causally_ordered_timeline(self):
        config = FSConfig(
            chunk_size=CHUNK,
            telemetry_enabled=True,
            degraded_mode=True,
            breaker_enabled=True,
            breaker_failure_threshold=1,
            rpc_retries=0,
        )
        with GekkoFSCluster(num_nodes=NODES, config=config) as fs:
            client = fs.client(0)
            client.write_bytes("/gkfs/c", b"c" * (4 * CHUNK))
            chaos = ChaosController(fs, seed=5)
            chaos.crash(1)
            client.statfs()  # hits the dead daemon: trips breaker, degrades
            collector = fs.trace_collector
            events = {e.name: e for e in collector.events}
            assert "fault.crash" in events
            assert "health.transition" in events
            assert "broadcast.degraded" in events
            # Causal order by global sequence number: the fault precedes
            # the breaker trip it causes, which precedes the degraded
            # broadcast that observed it.
            assert (
                events["fault.crash"].seq
                < events["health.transition"].seq
                < events["broadcast.degraded"].seq
            )
            transition = events["health.transition"]
            assert transition.args["address"] == 1
            assert transition.args["to_state"] == "open"

    def test_recovery_transition_also_recorded(self):
        config = FSConfig(
            chunk_size=CHUNK,
            telemetry_enabled=True,
            degraded_mode=True,
            breaker_enabled=True,
            breaker_failure_threshold=1,
        )
        with GekkoFSCluster(num_nodes=NODES, config=config) as fs:
            client = fs.client(0)
            client.write_bytes("/gkfs/r", b"r" * CHUNK)
            chaos = ChaosController(fs, seed=5)
            chaos.crash(1)
            client.statfs()
            chaos.restart(1)
            collector = fs.trace_collector
            restarts = [e for e in collector.events if e.name == "fault.restart"]
            assert restarts
            # restart_daemon resets the breaker: closed again via reset.
            transitions = [
                e for e in collector.events if e.name == "health.transition"
            ]
            assert any(e.args["to_state"] == "closed" for e in transitions)

    def test_timeline_merges_spans_and_events(self):
        config = FSConfig(
            chunk_size=CHUNK, telemetry_enabled=True, degraded_mode=True
        )
        with GekkoFSCluster(num_nodes=NODES, config=config) as fs:
            client = fs.client(0)
            client.write_bytes("/gkfs/t", b"t" * CHUNK)
            fs.trace_collector.instant("fault.marker", "fault", target=0)
            timeline = fs.trace_collector.timeline()
            seqs = [item.seq for item in timeline]
            assert seqs == sorted(seqs)
            kinds = {type(item).__name__ for item in timeline}
            assert kinds == {"SpanRecord", "InstantEvent"}

    def test_restarted_daemon_keeps_tracing(self):
        config = FSConfig(
            chunk_size=CHUNK, telemetry_enabled=True, degraded_mode=True
        )
        with GekkoFSCluster(num_nodes=NODES, config=config) as fs:
            fs.crash_daemon(1)
            fs.restart_daemon(1, recover=False)
            assert fs.daemons[1].engine.collector is fs.trace_collector
            assert fs.daemons[1].engine.metrics is fs.daemons[1].metrics


class TestClusterMetricsApi:
    def test_cluster_metrics_delegates_to_client(self, traced_cluster):
        client = traced_cluster.client(0)
        client.write_bytes("/gkfs/api", b"a" * CHUNK)
        metrics = traced_cluster.metrics()
        assert metrics["daemons"] == NODES
        assert set(metrics["per_daemon"]) == set(range(NODES))

    def test_metrics_not_in_traced_methods(self):
        # Tracing the introspection broadcast would perturb what it reads.
        assert "metrics" not in TRACED_METHODS
        assert hasattr(GekkoFSClient, "metrics")
