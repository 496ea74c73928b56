"""Command-line interface: ``python -m repro <command>``.

Commands mirror how the paper's artefacts are exercised:

* ``info``      — deployment defaults and calibration summary.
* ``mdtest``    — run the mdtest clone on a functional deployment.
* ``ior``       — run the IOR clone on a functional deployment.
* ``figures``   — regenerate the Figure 2/3 tables (and ASCII plots).
* ``claims``    — print the §IV in-text claims, paper vs measured.
* ``trace``     — traced IOR run, exported as Chrome trace-event JSON.
* ``metrics``   — telemetry IOR run, cluster metrics + load-balance report.
* ``top``       — live cluster dashboard over running ``serve`` daemons.
* ``postmortem``— read flight-recorder dumps back after a daemon died.
* ``scrub``     — inject bit-rot, read through it, scrub it away.
* ``soak``      — randomized chaos soak over a real process cluster with
  the self-healing control plane running hands-free.
* ``serve``     — run ONE daemon behind a TCP/Unix socket (real deployment).

``mdtest``/``ior``/``trace``/``metrics`` accept ``--connect
host:port,host:port,...`` to run against already-running ``serve``
daemons instead of an in-process cluster; for ``trace``/``metrics`` the
results are then *harvested over the wire* from every daemon's private
collector/registry (clock-aligned and merged by
:class:`~repro.telemetry.observer.ClusterObserver`).
"""

from __future__ import annotations

import argparse
import json
from typing import Optional, Sequence

from repro import __version__
from repro.analysis.ascii_plot import loglog_plot
from repro.analysis.report import render_table, series_table
from repro.common.units import (
    GiB,
    KiB,
    MiB,
    format_ops,
    format_size,
    format_throughput,
    parse_size,
)
from repro.core import FSConfig, GekkoFSCluster
from repro.models import GekkoFSModel, LustreModel, aggregated_ssd_peak
from repro.models.calibration import MOGON_II
from repro.workloads.ior import IorSpec, run_ior
from repro.workloads.mdtest import MdtestSpec, run_mdtest

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="GekkoFS (CLUSTER 2018) reproduction toolkit",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="deployment defaults and calibration summary")

    p = sub.add_parser("mdtest", help="run the mdtest clone on a functional deployment")
    p.add_argument("--nodes", type=int, default=4)
    p.add_argument("--procs", type=int, default=8)
    p.add_argument("--files-per-proc", type=int, default=100)
    p.add_argument("--unique-dir", action="store_true", help="one directory per rank")
    _add_connect_args(p)

    p = sub.add_parser("ior", help="run the IOR clone on a functional deployment")
    p.add_argument("--nodes", type=int, default=4)
    p.add_argument("--procs", type=int, default=4)
    p.add_argument("--transfer-size", type=parse_size, default=64 * KiB)
    p.add_argument("--block-size", type=parse_size, default=MiB)
    p.add_argument("--shared-file", action="store_true")
    p.add_argument("--random", action="store_true")
    p.add_argument("--size-cache", action="store_true")
    _add_connect_args(p)

    p = sub.add_parser(
        "serve",
        help="run ONE GekkoFS daemon behind a TCP or Unix socket; prints "
        "'GKFS-SERVE READY daemon=<id> addr=<endpoint>' once accepting and "
        "drains gracefully on SIGTERM",
    )
    p.add_argument("--daemon-id", type=int, required=True, help="this daemon's address (0..n-1)")
    p.add_argument(
        "--addr",
        default="127.0.0.1:0",
        help="endpoint to bind: host:port (port 0 = OS-assigned) or unix:/path",
    )
    p.add_argument("--handlers", type=int, default=4, help="relief readers per daemon (bound)")
    p.add_argument("--config", default=None, help="path to an FSConfig JSON file")
    p.add_argument("--config-json", default=None, help="inline FSConfig JSON (overrides --config)")

    p = sub.add_parser("figures", help="regenerate the paper's figure series")
    p.add_argument(
        "which",
        choices=["fig2a", "fig2b", "fig2c", "fig3a", "fig3b", "all"],
        nargs="?",
        default="all",
    )
    p.add_argument("--plot", action="store_true", help="also draw ASCII log-log charts")

    sub.add_parser("claims", help="paper vs measured for the in-text claims")

    p = sub.add_parser("stress", help="randomised mixed-op run with a shadow-model oracle")
    p.add_argument("--nodes", type=int, default=4)
    p.add_argument("--operations", type=int, default=500)
    p.add_argument("--seed", type=int, default=1)

    p = sub.add_parser("sensitivity", help="calibration-sensitivity matrix of the anchors")
    p.add_argument("--perturbation", type=float, default=0.10)

    p = sub.add_parser("experiments", help="run the registered paper experiments")
    p.add_argument("exp_id", nargs="?", default=None, help="one id (default: all)")

    p = sub.add_parser(
        "trace",
        help="run an IOR-clone workload with tracing on; export Chrome trace JSON",
    )
    _add_smoke_workload_args(p)
    _add_connect_args(p)
    p.add_argument("--out", default=None, help="write Chrome trace JSON here")
    p.add_argument("--timeline", action="store_true", help="print the ASCII timeline")
    p.add_argument("--timeline-rows", type=int, default=40)

    p = sub.add_parser(
        "metrics",
        help="run an IOR-clone workload with telemetry on; print the cluster "
        "metrics + load-balance report",
    )
    _add_smoke_workload_args(p)
    _add_connect_args(p)
    p.add_argument("--out", default=None, help="write the metrics report JSON here")
    p.add_argument(
        "--slo",
        action="store_true",
        help="also harvest metric windows and print the SLO burn-rate "
        "report (--connect only)",
    )

    p = sub.add_parser(
        "top",
        help="live cluster dashboard over running `repro serve` daemons: "
        "per-daemon throughput, queue depth, p99, epoch, SLO alerts",
    )
    _add_connect_args(p)
    p.add_argument("--interval", type=float, default=1.0, help="refresh seconds")
    p.add_argument(
        "--iterations",
        type=int,
        default=None,
        metavar="N",
        help="render N frames then exit (default: until Ctrl-C)",
    )
    p.add_argument("--once", action="store_true", help="render one frame and exit")

    p = sub.add_parser(
        "postmortem",
        help="read flight-recorder dumps back (a directory of "
        "flight-d*.json files, or one file)",
    )
    p.add_argument("target", help="flight dump directory or a single dump file")
    p.add_argument("--tail", type=int, default=20, help="trailing records to show per daemon")

    p = sub.add_parser(
        "overload",
        help="QoS demo: one victim client vs greedy neighbours on a QoS "
        "deployment; print the per-client share table",
    )
    p.add_argument("--greedy", type=int, default=8, help="greedy client count")
    p.add_argument("--greedy-depth", type=int, default=32, help="RPCs each greedy client keeps in flight")
    p.add_argument("--victim-depth", type=int, default=4, help="RPCs the victim keeps in flight")
    p.add_argument("--duration", type=float, default=0.5, help="measurement seconds")
    p.add_argument(
        "--victim-weight",
        type=float,
        default=None,
        help="WFQ weight for the victim (default: equal weights)",
    )

    p = sub.add_parser(
        "scrub",
        help="integrity demo: inject silent corruption, read through it, "
        "then let the scrubber converge; print the damage report",
    )
    p.add_argument("--nodes", type=int, default=4)
    p.add_argument("--files", type=int, default=8)
    p.add_argument("--chunks-per-file", type=int, default=8)
    p.add_argument("--replication", type=int, default=2)
    p.add_argument("--fraction", type=float, default=0.25, help="fraction of one daemon's chunks to rot")
    p.add_argument("--seed", type=int, default=None, help="chaos seed (default: $CHAOS_SEED or 101)")
    p.add_argument("--rate", type=float, default=None, help="scrub rate limit, chunks/s")
    p.add_argument("--out", default=None, help="write the JSON damage report here")

    p = sub.add_parser(
        "resize",
        help="elastic membership demo: grow/shrink the cluster online or "
        "crash-replace a daemon; print the migration report",
    )
    p.add_argument("--nodes", type=int, default=4, help="initial daemon count")
    p.add_argument(
        "--grow",
        type=int,
        default=None,
        metavar="N",
        help="resize online to N daemons (shrinks too, despite the name)",
    )
    p.add_argument(
        "--replace",
        type=int,
        default=None,
        metavar="ADDR",
        help="crash daemon ADDR, swap in an empty replacement, restore it "
        "from the surviving replicas (needs --replication >= 2)",
    )
    p.add_argument("--files", type=int, default=12)
    p.add_argument("--chunks-per-file", type=int, default=6)
    p.add_argument("--replication", type=int, default=1)
    p.add_argument("--rate", type=parse_size, default=None, help="live-resize byte/s cap")
    p.add_argument("--out", default=None, help="write the JSON migration/repair report here")

    p = sub.add_parser(
        "soak",
        help="randomized chaos soak: real daemon processes, foreground "
        "load, seeded kills/hangs/partitions/bitrot, self-healing on; "
        "exit 0 only if every invariant held",
    )
    p.add_argument("--seed", type=int, default=None, help="chaos seed (default: $CHAOS_SEED or 101)")
    p.add_argument("--duration", type=float, default=20.0, help="fault-injection seconds")
    p.add_argument("--nodes", type=int, default=4, help="daemon process count")
    p.add_argument("--fault-interval", type=float, default=2.0, help="mean seconds between faults")
    p.add_argument("--files", type=int, default=8, help="foreground working-set size")
    p.add_argument("--mttr-budget", type=float, default=None, help="per-repair bound, seconds")
    p.add_argument(
        "--workdir",
        default=None,
        help="scratch dir for daemon data (default: a temp dir, removed after)",
    )
    p.add_argument("--out", default=None, help="write the JSON soak report (verdicts + supervisor journal) here")

    p = sub.add_parser(
        "hotspot",
        help="metadata-cache demo: stat-storm one shared file with the "
        "cache off then on; print the per-daemon hotspot curve",
    )
    p.add_argument("--daemons", type=int, default=8, help="daemon count")
    p.add_argument("--threads", type=int, default=8, help="storming client threads")
    p.add_argument("--duration", type=float, default=1.5, help="storm seconds per run")
    p.add_argument("--ttl", type=float, default=0.02, help="client lease TTL, seconds")
    p.add_argument("--hot-k", type=int, default=5, help="hot-key replica fan-out")
    p.add_argument("--seed", type=int, default=None, help="chaos seed (default: $CHAOS_SEED or 101)")
    p.add_argument("--out", default=None, help="write the JSON storm report here")
    return parser


def _add_connect_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--connect",
        default=None,
        metavar="ADDR,ADDR,...",
        help="run against already-running `repro serve` daemons at these "
        "endpoints (daemon 0 first) instead of an in-process cluster",
    )
    p.add_argument(
        "--chunk-size",
        type=parse_size,
        default=None,
        help="chunk size the connected daemons were started with "
        "(--connect only; must match their config)",
    )


def _add_smoke_workload_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--nodes", type=int, default=4)
    p.add_argument("--procs", type=int, default=4)
    p.add_argument("--transfer-size", type=parse_size, default=64 * KiB)
    p.add_argument("--block-size", type=parse_size, default=MiB)
    p.add_argument("--shared-file", action="store_true")


def _cmd_info(_args: argparse.Namespace) -> int:
    config = FSConfig()
    cal = MOGON_II
    rows = [
        ["chunk size", f"{config.chunk_size // KiB} KiB"],
        ["mountpoint", config.mountpoint],
        ["handler pool / daemon", str(cal.handler_pool)],
        ["procs per node (eval)", str(cal.procs_per_node)],
        ["SSD seq write / read", f"{cal.ssd.seq_write_bw / MiB:.0f} / {cal.ssd.seq_read_bw / MiB:.0f} MiB/s"],
        ["NIC bandwidth", format_throughput(cal.network.nic_bandwidth)],
        ["RPC one-way latency", f"{cal.rpc_one_way_latency * 1e6:.0f} us"],
        ["KV create/stat/remove", f"{cal.kv_create_time * 1e6:.0f}/{cal.kv_stat_time * 1e6:.0f}/{cal.kv_remove_time * 1e6:.0f} us"],
        ["shared-file update ceiling", format_ops(cal.shared_file_update_ceiling)],
    ]
    print(render_table(["parameter", "value"], rows, title=f"repro {__version__} — GekkoFS reproduction"))
    return 0


def _connected_deployment(args: argparse.Namespace, config: FSConfig):
    """A SocketDeployment over the ``--connect`` address list."""
    from repro.net import SocketDeployment

    specs = [spec for spec in args.connect.split(",") if spec]
    if getattr(args, "chunk_size", None):
        config = config.with_(chunk_size=args.chunk_size)
    deployment = SocketDeployment(dict(enumerate(specs)), config=config)
    deployment.format()  # idempotent: safe if another rank formatted first
    return deployment


def _write_out(args: argparse.Namespace, what: str, report: dict) -> None:
    """With ``--out``, write the command's JSON report there (keys sorted)."""
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1, sort_keys=True, default=str)
        print(f"{what} written to {args.out}")


def _cmd_mdtest(args: argparse.Namespace) -> int:
    spec = MdtestSpec(
        procs=args.procs,
        files_per_proc=args.files_per_proc,
        single_dir=not args.unique_dir,
    )
    if args.connect:
        with _connected_deployment(args, FSConfig()) as fs:
            result = run_mdtest(fs, spec)
        nodes = fs.num_nodes
    else:
        with GekkoFSCluster(num_nodes=args.nodes) as fs:
            result = run_mdtest(fs, spec)
        nodes = args.nodes
    rows = [
        [phase, format_ops(result.ops_per_second[phase]), f"{result.elapsed[phase]:.3f} s"]
        for phase in ("create", "stat", "remove")
    ]
    print(
        render_table(
            ["phase", "throughput", "elapsed"],
            rows,
            title=f"mdtest: {spec.total_files} files, {nodes} nodes"
            f"{' (socket)' if args.connect else ''}, "
            f"{'single' if spec.single_dir else 'unique'} dir",
        )
    )
    return 0


def _cmd_ior(args: argparse.Namespace) -> int:
    config = FSConfig(size_cache_enabled=args.size_cache)
    spec = IorSpec(
        procs=args.procs,
        transfer_size=args.transfer_size,
        block_size=args.block_size,
        file_per_process=not args.shared_file,
        sequential=not args.random,
    )
    if args.connect:
        with _connected_deployment(args, config) as fs:
            result = run_ior(fs, spec)
    else:
        with GekkoFSCluster(num_nodes=args.nodes, config=config) as fs:
            result = run_ior(fs, spec)
    rows = [
        ["write", format_throughput(result.write_bandwidth), f"{result.write_elapsed:.3f} s"],
        ["read", format_throughput(result.read_bandwidth), f"{result.read_elapsed:.3f} s"],
    ]
    print(
        render_table(
            ["phase", "bandwidth", "elapsed"],
            rows,
            title=f"IOR: {spec.total_bytes // KiB} KiB total, "
            f"{'fpp' if spec.file_per_process else 'shared'}, "
            f"{'seq' if spec.sequential else 'random'}, verified"
            f"{', socket' if args.connect else ''}",
        )
    )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.net.serve import config_from_json, serve_daemon

    if args.config_json is not None:
        config = config_from_json(args.config_json)
    elif args.config is not None:
        with open(args.config, "r", encoding="utf-8") as fh:
            config = config_from_json(fh.read())
    else:
        config = FSConfig()
    return serve_daemon(
        config, args.daemon_id, args.addr, handlers=args.handlers
    )


def _fig2(op: str, label: str, plot: bool) -> None:
    from repro.analysis.series import SweepSeries

    gekko, lustre = GekkoFSModel(), LustreModel()
    series = [
        SweepSeries.sweep("Lustre single", lambda n: lustre.metadata_throughput(n, op, single_dir=True)),
        SweepSeries.sweep("Lustre unique", lambda n: lustre.metadata_throughput(n, op, single_dir=False)),
        SweepSeries.sweep("GekkoFS", lambda n: gekko.metadata_throughput(n, op)),
    ]
    print(series_table(series, format_ops, title=f"Figure {label}: {op} throughput"))
    if plot:
        print(loglog_plot(series, title=f"Figure {label} [log-log]", y_label="ops/s"))
    print()


def _fig3(write: bool, label: str, plot: bool) -> None:
    from repro.analysis.series import SweepSeries

    model = GekkoFSModel()
    series = [
        SweepSeries.sweep(name, lambda n, t=t: model.data_throughput(n, t, write=write))
        for name, t in (("8k", 8 * KiB), ("64k", 64 * KiB), ("1m", MiB), ("64m", 64 * MiB))
    ]
    series.append(SweepSeries.sweep("SSD peak", lambda n: aggregated_ssd_peak(n, write=write)))
    kind = "write" if write else "read"
    print(series_table(series, format_throughput, title=f"Figure {label}: sequential {kind}"))
    if plot:
        print(loglog_plot(series, title=f"Figure {label} [log-log]", y_label="B/s"))
    print()


def _cmd_figures(args: argparse.Namespace) -> int:
    targets = {
        "fig2a": lambda: _fig2("create", "2a", args.plot),
        "fig2b": lambda: _fig2("stat", "2b", args.plot),
        "fig2c": lambda: _fig2("remove", "2c", args.plot),
        "fig3a": lambda: _fig3(True, "3a", args.plot),
        "fig3b": lambda: _fig3(False, "3b", args.plot),
    }
    chosen = targets if args.which == "all" else {args.which: targets[args.which]}
    for render in chosen.values():
        render()
    return 0


def _cmd_claims(_args: argparse.Namespace) -> int:
    gekko, lustre = GekkoFSModel(), LustreModel()
    rows = [
        ["creates/s @512", "~46 M (~1405x)",
         f"{gekko.metadata_throughput(512, 'create') / 1e6:.1f} M "
         f"({gekko.metadata_throughput(512, 'create') / lustre.metadata_throughput(512, 'create', single_dir=False):,.0f}x)"],
        ["stats/s @512", "~44 M (~359x)",
         f"{gekko.metadata_throughput(512, 'stat') / 1e6:.1f} M "
         f"({gekko.metadata_throughput(512, 'stat') / lustre.metadata_throughput(512, 'stat', single_dir=False):,.0f}x)"],
        ["removes/s @512", "~22 M (~453x)",
         f"{gekko.metadata_throughput(512, 'remove') / 1e6:.1f} M "
         f"({gekko.metadata_throughput(512, 'remove') / lustre.metadata_throughput(512, 'remove', single_dir=False):,.0f}x)"],
        ["write 64 MiB @512", "141 GiB/s (80%)",
         f"{gekko.data_throughput(512, 64 * MiB, write=True) / GiB:.0f} GiB/s"],
        ["read 64 MiB @512", "204 GiB/s (70%)",
         f"{gekko.data_throughput(512, 64 * MiB, write=False) / GiB:.0f} GiB/s"],
        ["8 KiB latency", "<= 700 us",
         f"{gekko.data_latency(512, 8 * KiB, write=True) * 1e6:.0f} us"],
        ["shared file no cache", "~150 K ops/s",
         f"{gekko.data_iops(512, 8 * KiB, write=True, shared_file=True) / 1e3:.0f} K ops/s"],
        ["start-up @512", "< 20 s", f"{gekko.startup_time(512):.1f} s"],
    ]
    print(render_table(["claim", "paper", "measured"], rows, title="GekkoFS §IV claims"))
    return 0


def _cmd_stress(args: argparse.Namespace) -> int:
    from repro.workloads.stress import StressSpec, run_stress

    spec = StressSpec(operations=args.operations, seed=args.seed)
    with GekkoFSCluster(num_nodes=args.nodes) as fs:
        result = run_stress(fs, spec)
    rows = [[op, str(count)] for op, count in sorted(result.executed.items())]
    rows.append(["bytes verified", f"{result.bytes_verified:,}"])
    rows.append(["files surviving", str(result.live_files_at_end)])
    print(
        render_table(
            ["metric", "value"],
            rows,
            title=f"stress: {result.total_operations} ops, seed {args.seed} — all reads verified",
        )
    )
    return 0


def _cmd_sensitivity(args: argparse.Namespace) -> int:
    from repro.models.sensitivity import ANCHORS, PERTURBABLE_FIELDS, sensitivity_matrix

    matrix = sensitivity_matrix(perturbation=args.perturbation)
    anchor_names = list(ANCHORS)
    rows = [
        [field] + [f"{matrix[field][a]:+.2f}" for a in anchor_names]
        for field in PERTURBABLE_FIELDS
    ]
    print(
        render_table(
            ["calibration field"] + anchor_names,
            rows,
            title=f"anchor elasticity per calibration field (±{args.perturbation:.0%})",
        )
    )
    return 0


def _cmd_experiments(args: argparse.Namespace) -> int:
    from repro.experiments import REGISTRY, run_all, run_experiment

    if args.exp_id is not None:
        if args.exp_id not in REGISTRY:
            print(f"unknown experiment {args.exp_id!r}; known: {', '.join(sorted(REGISTRY))}")
            return 1
        results = {args.exp_id: run_experiment(args.exp_id)}
    else:
        results = run_all()
    rows = []
    failures = 0
    for exp_id, outcome in results.items():
        exp = REGISTRY[exp_id]
        holds = outcome["holds"]
        failures += 0 if holds else 1
        rows.append([exp_id, exp.paper_statement, "OK" if holds else "DIVERGED"])
    print(render_table(["experiment", "paper statement", "shape"], rows,
                       title="registered experiments, paper vs this run"))
    return 1 if failures else 0


def _traced_ior_run(args: argparse.Namespace):
    """Shared by ``trace``/``metrics``: IOR clone with the plane enabled.

    With ``--connect`` the workload runs against already-running
    ``serve`` daemons and the trace/metrics are **harvested over the
    wire**: each daemon keeps a private collector/registry, so a
    :class:`~repro.telemetry.ClusterObserver` pings every daemon for its
    clock offset, pulls the buffers, and merges them onto the client's
    causal axis.  Returns ``(spec, result, metrics, collector, fold)``
    where ``fold`` is the harvested cluster window series (``None``
    in-process — the shared registry needs no windows to be complete).
    """
    config = FSConfig(telemetry_enabled=True)
    spec = IorSpec(
        procs=args.procs,
        transfer_size=args.transfer_size,
        block_size=args.block_size,
        file_per_process=not args.shared_file,
    )
    if getattr(args, "connect", None):
        from repro.telemetry import ClusterObserver

        with _connected_deployment(args, config) as fs:
            result = run_ior(fs, spec)
            observer = ClusterObserver(fs)
            collector = observer.harvest_trace()
            metrics = observer.harvest_metrics()
            fold = observer.harvest_windows()
        return spec, result, metrics, collector, fold
    with GekkoFSCluster(num_nodes=args.nodes, config=config) as fs:
        result = run_ior(fs, spec)
        metrics = fs.metrics()
        collector = fs.trace_collector
    return spec, result, metrics, collector, None


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.telemetry.spans import ascii_timeline, parse_chrome_trace

    spec, _result, _metrics, collector, _fold = _traced_ior_run(args)
    payload = collector.to_chrome_json()
    # Self-validation: the export must round-trip through our own parser
    # and actually contain spans — an empty or malformed trace is a
    # failure, not a quiet success (the CI smoke job relies on this).
    spans, events = parse_chrome_trace(payload)
    if not spans:
        print("ERROR: trace contains no spans")
        return 1
    client_spans = [s for s in spans if s.cat == "client"]
    daemon_spans = [s for s in spans if s.cat == "daemon"]
    if not client_spans or not daemon_spans:
        print("ERROR: trace is missing client or daemon spans")
        return 1
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(payload)
    rows = [
        ["client spans", str(len(client_spans))],
        ["daemon spans", str(len(daemon_spans))],
        ["instant events", str(len(events))],
        ["requests", str(len({s.request_id for s in spans if s.request_id}))],
    ]
    harvest = getattr(collector, "harvest_meta", None)
    if harvest is not None:
        per_daemon = harvest["per_daemon"]
        rows.append(["daemons harvested", str(len(per_daemon))])
        rows.append(
            ["daemons missing", str(len(harvest["missing_daemons"])) or "0"]
        )
        if per_daemon:
            worst = max(abs(m["offset"]) for m in per_daemon.values())
            rows.append(["worst clock offset", f"{worst * 1e3:.3f} ms"])
    rows.append(["exported to", args.out or "(not written; use --out)"])
    print(
        render_table(
            ["metric", "value"],
            rows,
            title=f"trace: IOR {spec.total_bytes // KiB} KiB, "
            f"{'shared' if not spec.file_per_process else 'fpp'}"
            + (
                f", {len(harvest['per_daemon'])} daemons (harvested)"
                if harvest is not None
                else f", {args.nodes} nodes"
            ),
        )
    )
    if args.timeline:
        print(ascii_timeline(collector, limit=args.timeline_rows))
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    from repro.analysis.loadmap import balance_report, render_balance

    spec, _result, metrics, _collector, fold = _traced_ior_run(args)
    connected = bool(getattr(args, "connect", None))
    stats = balance_report(metrics)
    nodes = metrics["daemons"] if connected else args.nodes
    print(
        render_balance(
            stats,
            title=f"load balance: IOR {spec.total_bytes // KiB} KiB, "
            f"{'shared' if not spec.file_per_process else 'fpp'}, {nodes} nodes"
            f"{' (harvested)' if connected else ''}",
        )
    )
    cluster = metrics["cluster"]
    rows = [[name, f"{value:,.0f}"] for name, value in sorted(cluster["gauges"].items())]
    print()
    print(render_table(["metric", "cluster total"], rows, title="aggregated gauges"))
    if metrics.get("missing_daemons"):
        print(f"\nWARNING: daemons unreachable during harvest: {metrics['missing_daemons']}")
    if getattr(args, "slo", False):
        from repro.telemetry import SloEngine, render_slo_report

        if fold is None:
            print("\n--slo needs --connect (windows live on socket daemons)")
            return 2
        print()
        print(render_slo_report(SloEngine().evaluate(fold)))
    report = dict(metrics)
    if fold is not None:
        report["windows_fold"] = {k: v for k, v in fold.items() if k != "per_daemon"}
    _write_out(args, "\nfull report", report)
    return 0


def _top_frame(observer, pushed=None) -> str:
    """One rendered dashboard frame: per-daemon table + cluster footer."""
    from repro.analysis.loadmap import gini
    from repro.telemetry.windows import merge_hist_states, state_percentile

    ping = observer.ping_offsets()
    fold = observer.harvest_windows()
    report = observer.slo_report(fold=fold)
    raw = fold.get("per_daemon", {})
    missing = set(fold.get("missing_daemons", [])) | set(ping["missing_daemons"])

    rows = []
    rpc_totals = []
    cluster_bps = 0.0
    for daemon in range(observer.deployment.num_nodes):
        if daemon in missing:
            rows.append([f"d{daemon}", "DOWN", "-", "-", "-", "-", "-"])
            continue
        info = ping["daemons"].get(daemon, {})
        windows = raw.get(daemon, {}).get("windows", [])
        if not windows:
            rows.append(
                [f"d{daemon}", "up", "-", "-", "-",
                 str(info.get("min_epoch", "-")),
                 f"{ping['rtts'].get(daemon, 0.0) * 1e3:.2f} ms"]
            )
            continue
        last = windows[-1]
        span = max(last["end"] - last["start"], 1e-9)
        deltas = last.get("gauge_deltas", {})
        bps = (
            deltas.get("storage.bytes_written", 0)
            + deltas.get("storage.bytes_read", 0)
        ) / span
        rps = sum(
            v for k, v in deltas.items() if k.startswith("rpc.calls.")
        ) / span
        rpc_totals.append(sum(v for k, v in deltas.items() if k.startswith("rpc.calls.")))
        cluster_bps += bps
        merged = merge_hist_states(
            state
            for name, state in last.get("histograms", {}).items()
            if name.startswith("rpc.latency.")
        )
        p99 = state_percentile(merged, 99) if merged else None
        rows.append(
            [
                f"d{daemon}",
                "up",
                f"{format_throughput(bps)} ({rps:,.0f} rpc/s)",
                str(last.get("gauges", {}).get("server.queue_depth", 0)),
                f"{p99 * 1e3:.2f} ms" if p99 is not None else "-",
                str(info.get("min_epoch", "-")),
                f"{ping['rtts'].get(daemon, 0.0) * 1e3:.2f} ms",
            ]
        )
    frame = render_table(
        ["daemon", "state", "throughput (last window)", "queue", "p99", "epoch", "rtt"],
        rows,
        title=f"gkfs top — {observer.deployment.num_nodes} daemons, "
        f"{len(missing)} down, interval "
        f"{fold.get('interval') if fold.get('interval') is not None else '?'}s",
    )
    lines = [frame]
    live_rpcs = [t for t in rpc_totals if t > 0]
    balance = (
        f"gini {gini([float(t) for t in rpc_totals]):.3f}"
        if len(rpc_totals) > 1 and live_rpcs
        else "gini -"
    )
    lines.append(
        f"cluster: {format_throughput(cluster_bps)} data, rpc-load {balance}"
    )
    alerts = report.get("alerts", [])
    if alerts:
        for alert in alerts:
            lines.append(
                f"ALERT [{alert['severity']}] {alert['slo']}: burn "
                f"{alert['short_burn']:.1f}x/{alert['long_burn']:.1f}x over "
                f"{alert['short_windows']}/{alert['long_windows']} windows"
            )
    else:
        lines.append("SLOs: no burn-rate alerts")
    if pushed:
        # Push-mode ticker: alerts delivered through the engine's sink
        # persist across frames (with their age), so a burn that fired
        # between two quiet renders is still visible.
        import time as _time

        now = _time.monotonic()
        for stamp, alert in list(pushed):
            lines.append(
                f"pushed {now - stamp:4.0f}s ago: [{alert['severity']}] "
                f"{alert['slo']}"
            )
    return "\n".join(lines)


def _cmd_top(args: argparse.Namespace) -> int:
    import sys
    import time

    from repro.telemetry import ClusterObserver

    if not args.connect:
        print("top: --connect host:port,... is required (live daemons only)")
        return 2
    iterations = 1 if args.once else args.iterations
    with _connected_deployment(args, FSConfig(telemetry_enabled=True)) as fs:
        from collections import deque

        observer = ClusterObserver(fs)
        pushed: deque = deque(maxlen=8)
        observer.slo_engine.add_sink(
            lambda alert: pushed.append((time.monotonic(), alert))
        )
        frames = 0
        try:
            while iterations is None or frames < iterations:
                if frames:
                    time.sleep(args.interval)
                    if sys.stdout.isatty():
                        print("\033[2J\033[H", end="")
                print(_top_frame(observer, pushed=pushed))
                frames += 1
        except KeyboardInterrupt:
            pass
    return 0


def _cmd_postmortem(args: argparse.Namespace) -> int:
    import os

    from repro.telemetry import find_flight_dumps, load_flight_dump, render_flight_dump

    if os.path.isdir(args.target):
        paths = find_flight_dumps(args.target)
        if not paths:
            print(f"postmortem: no flight-d*.json dumps under {args.target}")
            return 1
    elif os.path.isfile(args.target):
        paths = [args.target]
    else:
        print(f"postmortem: {args.target} does not exist")
        return 1
    for index, path in enumerate(paths):
        if index:
            print()
        payload = load_flight_dump(path)
        print(render_flight_dump(payload, tail=args.tail))
    return 0


def _cmd_overload(args: argparse.Namespace) -> int:
    """Live fairness demo on a single-daemon QoS deployment.

    Self-refilling RPC pumps keep every client continuously backlogged
    (the victim shallow, the greedy deep), so the share table directly
    shows the scheduling discipline: with WFQ each client's ops land
    near 1.0x fair share regardless of queue depth — and a
    ``--victim-weight`` of 2 gives the victim twice the others' service.
    The CLI face of EXT-OVERLOAD's fairness pump
    (:func:`repro.experiments.overload_pump`).
    """
    from repro.experiments import overload_pump

    weights = {0: args.victim_weight} if args.victim_weight is not None else None
    depths = [args.victim_depth] + [args.greedy_depth] * args.greedy
    shares = overload_pump(depths, weights=weights, window=args.duration)["shares"]

    if not shares:
        print("ERROR: no shares recorded (QoS accounting missing)")
        return 1
    total_ops = sum(share["ops"] for share in shares.values())
    fair = total_ops / len(shares)
    rows = [
        [
            "victim" if client == 0 else f"greedy-{client}",
            str(depths[client]),
            f"{share['ops']:,}",
            f"{share['bytes']:,}",
            f"{share['ops'] / fair:.2f}x",
        ]
        for client, share in sorted(shares.items())
    ]
    weight_note = (
        f", victim weight {args.victim_weight}" if args.victim_weight is not None else ""
    )
    print(
        render_table(
            ["client", "in-flight", "ops served", "bytes moved", "share vs fair"],
            rows,
            title=f"QoS shares: {args.greedy} greedy vs 1 victim, "
            f"{args.duration:.1f}s{weight_note}",
        )
    )
    return 0


def _cmd_scrub(args: argparse.Namespace) -> int:
    """Inject bit-rot, read through it, scrub it away — end to end.

    Exit status is the convergence check: 0 only if every corrupt chunk
    the scrubber found was repaired (nothing quarantined) and a post-scrub
    fsck comes back clean.  ``--replication 1`` demonstrates the loud
    failure mode instead — unrepairable chunks are quarantined and the
    command exits non-zero.  The CLI face of EXT-INTEGRITY's replicated
    part (:func:`repro.experiments.bitrot_scrub`).
    """
    from repro.experiments import bitrot_scrub, chaos_seed

    seed = chaos_seed(args.seed)
    run = bitrot_scrub(
        args.nodes,
        args.files,
        args.chunks_per_file,
        replication=args.replication,
        fraction=args.fraction,
        seed=seed,
        rate=args.rate,
    )
    report, clean = run["scrub"], run["fsck_clean"]
    damaged = run["damaged_round1"] + run["damaged_round2"]

    rows = [
        [f"daemon {address}"]
        + [str(stats[k]) for k in ("scanned", "corrupt", "repaired", "unrepairable")]
        for address, stats in sorted(report.per_daemon.items())
    ]
    rows.append(["total"] + [str(n) for n in (report.chunks_scanned, report.corrupt_found,
                                                report.repaired, report.unrepairable)])
    print(
        render_table(
            ["daemon", "scanned", "corrupt", "repaired", "unrepairable"],
            rows,
            title=f"scrub: {len(damaged)} chunks rotted on daemon {run['victim']} "
            f"(seed {seed}, replication {args.replication})",
        )
    )
    print(
        f"client reads: {run['reads_ok']}/{args.files} verified correct, "
        f"{run['read_errors']} failed loudly; "
        f"failovers={run['integrity_failovers']}, "
        f"read_repairs={run['read_repairs']}"
    )
    print(str(report) + f"; post-scrub fsck {'clean' if clean else 'NOT clean'}")
    _write_out(args, "damage report", {
        **report.as_dict(), "seed": seed, "injected": len(damaged), "fsck_clean": clean})
    return 0 if report.converged and clean else 1


def _cmd_resize(args: argparse.Namespace) -> int:
    """Populate a cluster, change its membership online, prove no byte moved
    wrong.

    ``--grow N`` drives the live pre-copy protocol (epoch bump, throttled
    background copy, brief write freeze, verified release); ``--replace A``
    crash-stops daemon ``A`` and restores redundancy onto an empty
    replacement from the surviving replicas.  Exit status is the proof: 0
    only if every file reads back correct afterwards, nothing failed
    verification, and (replace mode) fsck is clean.  The CLI face of
    EXT-ELASTIC's scenario (:func:`repro.experiments.resize_pass`), without
    its background writer.
    """
    from repro.experiments import resize_pass

    if (args.grow is None) == (args.replace is None):
        print("resize: pass exactly one of --grow N or --replace ADDR")
        return 2
    if args.replace is not None and args.replication < 2:
        print("resize: --replace needs --replication >= 2 (no surviving copies otherwise)")
        return 2

    config = FSConfig(
        chunk_size=4 * KiB,
        replication=args.replication,
        integrity_enabled=True,
        integrity_block_size=KiB,
        migration_rate=args.rate,
    )
    run = resize_pass(
        config,
        args.nodes,
        args.files,
        args.chunks_per_file,
        grow=args.grow,
        replace=args.replace,
    )
    report, data_ok = run["report"], run["data_ok"]
    clean, scrub_corrupt = run["fsck_clean"], run["scrub_corrupt_found"]
    summary = report.as_dict()
    if args.grow is not None:
        rows = [
            [f"daemon {address}", format_size(stats["bytes_in"]), format_size(stats["bytes_out"])]
            + [str(stats[k]) for k in ("chunks_in", "chunks_out", "records_in")]
            for address, stats in sorted(report.per_daemon.items())
        ]
        headers = ["daemon", "bytes in", "bytes out", "chunks in", "chunks out", "records in"]
        print(render_table(
            headers, rows, title=f"resize: live {args.nodes} -> {args.grow} daemons"))
        print(str(report))
        failures = report.verify_failures
    else:  # a restore that fails its digest check raises instead
        rows = [[name, str(value)] for name, value in summary.items()]
        print(render_table(
            ["repair", "count"], rows,
            title=f"resize: crash-replace daemon {args.replace} of {args.nodes}"))
        failures = 0
    print(
        f"read-back: {'all' if data_ok else 'NOT all'} {args.files} files "
        f"verified correct"
        + (
            f"; fsck {'clean' if clean else 'NOT clean'}, "
            f"scrub found {scrub_corrupt} corrupt"
            if args.replace is not None
            else ""
        )
    )
    summary["data_verified"] = data_ok
    if args.replace is not None:
        summary["fsck_clean"] = clean
        summary["scrub_corrupt_found"] = scrub_corrupt
    _write_out(args, f"{'migration' if args.grow is not None else 'repair'} report", summary)
    ok = data_ok and failures == 0 and clean and scrub_corrupt == 0
    return 0 if ok else 1


def _cmd_soak(args: argparse.Namespace) -> int:
    """Run one seeded chaos soak and print the invariant verdicts.

    Exit status *is* the verdict: 0 only if no acked byte was lost, the
    availability floor held, every repair stayed within budget, the
    cluster quiesced back to full redundancy, and nothing was falsely
    condemned.
    """
    import shutil
    import tempfile

    from repro.experiments import chaos_seed
    from repro.faults.soak import SoakHarness

    seed = chaos_seed(args.seed)
    workdir = args.workdir
    cleanup = workdir is None
    if workdir is None:
        workdir = tempfile.mkdtemp(prefix="gkfs-soak-")
    try:
        harness = SoakHarness(
            workdir,
            seed=seed,
            duration=args.duration,
            num_nodes=args.nodes,
            fault_interval=args.fault_interval,
            files=args.files,
            mttr_budget=args.mttr_budget,
        )
        report = harness.run()
    finally:
        if cleanup:
            shutil.rmtree(workdir, ignore_errors=True)

    kinds: dict[str, int] = {}
    for fault in report.faults:
        kinds[fault["kind"]] = kinds.get(fault["kind"], 0) + 1
    rows = [
        ["fault log", ", ".join(f"{k}={v}" for k, v in sorted(kinds.items())) or "none"],
        ["foreground ops", f"{report.ops:,} ({report.ops_failed:,} failed)"],
        ["availability", f"{report.availability:.3f} (floor {harness.availability_floor})"],
        ["longest blackout", f"{report.max_blackout_windows} windows (max {harness.max_blackout})"],
        ["repairs", f"{report.repairs} ({report.restarts} restart, {report.replaces} replace, {report.repair_failures} failed)"],
        ["max MTTR", f"{report.max_mttr:.2f} s" + (f" (budget {args.mttr_budget:.2f} s)" if args.mttr_budget else "")],
        ["partitions held at suspect", str(report.partitions_detected)],
        ["false condemnations", str(len(report.false_condemnations))],
        ["replica resyncs", str(report.resyncs)],
        ["residual restores", str(report.residual_restores)],
        ["acked data verified", f"{report.files_verified} files / {format_size(report.bytes_verified)}"],
    ]
    print(
        render_table(
            ["invariant evidence", "value"],
            rows,
            title=f"soak: seed {seed}, {args.nodes} daemons, "
            f"{report.duration:.1f}s — {'PASSED' if report.passed else 'FAILED'}",
        )
    )
    for violation in report.violations:
        print(f"VIOLATION: {violation}")
    _write_out(args, "soak report", report.as_dict())
    return 0 if report.passed else 1


def _cmd_hotspot(args: argparse.Namespace) -> int:
    """Stat-storm one shared file, cache off then on; print the curve.

    The CLI face of EXT-HOTSPOT: identical storms against the same
    cluster shape with the metadata cache (and hot plane) disabled and
    enabled, plus the closed-form twin's prediction next to the measured
    numbers.  Exit 0 when the storm ran clean and the cache flattened
    the hottest daemon's share.
    """
    from repro.experiments import chaos_seed, hotspot_storm
    from repro.models.metacache import hottest_share, stat_hit_rate

    seed = chaos_seed(args.seed)
    runs = {
        label: hotspot_storm(
            args.daemons,
            on,
            seed=seed,
            duration=args.duration,
            client_threads=args.threads,
            ttl=args.ttl,
            hot_k=args.hot_k,
            mode="stat",
        )
        for label, on in (("off", False), ("on", True))
    }
    off, on = runs["off"], runs["on"]
    rows = [
        [
            f"daemon {d}",
            str(off["per_daemon_stat_rpcs"][d]),
            str(on["per_daemon_stat_rpcs"][d]),
        ]
        for d in range(args.daemons)
    ]
    print(
        render_table(
            ["", "stat RPCs (cache off)", "stat RPCs (cache on)"],
            rows,
            title=f"hotspot: {args.threads} clients stat-storm one file, "
            f"{args.daemons} daemons, {args.duration:.1f}s",
        )
    )
    ratio = off["hottest_share"] / max(on["hottest_share"], 1e-9)
    model_share = hottest_share(args.daemons, args.hot_k)
    model_hit = stat_hit_rate(max(on["per_client_stat_rate"], 1e-9), args.ttl)
    print(
        f"hottest-daemon share: {off['hottest_share']:.3f} -> "
        f"{on['hottest_share']:.3f} ({ratio:.1f}x flatter; steady-state "
        f"model floor {model_share:.3f})"
    )
    print(
        f"stat throughput: {off['stat_ops_per_s']:,.0f}/s -> "
        f"{on['stat_ops_per_s']:,.0f}/s "
        f"({on['stat_ops_per_s'] / max(off['stat_ops_per_s'], 1e-9):.1f}x)"
    )
    print(
        f"cache hit rate {on['hit_rate']:.4f} (model {model_hit:.4f}); "
        f"{on['replica_reads']} replica reads, {on['replica_seeds']} seeds"
    )
    _write_out(args, "storm report", {"seed": seed, "off": off, "on": on, "share_ratio": ratio})
    ok = off["errors"] == on["errors"] == 0 and ratio > 1.0
    return 0 if ok else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return globals()[f"_cmd_{args.command}"](args)  # one _cmd_<name> per command
