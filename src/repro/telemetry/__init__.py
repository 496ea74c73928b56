"""Operation telemetry: latency histograms and a tracing client wrapper.

The paper evaluates GekkoFS "without any form of caching ... to allow for
an evaluation of its raw performance capabilities" (§III-A) and reports
op rates, bandwidths, and latency bounds.  This package provides the
instrumentation a user needs to produce the same observables from their
own workloads: log-bucketed latency histograms with percentiles, a
transparent client wrapper that times every file-system call, an
in-flight RPC depth gauge for the pipelined fan-out path — and, since
the stack went multi-process, the cluster-wide plane: fixed-interval
metric windows with an SLO burn-rate engine, a per-daemon flight
recorder, and a :class:`ClusterObserver` that harvests traces/metrics
from live socket daemons and merges them onto one causal axis.
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "flightrecorder": [
        "FLIGHT_FORMAT", "FlightRecorder", "find_flight_dumps", "load_flight_dump",
        "render_flight_dump",
    ],
    "histogram": ["LatencyHistogram"],
    "inflight": ["InflightGauge"],
    "metrics": ["MetricsRegistry", "merge_snapshots"],
    "observer": ["ClusterObserver", "HarvestError"],
    "slo": [
        "DEFAULT_RULES", "DEFAULT_SLOS", "SLO", "BurnRateRule", "SloEngine", "render_slo_report",
    ],
    "spans": [
        "InstantEvent", "SpanContext", "SpanRecord", "TraceCollector", "ascii_timeline",
        "parse_chrome_trace", "records_from_wire",
    ],
    "tracer": ["OpTracer", "TracedClient"],
    "windows": ["MetricsWindows", "fold_windows"],
})
