"""Operation tracer and the transparent traced-client wrapper.

``TracedClient`` wraps a :class:`~repro.core.client.GekkoFSClient` and
times every file-system call into per-operation latency histograms —
drop-in, zero changes to application code:

    client = TracedClient(cluster.client(0))
    ... run the workload ...
    print(client.tracer.report())
"""

from __future__ import annotations

import time
from typing import Any, Callable

from repro.analysis.report import render_table
from repro.telemetry.histogram import LatencyHistogram

__all__ = ["OpTracer", "TracedClient", "TRACED_METHODS", "TRACE_EXEMPT", "PATH_METHODS"]

#: Client methods the wrapper times (the intercepted call surface).
TRACED_METHODS = (
    "open",
    "creat",
    "close",
    "read",
    "write",
    "pread",
    "pwrite",
    "lseek",
    "fsync",
    "stat",
    "fstat",
    "unlink",
    "truncate",
    "ftruncate",
    "mkdir",
    "rmdir",
    "listdir",
    "listdir_plus",
    "opendir",
    "readdir",
    # Convenience calls are traced as single operations: their internal
    # open/read/close run on the wrapped client and are not double-counted.
    "read_bytes",
    "write_bytes",
    "copy",
)

#: Public client methods deliberately *not* traced, with the reason.
#: The guard test (tests/test_telemetry_surface.py) insists every public
#: method is in exactly one of TRACED_METHODS / TRACE_EXEMPT, so a new
#: client method forces an explicit tracing decision.
TRACE_EXEMPT = frozenset(
    {
        # Composites of already-traced calls: tracing both layers would
        # double-count every inner operation in per-op histograms.
        "exists",  # stat in a try/except
        "walk",  # generator over listdir_plus
        "disk_usage",  # stat + walk
        # Unsupported surface (§III-A): raises immediately, no RPC.
        "rename",
        "link",
        "symlink",
        "chmod",
        # Pure local predicate, no RPC.
        "is_gekkofs_path",
        # Introspection broadcasts: observability reading its own plane
        # would perturb the numbers it reports.
        "statfs",
        "metrics",
    }
)


#: Public methods of ``client.meta`` / ``client.data``, none traced: each runs
#: inside a traced client call whose span covers it, or is the supervisor's
#: drain of the dirty-replica ledger (no RPC).  The guard test pins the set.
PATH_METHODS = frozenset({
    "broadcast",  # both paths (Forwarding)
    "call", "flush", "listing", "stat",  # MetadataPath
    "append", "drain_dirty_replicas", "pread", "pwrite", "stat_entry", "trim", "write",
})


class OpTracer:
    """Per-operation latency histograms with a tabular report."""

    def __init__(self):
        self._histograms: dict[str, LatencyHistogram] = {}

    def observe(self, op: str, seconds: float) -> None:
        hist = self._histograms.get(op)
        if hist is None:
            hist = self._histograms[op] = LatencyHistogram()
        hist.record(seconds)

    def histogram(self, op: str) -> LatencyHistogram:
        """The histogram for ``op`` (KeyError if never observed)."""
        return self._histograms[op]

    @property
    def operations(self) -> list[str]:
        return sorted(self._histograms)

    def total_operations(self) -> int:
        return sum(h.count for h in self._histograms.values())

    def merge(self, other: "OpTracer") -> None:
        """Fold another tracer in (aggregate ranks, like mdtest does)."""
        for op, hist in other._histograms.items():
            mine = self._histograms.get(op)
            if mine is None:
                mine = self._histograms[op] = LatencyHistogram()
            mine.merge(hist)

    def report(self, title: str = "operation latencies") -> str:
        """Render count / mean / p50 / p99 / max per operation."""
        rows = []
        for op in self.operations:
            s = self._histograms[op].summary()
            rows.append(
                [
                    op,
                    str(int(s["count"])),
                    f"{s['mean'] * 1e6:,.1f}",
                    f"{s['p50'] * 1e6:,.1f}",
                    f"{s['p99'] * 1e6:,.1f}",
                    f"{s['max'] * 1e6:,.1f}",
                ]
            )
        return render_table(
            ["op", "count", "mean us", "p50 us", "p99 us", "max us"], rows, title=title
        )


def _timed(tracer: OpTracer, name: str, fn: Callable) -> Callable:
    def wrapper(*args: Any, **kwargs: Any):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.observe(name, time.perf_counter() - start)

    wrapper.__name__ = name
    wrapper.__doc__ = fn.__doc__
    return wrapper


class TracedClient:
    """Proxy that times the traced call surface and delegates the rest.

    Failures are timed too (a failed stat is still a served RPC), then
    re-raised unchanged.
    """

    def __init__(self, client, tracer: "OpTracer | None" = None):
        self._client = client
        self.tracer = tracer if tracer is not None else OpTracer()
        for name in TRACED_METHODS:
            setattr(self, name, _timed(self.tracer, name, getattr(client, name)))

    def __getattr__(self, name: str):
        # Anything not traced (stats, config, filemap, ...) passes through.
        return getattr(self._client, name)
