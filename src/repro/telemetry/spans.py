"""Distributed request tracing: span context, collector, trace export.

The paper's evaluation is observational — op rates, bandwidths, the
claim that hash striping spreads load evenly (§III) — but none of those
observables survive a single request's journey through the stack.  This
module threads a request context from client operation → RPC message →
daemon handler and collects the resulting spans in one per-deployment
:class:`TraceCollector`:

* every traced client operation opens a **client span** and allocates a
  ``request_id``;
* RPCs issued under it carry ``request_id``/``parent_span`` in their
  :class:`~repro.rpc.message.RpcRequest` envelope (the context travels
  on the wire, not in a thread-local, so threaded handler pools see it);
* each daemon handler records a **daemon span** tagged with the carried
  ids, so a trace can be reassembled into client→daemon trees;
* chaos faults, health-tracker transitions and degraded broadcasts are
  recorded as **instant events** in the same stream, with a global
  sequence number establishing causal order.

Exports: Chrome trace-event JSON (Perfetto-loadable, round-trips through
:func:`parse_chrome_trace`) and an in-repo ASCII timeline.

The whole plane is opt-in (``FSConfig.telemetry_enabled``): with it off
no collector exists, clients keep their unwrapped methods, and the RPC
envelope carries ``None`` ids — the zero-cost path.
"""

from __future__ import annotations

import contextvars
import itertools
import json
import time
from dataclasses import dataclass, field
from typing import Any, Callable, NamedTuple, Optional

from repro.analysis.report import render_table

__all__ = [
    "SpanContext",
    "SpanRecord",
    "InstantEvent",
    "TraceCollector",
    "install_op_spans",
    "parse_chrome_trace",
    "records_from_wire",
    "ascii_timeline",
]

#: Chrome trace-event pid used for all client spans (tid = client node).
CLIENT_PID = 0
#: Daemon spans use pid = DAEMON_PID_BASE + daemon address.
DAEMON_PID_BASE = 1000


class SpanContext(NamedTuple):
    """The propagated context: which request, which enclosing span.

    A ``NamedTuple`` rather than a dataclass: one is created on every
    traced client operation, and tuple construction is several times
    cheaper than a frozen dataclass ``__init__``.
    """

    request_id: str
    span_id: str
    parent_span: Optional[str] = None


@dataclass(frozen=True)
class SpanRecord:
    """One completed span (client operation or daemon handler)."""

    name: str
    cat: str  # "client" | "daemon"
    start: float  # seconds since collector epoch
    duration: float
    pid: int
    tid: int
    span_id: str
    request_id: Optional[str]
    parent_span: Optional[str]
    seq: int
    error: Optional[str] = None
    args: dict = field(default_factory=dict)


@dataclass(frozen=True)
class InstantEvent:
    """One point-in-time event (fault injection, health transition, ...)."""

    name: str
    cat: str  # "fault" | "health" | "degraded" | ...
    ts: float
    seq: int
    args: dict = field(default_factory=dict)


#: The active span context of the calling task.  A context variable (not
#: a bare thread-local) so traced operations driven from coroutines or
#: copied contexts keep their lineage.
_CURRENT: contextvars.ContextVar[Optional[SpanContext]] = contextvars.ContextVar(
    "gkfs_span_context", default=None
)


class TraceCollector:
    """Per-deployment span/event sink with id allocation.

    Thread-safe without taking a lock on the record path: sequence and
    id allocation go through :class:`itertools.count` and records land
    via ``list.append``, both atomic under the GIL — the collector sits
    on every instrumented RPC, so the hot path must cost no more than a
    few allocations.  Shared by every client, engine, the chaos
    controller and the health tracker of one deployment.  Timestamps are
    seconds since the collector's construction (one epoch per
    deployment, so client and daemon spans land on a common axis), and
    every record carries a global sequence number — the causal order of
    the merged timeline, immune to clock granularity.

    :param clock: injectable time source (tests pin it; the default is
        :func:`time.perf_counter`).
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self._epoch = clock()
        #: Epoch in perf_counter terms when the default clock is in use,
        #: else None.  Lets the engine derive span start times from the
        #: perf_counter read it already takes, saving one clock call per
        #: RPC.
        self.perf_epoch = self._epoch if clock is time.perf_counter else None
        self._seq = itertools.count(1)
        self._ids = itertools.count(1)
        # Hot path appends bare tuples; SpanRecord/InstantEvent objects
        # are materialised lazily (and cached) the first time a reader
        # asks.  Dataclass construction is ~20x the cost of a tuple
        # append and would dominate the per-RPC budget.
        self._span_buf: list[tuple] = []
        self._event_buf: list[tuple] = []
        self._span_cache: list[SpanRecord] = []
        self._event_cache: list[InstantEvent] = []

    @property
    def spans(self) -> list[SpanRecord]:
        """Every recorded span, materialised (appended-to, never mutated)."""
        buf, cache = self._span_buf, self._span_cache
        for index in range(len(cache), len(buf)):
            record = buf[index]
            if record[6] is None:
                # Daemon spans defer id formatting to read time; the
                # global seq is already unique, so "d<seq>" never
                # collides with the client-side "s<n>" ids.
                record = record[:6] + (f"d{record[9]:08d}",) + record[7:]
            cache.append(SpanRecord(*record))
        return cache

    @property
    def events(self) -> list[InstantEvent]:
        """Every recorded instant event, materialised."""
        buf, cache = self._event_buf, self._event_cache
        for index in range(len(cache), len(buf)):
            cache.append(InstantEvent(*buf[index]))
        return cache

    # -- time and ids -------------------------------------------------------

    def now(self) -> float:
        """Seconds since the collector epoch."""
        return self._clock() - self._epoch

    def _new_id(self, prefix: str) -> str:
        return f"{prefix}{next(self._ids):08d}"

    def new_span_id(self, prefix: str = "d") -> str:
        """Allocate a span id outside :meth:`push` (daemon handler spans)."""
        return self._new_id(prefix)

    # -- context management -------------------------------------------------

    @staticmethod
    def current() -> Optional[SpanContext]:
        """The active span context of the calling task, if any."""
        return _CURRENT.get()

    def push(self) -> tuple[SpanContext, contextvars.Token]:
        """Enter a new span: fresh span id, inherited or fresh request id.

        Nested traced operations (``write_bytes`` calling ``pwrite``)
        keep the outer ``request_id`` and chain ``parent_span`` — one
        application request stays one tree.
        """
        outer = _CURRENT.get()
        if outer is None:
            context = SpanContext(
                request_id=self._new_id("r"), span_id=self._new_id("s")
            )
        else:
            context = SpanContext(
                request_id=outer.request_id,
                span_id=self._new_id("s"),
                parent_span=outer.span_id,
            )
        return context, _CURRENT.set(context)

    @staticmethod
    def pop(token: contextvars.Token) -> None:
        _CURRENT.reset(token)

    # -- recording ----------------------------------------------------------

    def record_span(
        self,
        name: str,
        cat: str,
        start: float,
        duration: float,
        *,
        pid: int,
        tid: int,
        span_id: str,
        request_id: Optional[str] = None,
        parent_span: Optional[str] = None,
        error: Optional[str] = None,
        args: Optional[dict] = None,
    ) -> None:
        self._span_buf.append(
            (name, cat, start, duration, pid, tid, span_id,
             request_id, parent_span, next(self._seq), error, args or {})
        )

    def instant(self, name: str, cat: str, **args: Any) -> None:
        """Record one point-in-time event at the current clock."""
        self._event_buf.append((name, cat, self.now(), next(self._seq), args))

    # -- queries -------------------------------------------------------------

    def spans_named(self, name: str) -> list[SpanRecord]:
        return [span for span in list(self.spans) if span.name == name]

    def children_of(self, span: SpanRecord) -> list[SpanRecord]:
        """Spans recorded as direct children of ``span``."""
        return [s for s in list(self.spans) if s.parent_span == span.span_id]

    def request_tree(self, request_id: str) -> list[SpanRecord]:
        """Every span of one request, in start order."""
        tree = [s for s in list(self.spans) if s.request_id == request_id]
        return sorted(tree, key=lambda s: (s.start, s.seq))

    def timeline(self) -> list:
        """Spans and instant events merged in causal (sequence) order."""
        merged: list = list(self.spans) + list(self.events)
        return sorted(merged, key=lambda item: item.seq)

    # -- wire dump / ingest ---------------------------------------------------

    def dump(self, limit: Optional[int] = None) -> dict:
        """The collected records as plain codec/JSON types.

        The payload of the ``gkfs_trace_dump`` RPC and the flight
        recorder's span section.  ``clock`` is this collector's *current*
        reading — paired with the requester's send/receive times it lets
        :class:`~repro.telemetry.observer.ClusterObserver` estimate the
        epoch offset between two collectors.  ``limit`` keeps only the
        most recent N of each stream (flight-recorder rings).
        """
        spans = list(self.spans)
        events = list(self.events)
        if limit is not None and limit >= 0:
            spans = spans[-limit:]
            events = events[-limit:]
        return {
            "clock": self.now(),
            "spans": [
                [s.name, s.cat, s.start, s.duration, s.pid, s.tid, s.span_id,
                 s.request_id, s.parent_span, s.seq, s.error, dict(s.args)]
                for s in spans
            ],
            "events": [
                [e.name, e.cat, e.ts, e.seq, dict(e.args)] for e in events
            ],
        }

    def ingest(self, spans, events) -> None:
        """Append already-materialised records (trace merging).

        The observer's merge path: records arrive with their final ids,
        timestamps and sequence numbers already resolved — they are
        appended verbatim, bypassing this collector's allocators.
        """
        for s in spans:
            self._span_buf.append(
                (s.name, s.cat, s.start, s.duration, s.pid, s.tid, s.span_id,
                 s.request_id, s.parent_span, s.seq, s.error, dict(s.args))
            )
        for e in events:
            self._event_buf.append((e.name, e.cat, e.ts, e.seq, dict(e.args)))

    def clear(self) -> None:
        """Drop collected records (between measured phases); ids keep
        counting so a request never collides with a pre-clear one.  In
        place, because installed op wrappers hold the buffer by
        reference."""
        self._span_buf.clear()
        self._event_buf.clear()
        self._span_cache.clear()
        self._event_cache.clear()

    # -- Chrome trace-event export -------------------------------------------

    def to_chrome_trace(self) -> dict:
        """The collected records as a Chrome trace-event JSON object.

        Complete (``X``) duration events for spans, instant (``i``)
        events for the point-in-time stream; timestamps in microseconds
        as the format requires.  Loadable in Perfetto / chrome://tracing
        and round-trippable through :func:`parse_chrome_trace`.
        """
        trace_events: list[dict] = []
        spans = list(self.spans)
        events = list(self.events)
        for span in spans:
            args = {
                "span_id": span.span_id,
                "request_id": span.request_id,
                "parent_span": span.parent_span,
                "seq": span.seq,
            }
            if span.error is not None:
                args["error"] = span.error
            args.update(span.args)
            trace_events.append(
                {
                    "ph": "X",
                    "name": span.name,
                    "cat": span.cat,
                    "ts": span.start * 1e6,
                    "dur": span.duration * 1e6,
                    "pid": span.pid,
                    "tid": span.tid,
                    "args": args,
                }
            )
        for event in events:
            trace_events.append(
                {
                    "ph": "i",
                    "name": event.name,
                    "cat": event.cat,
                    "ts": event.ts * 1e6,
                    "pid": CLIENT_PID,
                    "tid": 0,
                    "s": "g",  # global scope: draws across all tracks
                    "args": dict(event.args, seq=event.seq),
                }
            )
        return {"traceEvents": trace_events, "displayTimeUnit": "ms"}

    def to_chrome_json(self) -> str:
        return json.dumps(self.to_chrome_trace(), indent=1, sort_keys=True)


def _spanned(collector: TraceCollector, name: str, fn: Callable, tid: int) -> Callable:
    """Wrap one client method to run inside a fresh span."""
    # Bound methods resolved once; the wrapper sits on every traced op.
    push, pop, now = collector.push, collector.pop, collector.now
    buf, seq = collector._span_buf, collector._seq

    def wrapper(*args: Any, **kwargs: Any):
        context, token = push()
        start = now()
        error: Optional[str] = None
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            error = type(exc).__name__
            raise
        finally:
            # Inline of record_span (same tuple layout) minus the call.
            buf.append(
                (name, "client", start, now() - start, CLIENT_PID, tid,
                 context.span_id, context.request_id, context.parent_span,
                 next(seq), error, {})
            )
            pop(token)

    wrapper.__name__ = name
    wrapper.__doc__ = fn.__doc__
    return wrapper


def install_op_spans(client, collector: TraceCollector) -> None:
    """Give every traced client operation a span on ``collector``.

    Same instance-attribute technique as
    :class:`~repro.telemetry.tracer.TracedClient`: the wrapped bound
    methods shadow the class ones on this instance only, so other
    clients of the deployment are untouched.  RPCs the operation issues
    pick the active span up from the context variable (the network's
    ``call_async`` stamps it into the request envelope).  Convenience
    calls that run through other traced methods (``write_bytes`` →
    ``pwrite``) produce nested child spans of the same request.
    """
    from repro.telemetry.tracer import TRACED_METHODS

    for name in TRACED_METHODS:
        setattr(client, name, _spanned(collector, name, getattr(client, name), client.node_id))


def parse_chrome_trace(payload) -> tuple[list[SpanRecord], list[InstantEvent]]:
    """Parse a Chrome trace-event JSON string/object back into records.

    The exporter's own inverse: validates the structure a consumer
    (Perfetto, the CI smoke job, the acceptance tests) relies on and
    rehydrates :class:`SpanRecord`/:class:`InstantEvent` lists.  Raises
    ``ValueError`` on anything malformed.
    """
    if isinstance(payload, (str, bytes)):
        payload = json.loads(payload)
    if not isinstance(payload, dict) or "traceEvents" not in payload:
        raise ValueError("not a Chrome trace: missing 'traceEvents'")
    spans: list[SpanRecord] = []
    events: list[InstantEvent] = []
    for i, entry in enumerate(payload["traceEvents"]):
        if not isinstance(entry, dict):
            raise ValueError(f"traceEvents[{i}] is not an object")
        phase = entry.get("ph")
        missing = {"name", "ts", "ph"} - set(entry)
        if missing:
            raise ValueError(f"traceEvents[{i}] missing {sorted(missing)}")
        args = entry.get("args", {})
        if phase == "X":
            if "dur" not in entry:
                raise ValueError(f"traceEvents[{i}]: duration event without 'dur'")
            extra = {
                k: v
                for k, v in args.items()
                if k not in ("span_id", "request_id", "parent_span", "seq", "error")
            }
            spans.append(
                SpanRecord(
                    name=entry["name"],
                    cat=entry.get("cat", ""),
                    start=entry["ts"] / 1e6,
                    duration=entry["dur"] / 1e6,
                    pid=entry.get("pid", 0),
                    tid=entry.get("tid", 0),
                    span_id=args.get("span_id", ""),
                    request_id=args.get("request_id"),
                    parent_span=args.get("parent_span"),
                    seq=args.get("seq", 0),
                    error=args.get("error"),
                    args=extra,
                )
            )
        elif phase == "i":
            extra = {k: v for k, v in args.items() if k != "seq"}
            events.append(
                InstantEvent(
                    name=entry["name"],
                    cat=entry.get("cat", ""),
                    ts=entry["ts"] / 1e6,
                    seq=args.get("seq", 0),
                    args=extra,
                )
            )
        else:
            raise ValueError(f"traceEvents[{i}]: unsupported phase {phase!r}")
    return spans, events


def records_from_wire(dump: dict) -> tuple[list[SpanRecord], list[InstantEvent]]:
    """Rehydrate a :meth:`TraceCollector.dump` payload into records.

    The inverse of the wire form (used by the observer on harvested
    ``gkfs_trace_dump`` replies and by ``repro postmortem`` on flight
    files).  Raises ``ValueError`` on malformed rows.
    """
    spans: list[SpanRecord] = []
    events: list[InstantEvent] = []
    for i, row in enumerate(dump.get("spans", [])):
        if len(row) != 12:
            raise ValueError(f"span row {i} has {len(row)} fields, expected 12")
        spans.append(SpanRecord(*row[:11], args=dict(row[11] or {})))
    for i, row in enumerate(dump.get("events", [])):
        if len(row) != 5:
            raise ValueError(f"event row {i} has {len(row)} fields, expected 5")
        events.append(InstantEvent(*row[:4], args=dict(row[4] or {})))
    return spans, events


def ascii_timeline(
    collector: TraceCollector, limit: Optional[int] = None, title: str = "trace timeline"
) -> str:
    """Render the merged span/event stream as an indented ASCII table.

    Client spans sit at depth 0, their nested/daemon children indent one
    level per parent link; instant events print at the column of the
    stream.  ``limit`` truncates long traces (a note says how many rows
    were dropped).
    """
    items = collector.timeline()
    # A parent span *records* after its children finish, so depths must
    # be resolved through the id graph, not discovery order.
    by_id = {it.span_id: it for it in items if isinstance(it, SpanRecord)}
    depth: dict[str, int] = {}

    def resolve(span: SpanRecord) -> int:
        cached = depth.get(span.span_id)
        if cached is not None:
            return cached
        parent = by_id.get(span.parent_span) if span.parent_span else None
        value = 0 if parent is None else resolve(parent) + 1
        depth[span.span_id] = value
        return value

    for span in by_id.values():
        resolve(span)
    # Chronological story: order by when each item happened, not by when
    # it was recorded (a parent span records after its children finish).
    items.sort(key=lambda it: (it.start if isinstance(it, SpanRecord) else it.ts, it.seq))
    rows = []
    for item in items:
        if isinstance(item, SpanRecord):
            indent = ". " * depth.get(item.span_id, 0)
            where = (
                f"client{item.tid}" if item.cat == "client" else f"daemon{item.pid - DAEMON_PID_BASE}"
            )
            rows.append(
                [
                    f"{item.start * 1e3:10.3f}",
                    where,
                    f"{indent}{item.name}" + (" !" + item.error if item.error else ""),
                    f"{item.duration * 1e6:,.1f} us",
                    item.request_id or "-",
                ]
            )
        else:
            rows.append(
                [
                    f"{item.ts * 1e3:10.3f}",
                    item.cat,
                    f"* {item.name} {item.args}",
                    "-",
                    "-",
                ]
            )
    dropped = 0
    if limit is not None and len(rows) > limit:
        dropped = len(rows) - limit
        rows = rows[:limit]
    out = render_table(["ms", "where", "span/event", "dur", "request"], rows, title=title)
    if dropped:
        out += f"\n... {dropped} more rows truncated ..."
    return out
