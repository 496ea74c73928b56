"""ClusterObserver: pull-based observability over the socket transport.

Since PR 6 each ``repro serve`` daemon keeps a *private*
:class:`TraceCollector` (its own clock epoch) and a private
:class:`MetricsRegistry` — the PR-3 plane is blind across process
boundaries.  The observer closes the gap from the client side, with
nothing but RPCs:

* **clock alignment** — :meth:`ping_offsets` runs a ping-style handshake
  (``gkfs_ping``) against every daemon: the daemon reports its collector
  clock, the observer brackets the exchange with its own reference
  clock, and the midpoint of the minimum-RTT round estimates the epoch
  offset between the two collectors (classic NTP-style estimation; error
  is bounded by RTT/2);
* **trace harvesting** — :meth:`harvest_trace` pulls every daemon's span
  and event buffers (``gkfs_trace_dump``), re-namespaces daemon-local
  span ids as ``"{daemon}/{id}"`` (two daemons both allocate
  ``d00000001``), shifts timestamps onto the reference axis using the
  ping offsets, applies a per-daemon **causality clamp** (a uniform
  forward shift so no daemon span starts before the client span that
  caused it — offset estimation error can never reorder an RPC before
  its issue), reassigns the global sequence numbers in merged timeline
  order, and returns a populated :class:`TraceCollector` so every
  existing consumer (Chrome export, ``ascii_timeline``, queries) works
  unchanged on the merged trace;
* **metrics / windows harvesting** — :meth:`harvest_metrics` folds
  ``gkfs_metrics`` snapshots with per-daemon provenance,
  :meth:`harvest_windows` folds ``gkfs_metrics_window`` time-series via
  :func:`~repro.telemetry.windows.fold_windows`;
* **SLO evaluation** — :meth:`slo_report` runs the burn-rate engine over
  the harvested fold, emitting alerts into the reference event stream
  and the deployment's health tracker.

All broadcasts follow the PR-2 degraded contract: with
``degraded_mode`` on, unreachable daemons are reported in
``missing_daemons`` instead of failing the harvest; strict mode raises.
"""

from __future__ import annotations

from typing import Optional

from repro.common.errors import UNREACHABLE
from repro.telemetry.metrics import merge_snapshots
from repro.telemetry.slo import SloEngine
from repro.telemetry.spans import (
    InstantEvent,
    SpanRecord,
    TraceCollector,
    records_from_wire,
)
from repro.telemetry.windows import fold_windows

__all__ = ["ClusterObserver", "HarvestError"]

class HarvestError(RuntimeError):
    """A strict-mode harvest could not reach every daemon."""


class ClusterObserver:
    """Remote observability client for one socket deployment.

    :param deployment: a :class:`~repro.net.cluster.SocketDeployment`
        (or anything exposing ``network``/``num_nodes``/``config`` and
        optionally ``trace_collector``/``health``).
    :param ping_rounds: handshake rounds per daemon; the minimum-RTT
        sample wins, so more rounds tighten the offset estimate.
    """

    def __init__(self, deployment, ping_rounds: int = 5):
        if ping_rounds <= 0:
            raise ValueError(f"ping_rounds must be > 0, got {ping_rounds}")
        self.deployment = deployment
        self.network = deployment.network
        self.ping_rounds = ping_rounds
        #: Reference clock/axis: the deployment's own collector when the
        #: client side is traced (merged client spans are already on it),
        #: else a private one.
        self.reference = getattr(deployment, "trace_collector", None) or TraceCollector()
        self.slo_engine = SloEngine(
            slos=getattr(deployment.config, "slos", None) or SloEngine().slos
        )

    @property
    def _degraded(self) -> bool:
        return bool(getattr(self.deployment.config, "degraded_mode", False))

    def _targets(self) -> list[int]:
        return list(range(self.deployment.num_nodes))

    def _broadcast(self, handler: str, *args) -> tuple[dict, list[int]]:
        """Fan ``handler`` out to every daemon with degraded semantics.

        Returns ``(per_daemon_results, missing_daemons)``; strict mode
        raises :class:`HarvestError` instead of reporting missing.
        """
        results: dict[int, object] = {}
        missing: list[int] = []
        for target in self._targets():
            try:
                results[target] = self.network.call(target, handler, *args)
            except UNREACHABLE as exc:  # the set degraded broadcasts tolerate
                if not self._degraded:
                    raise HarvestError(
                        f"daemon {target} unreachable during {handler}: {exc!r}"
                    ) from exc
                missing.append(target)
        return results, missing

    # -- clock alignment ------------------------------------------------------

    def ping_offsets(self) -> dict:
        """Estimate each daemon's collector-epoch offset vs the reference.

        ``offset[d]`` is ``daemon_clock - reference_clock`` at the same
        instant: subtracting it from a daemon timestamp lands it on the
        reference axis.  Per daemon: ``ping_rounds`` exchanges, keep the
        sample from the round with the smallest RTT (least queueing, so
        the midpoint assumption is tightest).
        """
        now = self.reference.now
        offsets: dict[int, float] = {}
        rtts: dict[int, float] = {}
        info: dict[int, dict] = {}
        missing: list[int] = []
        for target in self._targets():
            best_rtt: Optional[float] = None
            best_offset = 0.0
            reply: Optional[dict] = None
            try:
                for _ in range(self.ping_rounds):
                    t0 = now()
                    reply = self.network.call(target, "gkfs_ping")
                    t1 = now()
                    rtt = t1 - t0
                    if best_rtt is None or rtt < best_rtt:
                        best_rtt = rtt
                        best_offset = reply["clock"] - (t0 + t1) / 2.0
            except UNREACHABLE as exc:
                if not self._degraded:
                    raise HarvestError(
                        f"daemon {target} unreachable during gkfs_ping: {exc!r}"
                    ) from exc
                missing.append(target)
                continue
            offsets[target] = best_offset
            rtts[target] = best_rtt if best_rtt is not None else 0.0
            info[target] = {
                "daemon_id": reply.get("daemon_id"),
                "min_epoch": reply.get("min_epoch"),
                "telemetry": reply.get("telemetry"),
            }
        return {
            "offsets": offsets,
            "rtts": rtts,
            "daemons": info,
            "missing_daemons": missing,
        }

    # -- trace harvesting -----------------------------------------------------

    @staticmethod
    def _remap_daemon_records(daemon: int, spans, events, shift: float):
        """Namespace one daemon's ids and move it onto the reference axis.

        A span id is daemon-local exactly when this dump allocated it, so
        only ids present in the dump are rewritten; ``parent_span`` ids
        minted by a *client* collector (they rode the RPC envelope) are
        left alone and match the reference collector's spans after merge.
        """
        local_ids = {s.span_id for s in spans}
        out_spans = []
        for s in spans:
            parent = s.parent_span
            if parent is not None and parent in local_ids:
                parent = f"{daemon}/{parent}"
            out_spans.append(
                SpanRecord(
                    name=s.name,
                    cat=s.cat,
                    start=s.start + shift,
                    duration=s.duration,
                    pid=s.pid,
                    tid=s.tid,
                    span_id=f"{daemon}/{s.span_id}",
                    request_id=s.request_id,
                    parent_span=parent,
                    seq=s.seq,
                    error=s.error,
                    args=dict(s.args, daemon_id=daemon),
                )
            )
        out_events = [
            InstantEvent(
                name=e.name,
                cat=e.cat,
                ts=e.ts + shift,
                seq=e.seq,
                args=dict(e.args, daemon_id=daemon),
            )
            for e in events
        ]
        return out_spans, out_events

    def harvest_trace(self, offsets: Optional[dict] = None) -> TraceCollector:
        """Pull and merge every daemon's trace onto one causal axis.

        Returns a fresh :class:`TraceCollector` holding the union of the
        reference (client-side) records and every reachable daemon's
        records — aligned, namespaced, causally clamped, and re-sequenced
        so ``seq`` is the merged timeline order.  The result drives
        ``to_chrome_json()`` / ``ascii_timeline()`` / span queries
        exactly like a single-process collector.
        """
        ping = offsets or self.ping_offsets()
        dumps, missing = self._broadcast("gkfs_trace_dump")
        client_spans = list(self.reference.spans)
        client_events = list(self.reference.events)
        #: Client span start by id — the causality anchors.
        client_starts = {s.span_id: s.start for s in client_spans}

        all_spans = list(client_spans)
        all_events = list(client_events)
        per_daemon_meta: dict[int, dict] = {}
        for daemon, dump in sorted(dumps.items()):
            if not isinstance(dump, dict) or not dump.get("telemetry", True):
                continue
            spans, events = records_from_wire(dump)
            offset = ping["offsets"].get(daemon, 0.0)
            shifted_spans, shifted_events = self._remap_daemon_records(
                daemon, spans, events, -offset
            )
            # Causality clamp: offset estimation error can leave a daemon
            # handler span starting before the client span that issued
            # the RPC.  A *uniform* forward shift per daemon (preserving
            # intra-daemon order and gaps) is the smallest correction
            # that restores parent-before-child for every cross-process
            # link.
            clamp = 0.0
            for s in shifted_spans:
                parent_start = client_starts.get(s.parent_span)
                if parent_start is not None and s.start < parent_start:
                    clamp = max(clamp, parent_start - s.start)
            if clamp > 0.0:
                shifted_spans = [
                    SpanRecord(
                        name=s.name, cat=s.cat, start=s.start + clamp,
                        duration=s.duration, pid=s.pid, tid=s.tid,
                        span_id=s.span_id, request_id=s.request_id,
                        parent_span=s.parent_span, seq=s.seq,
                        error=s.error, args=s.args,
                    )
                    for s in shifted_spans
                ]
                shifted_events = [
                    InstantEvent(
                        name=e.name, cat=e.cat, ts=e.ts + clamp,
                        seq=e.seq, args=e.args,
                    )
                    for e in shifted_events
                ]
            per_daemon_meta[daemon] = {
                "spans": len(shifted_spans),
                "events": len(shifted_events),
                "offset": offset,
                "clamp": clamp,
            }
            all_spans.extend(shifted_spans)
            all_events.extend(shifted_events)

        # Re-sequence in merged-timeline order.  Ties (clock granularity,
        # clamped-to-parent starts) break parent-before-child via depth,
        # then by original capture order.
        depth_cache: dict[str, int] = {}
        span_by_id = {s.span_id: s for s in all_spans}

        def depth(span: SpanRecord) -> int:
            d = depth_cache.get(span.span_id)
            if d is not None:
                return d
            depth_cache[span.span_id] = 0  # cycle guard
            parent = span_by_id.get(span.parent_span) if span.parent_span else None
            d = 0 if parent is None else depth(parent) + 1
            depth_cache[span.span_id] = d
            return d

        ordered: list = sorted(
            all_spans, key=lambda s: (s.start, depth(s), s.seq)
        )
        ordered += sorted(all_events, key=lambda e: (e.ts, e.seq))
        ordered.sort(
            key=lambda r: (
                (r.start, 0, depth(r)) if isinstance(r, SpanRecord) else (r.ts, 1, 0)
            )
        )
        merged = TraceCollector()
        merged.harvest_meta = {  # type: ignore[attr-defined]
            "per_daemon": per_daemon_meta,
            "missing_daemons": sorted(set(missing) | set(ping["missing_daemons"])),
            "offsets": ping["offsets"],
            "rtts": ping["rtts"],
        }
        seq = 0
        re_spans: list[SpanRecord] = []
        re_events: list[InstantEvent] = []
        for record in ordered:
            seq += 1
            if isinstance(record, SpanRecord):
                re_spans.append(
                    SpanRecord(
                        name=record.name, cat=record.cat, start=record.start,
                        duration=record.duration, pid=record.pid, tid=record.tid,
                        span_id=record.span_id, request_id=record.request_id,
                        parent_span=record.parent_span, seq=seq,
                        error=record.error, args=record.args,
                    )
                )
            else:
                re_events.append(
                    InstantEvent(
                        name=record.name, cat=record.cat, ts=record.ts,
                        seq=seq, args=record.args,
                    )
                )
        merged.ingest(re_spans, re_events)
        return merged

    # -- metrics / windows ----------------------------------------------------

    def harvest_metrics(self) -> dict:
        """Every daemon's registry snapshot, folded with provenance.

        Same shape as :meth:`GekkoFSClient.metrics` (so
        :func:`~repro.analysis.loadmap.balance_report` consumes it
        directly), minus the ``client`` section — the observer is not a
        data-path client.
        """
        per_daemon, missing = self._broadcast("gkfs_metrics")
        return {
            "daemons": self.deployment.num_nodes,
            "per_daemon": per_daemon,
            "cluster": merge_snapshots(per_daemon),
            "degraded": bool(missing),
            "missing_daemons": missing,
        }

    def harvest_windows(self, limit: Optional[int] = None, depth: Optional[int] = None) -> dict:
        """Every daemon's window ring, folded into one cluster series.

        ``limit`` bounds windows fetched per daemon, ``depth`` bounds the
        fold.  The fold carries ``missing_daemons`` and the raw
        ``per_daemon`` wire dumps alongside the merged series.
        """
        per_daemon, missing = self._broadcast("gkfs_metrics_window", limit)
        live = {d: wire for d, wire in per_daemon.items() if isinstance(wire, dict)}
        fold = fold_windows(live, depth=depth)
        fold["missing_daemons"] = missing
        fold["per_daemon"] = live
        return fold

    # -- SLOs ----------------------------------------------------------------

    def slo_report(self, fold: Optional[dict] = None, emit: bool = True) -> dict:
        """Burn-rate evaluation over the harvested cluster series.

        With ``emit`` (default) fired alerts land as ``slo.burn_rate``
        instants on the reference collector and are surfaced through the
        deployment's health tracker.
        """
        fold = fold if fold is not None else self.harvest_windows()
        health = getattr(self.deployment, "health", None)
        if emit:
            report = self.slo_engine.evaluate_and_emit(
                fold, collector=self.reference, health=health
            )
        else:
            report = self.slo_engine.evaluate(fold)
        report["missing_daemons"] = fold.get("missing_daemons", [])
        return report
