"""Workload trace capture and replay.

The GekkoFS authors' companion work is storage-system tracing (the paper
cites their Spectrum Scale tracing study as [37], and mdtest-style
synthetic load is no substitute for *real* application streams).  This
package closes that loop for the reproduction:

* :class:`~repro.trace.recorder.RecordingClient` — a client proxy that
  captures every file-system call into portable trace records,
* :mod:`repro.trace.format` — a JSONL trace format with stable
  descriptor ids, durations, and result sizes,
* :func:`~repro.trace.replayer.replay` — re-executes a trace against any
  deployment (different node count, chunk size, placement policy, cache
  settings) and reports divergences — the apples-to-apples way to ask
  "would my application's I/O have behaved on that configuration?".
"""

from repro._lazy import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(__name__, {
    "format": ["TraceRecord", "load_trace", "save_trace"],
    "recorder": ["RecordingClient"],
    "replayer": ["ReplayReport", "replay"],
})
