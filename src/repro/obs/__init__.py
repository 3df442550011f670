"""Observability: per-rank tracing, metrics and trace tooling.

The subsystem the paper's measurements hang off:

* :class:`Tracer` / :class:`TraceEvent` — per-rank spans + instant events
  with monotonic timestamps; :data:`NULL_TRACER` is the zero-overhead
  disabled default every instrumented layer points at until a run opts in.
* :class:`MetricsRegistry` — counters / gauges / histograms; the serve
  tier's registry (``ShardServer.telemetry_snapshot``).  Tracers keep no
  registry: each traced number lives in one event stream.
* Exporters — lossless JSONL and Chrome trace-event JSON (one ``pid`` per
  rank; opens directly in ``chrome://tracing`` / Perfetto).
* Merge + summary — cross-rank timeline reconstruction (Figure 4 overlap),
  Figure 10 phase totals as a view over ``cat="phase"`` spans, and the
  digest behind the ``repro trace`` CLI.
* :mod:`~repro.obs.telemetry` — the always-on layer: :class:`FlightLog`
  (bounded per-rank event rings, dumped on faults),
  :class:`TelemetryAggregator` (collective-free cross-rank metric series
  with streaming quantiles) and the health detectors behind
  ``repro health``.

Quick example::

    from repro.mpi import run_spmd
    from repro.obs import write_chrome_trace

    def main(comm):
        with comm.tracer.span("work", cat="app"):
            comm.allreduce(comm.rank)

    result = run_spmd(main, size=4, tracing=True)
    write_chrome_trace(result.tracers, "trace.json")
"""

from .export import (
    chrome_trace_events,
    load_trace,
    read_jsonl,
    write_chrome_trace,
    write_jsonl,
)
from .merge import (
    PHASE_ORDER,
    bytes_by_rank,
    merge_ranks,
    overlap_report,
    phase_totals,
    phase_totals_by_rank,
)
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Reservoir,
    quantile_key,
)
from .summary import TraceSummary, render_summary, summarize_events, summarize_trace
from .telemetry import (
    FlightLog,
    FlightRecorder,
    HealthFinding,
    PhaseClock,
    TelemetryAggregator,
    push_metrics,
    run_health_checks,
    to_openmetrics,
)
from .tracer import NULL_TRACER, NullTracer, TraceEvent, Tracer

__all__ = [
    "Tracer",
    "TraceEvent",
    "NullTracer",
    "NULL_TRACER",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "chrome_trace_events",
    "write_chrome_trace",
    "write_jsonl",
    "read_jsonl",
    "load_trace",
    "merge_ranks",
    "phase_totals",
    "phase_totals_by_rank",
    "bytes_by_rank",
    "overlap_report",
    "PHASE_ORDER",
    "TraceSummary",
    "summarize_events",
    "summarize_trace",
    "render_summary",
    "Reservoir",
    "quantile_key",
    "FlightLog",
    "FlightRecorder",
    "PhaseClock",
    "TelemetryAggregator",
    "HealthFinding",
    "push_metrics",
    "run_health_checks",
    "to_openmetrics",
]
