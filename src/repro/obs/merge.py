"""Cross-rank trace analysis: merging, phase totals and overlap accounting.

Simulated ranks are threads sharing one ``perf_counter`` clock, so their
events are directly comparable: a merge is a stable sort by timestamp with
rank attribution intact.  On top of the merged timeline this module derives
the paper's empirical objects:

* :func:`phase_totals` — the Figure 10 accounting (I/O, EXCHANGE, FW+BW,
  GE+WU) as a view over ``cat="phase"`` spans, the single source of truth
  that :func:`repro.train.telemetry.measure_phase_breakdown` reports.
* :func:`overlap_report` — the Figure 4 question: how much of the PLS
  exchange was posted *under* the training iterations (overlap chunks)
  versus blocking at the epoch boundary, and how much wall-clock the
  exchange spans share with FW+BW compute.
* :func:`bytes_by_rank` — the §III-B communication volumes, from the
  ``nbytes`` tags the communicator attaches to every send and collective.
"""

from __future__ import annotations

import math
import warnings
from collections import defaultdict
from typing import Iterable, Sequence

from .tracer import PH_COMPLETE, TraceEvent, Tracer

__all__ = [
    "merge_ranks",
    "phase_totals",
    "phase_totals_by_rank",
    "bytes_by_rank",
    "overlap_report",
]

#: Category used by the training layers for Figure-10 phase spans.
PHASE_CAT = "phase"

#: Canonical Figure 10 phase order.
PHASE_ORDER = ("io", "exchange", "fw_bw", "ge_wu")


def merge_ranks(
    per_rank: Sequence[Tracer] | Sequence[Iterable[TraceEvent]],
) -> list[TraceEvent]:
    """Merge per-rank event streams into one timestamp-ordered timeline.

    Accepts tracers or raw event iterables; the sort is stable and keyed by
    ``(ts, rank, name)`` so merging the same run twice yields the same
    sequence (determinism is what the tests pin down).

    Degrades rather than raises on damaged input: a ``None`` stream (a rank
    that died before producing a trace) is skipped, and events with
    non-finite or negative timestamps/durations (clock skew, corrupted
    rows) are dropped — each with one warning naming what was lost.
    """
    events: list[TraceEvent] = []
    missing = 0
    for item in per_rank:
        if item is None:
            missing += 1
            continue
        events.extend(item.events if isinstance(item, Tracer) else item)
    kept = [
        ev for ev in events
        if math.isfinite(ev.ts) and math.isfinite(ev.dur)
        and ev.ts >= 0.0 and ev.dur >= 0.0
    ]
    if missing:
        warnings.warn(
            f"merge_ranks: skipped {missing} missing rank stream(s)",
            RuntimeWarning,
            stacklevel=2,
        )
    if len(kept) != len(events):
        warnings.warn(
            f"merge_ranks: dropped {len(events) - len(kept)} event(s) with "
            "non-finite or negative timestamps",
            RuntimeWarning,
            stacklevel=2,
        )
    kept.sort(key=lambda ev: (ev.ts, ev.rank, ev.name))
    return kept


def phase_totals(events: Iterable[TraceEvent]) -> dict[str, float]:
    """Total seconds per phase name over ``cat="phase"`` spans (all ranks).

    This is the trace-side definition of the Figure 10 breakdown: a
    :class:`~repro.obs.telemetry.PhaseClock` mirrors each region it times
    as one such span with the same duration, so summing a rank's phase spans
    reproduces the clock's totals exactly.
    """
    totals: dict[str, float] = {}
    for ev in events:
        if ev.ph == PH_COMPLETE and ev.cat == PHASE_CAT:
            totals[ev.name] = totals.get(ev.name, 0.0) + ev.dur
    return totals


def phase_totals_by_rank(events: Iterable[TraceEvent]) -> dict[int, dict[str, float]]:
    """Per-rank phase totals: ``{rank: {phase: seconds}}``."""
    totals: dict[int, dict[str, float]] = defaultdict(dict)
    for ev in events:
        if ev.ph == PH_COMPLETE and ev.cat == PHASE_CAT:
            row = totals[ev.rank]
            row[ev.name] = row.get(ev.name, 0.0) + ev.dur
    return dict(totals)


def bytes_by_rank(events: Iterable[TraceEvent]) -> dict[int, dict[str, int]]:
    """Bytes moved per rank, split by traffic class.

    Sums the ``nbytes`` argument of communicator spans: ``comm.p2p`` sends
    count as ``p2p_sent``, received payloads as ``p2p_recv``, and collective
    contributions as ``coll_contrib``.
    """
    out: dict[int, dict[str, int]] = defaultdict(
        lambda: {"p2p_sent": 0, "p2p_recv": 0, "coll_contrib": 0}
    )
    for ev in events:
        nbytes = ev.args.get("nbytes")
        if nbytes is None:
            continue
        if ev.cat == "comm.p2p":
            if ev.name in ("isend", "send"):
                out[ev.rank]["p2p_sent"] += int(nbytes)
            elif ev.name in ("recv", "irecv.wait"):
                out[ev.rank]["p2p_recv"] += int(nbytes)
        elif ev.cat == "comm.coll":
            out[ev.rank]["coll_contrib"] += int(nbytes)
    return dict(out)


def _intervals(events: Iterable[TraceEvent], cat: str, name: str | None = None):
    """(start, end) intervals of matching spans, per rank."""
    per_rank: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for ev in events:
        if ev.ph == PH_COMPLETE and ev.cat == cat and (name is None or ev.name == name):
            per_rank[ev.rank].append((ev.ts, ev.end))
    for spans in per_rank.values():
        spans.sort()
    return per_rank


def _overlap_seconds(
    a: list[tuple[float, float]], b: list[tuple[float, float]]
) -> float:
    """Total length of the intersection of two sorted interval lists."""
    total = 0.0
    i = j = 0
    while i < len(a) and j < len(b):
        lo = max(a[i][0], b[j][0])
        hi = min(a[i][1], b[j][1])
        if hi > lo:
            total += hi - lo
        if a[i][1] <= b[j][1]:
            i += 1
        else:
            j += 1
    return total


def overlap_report(events: Iterable[TraceEvent]) -> dict[int, dict[str, float]]:
    """Per-rank Figure 4 attribution of the PLS exchange.

    For each rank returns::

        {
          "exchange_s":          total seconds in exchange-phase spans,
          "overlap_rounds_s":    seconds in rounds posted from on_iteration,
          "blocking_rounds_s":   seconds in rounds posted at the epoch edge,
          "overlap_with_fw_bw_s": exchange wall-clock shared with FW+BW spans,
        }

    ``mode`` comes from the scheduler's per-round spans ("overlap" when
    posted by ``communicate_chunk``, "blocking" otherwise).
    """
    events = list(events)
    report: dict[int, dict[str, float]] = {}
    exchange_phase = _intervals(events, PHASE_CAT, "exchange")
    fw_bw_phase = _intervals(events, PHASE_CAT, "fw_bw")
    mode_time: dict[int, dict[str, float]] = defaultdict(
        lambda: {"overlap": 0.0, "blocking": 0.0}
    )
    for ev in events:
        if ev.ph == PH_COMPLETE and ev.cat == "exchange" and "mode" in ev.args:
            mode = str(ev.args["mode"])
            if mode in ("overlap", "blocking"):
                mode_time[ev.rank][mode] += ev.dur
    ranks = set(exchange_phase) | set(mode_time)
    for rank in sorted(ranks):
        exch = exchange_phase.get(rank, [])
        report[rank] = {
            "exchange_s": sum(hi - lo for lo, hi in exch),
            "overlap_rounds_s": mode_time[rank]["overlap"],
            "blocking_rounds_s": mode_time[rank]["blocking"],
            "overlap_with_fw_bw_s": _overlap_seconds(
                exch, fw_bw_phase.get(rank, [])
            ),
        }
    return report
