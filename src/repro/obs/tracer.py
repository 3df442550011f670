"""Per-rank tracing: spans, instant events and the null fast path.

The paper's empirical objects — the Figure 10 phase breakdown, the §III-B
communication volumes, the Figure 4 overlap of the PLS exchange with FW+BW
— all reduce to *what each rank did, when, and how many bytes moved*.  A
:class:`Tracer` records exactly that as a flat list of
:class:`TraceEvent` rows with monotonic timestamps (``time.perf_counter``,
shared by every rank-thread in the simulated world, so cross-rank merges
need no clock alignment).

Design constraints:

* **Near-zero overhead when disabled.**  A disabled tracer's ``span()``
  returns one pre-allocated no-op context manager and instrumented call
  sites gate their argument construction on ``tracer.enabled``, so the
  disabled path costs one attribute load and one branch.
* **Thread-compatible.**  Ranks are threads; each rank owns its tracer, but
  appends are plain ``list.append`` (atomic under CPython) and the tid map
  is locked, so sharing a tracer across threads stays safe.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any, Iterator

__all__ = ["TraceEvent", "Tracer", "NullTracer", "NULL_TRACER"]

# Chrome trace-event phase codes used by this tracer.
PH_COMPLETE = "X"
PH_INSTANT = "i"
PH_COUNTER = "C"


@dataclass(frozen=True, slots=True)
class TraceEvent:
    """One recorded event.  Timestamps are ``perf_counter`` seconds."""

    name: str
    cat: str
    ph: str  # "X" complete span, "i" instant, "C" counter sample
    ts: float  # start time (seconds, monotonic)
    dur: float  # duration (seconds; 0.0 for instants/counters)
    rank: int  # emitting rank == Chrome trace pid
    tid: int = 0  # thread lane within the rank
    args: dict[str, Any] = field(default_factory=dict)

    @property
    def end(self) -> float:
        """End timestamp (``ts + dur``)."""
        return self.ts + self.dur

    def to_chrome(self, *, base_ts: float = 0.0) -> dict[str, Any]:
        """Chrome trace-event dict (timestamps in microseconds)."""
        ev: dict[str, Any] = {
            "name": self.name,
            "cat": self.cat or "default",
            "ph": self.ph,
            "ts": (self.ts - base_ts) * 1e6,
            "pid": self.rank,
            "tid": self.tid,
            "args": self.args,
        }
        if self.ph == PH_COMPLETE:
            ev["dur"] = self.dur * 1e6
        elif self.ph == PH_INSTANT:
            ev["s"] = "t"  # thread-scoped instant
        return ev

    @classmethod
    def from_chrome(cls, ev: dict[str, Any], *, base_ts: float = 0.0) -> "TraceEvent":
        """Inverse of :meth:`to_chrome` (seconds, absolute-ised by ``base_ts``)."""
        return cls(
            name=ev.get("name", ""),
            cat=ev.get("cat", ""),
            ph=ev.get("ph", PH_INSTANT),
            ts=ev.get("ts", 0.0) / 1e6 + base_ts,
            dur=ev.get("dur", 0.0) / 1e6,
            rank=int(ev.get("pid", 0)),
            tid=int(ev.get("tid", 0)),
            args=dict(ev.get("args", {})),
        )


class _NullSpan:
    """Shared do-nothing context manager returned by disabled tracers."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False

    def set(self, **args: Any) -> None:
        """Ignore post-hoc span arguments."""


_NULL_SPAN = _NullSpan()


class _Suspension:
    """Context manager flipping a tracer's ``enabled`` off and back.

    Re-entrant on one rank's thread (the previous state is restored on
    exit); tracers are single-rank so no cross-thread state is involved.
    """

    __slots__ = ("_tracer", "_prev")

    def __init__(self, tracer: "Tracer") -> None:
        self._tracer = tracer
        self._prev = False

    def __enter__(self) -> "_Suspension":
        self._prev = self._tracer.enabled
        self._tracer.enabled = False
        return self

    def __exit__(self, *exc: object) -> bool:
        self._tracer.enabled = self._prev
        return False


class _Span:
    """Live span context manager; emits one complete event on exit."""

    __slots__ = ("_tracer", "name", "cat", "args", "_t0")

    def __init__(self, tracer: "Tracer", name: str, cat: str, args: dict[str, Any]):
        self._tracer = tracer
        self.name = name
        self.cat = cat
        self.args = args
        self._t0 = 0.0

    def set(self, **args: Any) -> None:
        """Attach arguments discovered while the span is open (e.g. the byte
        count of a message that only exists after the receive completes)."""
        self.args.update(args)

    def __enter__(self) -> "_Span":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc: object) -> bool:
        t1 = time.perf_counter()
        tr = self._tracer
        tr._events.append(
            TraceEvent(
                name=self.name,
                cat=self.cat,
                ph=PH_COMPLETE,
                ts=self._t0,
                dur=t1 - self._t0,
                rank=tr.rank,
                tid=tr._tid(),
                args=self.args,
            )
        )
        return False


class Tracer:
    """Per-rank event recorder.

    Parameters
    ----------
    rank:
        The owning rank; becomes the Chrome trace ``pid`` so multi-rank
        traces open with one process lane per rank.
    enabled:
        When False every recording call is a no-op (see module docstring for
        the overhead contract).
    """

    def __init__(self, rank: int = 0, *, enabled: bool = True) -> None:
        self.rank = rank
        self.enabled = enabled
        self._events: list[TraceEvent] = []
        self._tid_lock = threading.Lock()
        self._tid_map: dict[int, int] = {}

    # ------------------------------------------------------------- recording
    def span(self, name: str, cat: str = "", **args: Any):
        """Context manager timing one span (Chrome ``ph="X"`` on exit)."""
        if not self.enabled:
            return _NULL_SPAN
        return _Span(self, name, cat, args)

    def suspended(self):
        """Context manager: temporarily disable recording on this tracer.

        Used by instrumentation that performs wire operations whose *timing*
        is inherently racy (the reliable exchange's ACK/NACK control plane)
        and instead emits equivalent, deterministically-ordered events
        itself — keeping per-rank traces reproducible run-to-run.
        """
        return _Suspension(self)

    def complete(
        self, name: str, cat: str = "", *, ts: float, dur: float, **args: Any
    ) -> None:
        """Record a complete span from externally measured timestamps.

        The always-on telemetry layer times phases itself (its accumulator
        runs whether tracing is on or not); when tracing *is* on it mirrors
        each region here so the trace stays identical to one recorded with
        :meth:`span` — same name, same ``cat="phase"`` accounting.
        """
        if not self.enabled:
            return
        self._events.append(
            TraceEvent(
                name=name,
                cat=cat,
                ph=PH_COMPLETE,
                ts=ts,
                dur=dur,
                rank=self.rank,
                tid=self._tid(),
                args=args,
            )
        )

    def instant(self, name: str, cat: str = "", **args: Any) -> None:
        """Record a zero-duration marker event."""
        if not self.enabled:
            return
        self._events.append(
            TraceEvent(
                name=name,
                cat=cat,
                ph=PH_INSTANT,
                ts=time.perf_counter(),
                dur=0.0,
                rank=self.rank,
                tid=self._tid(),
                args=args,
            )
        )

    def counter(self, name: str, value: float, cat: str = "") -> None:
        """Record a counter sample (renders as a stacked area in Perfetto)."""
        if not self.enabled:
            return
        self._events.append(
            TraceEvent(
                name=name,
                cat=cat,
                ph=PH_COUNTER,
                ts=time.perf_counter(),
                dur=0.0,
                rank=self.rank,
                tid=self._tid(),
                args={"value": value},
            )
        )

    def _tid(self) -> int:
        """Small stable lane id for the calling thread (0 for the first)."""
        ident = threading.get_ident()
        tid = self._tid_map.get(ident)
        if tid is None:
            with self._tid_lock:
                tid = self._tid_map.setdefault(ident, len(self._tid_map))
        return tid

    # --------------------------------------------------------------- reading
    @property
    def events(self) -> list[TraceEvent]:
        """The recorded events (live list; treat as read-only)."""
        return self._events

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(self._events)

    def clear(self) -> None:
        """Drop all recorded events."""
        self._events = []


class NullTracer:
    """The always-disabled tracer used as the default wiring target.

    Shares :class:`Tracer`'s recording surface so instrumented code never
    needs a None check; ``enabled`` is a plain False attribute so call sites
    can gate argument construction with one branch.
    """

    enabled = False
    rank = -1
    events: tuple[TraceEvent, ...] = ()

    def span(self, name: str, cat: str = "", **args: Any) -> _NullSpan:
        """Return the shared no-op span."""
        return _NULL_SPAN

    def suspended(self) -> _NullSpan:
        """Return the shared no-op span: there is no recording to pause."""
        return _NULL_SPAN

    def complete(
        self, name: str, cat: str = "", *, ts: float, dur: float, **args: Any
    ) -> None:
        """No-op."""

    def instant(self, name: str, cat: str = "", **args: Any) -> None:
        """No-op."""

    def counter(self, name: str, value: float, cat: str = "") -> None:
        """No-op."""

    def clear(self) -> None:
        """No-op."""

    def __len__(self) -> int:
        return 0

    def __iter__(self) -> Iterator[TraceEvent]:
        return iter(())


#: Shared default instance: attach-points (e.g. ``Communicator.tracer``)
#: point here until a real tracer is wired in.
NULL_TRACER = NullTracer()
