"""Tracer core: spans, nesting, instants, and the disabled fast path."""

import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.mpi.communicator import Communicator
from repro.mpi.world import World
from repro.obs import NULL_TRACER, Tracer
from repro.obs.tracer import _NULL_SPAN, NullTracer
from repro.shuffle import Scheduler, StorageArea


class TestSpans:
    def test_span_records_complete_event(self):
        tr = Tracer(rank=3)
        with tr.span("work", cat="app", k=1):
            time.sleep(0.001)
        (ev,) = tr.events
        assert ev.name == "work"
        assert ev.cat == "app"
        assert ev.ph == "X"
        assert ev.rank == 3
        assert ev.dur >= 0.001
        assert ev.args == {"k": 1}
        assert ev.end == pytest.approx(ev.ts + ev.dur)

    def test_nested_spans_contained_in_parent(self):
        tr = Tracer()
        with tr.span("outer"):
            with tr.span("inner"):
                time.sleep(0.001)
        inner, outer = tr.events  # inner closes first
        assert inner.name == "inner" and outer.name == "outer"
        assert outer.ts <= inner.ts
        assert inner.end <= outer.end + 1e-9

    def test_post_hoc_args_via_set(self):
        tr = Tracer()
        with tr.span("recv", cat="comm.p2p", peer=1) as sp:
            sp.set(nbytes=4096)
        (ev,) = tr.events
        assert ev.args == {"peer": 1, "nbytes": 4096}

    def test_span_recorded_even_when_body_raises(self):
        tr = Tracer()
        with pytest.raises(ValueError):
            with tr.span("boom"):
                raise ValueError("x")
        assert len(tr.events) == 1

    def test_instant_and_counter(self):
        tr = Tracer(rank=1)
        tr.instant("marker", cat="app", epoch=2)
        tr.counter("loss", 0.5, cat="train")
        marker, counter = tr.events
        assert marker.ph == "i" and marker.dur == 0.0
        assert counter.ph == "C" and counter.args == {"value": 0.5}

    def test_clear(self):
        tr = Tracer()
        with tr.span("x"):
            pass
        tr.clear()
        assert len(tr) == 0


class TestDisabledNoOp:
    def test_disabled_records_nothing(self):
        tr = Tracer(enabled=False)
        with tr.span("x", cat="c", big=list(range(10))):
            pass
        tr.instant("y")
        tr.counter("z", 1.0)
        assert len(tr.events) == 0

    def test_disabled_span_is_shared_null_object(self):
        # No per-call allocation: the disabled path returns one singleton.
        tr = Tracer(enabled=False)
        assert tr.span("a") is tr.span("b") is _NULL_SPAN
        assert NULL_TRACER.span("a") is _NULL_SPAN

    def test_null_tracer_surface(self):
        assert NULL_TRACER.enabled is False
        with NULL_TRACER.span("x") as sp:
            sp.set(nbytes=1)
        NULL_TRACER.instant("x")
        NULL_TRACER.counter("x", 1.0)
        assert len(NULL_TRACER) == 0
        assert list(NULL_TRACER) == []

    def test_null_tracer_mirrors_tracer_surface(self):
        """Code written against ``Tracer`` must run on the default wiring."""
        public = {name for name in dir(Tracer) if not name.startswith("_")}
        missing = {name for name in public if not hasattr(NullTracer, name)}
        assert not missing

    def test_hand_wired_exchange_runs_on_null_tracer(self):
        """A ``Communicator`` built without a tracer points at
        ``NULL_TRACER``; the reliable exchange suspends it around its wire
        ops, so that must work on the null object too."""
        world = World(2, copy_on_send=False)

        def rank_main(rank):
            comm = Communicator(world, rank)
            assert comm.tracer is NULL_TRACER
            storage = StorageArea()
            rng = np.random.default_rng(rank)
            for _ in range(8):
                storage.add(rng.random(4).astype(np.float32), rank)
            sched = Scheduler(storage, comm, fraction=0.5, seed=3)
            sched.run_exchange(0)
            return sched.total_sent_samples

        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [pool.submit(rank_main, r) for r in range(2)]
            sent = [f.result(timeout=60) for f in futures]
        assert sent == [4, 4]

    def test_disabled_overhead_guard(self):
        """The disabled path must stay within noise of a bare loop.

        Generous bound (20x / 20µs per op) so CI jitter can't flake it while
        a regression to eager event construction (1000x) still fails.
        """
        tr = Tracer(enabled=False)
        n = 20_000

        t0 = time.perf_counter()
        for _ in range(n):
            pass
        baseline = time.perf_counter() - t0

        t0 = time.perf_counter()
        for _ in range(n):
            if tr.enabled:
                with tr.span("op", cat="comm.p2p", peer=1, tag=2, nbytes=3):
                    pass
        gated = time.perf_counter() - t0

        t0 = time.perf_counter()
        for _ in range(n):
            with tr.span("op"):
                pass
        null_span = time.perf_counter() - t0

        assert len(tr.events) == 0
        assert gated < max(20 * baseline, 20e-6 * n)
        assert null_span < max(60 * baseline, 20e-6 * n)
