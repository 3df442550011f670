"""Timestamps and spans taken around the program's public calls.

Nothing here changes what the trainer computes.  ``train_worker`` receives a
:class:`ProbedStrategy` through its ``strategy`` parameter; the strategy
hands out :class:`ProbedLoader` objects, and a traced training also rebinds
the trainer's ``allreduce_gradients``/``broadcast_model`` names to timing
wrappers for its duration.  Each rank writes only to its own
:class:`Recorder`, so the probes need no lock.

An untraced training keeps only the instants the end-to-end metrics need:
each ``begin_epoch`` entry, each batch fetch and each ``end_epoch`` entry.
A traced training also keeps the duration of every probed call.
"""

from __future__ import annotations

import contextlib
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter

from repro.mpi.launcher import run_spmd
from repro.shuffle.base import ShuffleStrategy
from repro.train import trainer
from repro.train.history import RunHistory

from workloads import RANKS, Inputs, Workload

__all__ = ["RankOutcome", "Recorder", "Training", "train_once"]

#: Guards against a hung exchange: the run fails well inside the 180 s
#: a benchmark invocation may take.
DEADLINE_S = 60.0

#: Span names of the trainer functions a traced training rebinds.
_COLLECTIVES = {
    "allreduce_gradients": "train.allreduce_grad",
    "broadcast_model": "train.broadcast_model",
}


class Recorder:
    """One rank's instants and, when traced, its call durations."""

    def __init__(self, traced: bool) -> None:
        self.traced = traced
        self.epoch_starts: list[float] = []   # begin_epoch entries
        self.fetches: list[list[float]] = []  # per epoch, each next() entry
        self.epoch_ends: list[float] = []     # end_epoch entries
        self.end_exits: list[float] = []      # end_epoch returns (traced)
        self.spans: defaultdict[str, list[float]] = defaultdict(list)
        self.done = 0.0                       # train_worker return

    def span(self, name: str, t0: float) -> float:
        """Record a call of ``name`` that began at ``t0``; returns its end."""
        t1 = perf_counter()
        self.spans[name].append(t1 - t0)
        return t1


class ProbedLoader:
    """A loader that stamps each batch fetch into the rank's recorder."""

    def __init__(self, inner, rec: Recorder) -> None:
        self.inner = inner
        self.rec = rec

    def __len__(self) -> int:
        return len(self.inner)

    def __iter__(self):
        rec = self.rec
        fetches = rec.fetches[-1]
        it = iter(self.inner)
        while True:
            t0 = perf_counter()
            try:
                batch = next(it)
            except StopIteration:
                return
            fetches.append(t0)
            if rec.traced:
                rec.span("data.next_batch", t0)
            yield batch


class ProbedStrategy(ShuffleStrategy):
    """Forwards every hook to ``inner``, stamping the rank's recorder."""

    def __init__(self, inner: ShuffleStrategy, rec: Recorder) -> None:
        super().__init__()
        self.inner = inner
        self.rec = rec
        self.name = inner.name

    @property
    def scheduler(self):
        """The inner strategy's exchange scheduler (the trainer's telemetry
        push reads its Q-deficit); None for strategies without one."""
        return getattr(self.inner, "scheduler", None)

    def setup(self, comm, dataset, **kwargs) -> None:
        t0 = perf_counter()
        self.inner.setup(comm, dataset, **kwargs)
        if self.rec.traced:
            self.rec.span("shuffle.setup", t0)

    def begin_epoch(self, epoch: int) -> None:
        rec = self.rec
        t0 = perf_counter()
        rec.epoch_starts.append(t0)
        rec.fetches.append([])
        self.inner.begin_epoch(epoch)
        if rec.traced:
            rec.span("shuffle.begin_epoch", t0)

    def epoch_loader(self, epoch: int, batch_size: int) -> ProbedLoader:
        return ProbedLoader(self.inner.epoch_loader(epoch, batch_size), self.rec)

    def on_iteration(self) -> None:
        if not self.rec.traced:
            self.inner.on_iteration()
            return
        t0 = perf_counter()
        self.inner.on_iteration()
        self.rec.span("shuffle.on_iteration", t0)

    def end_epoch(self) -> None:
        rec = self.rec
        t0 = perf_counter()
        rec.epoch_ends.append(t0)
        self.inner.end_epoch()
        if rec.traced:
            rec.end_exits.append(rec.span("shuffle.end_epoch", t0))

    def storage_samples(self) -> int:
        return self.inner.storage_samples()

    def stats(self) -> dict:
        return self.inner.stats()


@contextlib.contextmanager
def probed_collectives(recorders: list[Recorder]):
    """Rebind the trainer's collective helpers to timing wrappers."""
    originals = {name: getattr(trainer, name) for name in _COLLECTIVES}

    def probe(name, fn):
        def probed(model, comm, *args, **kwargs):
            t0 = perf_counter()
            fn(model, comm, *args, **kwargs)
            recorders[comm.rank].span(_COLLECTIVES[name], t0)
        return probed

    for name, fn in originals.items():
        setattr(trainer, name, probe(name, fn))
    try:
        yield
    finally:
        for name, fn in originals.items():
            setattr(trainer, name, fn)


@dataclass
class RankOutcome:
    """What one rank hands back from a training."""

    history: RunHistory
    hot_gids: list[int]
    stats: dict
    storage_samples: int


@dataclass
class Training:
    """One complete ``run_spmd`` training and the world's counters after it."""

    traced: bool
    launched: float
    recorders: list[Recorder]
    ranks: list[RankOutcome]
    messages: list[int]
    bytes_copied: list[int]
    copies: list[int]
    pool: dict


def train_once(workload: Workload, inputs: Inputs, seed: int, *, traced: bool) -> Training:
    """Train ``workload`` once on ``RANKS`` threads through the public
    ``run_spmd`` + ``train_worker`` path, probing every rank."""
    recorders = [Recorder(traced) for _ in range(RANKS)]
    config = workload.config(seed)

    def rank_main(comm) -> RankOutcome:
        rec = recorders[comm.rank]
        strategy = ProbedStrategy(workload.strategy(), rec)
        history = trainer.train_worker(
            comm, config, strategy, inputs.train, inputs.train.labels,
            inputs.val_X, inputs.val_y,
        )
        rec.done = perf_counter()
        return RankOutcome(
            history, strategy.inner.storage.hot_gids(), strategy.stats(),
            strategy.storage_samples(),
        )

    probes = probed_collectives(recorders) if traced else contextlib.nullcontext()
    with probes:
        launched = perf_counter()
        result = run_spmd(rank_main, RANKS, backend="threads", deadline_s=DEADLINE_S)
    world = result.world
    return Training(
        traced=traced,
        launched=launched,
        recorders=recorders,
        ranks=list(result),
        messages=list(world.messages_sent),
        bytes_copied=list(world.bytes_copied),
        copies=list(world.copies),
        pool=world.pool.stats(),
    )
