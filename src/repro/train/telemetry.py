"""Measured phase breakdown of real (in-process) training runs.

The analytic model and the DES *predict* the Figure 10 breakdown for the
paper's hardware; this module *measures* the same four phases — I/O,
EXCHANGE, FW+BW, GE+WU — on the actual in-process training stack, so the
structure of the breakdown (exchange visible time growing with Q, FW+BW
flat, collective wait absorbing stragglers) can be observed rather than
modelled.  Absolute numbers reflect this machine, not ABCI; the *shape*
is the reproducible object.

The measurement runs the trainer's own iteration core (the one
:func:`~repro.train.trainer.train_worker` runs) and is a *view over the
trace*: the core's :class:`~repro.obs.telemetry.PhaseClock` records each
phase region as a ``cat="phase"`` tracer span and the totals are derived
with :func:`repro.obs.phase_totals`, so the Figure 10 numbers and a
Chrome-trace export of the same run can never disagree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.dataset import Dataset
from repro.mpi.communicator import Communicator
from repro.nn.optim import SGD
from repro.obs.merge import phase_totals
from repro.obs.telemetry import PhaseClock
from repro.obs.tracer import Tracer
from repro.shuffle.base import ShuffleStrategy

from .distributed import broadcast_model
from .trainer import _iterate

__all__ = ["PhaseBreakdownResult", "measure_phase_breakdown"]


@dataclass(frozen=True)
class PhaseBreakdownResult:
    """Mean per-rank wall-clock seconds per phase over the measured epochs."""

    strategy: str
    workers: int
    epochs: int
    io: float
    exchange: float
    fw_bw: float
    ge_wu: float

    @property
    def total(self) -> float:
        """Sum of the phase times (the epoch total)."""
        return self.io + self.exchange + self.fw_bw + self.ge_wu

    def as_dict(self) -> dict[str, float]:
        """Phase values as a plain dict (io/exchange/fw_bw/ge_wu/total)."""
        return {
            "io": self.io,
            "exchange": self.exchange,
            "fw_bw": self.fw_bw,
            "ge_wu": self.ge_wu,
            "total": self.total,
        }


def measure_phase_breakdown(
    comm: Communicator,
    strategy: ShuffleStrategy,
    dataset: Dataset,
    labels: np.ndarray,
    *,
    model,
    epochs: int = 3,
    batch_size: int = 8,
    lr: float = 0.05,
    partition: str = "random",
    seed: int = 0,
    tracer: Tracer | None = None,
) -> PhaseBreakdownResult:
    """Train for ``epochs`` measuring wall-clock per phase on this rank.

    Phases follow the paper's Figure 10 accounting:

    * I/O          — fetching batches from the strategy's loader,
    * EXCHANGE     — posting exchange chunks + epoch-end synchronize/clean,
    * FW+BW        — forward and backward compute,
    * GE+WU        — gradient allreduce (includes waiting for stragglers)
                     and the optimiser update.

    The epochs run the trainer's iteration core under a
    :class:`~repro.obs.telemetry.PhaseClock` on ``tracer`` (the rank's
    ``comm.tracer`` when enabled, else a private one).  Every phase region
    becomes a ``cat="phase"`` span there and the totals are *derived from
    those spans*, so exporting the tracer yields a trace whose phase
    accounting is identical to the returned result.  Pass an explicit
    ``tracer`` to keep the events for export.

    The result is allreduce-averaged across ranks so every rank returns the
    same numbers.
    """
    broadcast_model(model, comm)
    strategy.setup(comm, dataset, labels=labels, partition=partition, seed=seed)
    optimizer = SGD(model.parameters(), lr, momentum=0.9)
    if tracer is None:
        tracer = comm.tracer if comm.tracer.enabled else Tracer(rank=comm.rank)
    # The tracer may already hold events (e.g. a traced training run before
    # this measurement); only the spans recorded here count.
    events_start = len(tracer.events)

    clock = PhaseClock(tracer)
    for epoch in range(epochs):
        _iterate(comm, strategy, model, optimizer, clock, epoch, batch_size)

    totals = phase_totals(tracer.events[events_start:])
    phases = np.array(
        [totals.get(k, 0.0) for k in ("io", "exchange", "fw_bw", "ge_wu")]
    )
    mean = comm.allreduce(phases) / comm.size
    return PhaseBreakdownResult(
        strategy=strategy.name,
        workers=comm.size,
        epochs=epochs,
        io=float(mean[0]),
        exchange=float(mean[1]),
        fw_bw=float(mean[2]),
        ge_wu=float(mean[3]),
    )
