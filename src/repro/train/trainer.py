"""The distributed synchronous-SGD training loop (one rank's view).

Combines the pieces exactly as the paper's Figure 3 script does: a
shuffling strategy supplies each epoch's local data, the model replicas
stay consistent through an initial broadcast plus per-iteration gradient
allreduce (Eq. 1), the strategy's ``on_iteration`` hook overlaps the PLS
sample exchange with compute (Figure 4), and validation accuracy is
measured per epoch — the Y axis of every accuracy figure in the paper.

``_iterate`` is the only place a training iteration is written: the
elastic and lifecycle trainers run the same ``_run_epoch`` with
failure-injection checks, and ``measure_phase_breakdown`` drives
``_iterate`` directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.data.dataset import Dataset
from repro.mpi.communicator import Communicator
from repro.nn import functional as F
from repro.nn.lr_scheduler import MultiStepLR, WarmupWrapper
from repro.nn.metrics import RunningAverage
from repro.nn.models import build_model
from repro.nn.optim import LARS, SGD
from repro.nn.tensor import Tensor
from repro.obs.telemetry import PhaseClock, drain_pending, push_metrics
from repro.shuffle.base import ShuffleStrategy

from .distributed import allreduce_batchnorm_stats, allreduce_gradients, broadcast_model
from .evaluate import evaluate
from .history import EpochRecord, RunHistory

__all__ = ["TrainConfig", "train_worker"]


@dataclass(frozen=True)
class TrainConfig:
    """Hyper-parameters of one training run.

    Mirrors the paper's §V-C regime: per-worker batch size ``batch_size``,
    base learning rate scaled linearly with worker count (Goyal et al.)
    unless ``scale_lr`` is off, optional LARS for large scale, multi-step
    decay with warmup.
    """

    model: str = "mlp"
    in_shape: tuple[int, ...] = (32,)
    num_classes: int = 8
    epochs: int = 15
    batch_size: int = 16
    base_lr: float = 0.05
    momentum: float = 0.9
    weight_decay: float = 1e-4
    optimizer: str = "sgd"  # "sgd" | "lars"
    lr_milestones: tuple[int, ...] = ()
    lr_gamma: float = 0.1
    warmup_epochs: int = 0
    scale_lr: bool = False
    sync_batchnorm_stats: bool = True
    norm: str | None = None
    partition: str = "random"
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.optimizer not in ("sgd", "lars"):
            raise ValueError(f"optimizer must be sgd or lars, got {self.optimizer!r}")


def _build_optimizer(config: TrainConfig, model, workers: int):
    lr = config.base_lr * (workers if config.scale_lr else 1)
    if config.optimizer == "lars":
        return LARS(
            model.parameters(), lr,
            momentum=config.momentum, weight_decay=config.weight_decay,
        )
    return SGD(
        model.parameters(), lr,
        momentum=config.momentum, weight_decay=config.weight_decay,
    )


def _build_schedule(config: TrainConfig, optimizer):
    schedule = MultiStepLR(
        optimizer, milestones=list(config.lr_milestones), gamma=config.lr_gamma
    )
    if config.warmup_epochs:
        schedule = WarmupWrapper(schedule, config.warmup_epochs)
    return schedule


def _setup(comm, config: TrainConfig, strategy, train_dataset, labels, model=None):
    """A fresh run's replicated state: ``(model, optimizer, schedule)``.

    Rank 0's weights (``model``, else a freshly built one) are broadcast
    and the strategy takes its initial shard.
    """
    if model is None:
        model = build_model(
            config.model,
            in_shape=config.in_shape,
            num_classes=config.num_classes,
            seed=config.seed,
            norm=config.norm,
        )
    broadcast_model(model, comm)
    strategy.setup(
        comm, train_dataset,
        labels=labels, partition=config.partition, seed=config.seed,
    )
    optimizer = _build_optimizer(config, model, comm.size)
    return model, optimizer, _build_schedule(config, optimizer)


def _no_check(point: str) -> None:
    """Default failure-injection hook: no rank dies."""


def _iterate(
    comm: Communicator,
    strategy: ShuffleStrategy,
    model,
    optimizer,
    clock: PhaseClock,
    epoch: int,
    batch_size: int,
    check=_no_check,
) -> tuple[float, int]:
    """One epoch of the Figure-3 iteration; returns ``(mean loss, samples)``.

    Every region is timed by ``clock`` under its Figure 10 phase (io /
    exchange / fw_bw / ge_wu), so a traced run's ``cat="phase"`` spans, the
    always-on telemetry and ``measure_phase_breakdown`` all read the same
    instrument.  ``check(point)`` runs at ``"begin"``, ``"mid_exchange"``
    (step ``iters // 2``) and ``"end"``: the elastic trainers inject rank
    deaths there.
    """
    check("begin")
    with clock.phase("exchange"):
        strategy.begin_epoch(epoch)
    loader = strategy.epoch_loader(epoch, batch_size)
    # Every rank must run the same number of iterations or the gradient
    # allreduce deadlocks; take the collective minimum.
    iters = comm.allreduce(len(loader), op=min)
    loss_avg = RunningAverage()
    samples = 0
    model.train()
    it = iter(loader)
    mid = iters // 2
    for i in range(iters):
        if i == mid:
            check("mid_exchange")
        with clock.phase("io"):
            xb, yb = next(it)
        with clock.phase("fw_bw"):
            logits = model(Tensor(np.asarray(xb, dtype=np.float32)))
            loss = F.cross_entropy(logits, yb)
            model.zero_grad()
            loss.backward()
        with clock.phase("ge_wu"):
            # ``allreduce_gradients`` here and ``broadcast_model`` in
            # ``_setup`` are looked up in this module's globals at call
            # time, never bound locally: the end-to-end benchmark's probe
            # rebinds those two names to time them.
            allreduce_gradients(model, comm)
            optimizer.step()
        with clock.phase("exchange"):
            strategy.on_iteration()
        loss_avg.update(loss.item(), weight=len(yb))
        samples += len(yb)
    check("end")
    with clock.phase("exchange"):
        strategy.end_epoch()
    return loss_avg.value, samples


def _run_epoch(
    comm: Communicator,
    config: TrainConfig,
    strategy: ShuffleStrategy,
    model,
    optimizer,
    schedule,
    epoch: int,
    val_X: np.ndarray,
    val_y: np.ndarray,
    *,
    check=_no_check,
) -> EpochRecord:
    """Train, validate and report one epoch; every rank returns the same
    record (see :func:`_iterate` for ``check``)."""
    tr = comm.tracer
    clock = PhaseClock(tr)
    lr = schedule.step(epoch)
    with tr.span("epoch", cat="train", epoch=epoch, lr=lr):
        local_loss, samples = _iterate(
            comm, strategy, model, optimizer, clock, epoch, config.batch_size,
            check,
        )
        if config.sync_batchnorm_stats:
            with clock.phase("ge_wu"):
                allreduce_batchnorm_stats(model, comm)
        # Validation on rank 0 (replicas are identical after the reduce),
        # then shared with everyone.
        with tr.span("validate", cat="train"):
            if comm.rank == 0:
                val_acc, _val_loss = evaluate(model, val_X, val_y)
            else:
                val_acc = None
            val_acc = comm.bcast(val_acc, root=0)
        # Always-on telemetry: record the epoch's phase breakdown in the
        # flight ring and push it (plus local loss and exchange health)
        # to the aggregator.  Pushed *before* the mean-loss allreduce:
        # that collective is a barrier, so rank 0 passing it proves every
        # peer's push of this epoch is already deposited.
        flight = comm.flight
        if flight.enabled:
            phases = clock.take()
            flight.record("epoch.phases", epoch=epoch, **phases)
            metrics = {f"phase.{k}_s": v for k, v in phases.items()}
            metrics["train.loss"] = local_loss
            sched = getattr(strategy, "scheduler", None)
            if sched is not None:
                metrics["exchange.q_deficit"] = sched.q_deficit
            metrics["pool.in_use"] = comm.pool.stats()["in_use"]
            push_metrics(comm, epoch, metrics)
        mean_loss = comm.allreduce(local_loss) / comm.size
        total_samples = comm.allreduce(samples)
    if tr.enabled:
        tr.counter("train.loss", mean_loss, cat="train")
        tr.counter("train.val_accuracy", val_acc, cat="train")
    return EpochRecord(
        epoch=epoch,
        train_loss=mean_loss,
        val_accuracy=val_acc,
        lr=lr,
        samples_seen=total_samples,
    )


def train_worker(
    comm: Communicator,
    config: TrainConfig,
    strategy: ShuffleStrategy,
    train_dataset: Dataset,
    labels: np.ndarray,
    val_X: np.ndarray,
    val_y: np.ndarray,
    *,
    model=None,
    return_model: bool = False,
    checkpoint_path=None,
    checkpoint_every: int = 0,
    resume: bool = False,
):
    """Run the full training on this rank; returns the shared history.

    Every rank returns an identical :class:`RunHistory` (metrics are
    collectively reduced), so callers can read any rank's result.

    ``model`` supplies pre-initialised weights (e.g. a transferred backbone
    for the Figure 8 fine-tuning protocol); rank 0's copy is broadcast
    either way.  With ``return_model=True`` the result is
    ``(history, model)``.

    ``checkpoint_path`` + ``checkpoint_every`` save the replicated state
    (rank 0) every N epochs; with ``resume=True`` an existing checkpoint is
    loaded, the shuffling strategy fast-forwards its exchanges, and
    training continues from the next epoch — bitwise-identical to an
    uninterrupted run (everything epoch-dependent derives from
    ``(seed, epoch)``).
    """
    model, optimizer, schedule = _setup(
        comm, config, strategy, train_dataset, labels, model
    )

    history = RunHistory(strategy=strategy.name, workers=comm.size)
    start_epoch = 0
    if checkpoint_path is not None and resume:
        from pathlib import Path

        from .checkpoint import load_checkpoint

        exists = Path(checkpoint_path).exists() if comm.rank == 0 else None
        exists = comm.bcast(exists, root=0)
        if exists:
            # Every rank reads the same file: replicas stay identical.
            ckpt = load_checkpoint(checkpoint_path, model=model, optimizer=optimizer)
            if ckpt.history is not None:
                history = ckpt.history
            start_epoch = ckpt.epoch + 1
            strategy.fast_forward(start_epoch)

    for epoch in range(start_epoch, config.epochs):
        history.add(
            _run_epoch(
                comm, config, strategy, model, optimizer, schedule, epoch,
                val_X, val_y,
            )
        )
        if (
            checkpoint_path is not None
            and checkpoint_every
            and (epoch + 1) % checkpoint_every == 0
            and comm.rank == 0
        ):
            from .checkpoint import save_checkpoint

            save_checkpoint(
                checkpoint_path, model=model, optimizer=optimizer,
                epoch=epoch, history=history,
            )
        # Nobody starts the next epoch until the checkpoint (if any) is
        # durable — mirrors a real job's collective checkpoint barrier.
        if checkpoint_path is not None and checkpoint_every:
            comm.barrier()
    # Final drain: rank 0's per-epoch drain ran *before* the last epoch's
    # barrier, so the peers' final pushes are still queued.  They are all
    # deposited by now (each peer pushed before entering that barrier).
    if comm.flight.enabled and comm.rank == 0:
        drain_pending(comm)
    history.stats = strategy.stats()
    if return_model:
        return history, model
    return history
