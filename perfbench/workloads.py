"""The benchmark's training workloads and the inputs each one generates.

A workload is one PLS (or LS) training job on ``RANKS`` rank threads: a
model, an exchange fraction Q, a training-set size N, a batch size and an
epoch count.  Its inputs are drawn from ``repro.data.synthetic`` with the
benchmark's seed; the program receives only the generated arrays.

The data knobs and the CNN's learning rate are chosen so that the final
loss and accuracy move little from seed to seed (interquartile range
at most 7% of the median over seeds 1-10): the MLP tasks are
noise-limited mixtures, and the CNN task has one strong prototype per
class, which a global-pooling ConvNet picks up within two epochs at a
small learning rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from repro.data.dataset import TensorDataset
from repro.data.synthetic import (
    SyntheticSpec,
    make_classification,
    make_image_classification,
    train_val_split,
)
from repro.shuffle.base import ShuffleStrategy
from repro.shuffle.local import LocalShuffle
from repro.shuffle.partial import PartialLocalShuffle
from repro.train.trainer import TrainConfig

__all__ = ["RANKS", "CLASSES", "WORKLOADS", "Inputs", "Workload"]

#: Rank threads per training: one per core of the 2-core reference box, so
#: the ranks neither oversubscribe the cores nor leave one idle.
RANKS = 2
CLASSES = 8


@dataclass(frozen=True)
class Inputs:
    """One seed's generated arrays: the training set and the held-out set."""

    train: TensorDataset
    val_X: np.ndarray
    val_y: np.ndarray


@dataclass(frozen=True)
class Workload:
    """One training job: what runs, on how much data, for how long."""

    name: str
    model: str
    in_shape: tuple[int, ...]
    q: float
    samples: int
    batch: int
    epochs: int
    #: Extra :class:`SyntheticSpec` fields (separation, noise, modes).
    data: dict = field(default_factory=dict)
    base_lr: float = TrainConfig.base_lr

    def inputs(self, seed: int) -> Inputs:
        """Generate this workload's arrays from ``seed`` (same seed, same
        arrays): N training samples plus N/4 held out for validation."""
        spec = SyntheticSpec(
            n_samples=self.samples + self.samples // 4,
            n_classes=CLASSES,
            n_features=math.prod(self.in_shape),
            seed=seed,
            **self.data,
        )
        if len(self.in_shape) == 3:
            c, h, w = self.in_shape
            X, y = make_image_classification(spec, channels=c, height=h, width=w)
        else:
            X, y = make_classification(spec)
        train, val = train_val_split(X, y, val_fraction=0.2, seed=seed)
        if len(train) != self.samples:
            raise RuntimeError(f"{self.name}: generated {len(train)} training samples, "
                               f"expected {self.samples}")
        return Inputs(train, val.features, val.labels)

    def strategy(self) -> ShuffleStrategy:
        """A fresh per-rank shuffling strategy: PLS, or LS when Q is 0."""
        if self.q > 0:
            return PartialLocalShuffle(self.q, batch_size_hint=self.batch)
        return LocalShuffle()

    def config(self, seed: int) -> TrainConfig:
        """The trainer's hyper-parameters; the seed drives init and shuffles."""
        return TrainConfig(
            model=self.model,
            in_shape=self.in_shape,
            num_classes=CLASSES,
            epochs=self.epochs,
            batch_size=self.batch,
            base_lr=self.base_lr,
            seed=seed,
        )

    @property
    def steps_per_epoch(self) -> int:
        """Iterations each rank runs per epoch (loaders drop the last
        partial batch, and PLS keeps every shard at N/M samples)."""
        return (self.samples // RANKS) // self.batch

    @property
    def samples_per_epoch(self) -> int:
        """Samples trained per epoch, summed over ranks."""
        return RANKS * self.batch * self.steps_per_epoch

    @property
    def storage_bound(self) -> int:
        """The paper's per-worker storage claim, ceil((1+Q)·N/M) (§III-A)."""
        return math.ceil((1 + self.q) * self.samples / RANKS)


_MIXTURE = {"noise": 3.0}
_PROTOTYPES = {"intra_modes": 1, "mode_spread": 0.0, "separation": 16.0, "noise": 0.3}

WORKLOADS = {
    w.name: w
    for w in (
        # Exchange-bound, by message count: ~2 messages per 256 B sample sent.
        Workload("pls-mlp-exchange", "mlp", (64,), 0.3, 8192, 64, 3, _MIXTURE),
        # Local shuffling: the exchange is bypassed, the step is the
        # allreduce rendezvous, the training loop and the loader.
        Workload("ls-mlp-allreduce", "mlp", (64,), 0.0, 16384, 64, 8, _MIXTURE),
        # Compute-bound: the 3 KiB-sample exchange hides behind conv compute.
        Workload("pls-cnn-overlap", "cnn", (3, 16, 16), 0.3, 4096, 32, 2, _PROTOTYPES, base_lr=0.01),
    )
}
