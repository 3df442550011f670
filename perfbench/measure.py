"""Correctness checks and metrics over a set of probed trainings.

Timing conventions:

* A *step* runs from one batch fetch to the next; the last step of an
  epoch ends when ``end_epoch`` is entered.  A step holds the fetch, the
  forward/backward/optimizer work, the gradient allreduce (including the
  wait for the slower rank) and the ``on_iteration`` exchange posting.
* An *epoch* runs from one ``begin_epoch`` entry to the next (the last one
  to the return of ``train_worker``).
* Synchronous SGD meets at every allreduce, so rank 0's steps and epochs
  stand for the job's.  Layer times are reported per rank and as the max
  over ranks; layer counts per rank and as the total.
* ``_s`` layer metrics are seconds per epoch, median over the traced
  trainings, except ``shuffle.setup_s`` and ``train.broadcast_model_s``,
  which are seconds per launch.  Percentiles pool every call.
"""

from __future__ import annotations

import resource
import statistics
from collections import defaultdict

import numpy as np

from probes import Recorder, Training
from workloads import RANKS, Workload

__all__ = ["check_training", "deterministic_outputs", "end_to_end", "per_layer"]

# Spans are taken with separate clock reads inside the interval they are
# subtracted from, so a self time or residual below zero means the probes
# are out of step with the trainer; this only absorbs float rounding.
_ROUNDING_S = 1e-9


def _pct(values, q: float) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def _steps(rec: Recorder) -> list[np.ndarray]:
    """Per epoch, the rank's step durations."""
    return [np.diff([*fetches, end]) for fetches, end in zip(rec.fetches, rec.epoch_ends)]


def _epochs(rec: Recorder) -> np.ndarray:
    return np.diff([*rec.epoch_starts, rec.done])


def _nacks(stats: dict) -> int:
    """NACKs sent, on a round timeout or on a checksum reject."""
    return stats.get("timeout_nacks", 0) + stats.get("crc_rejects", 0)


# ------------------------------------------------------------------ checks
def deterministic_outputs(t: Training) -> dict:
    """Outputs that must repeat exactly across trainings of one seed."""
    stats = [o.stats for o in t.ranks]
    return {
        "history": t.ranks[0].history.records,
        "mpi.messages": t.messages,
        "mpi.bytes_copied": t.bytes_copied,
        "mpi.copies": t.copies,
        "mpi.pool_acquires": t.pool["acquires"],
        "shuffle.samples_sent": [s.get("sent_samples", 0) for s in stats],
        "shuffle.bytes_sent": [s.get("sent_bytes", 0) for s in stats],
        "stored_samples_peak": [o.storage_samples for o in t.ranks],
    }


def check_training(t: Training, w: Workload) -> list[str]:
    """Every correctness check on one training; returns the failures."""
    problems = []
    records = t.ranks[0].history.records
    if any(o.history.records != records for o in t.ranks[1:]):
        problems.append("ranks returned different histories")
    if len(records) != w.epochs:
        problems.append(f"{len(records)} epochs trained, planned {w.epochs}")
    for rec in records:
        if rec.samples_seen != w.samples_per_epoch:
            problems.append(f"epoch {rec.epoch}: samples_seen {rec.samples_seen}, "
                            f"planned {w.samples_per_epoch}")
    for r, rec in enumerate(t.recorders):
        fetched = [len(f) for f in rec.fetches]
        if fetched != [w.steps_per_epoch] * w.epochs:
            problems.append(f"rank {r} fetched {fetched} batches per epoch, "
                            f"planned {w.steps_per_epoch}")
    gids = np.sort(np.concatenate([np.asarray(o.hot_gids, dtype=np.int64) for o in t.ranks]))
    if not np.array_equal(gids, np.arange(w.samples)):
        problems.append("hot shards after the last epoch are not the training set exactly once")
    stats = [o.stats for o in t.ranks]
    sent = sum(s.get("sent_samples", 0) for s in stats)
    recv = sum(s.get("recv_samples", 0) for s in stats)
    if sent != recv:
        problems.append(f"{sent} samples sent but {recv} received")
    peak = max(o.storage_samples for o in t.ranks)
    if peak > w.storage_bound:
        problems.append(f"stored {peak} samples on one rank, bound ceil((1+Q)N/M) = {w.storage_bound}")
    if t.pool["in_use"] != 0:
        problems.append(f"{t.pool['in_use']} pool buffer(s) still in use at exit")
    resends = sum(s.get("resends", 0) for s in stats)
    nacks = sum(_nacks(s) for s in stats)
    if resends or nacks:
        problems.append(f"{resends} resends and {nacks} NACKs on a fault-free run")
    if t.traced:
        problems += _accounting_problems(t)
    return problems


def _accounting_problems(t: Training) -> list[str]:
    """Traced spans must tile each rank's steps and epochs."""
    problems = []
    for r, rec in enumerate(t.recorders):
        n = sum(len(f) for f in rec.fetches)
        for name in ("data.next_batch", "train.allreduce_grad", "shuffle.on_iteration"):
            if len(rec.spans[name]) != n:
                problems.append(f"rank {r}: {len(rec.spans[name])} {name} spans for {n} steps")
        if problems:
            continue
        if _compute(rec).min() < -_ROUNDING_S:
            problems.append(f"rank {r}: child spans overrun their step")
        if _residual(rec).min() < -_ROUNDING_S:
            problems.append(f"rank {r}: spans overrun their epoch")
    return problems


# ----------------------------------------------------------------- metrics
def _compute(rec: Recorder) -> np.ndarray:
    """Step self time: the step minus the fetch, allreduce and exchange
    posting inside it — forward, backward and the optimizer step."""
    s = rec.spans
    steps = np.concatenate(_steps(rec))
    return (steps - np.asarray(s["data.next_batch"]) - np.asarray(s["train.allreduce_grad"])
            - np.asarray(s["shuffle.on_iteration"]))


def _tails(rec: Recorder) -> np.ndarray:
    """From each ``end_epoch`` return to the next ``begin_epoch`` entry
    (the last to ``train_worker``'s return): BN-statistics sync, evaluation
    on rank 0 and its broadcast, the loss and sample-count allreduces."""
    return np.asarray([*rec.epoch_starts[1:], rec.done]) - np.asarray(rec.end_exits)


def _residual(rec: Recorder) -> np.ndarray:
    """Per epoch, the wall no span covers: ``epoch_loader`` and the
    iteration-count allreduce before the first fetch."""
    s = rec.spans
    return (_epochs(rec) - np.asarray(s["shuffle.begin_epoch"]) - np.asarray(s["shuffle.end_epoch"])
            - np.asarray([st.sum() for st in _steps(rec)]) - _tails(rec))


def _wall(t: Training) -> float:
    """Launch to rank 0's return, set-up included."""
    return t.recorders[0].done - t.launched


def end_to_end(trainings: list[Training]) -> dict[str, tuple[float, int]]:
    """User-visible metrics of untraced trainings: name -> (value, samples).

    Rates and step percentiles are taken per training and reported as the
    median over the invocation's trainings, so one training that the
    machine slowed does not move the result."""
    recs = [t.recorders[0] for t in trainings]
    steps = [np.concatenate(_steps(rec)) for rec in recs]
    epochs = np.concatenate([_epochs(rec) for rec in recs])
    rates = [sum(r.samples_seen for r in t.ranks[0].history.records) / (rec.done - rec.epoch_starts[0])
             for t, rec in zip(trainings, recs)]
    setups = [rec.epoch_starts[0] - t.launched for t, rec in zip(trainings, recs)]
    final = trainings[0].ranks[0].history.records[-1]
    n, n_steps = len(trainings), sum(len(s) for s in steps)
    return {
        "train_samples_per_s": (statistics.median(rates), n),
        "epoch_s_p50": (statistics.median(epochs), len(epochs)),
        "step_ms_p50": (1e3 * statistics.median(_pct(s, 50) for s in steps), n_steps),
        "step_ms_p90": (1e3 * statistics.median(_pct(s, 90) for s in steps), n_steps),
        "setup_s": (statistics.median(setups), n),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        "stored_samples_peak": (max(o.storage_samples for o in trainings[0].ranks), RANKS),
        "final_val_accuracy": (final.val_accuracy, 1),
        "final_train_loss": (final.train_loss, 1),
    }


def _rank_times(traced: list[Training], w: Workload, r: int) -> dict[str, tuple[float, int]]:
    """One rank's layer times over the traced trainings."""
    per_training = defaultdict(list)
    calls = defaultdict(list)
    for t in traced:
        rec = t.recorders[r]
        s = rec.spans
        compute = _compute(rec)
        sums = {
            "shuffle.begin_epoch_s": sum(s["shuffle.begin_epoch"]),
            "shuffle.on_iteration_s": sum(s["shuffle.on_iteration"]),
            "shuffle.end_epoch_s": sum(s["shuffle.end_epoch"]),
            "train.allreduce_grad_s": sum(s["train.allreduce_grad"]),
            "train.validate_s": float(_tails(rec).sum()),
            "data.next_batch_s": sum(s["data.next_batch"]),
            "nn.compute_s": float(compute.sum()),
            "epoch.residual_s": float(_residual(rec).sum()),
        }
        sums["shuffle.exposed_s"] = (sums["shuffle.begin_epoch_s"] + sums["shuffle.on_iteration_s"]
                                     + sums["shuffle.end_epoch_s"])
        for name, total in sums.items():
            per_training[name].append(total / w.epochs)
        per_training["shuffle.setup_s"].append(s["shuffle.setup"][0])
        per_training["train.broadcast_model_s"].append(s["train.broadcast_model"][0])
        per_training["epoch_s"].append(float(_epochs(rec).mean()))
        for name in ("shuffle.on_iteration", "train.allreduce_grad", "data.next_batch"):
            calls[name].extend(s[name])
        calls["nn.compute"].extend(compute)
    n = len(traced)
    out = {name: (statistics.median(v), n) for name, v in per_training.items()}
    epoch_s = out.pop("epoch_s")[0]
    out["epoch.residual_share"] = (out["epoch.residual_s"][0] / epoch_s, n)
    out["shuffle.exposed_share"] = (out["shuffle.exposed_s"][0] / epoch_s, n)
    for name, scale, unit, q in (
        ("shuffle.on_iteration", 1e3, "ms", 90),
        ("train.allreduce_grad", 1e3, "ms", 50),
        ("train.allreduce_grad", 1e3, "ms", 90),
        ("data.next_batch", 1e6, "us", 50),
        ("data.next_batch", 1e6, "us", 90),
        ("nn.compute", 1e3, "ms", 50),
    ):
        out[f"{name}_{unit}_p{q}"] = (scale * _pct(calls[name], q), len(calls[name]))
    return out


def _rank_counts(t: Training, r: int) -> dict[str, int]:
    s = t.ranks[r].stats
    return {
        "shuffle.samples_sent": s.get("sent_samples", 0),
        "shuffle.bytes_sent": s.get("sent_bytes", 0),
        "shuffle.resends": s.get("resends", 0),
        "shuffle.nacks": _nacks(s),
        "mpi.messages": t.messages[r],
        "mpi.bytes_copied": t.bytes_copied[r],
        "mpi.copies": t.copies[r],
        "data.batches": sum(len(f) for f in t.recorders[r].fetches),
    }


def per_layer(traced: list[Training], untraced: list[Training], w: Workload) -> dict[str, tuple[float, int]]:
    """Layer metrics of traced trainings, per rank and across ranks.

    ``untraced`` are trainings of the same seed interleaved with the traced
    ones; the ratio of the median walls is the tracing overhead."""
    out: dict[str, tuple[float, int]] = {}
    times = [_rank_times(traced, w, r) for r in range(RANKS)]
    for name in times[0]:
        for r in range(RANKS):
            out[f"{name}.rank{r}"] = times[r][name]
        out[name] = (max(times[r][name][0] for r in range(RANKS)), times[0][name][1])
    # Counts repeat exactly across trainings (checked), so one stands for all.
    counts = [_rank_counts(traced[0], r) for r in range(RANKS)]
    for name in counts[0]:
        for r in range(RANKS):
            out[f"{name}.rank{r}"] = (counts[r][name], 1)
        out[name] = (sum(c[name] for c in counts), RANKS)
    pool = traced[0].pool
    sent = out["shuffle.samples_sent"][0]
    out["mpi.messages_per_sample"] = (out["mpi.messages"][0] / sent if sent else 0.0, 1)
    out["mpi.pool_acquires"] = (pool["acquires"], 1)
    out["mpi.pool_hit_rate"] = (pool["hits"] / pool["acquires"] if pool["acquires"] else 0.0, 1)
    out["mpi.pool_bytes_allocated"] = (pool["bytes_allocated"], 1)
    out["tracing_overhead"] = (
        statistics.median(map(_wall, traced)) / statistics.median(map(_wall, untraced)),
        len(traced) + len(untraced),
    )
    return out
