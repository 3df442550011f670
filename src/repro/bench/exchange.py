"""Exchange hot-path micro-benchmark: exact counts of the one exchange path.

Runs the reliable PLS exchange (checksummed ``PackedBatch`` envelopes, one
per round) over the in-process world and reports what it did.  The counts
are deterministic for a given config — rounds, copies, bytes copied, pool
acquires and misses, per-rank shard checksums — so the ``repro bench``
gate compares them exactly.  Each round copies twice: the pack gather of
its sample bytes into a pooled buffer, and the ``Checksummed`` wrapper's
meta + CRC word at send (the sealed envelope itself passes through by
reference).  Wall time is reported but too short to gate on.
"""

from __future__ import annotations

import time
from typing import Any

import numpy as np

from repro.mpi import run_spmd
from repro.shuffle import Scheduler, StorageArea

__all__ = ["bench_exchange", "exchange_q_sweep"]


def _exchange_worker(
    comm, q: float, samples: int, shape: tuple, epochs: int, seed: int
) -> dict:
    storage = StorageArea()
    rng = np.random.default_rng(seed + comm.rank)
    for _ in range(samples):
        storage.add(rng.random(shape).astype(np.float32), int(rng.integers(0, 10)))
    sched = Scheduler(storage, comm, fraction=q, seed=seed)
    rounds = 0
    comm.barrier()
    t0 = time.perf_counter()
    for epoch in range(epochs):
        sched.run_exchange(epoch)
        rounds += sched.rounds
    comm.barrier()
    wall = time.perf_counter() - t0
    return {
        "wall_time_s": wall,
        "rounds": rounds,
        "resends": sched.resends,
        "sent_samples": sched.total_sent_samples,
        "sent_bytes": sched.total_sent_bytes,
        "shard_checksum": _shard_checksum(storage),
    }


def _shard_checksum(storage: StorageArea) -> int:
    """Order-independent content hash of the hot shard (equivalence probe)."""
    import zlib

    acc = 0
    for _sid, sample, label in storage.items():
        acc ^= zlib.crc32(np.ascontiguousarray(sample).tobytes() + bytes([label % 251]))
    return acc


def _run_mode(
    *, ranks: int, samples: int, shape: tuple, q: float,
    epochs: int, seed: int, backend: str | None = None,
) -> dict[str, Any]:
    result = run_spmd(
        _exchange_worker,
        ranks,
        args=(q, samples, tuple(shape), epochs, seed),
        backend=backend,
    )
    per_rank = list(result)
    world = result.world
    wall = max(r["wall_time_s"] for r in per_rank)
    sent_samples = sum(r["sent_samples"] for r in per_rank)
    return {
        "wall_time_s": wall,
        "ops_per_s": sent_samples / wall if wall > 0 else 0.0,
        "rounds": sum(r["rounds"] for r in per_rank),
        "resends": sum(r["resends"] for r in per_rank),
        "sent_samples": sent_samples,
        "sent_bytes": sum(r["sent_bytes"] for r in per_rank),
        "bytes_copied": world.total_bytes_copied(),
        "copies": sum(world.copies),
        "pool": world.pool.stats(),
        "shard_checksums": sorted(r["shard_checksum"] for r in per_rank),
    }


def bench_exchange(
    *,
    ranks: int = 4,
    samples: int = 128,
    shape: tuple = (32, 32),
    q: float = 0.5,
    epochs: int = 3,
    seed: int = 0,
    backend: str | None = None,
) -> dict[str, Any]:
    """Run the exchange once and report its counts and timing.

    The result carries ``config`` plus the run's fields: ``wall_time_s``
    and ``ops_per_s`` (informational), and the deterministic ``rounds``,
    ``resends``, ``sent_samples``, ``sent_bytes``, ``copies``,
    ``bytes_copied``, ``pool`` stats and sorted per-rank
    ``shard_checksums`` that the regression gate compares exactly.
    ``backend`` selects the rank host (``"threads"`` / ``"procs"``;
    ``None`` defers to ``REPRO_BACKEND``).
    """
    run = _run_mode(
        ranks=ranks, samples=samples, shape=shape, q=q, epochs=epochs,
        seed=seed, backend=backend,
    )
    config = dict(
        ranks=ranks, samples=samples, shape=list(shape), q=q, epochs=epochs,
        seed=seed, backend=backend,
    )
    return {"config": config, **run}


def exchange_q_sweep(
    *,
    ranks: int = 4,
    samples: int = 128,
    shape: tuple = (32, 32),
    qs: tuple = (0.25, 0.5, 1.0),
    epochs: int = 2,
    seed: int = 0,
    backend: str | None = None,
) -> list[dict[str, Any]]:
    """Exchange wall time as a function of the exchange fraction Q."""
    rows = []
    for q in qs:
        r = _run_mode(
            ranks=ranks, samples=samples, shape=shape,
            q=q, epochs=epochs, seed=seed, backend=backend,
        )
        rows.append(
            {
                "q": q,
                "wall_time_s": r["wall_time_s"],
                "ops_per_s": r["ops_per_s"],
                "sent_samples": r["sent_samples"],
                "bytes_copied": r["bytes_copied"],
            }
        )
    return rows
