"""Backend parity: threads and procs must be observationally identical.

A representative slice of the scheduler / elastic / chaos behavior runs
under both backends through one parametrized fixture; every numerical
outcome must match the threads reference bit-for-bit, because the
backends differ only in where ranks execute, never in what they compute.
The abort test additionally pins the shared-memory cleanup contract: a
rank failing mid-run must not leave ``/dev/shm`` segments behind.
"""

import zlib

import numpy as np
import pytest

from repro.mpi import PeerFailure, RankDied, RankFailed, run_spmd
from repro.mpi.shm_pool import live_segments
from repro.shuffle import Scheduler, StorageArea


@pytest.fixture(params=["threads", "procs"])
def backend(request):
    """Run the test under each communicator backend."""
    return request.param


# Threads-reference results, computed once per workload and compared
# against whatever the parametrized backend produced.
_REFERENCE: dict = {}


def _once(key, thunk):
    if key not in _REFERENCE:
        _REFERENCE[key] = thunk()
    return _REFERENCE[key]


def _exchange_worker(comm, samples, q, seed):
    storage = StorageArea()
    rng = np.random.default_rng(seed + comm.rank)
    for _ in range(samples):
        storage.add(rng.random((16, 16)).astype(np.float32), int(rng.integers(0, 8)))
    sched = Scheduler(storage, comm, fraction=q, seed=seed)
    for epoch in range(2):
        sched.run_exchange(epoch)
    acc = 0
    for _sid, sample, label in storage.items():
        acc ^= zlib.crc32(np.ascontiguousarray(sample).tobytes() + bytes([label % 251]))
    return acc, sched.total_sent_samples, sched.total_sent_bytes


#: Per rank (shard CRC, samples sent, bytes sent) of the exchange above.
#: Taken from both payload representations (the ``PackedBatch`` envelope
#: and the per-sample tuple list it replaced), which agreed exactly.
EXCHANGE_DIGESTS = [(529126257, 32, 33280), (1773403174, 32, 33280)]


def test_exchange_parity(backend):
    result = run_spmd(_exchange_worker, 2, args=(32, 0.5, 7), backend=backend)
    assert list(result) == EXCHANGE_DIGESTS


def _traced_exchange_worker(comm):
    """The seeded two-epoch exchange the trace-merge tests pin."""
    storage = StorageArea()
    rng = np.random.default_rng(7 + comm.rank)
    for _ in range(8):
        storage.add(rng.random(4).astype(np.float32), comm.rank)
    sched = Scheduler(storage, comm, fraction=0.5, seed=7)
    for epoch in range(2):
        sched.run_exchange(epoch)
    return sched.total_sent_bytes


def test_trace_parity(backend):
    """Per-rank traces survive the process boundary unchanged: the trace
    is the one instrument ``repro trace`` and ``bytes_by_rank`` read."""

    def run(bk):
        result = run_spmd(
            _traced_exchange_worker, 4, copy_on_send=False, tracing=True,
            backend=bk,
        )
        return [
            [(ev.name, ev.cat, ev.ph, ev.args) for ev in tr.events]
            for tr in result.tracers
        ]

    got = run(backend)
    ref = _once(
        "trace", lambda: got if backend == "threads" else run("threads")
    )
    assert all(got)
    assert got == ref


def test_dead_peer_epitaph_crosses_backends(backend):
    def worker(comm):
        if comm.rank == 1:
            raise RankDied("node lost")
        try:
            comm.recv(source=1, tag=9)
        except PeerFailure as exc:
            return (exc.rank, exc.epitaph)
        return None

    result = run_spmd(worker, 2, backend=backend)
    assert result[0] == (1, "node lost")
    assert isinstance(result[1], RankDied)
    assert set(result.world.dead_ranks()) == {1}


def _abort_worker(comm, samples, q, seed):
    storage = StorageArea()
    rng = np.random.default_rng(seed + comm.rank)
    for _ in range(samples):
        storage.add(rng.random((16, 16)).astype(np.float32), int(rng.integers(0, 8)))
    sched = Scheduler(storage, comm, fraction=q, seed=seed)
    sched.run_exchange(0)
    if comm.rank == 1:
        raise ValueError("injected mid-run failure")
    comm.barrier()
    sched.run_exchange(1)
    return True


def test_abort_mid_exchange_cleans_segments(backend):
    with pytest.raises(RankFailed) as info:
        run_spmd(_abort_worker, 2, args=(32, 0.5, 3), backend=backend)
    assert isinstance(info.value.failures[1], ValueError)
    # The launcher's exit path must have unlinked every shared-memory
    # segment even though buffers were in flight when rank 1 died.
    assert live_segments() == []


def test_elastic_kill_parity(backend):
    from repro.data import SyntheticSpec
    from repro.elastic import run_elastic
    from repro.train import TrainConfig
    from repro.train.experiments import make_experiment_data

    spec = SyntheticSpec(n_samples=120, n_classes=4, n_features=16, seed=0)
    config = TrainConfig(
        model="mlp", in_shape=(16,), num_classes=4, epochs=3,
        batch_size=8, base_lr=0.05, partition="class_sorted", seed=0,
    )
    train_ds, labels, val_X, val_y = make_experiment_data(spec)

    def run(bk):
        result = run_elastic(
            config=config, workers=3, q=0.3, failures="1@1:mid_exchange",
            train_dataset=train_ds, labels=labels, val_X=val_X, val_y=val_y,
            backend=bk,
        )
        return (
            result.final_accuracy,
            tuple(r["dead_ranks"] for r in result.recoveries),
            result.history.stats.get("final_workers"),
        )

    got = run(backend)
    ref = _once(
        "elastic-kill", lambda: got if backend == "threads" else run("threads")
    )
    assert got == ref


def test_chaos_corruption_parity(backend):
    from repro.data import SyntheticSpec
    from repro.faults import run_chaos_train
    from repro.train import TrainConfig
    from repro.train.experiments import make_experiment_data

    spec = SyntheticSpec(n_samples=96, n_classes=4, n_features=16, seed=0)
    config = TrainConfig(
        model="mlp", in_shape=(16,), num_classes=4, epochs=2,
        batch_size=8, base_lr=0.05, partition="class_sorted", seed=0,
    )
    train_ds, labels, val_X, val_y = make_experiment_data(spec)

    def run(bk):
        result = run_chaos_train(
            config=config, workers=2, q=0.3, profile="corrupt:p=0.1", seed=1,
            train_dataset=train_ds, labels=labels, val_X=val_X, val_y=val_y,
            backend=bk,
        )
        # The chaos engine must see identical payload bytes on both
        # backends, so the injection counts match, not just the accuracy.
        return (result.final_accuracy, dict(result.injected))

    got = run(backend)
    ref = _once(
        "chaos-corrupt", lambda: got if backend == "threads" else run("threads")
    )
    assert got == ref
