"""The zero-copy ``PackedBatch`` exchange against committed shard digests.

Each round travels as one pooled ``PackedBatch`` envelope.  The digests
below were taken from both payload representations (this envelope and the
per-sample tuple list it replaced) on the same configurations; they agreed
rank for rank, and now stand as the bit-identity reference: same seed in,
the same shards out — under the clean path, under chaos, and under
degraded-Q rollback.  The pack gather must be the only payload copy, and
buffer-pool accounting must balance after every run (no leaked exchange
buffers).
"""

import hashlib

import numpy as np

from repro.faults import ChaosEngine, ChaosWorld
from repro.mpi import run_spmd
from repro.shuffle import Scheduler, StorageArea

RANKS = 4
EPOCHS = 3

# Per rank: (shard digest, samples sent, logical bytes sent).
DEFAULT_DIGESTS = [
    ("3732ac68aace5a36", 12, 384),
    ("7966602590465a10", 12, 384),
    ("d52778439011d6dc", 12, 384),
    ("fe9ce171841b3123", 12, 384),
]
GRANULARITY4_DIGESTS = [
    ("cc9d8c7025ab43b4", 12, 384),
    ("98095e3d920c52c1", 12, 384),
    ("14cd495b97568746", 12, 384),
    ("7e957d4e8639b9bd", 12, 384),
]
DEGRADED_DIGESTS = [
    ("98d45745f2d6c7fc", 24, 768),
    ("974bd977a7d198f1", 24, 768),
    ("941d40a313eddd67", 24, 768),
    ("c36fe1d2d2a42f0b", 24, 768),
]
DEGRADED = dict(
    chaos="slow:rank=1,x=40,epochs=1-2",
    q=0.3, epochs=4, n_local=20, deadline_s=0.15,
)


def fill_storage(rank, n=8, dim=4):
    st = StorageArea()
    for i in range(n):
        st.add(np.array([rank, i, 0, 0][:dim], dtype=np.float32), label=rank)
    return st


def shard_digest(storage):
    """Order-independent digest of the hot shard's (label, bytes) contents."""
    sig = sorted(
        (int(label), sample.tobytes()) for _, sample, label in storage.items()
    )
    return hashlib.sha256(repr(sig).encode()).hexdigest()[:16]


def make_worker(*, q=0.5, granularity=1, epochs=EPOCHS, deadline_s=None,
                n_local=8):
    def worker(comm):
        storage = fill_storage(comm.rank, n=n_local)
        sched = Scheduler(
            storage, comm, fraction=q, batch_size=4, seed=11,
            granularity=granularity, resend_timeout_s=0.05,
            deadline_s=deadline_s,
        )
        rounds = 0
        for e in range(epochs):
            sched.run_exchange(e)
            rounds += sched.rounds
        # The pool is world-shared: wait until every rank has applied its
        # last commit before sampling the balance.
        comm.barrier()
        return {
            "digest": (
                shard_digest(storage),
                sched.total_sent_samples,
                sched.total_sent_bytes,
            ),
            "rounds": rounds,
            "pool_in_use": comm.pool.in_use(),
            "stats": sched.fault_stats(),
        }

    return worker


def run_exchange(chaos=None, **kw):
    factory = None
    if chaos is not None:
        engine = ChaosEngine(chaos, seed=1, slow_unit_s=0.005)

        def factory(size, **kwargs):  # noqa: F811
            return ChaosWorld(size, chaos=engine, **kwargs)

    out = run_spmd(
        make_worker(**kw), RANKS, deadline_s=120, world_factory=factory
    )
    return list(out), out.world


class TestBitIdentical:
    def test_batched_matches_persample(self):
        """The per-sample reference, as digests: shards, samples and
        logical bytes sent per rank."""
        out, _ = run_exchange()
        assert [r["digest"] for r in out] == DEFAULT_DIGESTS

    def test_granularity_chunked_matches(self):
        out, _ = run_exchange(granularity=4, q=0.5)
        assert [r["digest"] for r in out] == GRANULARITY4_DIGESTS


class TestCopyAccounting:
    def test_pack_gather_is_only_payload_copy(self):
        """Per round: one pack gather of the sample bytes into a pooled
        buffer, and one copy of the ``Checksummed`` wrapper's meta + CRC
        word (3 x 8 B + 4 B) at send; the sealed envelope passes through."""
        out, world = run_exchange()
        rounds = sum(r["rounds"] for r in out)
        assert rounds > 0
        assert sum(r["stats"]["resends"] for r in out) == 0
        assert sum(world.copies) == 2 * rounds
        served = world.pool.stats()["bytes_served"]
        assert world.total_bytes_copied() == served + 28 * rounds

    def test_pool_balanced_after_clean_run(self):
        out, world = run_exchange()
        for r in out:
            assert r["pool_in_use"] == 0
        world.pool.assert_balanced()
        st = world.pool.stats()
        assert st["adopts"] > 0     # receivers adopted committed envelopes
        assert st["acquires"] > 0


class TestFaultPaths:
    def test_chaos_recovery_bit_identical(self):
        chaotic, world = run_exchange(chaos="corrupt:p=0.05;flaky-read:p=0.1")
        assert [r["digest"] for r in chaotic] == DEFAULT_DIGESTS
        recovered = sum(r["stats"]["crc_rejects"] for r in chaotic)
        assert recovered > 0, "chaos profile injected nothing observable"
        world.pool.assert_balanced()

    def test_degraded_q_rollback_releases_buffers(self):
        """A deadline abort rolls back uncommitted rounds; the pooled
        envelopes of those rounds must be settled, not leaked."""
        out, world = run_exchange(**{**DEGRADED, "epochs": 5})
        degraded = sum(r["stats"]["degraded_epochs"] for r in out)
        assert degraded >= 1, "straggler did not trigger degraded-Q"
        for r in out:
            assert r["pool_in_use"] == 0
        world.pool.assert_balanced()

    def test_degraded_q_batched_matches_persample(self):
        """With rollback in play, both representations committed the same
        prefix and landed on these digests (same seed, same chaos)."""
        out, _ = run_exchange(**DEGRADED)
        assert [r["stats"]["degraded_epochs"] for r in out] == [2] * RANKS
        assert [r["digest"] for r in out] == DEGRADED_DIGESTS
