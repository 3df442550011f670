"""FASTPATH — exchange hot path: the zero-copy ``PackedBatch`` envelope.

Runs the reliable PLS exchange (one pooled ``PackedBatch`` envelope per
round) and renders the counts the JSON artifacts (``BENCH_exchange.json``
/ ``BENCH_epoch.json``) carry for the CI gate: per round, one pack gather
of the sample bytes plus one copy of the checksum wrapper's meta + CRC
word.  See ``docs/performance.md`` for how to read the numbers.
"""

import pytest

from repro.bench import bench_epoch_loader, bench_exchange
from repro.bench.runner import ENVELOPE_COPY_NBYTES
from repro.utils import render_table

from _common import emit, once

#: Sorted per-rank shard checksums of the 2-rank, 48-sample, 16x16 exchange
#: below; both payload representations produced them before the per-sample
#: one was removed.
GOLDEN_CHECKSUMS = [935129981, 2641326792]


def assert_pack_gather_only_copy(ex):
    """Per round: the pack gather plus the wrapper's meta + CRC word."""
    rounds = ex["rounds"]
    assert ex["resends"] == 0
    assert ex["copies"] == 2 * rounds
    served = ex["pool"]["bytes_served"]
    assert ex["bytes_copied"] == served + ENVELOPE_COPY_NBYTES * rounds


def build_rows():
    ex = bench_exchange(ranks=4, samples=128, shape=(32, 32), q=0.5, epochs=3)
    rows = [
        [
            f"{ex['wall_time_s'] * 1e3:.1f} ms",
            f"{ex['ops_per_s']:.0f}/s",
            str(ex["rounds"]),
            str(ex["copies"]),
            f"{ex['bytes_copied']:,} B",
            f"{ex['pool']['bytes_served']:,} B",
            str(ex["pool"]["misses"]),
        ]
    ]
    return rows, ex


@pytest.mark.benchmark(group="fastpath")
def test_exchange_fastpath(benchmark):
    rows, ex = once(benchmark, build_rows)
    table = render_table(
        ["wall time", "samples", "rounds", "copies", "bytes copied",
         "pool bytes served", "pool misses"],
        rows,
    )
    emit("fastpath_exchange", table)
    assert_pack_gather_only_copy(ex)


@pytest.mark.benchmark(group="fastpath")
def test_exchange_shards_bit_identical():
    """Same seed, same plan: the shards land on the golden checksums, and
    the pack gather is the only payload copy."""
    ex = bench_exchange(ranks=2, samples=48, shape=(16, 16), q=0.5, epochs=2)
    assert ex["shard_checksums"] == GOLDEN_CHECKSUMS
    assert_pack_gather_only_copy(ex)


@pytest.mark.benchmark(group="fastpath")
def test_epoch_loader_pooled(benchmark):
    ep = once(benchmark, bench_epoch_loader)
    d, p = ep["loaders"]["default"], ep["loaders"]["pooled"]
    table = render_table(
        ["loader", "wall time", "batches/s", "allocations"],
        [
            ["default", f"{d['wall_time_s'] * 1e3:.1f} ms", f"{d['batches_per_s']:.0f}", str(d["allocations"])],
            ["pooled", f"{p['wall_time_s'] * 1e3:.1f} ms", f"{p['batches_per_s']:.0f}", str(p["allocations"])],
        ],
    )
    emit("fastpath_epoch_loader", table)
    assert ep["identical_data"]
