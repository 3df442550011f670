"""Exchange benchmark gate: exact counts, no timing.

``check_regression``'s exchange block must pass a run whose counts equal
the committed baseline and obey the copy invariant (``copies == 2 x
rounds``, ``bytes_copied == pool bytes_served + 28 B x rounds``), and fail
on any count drift, a checksum change, a baseline recorded at another
config, or a broken invariant even when no baseline exists.
"""

from repro.bench import check_regression, run_bench
from repro.bench.runner import EXCHANGE_ARTIFACT, EXCHANGE_SCHEMA


def fake_exchange(rounds=96, resends=0, copies=None, bytes_copied=None):
    served = 4096 * rounds
    return {
        "schema": EXCHANGE_SCHEMA,
        "config": {"ranks": 2, "samples": 48, "shape": [32, 32], "q": 0.5,
                   "epochs": 2, "seed": 0, "backend": None},
        "wall_time_s": 0.01,
        "ops_per_s": 9600.0,
        "rounds": rounds,
        "resends": resends,
        "sent_samples": rounds,
        "sent_bytes": 4112 * rounds,
        "copies": 2 * rounds if copies is None else copies,
        "bytes_copied": served + 28 * rounds if bytes_copied is None else bytes_copied,
        "pool": {"acquires": rounds, "misses": rounds, "bytes_served": served},
        "shard_checksums": [778535557, 2901260890],
    }


def gate(current, baseline=None):
    baselines = {} if baseline is None else {EXCHANGE_ARTIFACT: baseline}
    return check_regression(current, None, baselines)


class TestExchangeGate:
    def test_equal_results_pass(self):
        assert gate(fake_exchange(), fake_exchange()) == []

    def test_timing_is_not_gated(self):
        slow = fake_exchange()
        slow["wall_time_s"], slow["ops_per_s"] = 10.0, 9.6
        assert gate(slow, fake_exchange()) == []

    def test_copies_off_by_one_fails(self):
        problems = gate(fake_exchange(copies=193), fake_exchange())
        assert any("193 copies" in p for p in problems)
        assert any("copies is 193, baseline has 192" in p for p in problems)

    def test_checksum_difference_fails(self):
        current = fake_exchange()
        current["shard_checksums"] = [778535557, 1]
        problems = gate(current, fake_exchange())
        assert problems == [
            "exchange: shard_checksums is [778535557, 1], baseline has "
            "[778535557, 2901260890]"
        ]

    def test_pool_miss_drift_fails(self):
        current = fake_exchange()
        current["pool"]["misses"] = 95
        assert any("pool.misses is 95" in p for p in gate(current, fake_exchange()))

    def test_baseline_at_other_config_fails(self):
        baseline = fake_exchange()
        baseline["config"]["samples"] = 256
        problems = gate(fake_exchange(), baseline)
        assert len(problems) == 1 and "config" in problems[0]

    def test_broken_invariant_fails_without_baseline(self):
        problems = gate(fake_exchange(bytes_copied=1_000_000))
        assert len(problems) == 1
        assert "only payload copy" in problems[0]
        assert "resend" not in problems[0]

    def test_resends_are_named_in_the_problem(self):
        problems = gate(fake_exchange(resends=2, copies=194))
        assert len(problems) == 1 and "2 resend(s)" in problems[0]

    def test_skipped_scenario_skips_gate(self):
        assert check_regression(None, None, {EXCHANGE_ARTIFACT: fake_exchange()}) == []


class TestRunBenchExchange:
    def test_smoke_run_matches_committed_artifact(self, tmp_path):
        out = run_bench(
            smoke=True, scenarios=("exchange",), check=True, out_dir=tmp_path
        )
        assert out["problems"] == []
        assert (tmp_path / EXCHANGE_ARTIFACT).is_file()
