"""Benchmark harness for the exchange hot path (``repro bench``).

Records the zero-copy exchange's exact counts (copies, pool traffic,
shard checksums), what the pooled data loader buys over the default
collate, and the other scenarios' ratios, and writes machine-readable
artifacts (``BENCH_<scenario>.json``) the CI ``bench-smoke`` job gates
on.  See ``docs/performance.md`` for how to run it and how to read the
numbers.
"""

from .backend import MIN_PROCS_SPEEDUP, bench_backend
from .epoch import bench_epoch_loader
from .exchange import bench_exchange, exchange_q_sweep
from .runner import (
    DEFAULT_RESULTS_DIR,
    MAX_MIGRATION_SHARE,
    MIN_REJOIN_SPEED,
    MIN_SERVE_FAIRNESS,
    SCENARIOS,
    check_regression,
    run_bench,
)
from .robustness import bench_robustness
from .serve import bench_serve
from .telemetry import FLIGHT_OVERHEAD_BUDGET, bench_telemetry

__all__ = [
    "bench_backend",
    "bench_exchange",
    "exchange_q_sweep",
    "bench_epoch_loader",
    "bench_telemetry",
    "bench_serve",
    "bench_robustness",
    "run_bench",
    "check_regression",
    "DEFAULT_RESULTS_DIR",
    "SCENARIOS",
    "FLIGHT_OVERHEAD_BUDGET",
    "MAX_MIGRATION_SHARE",
    "MIN_PROCS_SPEEDUP",
    "MIN_REJOIN_SPEED",
    "MIN_SERVE_FAIRNESS",
]
