"""End-to-end PLS training benchmark.

Trains one workload (see ``workloads.py``) repeatedly for ``--seconds``
through the public ``run_spmd`` + ``train_worker`` path on the ``threads``
backend, checks every training's outputs, and prints every metric by name
with its unit and sample count.  The last line of standard output is the
result as one JSON object::

    python3 perfbench/run.py --workload pls-mlp-exchange --seed 1 --seconds 30 --trace 0

``--trace 0`` trains untraced and reports the end-to-end metrics declared in
``BENCHMARK.json``.  ``--trace 1`` alternates untraced and traced trainings,
starting untraced, and reports the per-layer metrics of the traced ones;
their histories must equal the untraced ones bit for bit, and the ratio of
the median walls is the tracing overhead.  Every training of one
invocation uses the same seed, so its deterministic outputs (histories,
message/copy/pool counts, samples and bytes sent, stored samples) must
repeat exactly.  A failed check or a raised exception counts as a failed
training; any failure makes the exit code 1.  Run from the root of a
checkout: the program is imported from ``src/``, and the exit code is 2,
with no result line, when it is missing.

``--workload all`` runs every workload untraced and then traced, each in
its own process, and exits 1 if any of them failed.

``perfbench/design.json`` maps each layer metric to the end-to-end metric
and workload it should move, and records the held-out seed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent

#: BLAS/OpenMP pools pinned to one thread: the two rank threads already
#: occupy both cores of the 2-core reference box, and a second pool thread
#: per rank would oversubscribe them.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)
#: Variables through which the caller's environment could change the run:
#: the backend choice and where fault dumps are written.
CLEARED_VARS = ("REPRO_BACKEND", "REPRO_FLIGHT_DIR")


def _environment() -> None:
    """Pin the thread pools before numpy loads and make ``repro`` importable."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    for var in CLEARED_VARS:
        os.environ.pop(var, None)
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        print(f"perfbench: no program at {src / 'repro'}; run from a checkout root",
              file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(src))


def _parse(argv, workloads) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*sorted(workloads), "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _declared(trace: bool) -> list[dict]:
    """The metrics ``BENCHMARK.json`` declares for this kind of run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def _run_all(args, workloads) -> int:
    """Each workload, untraced then traced, in a process of its own (so
    ``peak_rss_mib`` is the workload's own)."""
    failed = 0
    for name in sorted(workloads):
        for trace in (0, 1):
            cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                   "--seconds", f"{args.seconds:g}", "--trace", str(trace)]
            failed += subprocess.run(cmd, check=False).returncode != 0
    return 1 if failed else 0


def main(argv=None) -> int:
    _environment()
    import numpy as np

    from measure import check_training, deterministic_outputs, end_to_end, per_layer
    from probes import train_once
    from workloads import RANKS, WORKLOADS

    args = _parse(argv, WORKLOADS)
    if args.workload == "all":
        return _run_all(args, WORKLOADS)
    declared = _declared(bool(args.trace))
    w = WORKLOADS[args.workload]
    inputs = w.inputs(args.seed)

    print(f"# perfbench {w.name} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print(f"# env nproc={os.cpu_count()} ranks={RANKS} backend=threads "
          + " ".join(f"{v}={os.environ[v]}" for v in THREAD_VARS)
          + f" python={platform.python_version()} numpy={np.__version__}")
    print(f"# workload model={w.model} in_shape={w.in_shape} Q={w.q:g} N={w.samples} "
          f"batch={w.batch} epochs={w.epochs} steps/training={w.epochs * w.steps_per_epoch}")

    good, failures = [], []
    attempted = failed = 0
    expected = None
    start = perf_counter()
    while True:
        # A traced invocation alternates, so warm-up and machine drift fall
        # on both sides of the tracing-overhead ratio.
        traced = bool(args.trace) and attempted % 2 == 1
        attempted += 1
        t0 = perf_counter()
        try:
            t = train_once(w, inputs, args.seed, traced=traced)
        except Exception as exc:  # a failed training is a result, not a crash
            traceback.print_exc(file=sys.stderr)
            failures.append(f"training {attempted}: {type(exc).__name__}: {exc}")
            failed += 1
        else:
            problems = check_training(t, w)
            outputs = deterministic_outputs(t)
            if expected is None:
                expected = outputs
            problems += [f"{key} differs from the first checked training" for key in outputs
                         if outputs[key] != expected[key]]
            if problems:
                failures += [f"training {attempted}: {p}" for p in problems]
                failed += 1
            else:
                good.append(t)
        last = perf_counter() - t0
        done = len(good) >= (2 if args.trace else 1) or failures
        if done and perf_counter() - start + last > args.seconds:
            break

    metrics = {}
    if args.trace:
        untraced = [t for t in good if not t.traced]
        traced = [t for t in good if t.traced]
        if untraced and traced:
            metrics = per_layer(traced, untraced, w)
    elif good:
        metrics = end_to_end(good)

    print(f"# trainings attempted={attempted} failed={failed} error_rate={failed / attempted:g}")
    print(f"{'metric':34s} {'value':>16s} {'unit':8s} {'n':>6s}")
    result = {}
    for m in declared:
        if m["name"] not in metrics:
            failures.append(f"metric {m['name']} was not measured")
            continue
        value, n = metrics[m["name"]]
        print(f"{m['name']:34s} {value:16.6g} {m['unit']:8s} {n:6d}")
        result[m["name"]] = {"value": value, "unit": m["unit"]}
    for f in failures:
        print(f"# FAILED {f}")
    if not failures:
        print(f"# checks passed on {len(good)} training(s); deterministic outputs repeated exactly")
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": failed,
                      "metrics": result}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
