"""Throughput regression harness for the parallel experiment runtime.

Times the canonical replication workload (N seeded trials of one model
through :func:`run_selection_experiment`) three ways:

* **serial harness** — the pre-existing path: a plain Python loop
  building a world and model per seed and calling the harness directly;
* **pool @ 1 worker** — :func:`repro.experiments.parallel.run_trials`
  with ``max_workers=1``, i.e. the runtime's serial fallback.  The gate
  requires this to be within noise of the serial harness: the spec
  layer must cost (almost) nothing when it buys no parallelism;
* **pool @ N workers** — the process-pool fan-out, for each worker
  count under test (``REPRO_BENCH_JOBS`` overrides the default 2,4).

Before any timing it asserts the determinism contract on the real
workload: every pooled run must reproduce the serial harness outcomes
*exactly* — final scores, per-round accuracy, regret sequences.

Results are written to ``BENCH_runtime.json`` at the repo root (the
tracked baseline next to ``BENCH_models.json``).  Speedup gates are
core-aware: a 4-worker pool can only be required to beat 2x where four
hardware threads exist, so the file records ``cpu_count`` alongside
every measurement and the assertion tier degrades with the host.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Dict, List

from benchmarks._bench import best_ns
from repro.core.registry import default_registry
from repro.experiments.harness import (
    SelectionOutcome,
    run_selection_experiment,
)
from repro.experiments.parallel import (
    TrialRunReport,
    replication_specs,
    run_trials,
)
from repro.experiments.workloads import make_world

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_runtime.json"

MODEL = "beta"
TRIALS = 8
ROUNDS = 30
BASE_SEED = 2026
WORLD_PARAMS = dict(
    n_providers=5, services_per_provider=2, n_consumers=25
)
#: min-of-repeats for the two serial timings (noise-robust estimator).
REPEATS = 3
#: repeats for pooled timings — pools are slower to spin up, and the
#: speedup gates have wide margins, so two samples suffice.
POOL_REPEATS = 2
#: pool @ 1 worker may cost at most this factor over the bare loop.
MAX_SERIAL_OVERHEAD = 1.35


def bench_workers() -> List[int]:
    """Worker counts under test; ``REPRO_BENCH_JOBS=n`` narrows the run
    to one count (what CI uses on its 2-core runners)."""
    raw = os.environ.get("REPRO_BENCH_JOBS", "").strip()
    if raw:
        return [max(2, int(raw))]
    return [2, 4]


def _specs():
    return replication_specs(
        MODEL,
        TRIALS,
        base_seed=BASE_SEED,
        rounds=ROUNDS,
        world_params=WORLD_PARAMS,
    )


def run_serial_harness() -> List[SelectionOutcome]:
    """The pre-pool execution path, reproduced exactly: build a world
    and model per derived seed, loop run_selection_experiment."""
    outcomes = []
    for spec in _specs():
        world = make_world(seed=spec.seed, **WORLD_PARAMS)
        model = default_registry(rng_seed=spec.seed).create(MODEL)
        outcomes.append(
            run_selection_experiment(model, world, rounds=ROUNDS)
        )
    return outcomes


def _same_outcomes(
    pooled: List[SelectionOutcome], serial: List[SelectionOutcome]
) -> bool:
    """Exact replay — no tolerances anywhere."""
    if len(pooled) != len(serial):
        return False
    for a, b in zip(pooled, serial):
        if a.final_scores != b.final_scores:
            return False
        if a.result.regrets != b.result.regrets:
            return False
        if a.result.round_accuracy != b.result.round_accuracy:
            return False
        if a.ranking != b.ranking:
            return False
    return True


def test_parallel_runtime_regression(table_printer):
    cores = os.cpu_count() or 1
    specs = _specs()
    reference = run_serial_harness()

    # -- determinism gate first: every execution mode, same outcomes --
    pool_serial: TrialRunReport = run_trials(specs, max_workers=1)
    assert pool_serial.mode == "serial"
    assert _same_outcomes(pool_serial.outcomes, reference), (
        "pool serial fallback diverged from the bare harness loop"
    )
    worker_counts = bench_workers()
    for workers in worker_counts:
        pooled = run_trials(specs, max_workers=workers)
        assert pooled.mode == "process-pool"
        assert _same_outcomes(pooled.outcomes, reference), (
            f"{workers}-worker pool diverged from the serial harness"
        )

    # -- timings ------------------------------------------------------
    serial_ns = best_ns(run_serial_harness, REPEATS)
    pool1_ns = best_ns(lambda: run_trials(specs, max_workers=1), REPEATS)
    pool_rows: Dict[int, Dict[str, object]] = {}
    for workers in worker_counts:
        wall_ns = best_ns(
            lambda w=workers: run_trials(specs, max_workers=w),
            repeats=POOL_REPEATS,
        )
        pool_rows[workers] = {
            "wall_ns": wall_ns,
            "ns_per_trial": round(wall_ns / TRIALS),
            "speedup_vs_serial": round(serial_ns / wall_ns, 2),
        }

    payload = {
        "config": {
            "model": MODEL,
            "trials": TRIALS,
            "rounds": ROUNDS,
            "base_seed": BASE_SEED,
            "world_params": WORLD_PARAMS,
            "repeats": REPEATS,
            "pool_repeats": POOL_REPEATS,
            "timer": "perf_counter_ns/min",
            "cpu_count": cores,
        },
        "serial_harness": {
            "wall_ns": serial_ns,
            "ns_per_trial": round(serial_ns / TRIALS),
        },
        "pool_1_worker": {
            "wall_ns": pool1_ns,
            "ns_per_trial": round(pool1_ns / TRIALS),
            "overhead_vs_serial": round(pool1_ns / serial_ns, 2),
        },
        "pool": {str(w): row for w, row in pool_rows.items()},
    }
    BENCH_PATH.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )

    rows = [
        ["serial harness", serial_ns // TRIALS, "x1.00"],
        [
            "pool @ 1",
            pool1_ns // TRIALS,
            f"x{serial_ns / pool1_ns:.2f}",
        ],
    ] + [
        [
            f"pool @ {w}",
            row["wall_ns"] // TRIALS,
            f"x{row['speedup_vs_serial']}",
        ]
        for w, row in sorted(pool_rows.items())
    ]
    table_printer(
        f"Parallel runtime: {TRIALS} replications x {ROUNDS} rounds "
        f"({MODEL}, {cores} cores)",
        ["mode", "ns/trial", "speedup"],
        rows,
    )

    # -- gates --------------------------------------------------------
    # 1-worker path must stay within noise of the pre-existing loop.
    assert pool1_ns <= serial_ns * MAX_SERIAL_OVERHEAD, (
        f"pool at 1 worker is {pool1_ns / serial_ns:.2f}x the serial "
        f"harness (max allowed {MAX_SERIAL_OVERHEAD}x)"
    )
    # Speedup tiers only bind where the hardware can deliver them:
    # >= 2x when the host has >= 4 cores for a 4-worker pool, >= 1.2x
    # for a 2-worker pool on >= 2 cores.  Measurements are recorded in
    # BENCH_runtime.json either way.
    for workers, row in pool_rows.items():
        if cores >= workers >= 4:
            assert row["speedup_vs_serial"] >= 2.0, (
                f"{workers}-worker speedup {row['speedup_vs_serial']} "
                f"< 2.0 on a {cores}-core host"
            )
        elif cores >= workers >= 2:
            assert row["speedup_vs_serial"] >= 1.2, (
                f"{workers}-worker speedup {row['speedup_vs_serial']} "
                f"< 1.2 on a {cores}-core host"
            )
