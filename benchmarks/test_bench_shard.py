"""Wall-clock regression harness for the sharded single-world runtime.

Times one large world (10^5 agents by default; ``REPRO_BENCH_SHARD_AGENTS``
scales it up to the 10^6 local target) executed two ways:

* **1 shard, serial** — the reference: the sharded runner degenerates
  to a single in-process partition;
* **N shards, process mode** — one worker process per shard with
  epoch-barrier feedback exchange (``REPRO_BENCH_SHARD_JOBS`` narrows
  the shard counts to one, what CI uses on its 2-core runners).

Before any timing it asserts the headline contract on a small world:
1 shard == 2 shards == 4 shards, byte-identical ``canonical_bytes()``,
serial and process mode alike.  Every timed pooled run must also
reproduce the 1-shard reference bytes exactly — a fast comparison that
makes the timings unfalsifiable-by-divergence.

Results go to ``BENCH_shard.json`` at the repo root (tracked baseline).
Speedup gates are core-aware: >= 2x at 4 shards only where >= 4
hardware threads exist, >= 1.2x at 2 shards on >= 2 cores; on smaller
hosts the measurements are recorded without asserting.  Per-shard load
imbalance and cross-shard message cost are read from the dispatch
report's merged network registries, so they follow the same
silent-shard discipline the obs ledger uses.
"""

from __future__ import annotations

import json
import os
import statistics
from pathlib import Path
from typing import Dict, List

from repro.experiments.sharded import (
    PROCESS,
    SERIAL,
    ShardedRunSpec,
    run_sharded_experiment,
)

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_shard.json"

MODEL = "beta"
SEED = 2026
EPOCHS = 2
ROUNDS_PER_EPOCH = 2
AGENTS = int(os.environ.get("REPRO_BENCH_SHARD_AGENTS", "100000"))
WORLD_PARAMS = dict(n_providers=5, services_per_provider=2)
#: timed runs per mode; the speedup gate reads the medians, so one run
#: slowed by a busy host does not flip the tier.
REPEATS = 3

GATE_WORLD = dict(n_providers=3, services_per_provider=2, n_consumers=97)


def bench_shards() -> List[int]:
    raw = os.environ.get("REPRO_BENCH_SHARD_JOBS", "").strip()
    if raw:
        return [max(2, int(raw))]
    return [2, 4]


def _spec(n_consumers: int) -> ShardedRunSpec:
    params = dict(WORLD_PARAMS, n_consumers=n_consumers)
    return ShardedRunSpec(
        model=MODEL,
        seed=SEED,
        epochs=EPOCHS,
        rounds_per_epoch=ROUNDS_PER_EPOCH,
        world_params=params,
    )


def test_shard_runtime_regression(table_printer):
    cores = os.cpu_count() or 1
    shard_counts = bench_shards()

    # -- determinism gate first: small world, every mode, same bytes --
    gate_spec = ShardedRunSpec(
        model=MODEL,
        seed=SEED,
        epochs=EPOCHS,
        rounds_per_epoch=ROUNDS_PER_EPOCH,
        world_params=GATE_WORLD,
    )
    gate_ref = run_sharded_experiment(gate_spec, shards=1, mode=SERIAL)
    gate_bytes = gate_ref.canonical_bytes()
    for shards in (2, 4):
        serial = run_sharded_experiment(gate_spec, shards=shards, mode=SERIAL)
        assert serial.canonical_bytes() == gate_bytes, (
            f"{shards}-shard serial run diverged from the 1-shard bytes"
        )
        assert serial.result == gate_ref.result
    pooled_gate = run_sharded_experiment(gate_spec, shards=2, mode=PROCESS)
    assert pooled_gate.dispatch.mode == PROCESS
    assert pooled_gate.canonical_bytes() == gate_bytes, (
        "process-mode run diverged from the 1-shard bytes"
    )

    # -- timings on the big world -------------------------------------
    spec = _spec(AGENTS)
    total_rows = spec.total_rounds * AGENTS
    # Modes alternate within each repeat, so a slow phase of the host
    # lands on every mode rather than on one.
    reference_bytes = None
    samples: Dict[int, List[int]] = {1: [], **{s: [] for s in shard_counts}}
    dispatches = {}
    for _ in range(REPEATS):
        for shards in samples:
            mode = SERIAL if shards == 1 else PROCESS
            report = run_sharded_experiment(spec, shards=shards, mode=mode)
            if reference_bytes is None:
                reference_bytes = report.canonical_bytes()
            assert report.canonical_bytes() == reference_bytes, (
                f"{shards}-shard {mode} run diverged from the 1-shard bytes"
            )
            samples[shards].append(report.dispatch.wall_ns)
            dispatches[shards] = report.dispatch
    medians = {s: round(statistics.median(v)) for s, v in samples.items()}
    serial_ns = medians[1]

    shard_rows: Dict[int, Dict[str, object]] = {}
    for shards in shard_counts:
        wall_ns = medians[shards]
        dispatch = dispatches[shards]
        shard_rows[shards] = {
            "wall_ns": wall_ns,
            "wall_ns_samples": samples[shards],
            "ns_per_row": round(wall_ns / total_rows),
            "speedup_vs_serial": round(serial_ns / wall_ns, 2),
            "load_imbalance": round(dispatch.load_imbalance, 3),
            "cross_shard_rows": dispatch.cross_shard_rows,
            "cross_shard_fraction": round(
                dispatch.cross_shard_rows / total_rows, 4
            ),
            "exchange_messages": dispatch.exchange_stats.total_messages,
            "consumers_per_shard": dispatch.consumers_per_shard,
        }

    payload = {
        "config": {
            "model": MODEL,
            "agents": AGENTS,
            "epochs": EPOCHS,
            "rounds_per_epoch": ROUNDS_PER_EPOCH,
            "rows": total_rows,
            "seed": SEED,
            "world_params": WORLD_PARAMS,
            "repeats": REPEATS,
            "timer": "perf_counter_ns/median",
            "cpu_count": cores,
        },
        "serial_1_shard": {
            "wall_ns": serial_ns,
            "wall_ns_samples": samples[1],
            "ns_per_row": round(serial_ns / total_rows),
        },
        "sharded": {str(s): row for s, row in shard_rows.items()},
    }
    BENCH_PATH.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )

    rows = [
        ["1 shard (serial)", serial_ns // total_rows, "x1.00", "-", "-"]
    ] + [
        [
            f"{s} shards",
            row["wall_ns"] // total_rows,
            f"x{row['speedup_vs_serial']}",
            f"{row['load_imbalance']}",
            f"{row['cross_shard_fraction']}",
        ]
        for s, row in sorted(shard_rows.items())
    ]
    table_printer(
        f"Sharded runtime: {AGENTS} agents x {spec.total_rounds} rounds "
        f"({MODEL}, {cores} cores)",
        ["mode", "ns/row", "speedup", "imbalance", "cross-shard"],
        rows,
    )

    # -- gates --------------------------------------------------------
    # Speedup tiers only bind where the hardware can deliver them; the
    # measurement lands in BENCH_shard.json either way.
    for shards, row in shard_rows.items():
        if cores >= shards >= 4:
            assert row["speedup_vs_serial"] >= 2.0, (
                f"{shards}-shard speedup {row['speedup_vs_serial']} "
                f"< 2.0 on a {cores}-core host"
            )
        elif cores >= shards >= 2:
            assert row["speedup_vs_serial"] >= 1.2, (
                f"{shards}-shard speedup {row['speedup_vs_serial']} "
                f"< 1.2 on a {cores}-core host"
            )
