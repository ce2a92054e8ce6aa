"""The zoo's outcome bytes, pinned: one sha256 per registered model.

Every registered mechanism runs the Figure-1A select-invoke-rate loop
on a small fixed world (5 providers x 2 services, 25 consumers, 10
rounds) at two fixed base seeds.  A model's digest is the sha256 of
the ``repr`` of its two :class:`~repro.experiments.parallel.TrialResult`
outcomes (never the whole result, whose ``elapsed_ns`` and ``pid``
vary), so a change that moves one score, ranking or rating of any
model changes its digest.

One small sharded run is pinned beside them: the sha256 of its
:meth:`~repro.experiments.sharded.ShardedRunReport.canonical_bytes` at
two shards.  The shard tests check that 1, 2 and 8 shards agree; this
digest catches a change that moves every shard count alike.

So is the Figure-2 trace: the sha256 of the canonical JSONL that
``run_activities_comparison(rounds=10)`` writes into its trace
directory (``REPRO_TRACE_DIR`` in CI's traced run).

The digests live in ``tests/zoo_digests.json``, keyed by Python minor
version (``"3.11"``), the shard digest under ``"sharded"`` and the
trace digest under ``"fig2"``: float ``sum`` is compensated from 3.12
on, so another minor version may legitimately produce other bytes.  ``tests/test_zoo_pin.py`` asserts
them.  A change that moves outcome bytes on purpose regenerates the
file from the repository root::

    PYTHONPATH=src python -m tests.zoo_pin

The script runs every spec twice, through worker processes and
serially, the sharded run in both modes and the Figure-2 run twice,
and refuses to write when a pair disagrees.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path
from typing import Dict, List, Sequence

from repro.core.registry import default_registry
from repro.experiments import parallel, sharded
from repro.experiments.activities import run_activities_comparison

DIGESTS = Path(__file__).resolve().parent / "zoo_digests.json"

BASE_SEEDS = (1, 2)
ROUNDS = 10
WORLD = {"n_providers": 5, "services_per_provider": 2, "n_consumers": 25}

SHARD_KEY = "sharded"
SHARD_SPEC = sharded.ShardedRunSpec(
    model="beta", seed=1, epochs=2, rounds_per_epoch=2,
    world_params={"n_providers": 3, "services_per_provider": 2,
                  "n_consumers": 11},
)


FIG2_KEY = "fig2"
FIG2_ROUNDS = 10


def python_version() -> str:
    return f"{sys.version_info.major}.{sys.version_info.minor}"


def specs() -> List[parallel.TrialSpec]:
    """Every registered model at each base seed, model-major."""
    return [
        parallel.replication_specs(
            name, 1, base_seed=seed, rounds=ROUNDS, world_params=WORLD
        )[0]
        for name in default_registry().names()
        for seed in BASE_SEEDS
    ]


def digests(results: Sequence[parallel.TrialResult]) -> Dict[str, str]:
    """model -> sha256 over the reprs of its outcomes, in seed order."""
    grouped: Dict[str, List[str]] = {}
    for result in results:
        grouped.setdefault(result.spec.model, []).append(repr(result.outcome))
    return {
        model: hashlib.sha256("\n".join(reprs).encode()).hexdigest()
        for model, reprs in grouped.items()
    }


def shard_digest(
    mode: str, spec: sharded.ShardedRunSpec = SHARD_SPEC
) -> str:
    """sha256 of *spec*'s canonical bytes at two shards."""
    report = sharded.run_sharded_experiment(spec, shards=2, mode=mode)
    if report.dispatch.mode != mode:
        raise RuntimeError(f"asked for {mode}, ran {report.dispatch.mode}")
    return hashlib.sha256(report.canonical_bytes()).hexdigest()


def fig2_digest(trace_dir: Path) -> str:
    """sha256 of the Figure-2 trace written into the empty *trace_dir*."""
    run_activities_comparison(rounds=FIG2_ROUNDS, trace_dir=str(trace_dir))
    (trace,) = trace_dir.glob("*.jsonl")
    return hashlib.sha256(trace.read_bytes()).hexdigest()


def committed() -> Dict[str, Dict[str, str]]:
    return json.loads(DIGESTS.read_text(encoding="utf-8"))


def main() -> int:
    chosen = specs()
    serial = digests([parallel.run_trial(spec) for spec in chosen])
    report = parallel.run_trials(chosen, max_workers=2)
    if report.mode != parallel.PROCESS_POOL:
        print(f"refusing to write: the pooled run ran {report.mode}")
        return 1
    pooled = digests(report.results)
    if serial != pooled:
        moved = sorted(m for m in serial if serial[m] != pooled.get(m))
        print(f"refusing to write: pooled != serial for {moved}")
        return 1
    shard = shard_digest(sharded.SERIAL)
    if shard_digest(sharded.PROCESS) != shard:
        print("refusing to write: the sharded run's process != serial")
        return 1
    with tempfile.TemporaryDirectory() as tmp:
        fig2, again = (fig2_digest(Path(tmp) / run) for run in ("a", "b"))
    if fig2 != again:
        print("refusing to write: two Figure-2 runs wrote different traces")
        return 1
    table = committed() if DIGESTS.exists() else {}
    table[python_version()] = dict(sorted(serial.items()))
    table.setdefault(SHARD_KEY, {})[python_version()] = shard
    table.setdefault(FIG2_KEY, {})[python_version()] = fig2
    DIGESTS.write_text(
        json.dumps(dict(sorted(table.items())), indent=2) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {len(serial)} zoo digests, the shard digest and the "
          f"Figure-2 digest for Python {python_version()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
