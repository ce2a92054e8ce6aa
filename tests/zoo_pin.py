"""The zoo's outcome bytes, pinned: one sha256 per registered model.

Every registered mechanism runs the Figure-1A select-invoke-rate loop
on a small fixed world (5 providers x 2 services, 25 consumers, 10
rounds) at two fixed base seeds.  A model's digest is the sha256 of
the ``repr`` of its two :class:`~repro.experiments.parallel.TrialResult`
outcomes (never the whole result, whose ``elapsed_ns`` and ``pid``
vary), so a change that moves one score, ranking or rating of any
model changes its digest.

The digests live in ``tests/zoo_digests.json``, keyed by Python minor
version (``"3.11"``): float ``sum`` is compensated from 3.12 on, so
another minor version may legitimately produce other bytes.
``tests/test_zoo_pin.py`` asserts them.  A change that moves outcome
bytes on purpose regenerates the file from the repository root::

    PYTHONPATH=src python -m tests.zoo_pin

The script runs every spec twice, through a two-worker process pool
and serially, and refuses to write when the two disagree.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Dict, List, Sequence

from repro.core.registry import default_registry
from repro.experiments import parallel

DIGESTS = Path(__file__).resolve().parent / "zoo_digests.json"

BASE_SEEDS = (1, 2)
ROUNDS = 10
WORLD = {"n_providers": 5, "services_per_provider": 2, "n_consumers": 25}


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
    table = committed() if DIGESTS.exists() else {}
    table[python_version()] = dict(sorted(serial.items()))
    DIGESTS.write_text(
        json.dumps(dict(sorted(table.items())), indent=2) + "\n",
        encoding="utf-8",
    )
    print(f"wrote {len(serial)} digests for Python {python_version()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
