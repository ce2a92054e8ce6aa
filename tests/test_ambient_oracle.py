"""Ambient nondeterminism never reaches canonical bytes.

Two fresh processes run the pinned workloads (:mod:`tests.ambient_oracle`)
at once.  They differ in every ambient source R001 names: the hash
seed, the global ``random`` and ``numpy.random`` seeds, ``os.urandom``
and uuids, the pid, and a fake clock behind every wall-clock and timer
reader with a different base and step in each.  Their canonical bytes
must be equal, and each run must reach every canonical sink, so the
equality covers each surface the bytes are built from.  The oracle
compares two runs rather than committed digests, so it binds on every
Python version.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List

import pytest

import repro
from repro.analysis.rules.determinism import BANNED_NAMES, TIMER_NAMES
from tests.ambient_oracle import SINKS, sink_label

ROOT = Path(__file__).resolve().parent.parent

#: (PYTHONHASHSEED, global RNG seed, (clock base, clock step), pid)
RUNS = (
    ("1", 1, (1.0e9, 1.0e-3), 4242),
    ("2", 2, (1.0864e9 + 1.5, 3.7e-3), 9001),
)


@pytest.fixture(scope="module")
def reports(tmp_path_factory) -> List[Dict[str, Any]]:
    # the repro the test imported (a mutated copy under tests.mutation)
    path = os.pathsep.join((str(Path(repro.__file__).parents[1]), str(ROOT)))
    names = sorted(BANNED_NAMES.keys() | TIMER_NAMES)
    runs = []
    for hash_seed, seed, clock, pid in RUNS:
        config = {
            "seed": seed, "clock": clock, "pid": pid, "names": names,
            "trace_dir": str(tmp_path_factory.mktemp("traces")),
        }
        runs.append(subprocess.Popen(
            [sys.executable, "-m", "tests.ambient_oracle", json.dumps(config)],
            cwd=ROOT,
            env=dict(os.environ, PYTHONPATH=path, PYTHONHASHSEED=hash_seed),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        ))
    done = []
    for run in runs:
        out, err = run.communicate(timeout=300)
        assert run.returncode == 0, err
        done.append(json.loads(out.splitlines()[-1]))
    return done


def test_perturbed_runs_write_equal_bytes(reports):
    first, second = reports
    assert first["bytes"] == second["bytes"]


@pytest.mark.parametrize("sink", [sink_label(c, a) for _, c, a in SINKS])
def test_sink_reached(reports, sink):
    assert all(report["sinks"][sink] >= 1 for report in reports)
