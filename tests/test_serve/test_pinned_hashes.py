"""The serve benchmark's determinism hashes, pinned.

``benchmarks/test_bench_serve.py`` writes the four canonical hashes of
its steady load into ``BENCH_serve.json`` but compares them with
nothing but themselves.  This test re-runs that load at the committed
request count and asserts the committed hashes, so a change that moves
a ranking, a score or a trace byte on the serve path fails here.
"""

import dataclasses
import json
from pathlib import Path
from typing import Dict

from benchmarks.test_bench_serve import STEADY
from repro.serve.loadgen import run_loadgen

BENCH = Path(__file__).resolve().parents[2] / "BENCH_serve.json"
HASHES = (
    "ingest_log_sha256", "responses_sha256", "scores_sha256", "trace_sha256",
)


def steady_hashes() -> Dict[str, str]:
    """The four hashes of the steady load at the committed request count."""
    committed = json.loads(BENCH.read_text())
    spec = dataclasses.replace(
        STEADY, requests_per_client=committed["config"]["requests_per_client"]
    )
    report = run_loadgen(spec)
    return {
        "ingest_log_sha256": report.log_sha256,
        "responses_sha256": report.responses_sha256,
        "scores_sha256": report.scores_sha256,
        "trace_sha256": report.trace_sha256,
    }


def test_steady_load_matches_committed_hashes():
    pinned = json.loads(BENCH.read_text())["determinism"]
    assert steady_hashes() == {key: pinned[key] for key in HASHES}
