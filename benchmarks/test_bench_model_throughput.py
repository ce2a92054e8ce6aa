"""Micro-benchmarks + regression harness: per-mechanism throughput.

Two layers:

* pytest-benchmark timings of the two hot scalar operations (ingest one
  record, answer one score) for a representative subset across the
  typology — the mechanisms *not* in that subset are reported
  explicitly, not silently dropped;
* a regression harness (:func:`test_regression_batch_vs_naive`) that
  times every mechanism carrying a custom ``score_many`` kernel on a
  1,000-record warm store with a 100-candidate batch, compares the
  batched path against the naive per-candidate path (for the graph
  models: a cold power-iteration recompute, which is what every query
  cost before the incremental cache), and writes the results to their
  sections of ``BENCH_models.json`` at the repo root, keeping the
  others.  The harness *fails* when a
  batched path is slower than its naive path, and requires the
  headline >= 5x batch speedup on EigenTrust and PageRank.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List

import pytest

from benchmarks._bench import best_ns
from repro.common.records import Feedback
from repro.core.registry import default_registry
from repro.models.base import ReputationModel
from repro.models.eigentrust import EigenTrustModel
from repro.models.pagerank import PageRankModel

REGISTRY = default_registry(rng_seed=0)

#: A representative subset across the typology; the full registry would
#: make the pytest-benchmark run tediously long without adding
#: information.  The regression harness below covers every mechanism
#: with a batch kernel and lists the rest in BENCH_models.json.
TIMED = [
    "beta", "ebay", "sporas", "histos", "amazon", "epinions",
    "collaborative_filtering", "yu_singh", "peertrust",
    "maximilien_singh", "liu_ngu_zeng", "vu_aberer", "wang_vassileva",
]

#: Registered mechanisms the scalar timings above do NOT cover — kept
#: visible so the subset can't silently drift from the registry.
NOT_TIMED = sorted(set(REGISTRY.names()) - set(TIMED))

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_models.json"

WARM_RECORDS = 1000
BATCH_SIZE = 100
REPEATS = 7


def test_timed_subset_is_reported(table_printer):
    """The scalar-timing subset must be an explicit, visible choice."""
    unknown = sorted(set(TIMED) - set(REGISTRY.names()))
    assert not unknown, f"TIMED names not in the registry: {unknown}"
    table_printer(
        "Scalar timing coverage",
        ["mechanism", "timed"],
        [[name, "yes" if name in TIMED else "no (see BENCH_models.json)"]
         for name in REGISTRY.names()],
    )


@pytest.mark.benchmark(group="throughput-record")
@pytest.mark.parametrize("name", TIMED)
def test_bench_record(benchmark, name, stream):
    model = REGISTRY.create(name)
    model.record_many(stream)
    extra = Feedback(rater="r0", target="svc-0", time=9999.0, rating=0.7)
    benchmark(lambda: model.record(extra))


@pytest.mark.benchmark(group="throughput-score")
@pytest.mark.parametrize("name", TIMED)
def test_bench_score(benchmark, name, stream):
    model = REGISTRY.create(name)
    model.record_many(stream)
    benchmark(lambda: model.score("svc-0", perspective="r0", now=1000.0))


@pytest.mark.benchmark(group="power-iteration")
def test_bench_eigentrust_compute_naive(benchmark, stream):
    """The pure-Python scalar reference iteration (cold every call)."""
    model = EigenTrustModel(pre_trusted=["r0"])
    model.record_many(stream)
    benchmark(model.compute_naive)


@pytest.mark.benchmark(group="power-iteration")
def test_bench_eigentrust_compute(benchmark, stream):
    """The shared sparse walk (warm-started after the first call)."""
    model = EigenTrustModel(pre_trusted=["r0"])
    model.record_many(stream)
    benchmark(model.compute)


@pytest.mark.benchmark(group="power-iteration")
def test_bench_pagerank_compute(benchmark, stream):
    model = PageRankModel()
    model.record_many(stream)
    benchmark(model.compute)


@pytest.mark.benchmark(group="scale")
def test_bench_large_world_round(benchmark):
    """One full selection round at laptop scale: 100 services, 200
    consumers."""
    from repro.core.scenarios import DirectSelectionScenario, ScenarioResult
    from repro.core.selection import EpsilonGreedyPolicy
    from repro.experiments.workloads import make_world
    from repro.models.beta import BetaReputation

    world = make_world(
        n_providers=50, services_per_provider=2, n_consumers=200, seed=0,
    )
    scenario = DirectSelectionScenario(
        services=world.services,
        consumers=world.consumers,
        model=BetaReputation(),
        taxonomy=world.taxonomy,
        policy=EpsilonGreedyPolicy(0.1, rng=world.seeds.rng("policy")),
        rng=world.seeds.rng("invoke"),
    )
    result = ScenarioResult(rounds=1, selections=0, optimal_selections=0)
    benchmark(lambda: scenario.run_round(result))


# ---------------------------------------------------------------------------
# Regression harness: batched scoring vs the naive path, tracked in
# BENCH_models.json.
# ---------------------------------------------------------------------------

def _has_batch_kernel(model: ReputationModel) -> bool:
    return type(model).score_many is not ReputationModel.score_many


def _naive_scores(
    model: ReputationModel,
    targets: List[str],
    perspective: str,
    now: float,
) -> List[float]:
    """The pre-batch-engine query path.

    The damped-walk models (PageRank, social network, EigenTrust) pay
    their cold pure-Python ``compute_naive`` (what every ranking query
    cost when ``record`` simply discarded the stationary vector);
    everything else runs the base-class per-candidate loop.
    """
    if isinstance(model, (PageRankModel, EigenTrustModel)):
        ranks = model.compute_naive()  # scalar reference; ignores the cache
        if not ranks:
            return [0.5] * len(targets)
        top = max(ranks.values())
        if top <= 0:
            return [0.5] * len(targets)
        return [ranks.get(t, 0.0) / top for t in targets]
    return ReputationModel.score_many(model, targets, perspective, now)


def _warmed(name: str, records: List[Feedback]) -> ReputationModel:
    model = REGISTRY.create(name)
    model.record_many(records)
    return model


def test_regression_batch_vs_naive(table_printer, wide_stream):
    """Time batch vs naive scoring for every batch-kernel mechanism and
    write the tracked baseline to BENCH_models.json."""
    records = wide_stream
    batch = [f"svc-{i}" for i in range(BATCH_SIZE)]
    extras = [
        Feedback(
            rater=f"r{i % 20}",
            target=f"svc-{i % BATCH_SIZE}",
            time=float(WARM_RECORDS + i),
            rating=((i * 11) % 100) / 100.0,
        )
        for i in range(100)
    ]
    now = float(WARM_RECORDS)
    perspective = "r0"

    report: Dict[str, Dict[str, object]] = {}
    skipped: Dict[str, str] = {}
    for name in REGISTRY.names():
        probe = REGISTRY.create(name)
        if not _has_batch_kernel(probe):
            skipped[name] = "no batch kernel (base-class score loop)"
            continue

        # Numerical equivalence before any timing: batched == naive.
        check = _warmed(name, records)
        fresh = _warmed(name, records)
        batched = check.score_many(batch, perspective, now)
        naive = _naive_scores(fresh, batch, perspective, now)
        assert batched == pytest.approx(naive, abs=1e-9), (
            f"{name}: batched scores diverge from the naive path"
        )

        # record: amortized over a burst of fresh feedback.
        recorder = _warmed(name, records)
        record_ns = best_ns(
            lambda m=recorder: [m.record(f) for f in extras], REPEATS
        ) / len(extras)

        # warm scalar score / per-candidate loop / batched call, all on
        # one instance with no interleaved feedback (steady-state query).
        scorer = _warmed(name, records)
        scorer.score(batch[0], perspective, now)  # warm any lazy cache
        score_ns = best_ns(
            lambda m=scorer: m.score(batch[0], perspective, now), REPEATS
        )
        loop_ns = best_ns(
            lambda m=scorer: ReputationModel.score_many(
                m, batch, perspective, now
            ),
            REPEATS,
        )
        batch_ns = best_ns(
            lambda m=scorer: m.score_many(batch, perspective, now), REPEATS
        )

        # naive path on its own instance (graph models mutate caches).
        naive_model = _warmed(name, records)
        naive_ns = best_ns(
            lambda m=naive_model: _naive_scores(m, batch, perspective, now),
            REPEATS,
        )

        report[name] = {
            "record_ns_per_op": round(record_ns, 1),
            "score_ns_per_op": score_ns,
            "score_many_ns_per_batch": batch_ns,
            "score_many_ns_per_candidate": round(batch_ns / len(batch), 1),
            "score_loop_ns_per_batch": loop_ns,
            "naive_ns_per_batch": naive_ns,
            "speedup_vs_score_loop": round(loop_ns / batch_ns, 2),
            "speedup_vs_naive": round(naive_ns / batch_ns, 2),
        }

    # Read, modify, write: the columnar and obs harnesses keep their own
    # sections of the same file.
    payload = (
        json.loads(BENCH_PATH.read_text()) if BENCH_PATH.exists() else {}
    )
    payload.update(
        config={
            "warm_records": WARM_RECORDS,
            "batch_size": BATCH_SIZE,
            "repeats": REPEATS,
            "timer": "perf_counter_ns/min",
        },
        models=report,
        skipped=skipped,
    )
    BENCH_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    table_printer(
        "Batch scoring vs naive path (1000 warm records, batch of 100)",
        ["mechanism", "batch ns", "naive ns", "speedup"],
        [
            [
                name,
                row["score_many_ns_per_batch"],
                row["naive_ns_per_batch"],
                f"x{row['speedup_vs_naive']}",
            ]
            for name, row in sorted(report.items())
        ],
    )
    if skipped:
        table_printer(
            "Mechanisms without a batch kernel (not gated)",
            ["mechanism", "reason"],
            sorted(skipped.items()),
        )

    # -- the regression gates ------------------------------------------
    slow = {
        name: row["speedup_vs_naive"]
        for name, row in report.items()
        if row["naive_ns_per_batch"] < row["score_many_ns_per_batch"]
    }
    assert not slow, f"batched path slower than naive path: {slow}"
    for headline in ("eigentrust", "pagerank"):
        assert report[headline]["speedup_vs_naive"] >= 5.0, (
            f"{headline}: expected >= 5x batch speedup, got "
            f"{report[headline]['speedup_vs_naive']}"
        )


# ---------------------------------------------------------------------------
# Observability overhead gate: a disabled recorder must be (near) free.
# ---------------------------------------------------------------------------

#: Relative budget for instrumentation with the no-op recorder installed.
OBS_OVERHEAD_LIMIT = 0.05
#: Absolute slack per measured burst: on a quiet machine a rank burst
#: runs in the low-millisecond range, so jitter can exceed 5% of the
#: signal even with min-of-7.  The relative gate carries the meaning;
#: the slack keeps the gate from flaking on timer noise.
OBS_SLACK_NS = 500_000
RANK_BURST = 50


def _rank_uninstrumented(model, candidates, perspective, now):
    """The exact rank() body minus the recorder guard — the pre-obs
    baseline the instrumented path is gated against."""
    from repro.models.base import ranked, scored_targets

    candidates = list(candidates)
    return scored_targets(
        ranked(candidates, model.score_many(candidates, perspective, now))
    )


def test_obs_disabled_recorder_overhead(table_printer, wide_stream):
    """Instrumented rank() under the default no-op recorder vs the same
    body with no instrumentation at all: <= 5% + noise slack, recorded
    in BENCH_models.json under "obs"."""
    from repro.obs.recorder import get_recorder

    assert get_recorder().enabled is False, (
        "a live recorder leaked into the benchmark process"
    )
    model = _warmed("beta", wide_stream)
    batch = [f"svc-{i}" for i in range(BATCH_SIZE)]
    now = float(WARM_RECORDS)
    model.rank(batch, "r0", now)  # warm lazy caches on both paths

    def instrumented():
        for _ in range(RANK_BURST):
            model.rank(batch, "r0", now)

    def bare():
        for _ in range(RANK_BURST):
            _rank_uninstrumented(model, batch, "r0", now)

    # Interleave the two measurements so slow-start noise (CPU
    # frequency, cache warmth) cannot land on one side only.
    instrumented_ns = None
    bare_ns = None
    for _ in range(REPEATS):
        b = best_ns(bare, repeats=1)
        i = best_ns(instrumented, repeats=1)
        bare_ns = b if bare_ns is None else min(bare_ns, b)
        instrumented_ns = (
            i if instrumented_ns is None else min(instrumented_ns, i)
        )

    overhead = instrumented_ns / bare_ns - 1.0
    table_printer(
        f"Disabled-recorder overhead (rank x{RANK_BURST}, "
        f"batch of {BATCH_SIZE})",
        ["path", "best ns", "overhead"],
        [
            ["uninstrumented", bare_ns, "-"],
            ["instrumented (no-op)", instrumented_ns, f"{overhead:+.1%}"],
        ],
    )

    if BENCH_PATH.exists():
        payload = json.loads(BENCH_PATH.read_text())
    else:
        payload = {}
    payload["obs"] = {
        "rank_burst": RANK_BURST,
        "batch_size": BATCH_SIZE,
        "uninstrumented_ns": bare_ns,
        "instrumented_noop_ns": instrumented_ns,
        "overhead_fraction": round(overhead, 4),
        "limit_fraction": OBS_OVERHEAD_LIMIT,
    }
    BENCH_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")

    assert instrumented_ns <= bare_ns * (1.0 + OBS_OVERHEAD_LIMIT) + (
        OBS_SLACK_NS
    ), (
        f"disabled instrumentation costs {overhead:.1%} "
        f"(> {OBS_OVERHEAD_LIMIT:.0%} + slack) on the rank hot path"
    )
