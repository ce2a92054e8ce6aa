"""Closed-loop serving benchmark: determinism gates, then latency.

Drives :func:`repro.serve.loadgen.run_loadgen` in two shapes:

* **steady** — the default admission config, everything admitted; the
  wall-clock p50/p99 rank latency numbers come from here, from
  ``STEADY_RUNS`` timed runs after the gates (one run holds only 180
  rank samples, so its p99 is its second-slowest one and moves with a
  single collector pass);
* **pressure** — a deliberately tight admission config (low drain
  rate, shallow queue, small token buckets) so the shed/throttle path
  is exercised and the measured shed rate is non-trivial.

Before any timing, the headline contract is asserted on the steady
spec: identical runs are byte-identical, 1 == 2 == 4 workers, a replay
of the recorded ingest log re-derives responses/scores/trace exactly,
and the server's SLA accounting equals the load generator's
independent client-side tally.  Every number in ``BENCH_serve.json``
therefore describes a run whose correctness was just proved.

Results go to ``BENCH_serve.json`` at the repo root (tracked
baseline): each steady run's p50 and p99, and their medians.  Gates:
every steady run's client-side p99 rank latency must stay under a
generous absolute ceiling (``REPRO_BENCH_SERVE_P99_MS``),
the steady shed rate must be zero, and the pressure shed rate must not
regress by more than five points against the tracked baseline.
``REPRO_BENCH_SERVE_REQUESTS`` scales the per-client request count.
"""

from __future__ import annotations

import json
import os
import statistics
from pathlib import Path
from typing import Any, Dict

from repro.serve.core import ServeConfig
from repro.serve.loadgen import LoadSpec, replay_report, run_loadgen
from repro.serve.sla import sla_counts

BENCH_PATH = Path(__file__).resolve().parent.parent / "BENCH_serve.json"

SEED = 2026
REQUESTS = int(os.environ.get("REPRO_BENCH_SERVE_REQUESTS", "30"))
P99_CEILING_MS = float(os.environ.get("REPRO_BENCH_SERVE_P99_MS", "250"))
#: shed-rate regression tolerance against the tracked baseline
SHED_TOLERANCE = 0.05
#: timed steady runs; each one's p99 must clear the ceiling
STEADY_RUNS = 3

STEADY = LoadSpec(
    tenants=2,
    clients_per_tenant=3,
    requests_per_client=REQUESTS,
    seed=SEED,
    think_time=0.02,
)

PRESSURE = LoadSpec(
    tenants=2,
    clients_per_tenant=3,
    requests_per_client=REQUESTS,
    seed=SEED,
    think_time=0.002,
    config=ServeConfig(
        drain_rate=96.0, max_depth=6, tenant_rate=24.0, tenant_burst=6
    ),
)


def _sla_sim_rows(report) -> Dict[str, Dict[str, Any]]:
    return {
        row["tenant"]: {
            "submitted": row["submitted"],
            "shed_rate": round(row["shed_rate"], 4),
            "queue_wait_p99_sim": row["queue_wait_p99"],
            "rank_latency_p99_sim": row["rank_latency_p99"],
            "error_budget_burn": round(row["error_budget_burn"], 3),
        }
        for row in report.sla
    }


def _overall_shed_rate(report) -> float:
    counts = sla_counts(report.sla)
    submitted = rejected = 0
    for tenant, c in counts.items():
        if tenant == "_admin":
            continue
        rejected += c["shed"] + c["throttled"]
        submitted += sum(c.values())
    return rejected / submitted if submitted else 0.0


def test_serve_latency_regression(table_printer):
    # -- determinism gates first --------------------------------------
    steady = run_loadgen(STEADY)
    assert run_loadgen(STEADY).identity() == steady.identity(), (
        "identical steady specs produced different canonical bytes"
    )
    for workers in (1, 4):
        assert (
            run_loadgen(STEADY, workers=workers).identity()
            == steady.identity()
        ), f"{workers}-worker run diverged from the 2-worker bytes"
    replay = replay_report(STEADY, steady.log)
    assert replay.responses == steady.responses
    assert replay.trace_sha256 == steady.trace_sha256, (
        "replaying the steady ingest log diverged from the live trace"
    )
    assert steady.tally_matches_sla(), (
        "server SLA accounting != client-side tally (steady)"
    )

    pressure = run_loadgen(PRESSURE)
    assert run_loadgen(PRESSURE).identity() == pressure.identity()
    assert pressure.tally_matches_sla(), (
        "server SLA accounting != client-side tally (pressure)"
    )
    pressure_replay = replay_report(PRESSURE, pressure.log)
    assert pressure_replay.trace_sha256 == pressure.trace_sha256

    # -- measurements -------------------------------------------------
    steady_runs = []
    for _ in range(STEADY_RUNS):
        timed = run_loadgen(STEADY)
        assert timed.identity() == steady.identity(), (
            "a timed steady run diverged from the gated bytes"
        )
        steady_runs.append(timed.wall_quantiles_ms()["_all"])
    steady_p50 = statistics.median(run["p50_ms"] for run in steady_runs)
    steady_p99 = statistics.median(run["p99_ms"] for run in steady_runs)
    steady_mean = statistics.median(run["mean_ms"] for run in steady_runs)
    pressure_wall = pressure.wall_quantiles_ms()
    steady_shed = _overall_shed_rate(steady)
    pressure_shed = _overall_shed_rate(pressure)

    previous: Dict[str, Any] = (
        json.loads(BENCH_PATH.read_text()) if BENCH_PATH.exists() else {}
    )

    payload = {
        "config": {
            "seed": SEED,
            "tenants": STEADY.tenants,
            "clients_per_tenant": STEADY.clients_per_tenant,
            "requests_per_client": REQUESTS,
            "workers": STEADY.workers,
            "timer": "perf_counter_ns (client-side)",
            "cpu_count": os.cpu_count() or 1,
        },
        "determinism": {
            "ingest_log_sha256": steady.log_sha256,
            "responses_sha256": steady.responses_sha256,
            "scores_sha256": steady.scores_sha256,
            "trace_sha256": steady.trace_sha256,
            "workers_checked": [1, 2, 4],
            "replay_checked": True,
        },
        "steady": {
            "runs": [
                {
                    "rank_p50_ms": round(run["p50_ms"], 3),
                    "rank_p99_ms": round(run["p99_ms"], 3),
                }
                for run in steady_runs
            ],
            "rank_p50_ms": round(steady_p50, 3),
            "rank_p99_ms": round(steady_p99, 3),
            "rank_mean_ms": round(steady_mean, 3),
            "shed_rate": round(steady_shed, 4),
            "sla": _sla_sim_rows(steady),
        },
        "pressure": {
            "rank_p50_ms": round(pressure_wall["_all"]["p50_ms"], 3),
            "rank_p99_ms": round(pressure_wall["_all"]["p99_ms"], 3),
            "shed_rate": round(pressure_shed, 4),
            "sla": _sla_sim_rows(pressure),
        },
    }
    BENCH_PATH.write_text(
        json.dumps(payload, indent=2, sort_keys=True) + "\n"
    )

    table_printer(
        f"Serve latency: {STEADY.tenants * STEADY.clients_per_tenant} "
        f"closed-loop clients x {REQUESTS} requests",
        ["shape", "p50 ms", "p99 ms", "shed rate"],
        [
            [
                f"steady (median of {STEADY_RUNS})",
                f"{steady_p50:.3f}",
                f"{steady_p99:.3f}",
                f"{steady_shed:.4f}",
            ],
            [
                "pressure",
                f"{pressure_wall['_all']['p50_ms']:.3f}",
                f"{pressure_wall['_all']['p99_ms']:.3f}",
                f"{pressure_shed:.4f}",
            ],
        ],
    )

    # -- gates --------------------------------------------------------
    for index, run in enumerate(steady_runs):
        assert run["p99_ms"] <= P99_CEILING_MS, (
            f"steady run {index} p99 rank latency {run['p99_ms']:.1f}ms "
            f"> ceiling {P99_CEILING_MS}ms"
        )
    assert steady_shed == 0.0, (
        f"steady-state shed rate {steady_shed} != 0 under the default "
        "admission config"
    )
    assert pressure_shed > 0.0, (
        "pressure run shed nothing — the admission path went untested"
    )
    baseline_shed = previous.get("pressure", {}).get("shed_rate")
    if baseline_shed is not None:
        assert pressure_shed <= baseline_shed + SHED_TOLERANCE, (
            f"pressure shed rate {pressure_shed:.4f} regressed past "
            f"baseline {baseline_shed:.4f} + {SHED_TOLERANCE}"
        )
