"""The three workloads: an untraced measurement, a traced breakdown, checks.

Each workload drives the program only through public entry points
(``run_loadgen``, ``run_sharded_experiment``, ``run_trials``) and builds
every input from the seed it is given.  ``measure`` repeats the
workload's unit of work until the requested seconds have passed and
reports the end-to-end metrics, every time paced by the probe of
:mod:`perfbench.pace` next to it; ``trace`` runs one unit untraced and
the same unit under the layer wrappers of :mod:`perfbench.layers`.
Correctness checks run outside every timed region and compare runs
with each other, never with recorded hashes.  ``selection_accuracy``
is also computed outside the timed region, on a reference input that
is the same for every seed (``QUALITY_SEED``), so it moves only when
the program's results change.
"""

from __future__ import annotations

import math
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from perfbench import layers
from perfbench.pace import Pacer
from perfbench.spans import Tracer
from repro.common.errors import ReproError
from repro.common.randomness import SeedSequenceFactory
from repro.experiments import parallel, sharded
from repro.serve import loadgen
from repro.serve.loadgen import LoadReport, LoadSpec
from repro.serve.protocol import KIND_FEEDBACK, KIND_RANK, IngestLog
from repro.serve.service import SelectionService

#: (metric, unit) of every end-to-end metric, in output order
END_TO_END: Tuple[Tuple[str, str], ...] = (
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("rows_per_s", "1/s"),
    ("trials_per_s", "1/s"),
    ("selection_accuracy", "ratio"),
    ("ok_share", "ratio"),
    ("peak_rss_mb", "MB"),
)

#: seed of the reference input ``selection_accuracy`` is measured on
QUALITY_SEED = 0

_now = time.perf_counter_ns

#: the span each traced run opens around its entry call; its self time
#: is the glue no wrapped layer claims, which ``trace.coverage`` leaves out
ROOT = "perfbench.root"


@dataclass(frozen=True)
class Sizes:
    """How much work one unit does; ``TINY`` keeps the tests fast."""

    serve_requests: int = 300
    shard_consumers: int = 2_500
    zoo_rounds: int = 10
    zoo_consumers: int = 25
    #: consumers of the shard 1-vs-2 gate world
    gate_consumers: int = 400
    #: rounds and consumers of the zoo pooled-vs-serial gate
    gate_rounds: int = 3
    gate_zoo_consumers: int = 4
    #: size of the fixed reference input behind ``selection_accuracy``
    quality_requests: int = 300
    quality_consumers: int = 400
    quality_rounds: int = 20
    quality_zoo_consumers: int = 10
    workers: int = 2


FULL = Sizes()
TINY = Sizes(
    serve_requests=12,
    shard_consumers=60,
    zoo_rounds=2,
    zoo_consumers=3,
    gate_consumers=40,
    gate_rounds=2,
    gate_zoo_consumers=3,
    quality_requests=12,
    quality_consumers=40,
    quality_rounds=6,
    quality_zoo_consumers=4,
)


@dataclass
class Result:
    """What one invocation measured and checked."""

    metrics: Dict[str, float]
    attempted: int
    failed: int
    checks: Dict[str, bool]
    info: Dict[str, Any] = field(default_factory=dict)
    #: the finished tracer of a traced run
    tracer: Optional[Tracer] = None

    @property
    def correct(self) -> bool:
        return bool(self.checks) and all(self.checks.values())


# -- helpers -----------------------------------------------------------------


def derive(seed: int, index: int) -> int:
    """The seed of a run's *index*-th unit of work."""
    return SeedSequenceFactory(seed).spawn(f"perfbench/{index}")


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]) of a non-empty sample."""
    ordered = sorted(values)
    rank = math.ceil(q * len(ordered) - 1e-9)
    return ordered[min(max(rank, 1), len(ordered)) - 1]


def _span_seconds(clock: Tracer, group: str, since: int) -> List[float]:
    return [
        (clock.ends[i] - clock.starts[i]) / 1e9
        for i in range(since, len(clock))
        if clock.groups[i] == group
    ]


@dataclass
class UnitTimes:
    """The paced timings of one unit of work."""

    wall_s: float
    #: the part of ``wall_s`` spent before the first row (0 when set-up
    #: is measured apart from the unit)
    setup_s: float
    latencies_ms: List[float]
    rows: int
    trials: int

    def rates(self) -> Dict[str, float]:
        return {
            "rows_per_s": self.rows / (self.wall_s - self.setup_s),
            "trials_per_s": self.trials / self.wall_s,
        }


def _e2e(
    units: List[UnitTimes], setups: List[float], ok: int, attempted: int
) -> Dict[str, float]:
    """The run's end-to-end metrics, from paced unit times.

    ``latency_p50_ms`` is taken over every latency sample of the run;
    set-up and the rates are the median over the run's units.
    """
    out = {"setup_s": statistics.median(setups) if setups else 0.0}
    latencies = [ms for unit in units for ms in unit.latencies_ms]
    out["latency_p50_ms"] = percentile(latencies, 0.50) if latencies else 0.0
    per_unit = [unit.rates() for unit in units]
    for name in ("rows_per_s", "trials_per_s"):
        values = [rates[name] for rates in per_unit]
        out[name] = statistics.median(values) if values else 0.0
    out["ok_share"] = ok / attempted if attempted else 0.0
    return out


def _diagnostics(pacer: Pacer, units: List[UnitTimes]) -> Dict[str, Any]:
    """What a run prints besides its metrics: units, latency samples and
    the paced p99 (unbounded: it spread past any bound the benchmark may
    set), and the probes taken."""
    latencies = [ms for unit in units for ms in unit.latencies_ms]
    return {
        "units": len(units),
        "latency_samples": len(latencies),
        "latency_p99_ms": percentile(latencies, 0.99) if latencies else 0.0,
        "probe_ms": {
            "median": statistics.median(pacer.probes),
            "min": min(pacer.probes),
            "max": max(pacer.probes),
            "count": len(pacer.probes),
        },
    }


def _failure(unit: str) -> None:
    print(f"perfbench: {unit} raised", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


def _repeat(seconds: float, unit: Callable[[int], bool]) -> None:
    """Call ``unit(i)`` while one more unit of the mean length still fits
    in *seconds* (at least once), or until a unit reports failure."""
    start = _now()
    index = 0
    while True:
        ok = unit(index)
        index += 1
        elapsed = (_now() - start) / 1e9
        if not ok or elapsed + elapsed / index > seconds:
            return


# -- serve_steady ------------------------------------------------------------


class ServeSteady:
    """Closed-loop clients against the async selection service."""

    name = "serve_steady"

    @staticmethod
    def spec(seed: int, requests: int) -> LoadSpec:
        return LoadSpec(
            tenants=2,
            clients_per_tenant=3,
            requests_per_client=requests,
            seed=seed,
            think_time=0.05,
            n_providers=16,
            services_per_provider=2,
            workers=2,
            model="beta",
        )

    @staticmethod
    def counts(report: LoadReport) -> Tuple[int, int, int]:
        """(requests sent, ok responses, ok feedback rows)."""
        sent = sum(sum(t.values()) for t in report.tally.values())
        ok = sum(t.get("ok", 0) for t in report.tally.values())
        rows = sum(
            1
            for r in report.responses
            if r.kind == KIND_FEEDBACK and r.ok
        )
        return sent, ok, rows

    @staticmethod
    def replay_matches(spec: LoadSpec, report: LoadReport, log: IngestLog) -> bool:
        """The live run equals a replay of *log* on a fresh core."""
        try:
            replay = loadgen.replay_report(spec, log)
        except ReproError:
            return False
        return (
            replay.responses == report.responses
            and replay.scores_sha256 == report.scores_sha256
            and replay.trace_sha256 == report.trace_sha256
        )

    @staticmethod
    def accuracy(spec: LoadSpec, report: LoadReport) -> float:
        """Mean true quality of each ok rank's top service over the
        catalogue's best.  (The share of optimal choices is 0 here:
        greedy clients settle on the first service that rates well.)"""
        truth = loadgen.build_world(spec).true_quality
        best = max(truth.values())
        tops = [
            truth[r.ranking[0][0]]
            for r in report.responses
            if r.kind == KIND_RANK and r.ok and r.ranking
        ]
        return sum(tops) / len(tops) / best if tops else 0.0

    def quality(self, sizes: Sizes) -> float:
        """``selection_accuracy`` on the reference load."""
        spec = self.spec(QUALITY_SEED, sizes.quality_requests)
        return self.accuracy(spec, loadgen.run_loadgen(spec))

    def measure(self, seed: int, seconds: float, sizes: Sizes) -> Result:
        clock = Tracer()
        clock.wrap(loadgen, "make_core", "make_core", group="setup")
        clock.wrap(SelectionService, "start", "start", group="setup")
        setups: List[float] = []
        units: List[UnitTimes] = []
        sent = ok = 0
        tally_ok = True
        first: List[Tuple[LoadSpec, LoadReport]] = []
        pacer = Pacer()

        def unit(index: int) -> bool:
            nonlocal sent, ok, tally_ok
            spec = self.spec(derive(seed, index), sizes.serve_requests)
            mark = len(clock)
            start = _now()
            try:
                report = loadgen.run_loadgen(spec)
            except Exception:
                _failure("run_loadgen")
                # every round sends one rank and at most one feedback
                clients = spec.tenants * spec.clients_per_tenant
                sent += clients * spec.requests_per_client
                return False
            wall = (_now() - start) / 1e9
            scale = pacer.scale()
            setups.append(scale * sum(_span_seconds(clock, "setup", mark)))
            latencies = [
                scale * ns / 1e6 for samples in report.wall_ns.values()
                for ns in samples
            ]
            unit_sent, unit_ok, unit_rows = self.counts(report)
            units.append(
                UnitTimes(scale * wall, setups[-1], latencies, unit_rows, 1)
            )
            sent += unit_sent
            ok += unit_ok
            tally_ok = tally_ok and report.tally_matches_sla()
            if not first:
                first.append((spec, report))
            return True

        with clock.installed_while():
            _repeat(seconds, unit)
        checks = {"tally_matches_sla": tally_ok and bool(first)}
        if first:
            spec, report = first[0]
            checks["replay_matches_live"] = self.replay_matches(
                spec, report, report.log
            )
        work = sum(u.wall_s - u.setup_s for u in units)
        metrics = _e2e(units, setups, ok, sent)
        metrics["selection_accuracy"] = self.quality(sizes)
        info = {
            "requests_per_s": sent / work if work > 0 else 0.0,
            **_diagnostics(pacer, units),
        }
        return Result(metrics, max(sent, 1), sent - ok, checks, info)

    def trace(self, seed: int, seconds: float, sizes: Sizes) -> Result:
        spec = self.spec(derive(seed, 0), sizes.serve_requests)
        start = _now()
        untraced = loadgen.run_loadgen(spec)
        untraced_s = (_now() - start) / 1e9
        tracer = Tracer()
        with tracer.installed_while():
            layers.install(tracer)
            start = _now()
            with tracer.span(ROOT):
                traced = loadgen.run_loadgen(spec)
            traced_s = (_now() - start) / 1e9
        checks = {
            "traced_equals_untraced": traced.identity() == untraced.identity(),
            "tally_matches_sla": untraced.tally_matches_sla()
            and traced.tally_matches_sla(),
            "replay_matches_live": self.replay_matches(
                spec, untraced, untraced.log
            ),
        }
        metrics = layers.layer_metrics(
            tracer.summary(), ROOT, traced_s, untraced_s, {}
        )
        sent_u, ok_u, _ = self.counts(untraced)
        sent_t, ok_t, _ = self.counts(traced)
        return Result(
            metrics, sent_u + sent_t, sent_u + sent_t - ok_u - ok_t, checks,
            tracer=tracer,
        )


# -- shard_world -------------------------------------------------------------


class ShardWorld:
    """One world's consumers over two shards, run serially."""

    name = "shard_world"
    shards = 2

    @staticmethod
    def spec(seed: int, consumers: int) -> sharded.ShardedRunSpec:
        return sharded.ShardedRunSpec(
            model="beta",
            seed=seed,
            epochs=2,
            rounds_per_epoch=2,
            world_params={
                "n_providers": 5,
                "services_per_provider": 2,
                "n_consumers": consumers,
            },
        )

    @staticmethod
    def run(
        spec: sharded.ShardedRunSpec, shards: int
    ) -> sharded.ShardedRunReport:
        return sharded.run_sharded_experiment(
            spec, shards=shards, mode=sharded.SERIAL
        )

    @staticmethod
    def expected_rows(spec: sharded.ShardedRunSpec) -> int:
        return spec.n_consumers * spec.total_rounds

    @staticmethod
    def bytes_match(one_shard: bytes, two_shards: bytes) -> bool:
        """The shard-count invariance gate."""
        return one_shard == two_shards

    def gate(self, seed: int, sizes: Sizes) -> Dict[str, bool]:
        spec = self.spec(seed, sizes.gate_consumers)
        one = self.run(spec, 1)
        two = self.run(spec, self.shards)
        expected = self.expected_rows(spec)
        return {
            "two_shards_equal_one": self.bytes_match(
                one.canonical_bytes(), two.canonical_bytes()
            ),
            "gate_rows": len(one.store) == expected == len(two.store),
        }

    def quality(self, sizes: Sizes) -> float:
        """``selection_accuracy`` on the reference world."""
        spec = self.spec(QUALITY_SEED, sizes.quality_consumers)
        return self.run(spec, self.shards).result.accuracy

    def measure(self, seed: int, seconds: float, sizes: Sizes) -> Result:
        clock = Tracer()
        clock.wrap(sharded.ShardRuntime, "__init__", "runtime", group="setup")
        clock.wrap(sharded._Coordinator, "__init__", "coordinator",
                   group="setup")
        clock.wrap(sharded.ShardRuntime, "run_epoch", "epoch", group="epoch")
        setups: List[float] = []
        units: List[UnitTimes] = []
        rows = expected = 0
        pacer = Pacer()

        def unit(index: int) -> bool:
            nonlocal rows, expected
            spec = self.spec(derive(seed, index), sizes.shard_consumers)
            expected += self.expected_rows(spec)
            mark = len(clock)
            start = _now()
            try:
                report = self.run(spec, self.shards)
            except Exception:
                _failure("run_sharded_experiment")
                return False
            wall = (_now() - start) / 1e9
            scale = pacer.scale()
            setups.append(scale * sum(_span_seconds(clock, "setup", mark)))
            epochs = [
                scale * s * 1e3 for s in _span_seconds(clock, "epoch", mark)
            ]
            units.append(UnitTimes(
                scale * wall, setups[-1], epochs, len(report.store), 1
            ))
            rows += len(report.store)
            return True

        with clock.installed_while():
            _repeat(seconds, unit)
        checks = {"rows_complete": rows == expected}
        checks.update(self.gate(seed, sizes))
        metrics = _e2e(units, setups, rows, expected)
        metrics["selection_accuracy"] = self.quality(sizes)
        info = {"rows": rows, **_diagnostics(pacer, units)}
        return Result(metrics, max(expected, 1), expected - rows, checks, info)

    def trace(self, seed: int, seconds: float, sizes: Sizes) -> Result:
        spec = self.spec(derive(seed, 0), sizes.shard_consumers)
        start = _now()
        untraced = self.run(spec, self.shards)
        untraced_s = (_now() - start) / 1e9
        tracer = Tracer()
        with tracer.installed_while():
            layers.install(tracer)
            start = _now()
            with tracer.span(ROOT):
                traced = self.run(spec, self.shards)
            traced_s = (_now() - start) / 1e9
        expected = self.expected_rows(spec)
        checks = {
            "traced_equals_untraced": self.bytes_match(
                untraced.canonical_bytes(), traced.canonical_bytes()
            ),
            "rows_complete": len(untraced.store) == expected
            == len(traced.store),
        }
        checks.update(self.gate(seed, sizes))
        metrics = layers.layer_metrics(
            tracer.summary(), ROOT, traced_s, untraced_s, {}
        )
        missing = 2 * expected - len(untraced.store) - len(traced.store)
        return Result(metrics, 2 * expected, missing, checks, tracer=tracer)


# -- model_zoo ---------------------------------------------------------------


class ModelZoo:
    """One trial per registered mechanism.

    The timed trials run in-process (``max_workers=1``), one
    ``run_trials`` call per trial so that each trial is paced by the
    probes around it: a two-worker pool on a two-core host needs both
    cores free, and its figures moved by 26-43% from one run to the
    next.  The pool still runs the pooled-equals-serial gate, the
    reference batch behind ``selection_accuracy`` and the traced run's
    ``parallel.*`` figures.
    """

    name = "model_zoo"

    @staticmethod
    def specs(seed: int, rounds: int, consumers: int) -> List[parallel.TrialSpec]:
        params = {
            "n_providers": 5,
            "services_per_provider": 2,
            "n_consumers": consumers,
        }
        return [
            parallel.replication_specs(
                name, 1, base_seed=seed, rounds=rounds, world_params=params
            )[0]
            for name in layers.MODEL_NAMES
        ]

    @staticmethod
    def outcomes_match(a: Sequence[Any], b: Sequence[Any]) -> bool:
        """Outcome equality that treats NaN like any other value."""
        return repr(list(a)) == repr(list(b))

    def gate(self, seed: int, sizes: Sizes) -> Dict[str, bool]:
        specs = self.specs(seed, sizes.gate_rounds, sizes.gate_zoo_consumers)
        pooled = parallel.run_trials(specs, max_workers=sizes.workers)
        serial = [parallel.run_trial(spec) for spec in specs]
        return {
            "pooled_equals_serial": pooled.mode == parallel.PROCESS_POOL
            and self.outcomes_match(
                pooled.outcomes, [r.outcome for r in serial]
            )
        }

    def quality(self, sizes: Sizes) -> float:
        """``selection_accuracy``: the mean over the reference batch."""
        specs = self.specs(
            QUALITY_SEED, sizes.quality_rounds, sizes.quality_zoo_consumers
        )
        report = parallel.run_trials(specs, max_workers=sizes.workers)
        return statistics.mean(o.accuracy for o in report.outcomes)

    def measure(self, seed: int, seconds: float, sizes: Sizes) -> Result:
        setups: List[float] = []
        units: List[UnitTimes] = []
        done = attempted = 0
        pacer = Pacer()

        def unit(index: int) -> bool:
            nonlocal done, attempted
            start = _now()
            specs = self.specs(
                derive(seed, index), sizes.zoo_rounds, sizes.zoo_consumers
            )
            setup = (_now() - start) / 1e9
            setups.append(pacer.scale() * setup)
            attempted += len(specs)
            wall = 0.0
            latencies: List[float] = []
            rows = 0
            for spec in specs:
                start = _now()
                try:
                    report = parallel.run_trials([spec], max_workers=1)
                except Exception:
                    _failure("run_trials")
                    return False
                elapsed = (_now() - start) / 1e9
                scale = pacer.scale()
                wall += scale * elapsed
                latencies.extend(
                    scale * r.elapsed_ns / 1e6 for r in report.results
                )
                rows += sum(o.result.selections for o in report.outcomes)
                done += len(report.results)
            units.append(UnitTimes(wall, 0.0, latencies, rows, len(specs)))
            return True

        _repeat(seconds, unit)
        checks = {"all_trials_returned": done == attempted}
        checks.update(self.gate(seed, sizes))
        metrics = _e2e(units, setups, done, attempted)
        metrics["selection_accuracy"] = self.quality(sizes)
        info = _diagnostics(pacer, units)
        return Result(metrics, max(attempted, 1), attempted - done, checks, info)

    @staticmethod
    def pool_metrics(report: parallel.TrialRunReport) -> Dict[str, float]:
        """``parallel.*`` from an untraced pooled run."""
        out: Dict[str, float] = {}
        busy: Dict[int, int] = {}
        for result in report.results:
            out[f"parallel.trial_s.{result.spec.model}"] = (
                result.elapsed_ns / 1e9
            )
            busy[result.pid] = busy.get(result.pid, 0) + result.elapsed_ns
        total_busy = sum(busy.values())
        out["parallel.dispatch_overhead_s"] = (
            report.workers * report.wall_ns - total_busy
        ) / 1e9
        out["parallel.imbalance"] = (
            max(busy.values()) / (total_busy / len(busy)) if busy else 0.0
        )
        return out

    def trace(self, seed: int, seconds: float, sizes: Sizes) -> Result:
        specs = self.specs(
            derive(seed, 0), sizes.zoo_rounds, sizes.zoo_consumers
        )
        pooled = parallel.run_trials(specs, max_workers=sizes.workers)
        start = _now()
        serial = parallel.run_trials(specs, max_workers=1)
        untraced_s = (_now() - start) / 1e9
        tracer = Tracer()
        with tracer.installed_while():
            layers.install(tracer)
            start = _now()
            with tracer.span(ROOT):
                traced = parallel.run_trials(specs, max_workers=1)
            traced_s = (_now() - start) / 1e9
        checks = {
            "serial_equals_pooled": self.outcomes_match(
                serial.outcomes, pooled.outcomes
            ),
            "traced_equals_untraced": self.outcomes_match(
                traced.outcomes, serial.outcomes
            ),
            "all_trials_returned": len(pooled.results) == len(specs)
            == len(traced.results),
        }
        metrics = layers.layer_metrics(
            tracer.summary(), ROOT, traced_s, untraced_s,
            self.pool_metrics(pooled),
        )
        returned = len(pooled.results) + len(traced.results)
        return Result(
            metrics, 2 * len(specs), 2 * len(specs) - returned, checks,
            tracer=tracer,
        )


WORKLOADS: Dict[str, Any] = {
    w.name: w for w in (ServeSteady(), ShardWorld(), ModelZoo())
}


def find(name: str) -> Optional[Any]:
    return WORKLOADS.get(name)
