"""Deterministic process-pool fan-out for replications and sweeps.

The experiments behind the paper's claims are embarrassingly parallel:
every (replication seed × sweep point × model) trial builds its own
world and touches nothing shared.  This module turns that shape into a
runtime layer with one hard contract:

    ``parallel == serial``, bit for bit.

Three design rules enforce it:

* **Specs, not objects.**  A :class:`TrialSpec` carries the *name* of a
  registered world builder, its parameters, a model registry name, and
  a derived integer seed — never live worlds, models, or generators.
  Workers rebuild everything from the spec, so a trial's inputs cannot
  depend on which process runs it.
* **Scheduling-independent seeds.**  Trial seeds come from
  :meth:`~repro.common.randomness.SeedSequenceFactory.spawn`, which is
  a pure function of (base seed, label).  Chunking, worker count, and
  completion order cannot perturb any trial's RNG streams.
* **Canonical merge order.**  Results are always returned in spec
  order (``ProcessPoolExecutor.map`` preserves input order), so the
  caller sees the same list the serial loop would have produced.

``max_workers=1`` (the default) runs a plain in-process loop — the
zero-dependency fallback — as does any batch whose function or items
fail a pickling pre-check (e.g. world params closing over lambdas).
"""

from __future__ import annotations

import os
import pickle
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.common.errors import ConfigurationError, UnknownEntityError
from repro.common.randomness import SeedSequenceFactory
from repro.experiments.harness import (
    SelectionOutcome,
    run_selection_experiment,
)
from repro.experiments.workloads import World, make_world
from repro.obs.recorder import Recorder, use_recorder
from repro.obs.trace import TelemetrySnapshot
from repro.robustness import attacks as _attacks
from repro.robustness.attacks import AttackPlan

#: Execution modes reported by :class:`TrialRunReport`.
SERIAL = "serial"
PROCESS_POOL = "process-pool"

#: Environment variable consulted by :func:`jobs_from_env`.
JOBS_ENV = "REPRO_JOBS"


# ---------------------------------------------------------------------------
# World-builder registry
# ---------------------------------------------------------------------------

DEFAULT_WORLD = "make_world"

_WORLD_BUILDERS: Dict[str, Callable[..., World]] = {
    DEFAULT_WORLD: make_world,
}


def register_world_builder(
    name: str, builder: Callable[..., World], overwrite: bool = False
) -> None:
    """Register *builder* under *name* for use in :class:`TrialSpec`.

    Builders must accept ``seed=<int>`` plus the spec's ``world_params``
    as keyword arguments and return a fresh :class:`World`.  Register
    at module import time so forked/spawned workers see the same table.
    """
    if not overwrite and name in _WORLD_BUILDERS:
        raise ConfigurationError(f"duplicate world builder: {name!r}")
    _WORLD_BUILDERS[name] = builder


def world_builder(name: str) -> Callable[..., World]:
    try:
        return _WORLD_BUILDERS[name]
    except KeyError:
        raise UnknownEntityError(f"unknown world builder: {name!r}") from None


# ---------------------------------------------------------------------------
# Attack specs (picklable stand-ins for AttackPlan)
# ---------------------------------------------------------------------------

#: Strategy name -> factory-of-strategies from repro.robustness.attacks.
ATTACK_STRATEGIES: Dict[str, Callable[..., Any]] = {
    "badmouth": _attacks.badmouth_strategy,
    "ballot_stuffing": _attacks.ballot_stuffing_strategy,
    "collusion": _attacks.collusion_strategy,
    "complementary": _attacks.complementary_liar_strategy,
    "random": _attacks.random_liar_strategy,
}


@dataclass(frozen=True)
class AttackSpec:
    """A picklable description of an :class:`AttackPlan`.

    The strategy is named, not passed as a callable, so specs cross
    process boundaries; :meth:`build` materializes the plan inside the
    worker.
    """

    strategy: str
    liar_fraction: float = 0.0
    params: Mapping[str, Any] = field(default_factory=dict)
    sybil_count: int = 0
    whitewash: bool = False

    def build(self) -> AttackPlan:
        try:
            factory = ATTACK_STRATEGIES[self.strategy]
        except KeyError:
            raise UnknownEntityError(
                f"unknown attack strategy: {self.strategy!r}"
            ) from None
        kwargs = dict(self.params)
        return AttackPlan(
            liar_fraction=self.liar_fraction,
            strategy_factory=lambda: factory(**kwargs),
            sybil_count=self.sybil_count,
            whitewash=self.whitewash,
        )


# ---------------------------------------------------------------------------
# The task protocol
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrialSpec:
    """One independent unit of experiment work.

    Attributes:
        model: mechanism name in :func:`repro.core.registry.default_registry`.
        seed: the trial's *root* seed — derive it with
            :meth:`SeedSequenceFactory.spawn` (see :func:`replication_specs`)
            so it never depends on scheduling.
        rounds: select-invoke-rate rounds for the scenario.
        world: registered world-builder name (see
            :func:`register_world_builder`).
        world_params: keyword arguments for the builder (``seed`` is
            injected from :attr:`seed`).
        attack: optional dishonest-population description.
        rate_providers: also file provider-targeted feedback.
        label: free-form tag carried through to the result (grouping key
            for sweeps).
        telemetry: run the trial under a fresh
            :class:`~repro.obs.recorder.Recorder` and ship the captured
            :class:`~repro.obs.trace.TelemetrySnapshot` back on the
            result.  Off by default (the no-op recorder costs nothing).
    """

    model: str
    seed: int
    rounds: int = 30
    world: str = DEFAULT_WORLD
    world_params: Mapping[str, Any] = field(default_factory=dict)
    attack: Optional[AttackSpec] = None
    rate_providers: bool = False
    label: str = ""
    telemetry: bool = False


@dataclass
class TrialResult:
    """What one trial sends back across the process boundary.

    ``elapsed_ns``/``pid`` are observability only — equality of two runs
    is judged on :attr:`outcome` (and tests do exactly that).
    ``telemetry`` (present iff the spec asked for it) is *not* mere
    observability: it is captured in sim time only, so it obeys the
    same parallel == serial contract as the outcome.
    """

    spec: TrialSpec
    outcome: SelectionOutcome
    elapsed_ns: int
    pid: int
    telemetry: Optional[TelemetrySnapshot] = None


def build_trial_model(spec: TrialSpec):
    """The model a trial runs — rebuilt per trial, seeded from the spec."""
    from repro.core.registry import default_registry

    return default_registry(rng_seed=spec.seed).create(spec.model)


def run_trial(spec: TrialSpec) -> TrialResult:
    """Execute one spec serially — the reference semantics for a trial.

    This is *the* worker function: the pool maps it over specs, and the
    serial fallback calls it in a loop.  Everything stochastic is
    rebuilt from ``spec.seed``, so the result is a pure function of the
    spec.
    """
    start = time.perf_counter_ns()
    world = world_builder(spec.world)(
        seed=spec.seed, **dict(spec.world_params)
    )
    model = build_trial_model(spec)
    attack = spec.attack.build() if spec.attack is not None else None
    snapshot: Optional[TelemetrySnapshot] = None
    if spec.telemetry:
        recorder = Recorder()
        with use_recorder(recorder):
            outcome = run_selection_experiment(
                model,
                world,
                rounds=spec.rounds,
                attack=attack,
                rate_providers=spec.rate_providers,
            )
        snapshot = recorder.snapshot(
            meta={
                "label": spec.label,
                "model": spec.model,
                "seed": spec.seed,
            }
        )
    else:
        outcome = run_selection_experiment(
            model,
            world,
            rounds=spec.rounds,
            attack=attack,
            rate_providers=spec.rate_providers,
        )
    return TrialResult(
        spec=spec,
        outcome=outcome,
        elapsed_ns=time.perf_counter_ns() - start,
        pid=os.getpid(),
        telemetry=snapshot,
    )


# ---------------------------------------------------------------------------
# The pool
# ---------------------------------------------------------------------------


def jobs_from_env(default: int = 1) -> int:
    """Worker count from the ``REPRO_JOBS`` environment variable.

    ``0`` or ``auto`` mean "all cores"; unset/empty means *default*.
    """
    raw = os.environ.get(JOBS_ENV, "").strip()
    if not raw:
        return max(1, default)
    if raw.lower() in {"0", "auto"}:
        return max(1, os.cpu_count() or 1)
    try:
        value = int(raw)
    except ValueError:
        raise ConfigurationError(
            f"{JOBS_ENV} must be an integer or 'auto', got {raw!r}"
        ) from None
    return max(1, value)


def picklable(*objects: Any) -> bool:
    """Whether every argument survives ``pickle.dumps``.

    The pre-check both this runtime and the sharded runner apply before
    choosing process dispatch, so shard-incompatible worlds degrade to
    the serial path instead of dying inside a worker.
    """
    try:
        for obj in objects:
            pickle.dumps(obj)
    except Exception:
        return False
    return True


def default_chunksize(n_items: int, workers: int) -> int:
    """Chunks sized for ~4 dispatches per worker — large enough to
    amortize IPC, small enough to keep the pool load-balanced."""
    return max(1, -(-n_items // (workers * 4)))


def parallel_map(
    fn: Callable[[Any], Any],
    items: Iterable[Any],
    max_workers: int = 1,
    chunksize: Optional[int] = None,
) -> List[Any]:
    """Ordered ``map(fn, items)`` over a process pool.

    Results come back in input order regardless of completion order.
    Falls back to a plain in-process loop when ``max_workers <= 1``,
    when there is at most one item, or when *fn*/*items* fail a
    pickling pre-check (lambdas, closures, live RNGs...) — so callers
    never need a serial code path of their own.
    """
    items = list(items)
    workers = min(int(max_workers), len(items))
    if workers <= 1 or not picklable(fn, items):
        return [fn(item) for item in items]
    if chunksize is None:
        chunksize = default_chunksize(len(items), workers)
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items, chunksize=chunksize))


@dataclass
class TrialRunReport:
    """Ordered results plus the dispatch telemetry of one batch."""

    results: List[TrialResult]
    wall_ns: int
    workers: int
    mode: str
    chunksize: int

    @property
    def outcomes(self) -> List[SelectionOutcome]:
        return [r.outcome for r in self.results]

    @property
    def trial_ns(self) -> List[int]:
        """Per-trial execution time, in spec order."""
        return [r.elapsed_ns for r in self.results]

    @property
    def ns_per_trial(self) -> float:
        """Wall-clock per trial — the throughput number benchmarks track."""
        return self.wall_ns / len(self.results) if self.results else 0.0

    def telemetry(self) -> TelemetrySnapshot:
        """Per-trial snapshots merged in canonical (spec) order.

        Events are re-labeled with their trial's spec label and ordered
        by ``(trial position, seq)``, metrics merge per
        :meth:`~repro.obs.metrics.MetricsRegistry.merge_snapshots` —
        worker count and completion order cannot change a byte of it.
        Trials that did not capture telemetry are skipped.
        """
        captured = [
            (r.spec.label or f"trial{i}", r.telemetry)
            for i, r in enumerate(self.results)
            if r.telemetry is not None
        ]
        # No dispatch details (mode, workers, timings) in the merge:
        # the exported trace must be byte-identical across worker counts.
        return TelemetrySnapshot.merge(
            [snap for _, snap in captured],
            labels=[label for label, _ in captured],
        )


def run_trials(
    specs: Sequence[TrialSpec],
    max_workers: int = 1,
    chunksize: Optional[int] = None,
) -> TrialRunReport:
    """Execute *specs* and merge results in canonical (spec) order.

    The parallel==serial contract: for any ``max_workers`` and any
    ``chunksize``, the returned outcomes are identical to
    ``[run_trial(s) for s in specs]`` — exact replay, not tolerance.
    """
    specs = list(specs)
    workers = min(int(max_workers), len(specs))
    pooled = workers > 1 and picklable(run_trial, specs)
    if chunksize is None:
        chunksize = default_chunksize(len(specs), max(1, workers))
    start = time.perf_counter_ns()
    if pooled:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(run_trial, specs, chunksize=chunksize))
    else:
        results = [run_trial(spec) for spec in specs]
    wall_ns = time.perf_counter_ns() - start
    return TrialRunReport(
        results=results,
        wall_ns=wall_ns,
        workers=workers if pooled else 1,
        mode=PROCESS_POOL if pooled else SERIAL,
        chunksize=chunksize,
    )


# ---------------------------------------------------------------------------
# Helpers layered on run_selection_experiment
# ---------------------------------------------------------------------------


def replication_specs(
    model: str,
    replications: int,
    base_seed: int = 0,
    rounds: int = 30,
    world: str = DEFAULT_WORLD,
    world_params: Optional[Mapping[str, Any]] = None,
    attack: Optional[AttackSpec] = None,
    rate_providers: bool = False,
    telemetry: bool = False,
) -> List[TrialSpec]:
    """*replications* independent trials of one model.

    Replication *i* gets seed ``SeedSequenceFactory(base_seed).spawn
    ("replication/<i>")`` — reproducible from (base_seed, i) alone.
    """
    if replications < 1:
        raise ConfigurationError("replications must be >= 1")
    seeds = SeedSequenceFactory(base_seed)
    return [
        TrialSpec(
            model=model,
            seed=seeds.spawn(f"replication/{i}"),
            rounds=rounds,
            world=world,
            world_params=dict(world_params or {}),
            attack=attack,
            rate_providers=rate_providers,
            label=f"{model}/rep{i}",
            telemetry=telemetry,
        )
        for i in range(replications)
    ]


def run_replications(
    model: str,
    replications: int,
    base_seed: int = 0,
    rounds: int = 30,
    world: str = DEFAULT_WORLD,
    world_params: Optional[Mapping[str, Any]] = None,
    attack: Optional[AttackSpec] = None,
    rate_providers: bool = False,
    max_workers: int = 1,
    chunksize: Optional[int] = None,
    telemetry: bool = False,
) -> TrialRunReport:
    """Fan *replications* seeded trials of *model* across the pool."""
    specs = replication_specs(
        model,
        replications,
        base_seed=base_seed,
        rounds=rounds,
        world=world,
        world_params=world_params,
        attack=attack,
        rate_providers=rate_providers,
        telemetry=telemetry,
    )
    return run_trials(specs, max_workers=max_workers, chunksize=chunksize)


def sweep_specs(
    models: Sequence[str],
    param: str,
    values: Sequence[Any],
    replications: int = 1,
    base_seed: int = 0,
    rounds: int = 30,
    world: str = DEFAULT_WORLD,
    world_params: Optional[Mapping[str, Any]] = None,
    attack: Optional[AttackSpec] = None,
    rate_providers: bool = False,
    telemetry: bool = False,
) -> List[TrialSpec]:
    """The full grid ``models × values × replications``, canonical order.

    The seed for a grid cell depends on ``(param, value, replication)``
    but *not* on the model, so every model faces bit-identical worlds at
    each sweep point — the paired-comparison property sweep figures
    rely on.
    """
    if isinstance(models, str):
        models = [models]
    if replications < 1:
        raise ConfigurationError("replications must be >= 1")
    seeds = SeedSequenceFactory(base_seed)
    specs: List[TrialSpec] = []
    for model in models:
        for value in values:
            for i in range(replications):
                params = dict(world_params or {})
                params[param] = value
                specs.append(
                    TrialSpec(
                        model=model,
                        seed=seeds.spawn(f"sweep/{param}={value!r}/{i}"),
                        rounds=rounds,
                        world=world,
                        world_params=params,
                        attack=attack,
                        rate_providers=rate_providers,
                        label=f"{model}/{param}={value!r}/rep{i}",
                        telemetry=telemetry,
                    )
                )
    return specs


def run_sweep(
    models: Sequence[str],
    param: str,
    values: Sequence[Any],
    replications: int = 1,
    base_seed: int = 0,
    rounds: int = 30,
    world: str = DEFAULT_WORLD,
    world_params: Optional[Mapping[str, Any]] = None,
    attack: Optional[AttackSpec] = None,
    rate_providers: bool = False,
    max_workers: int = 1,
    chunksize: Optional[int] = None,
    telemetry: bool = False,
) -> TrialRunReport:
    """Sweep a world parameter across models, fanned out over the pool."""
    specs = sweep_specs(
        models,
        param,
        values,
        replications=replications,
        base_seed=base_seed,
        rounds=rounds,
        world=world,
        world_params=world_params,
        attack=attack,
        rate_providers=rate_providers,
        telemetry=telemetry,
    )
    return run_trials(specs, max_workers=max_workers, chunksize=chunksize)


def group_sweep(
    report: TrialRunReport, param: str
) -> Dict[str, Dict[Any, List[SelectionOutcome]]]:
    """Regroup a sweep report as ``{model: {value: [outcomes...]}}``."""
    table: Dict[str, Dict[Any, List[SelectionOutcome]]] = {}
    for result in report.results:
        value = result.spec.world_params[param]
        table.setdefault(result.spec.model, {}).setdefault(value, []).append(
            result.outcome
        )
    return table
