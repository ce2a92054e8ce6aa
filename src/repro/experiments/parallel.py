"""Deterministic process fan-out for replications, sweeps and shards.

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
  a pure function of (base seed, label).  Worker count and
  completion order cannot perturb any trial's RNG streams.
* **Canonical merge order.**  Worker *i* of *n* runs ``specs[i::n]``
  and the slices interleave back into spec order, so the caller sees
  the same list the serial loop would have produced.

:class:`WorkerGroup` is the one process runtime, shared with
:mod:`repro.experiments.sharded`.  ``max_workers=1`` (the default)
runs in-process, as does any batch whose function or items fail a
pickling pre-check (e.g. world params closing over lambdas).
"""

from __future__ import annotations

import gc
import multiprocessing as mp
import os
import pickle
import time
import traceback
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.common.errors import (
    ConfigurationError,
    UnknownEntityError,
    WorkerError,
)
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

    def __post_init__(self) -> None:
        if self.rounds < 1:
            raise ConfigurationError(f"rounds must be >= 1: {self.rounds}")


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
    if not raw.isdecimal():
        raise ConfigurationError(
            f"{JOBS_ENV} must be a non-negative integer or 'auto', "
            f"got {raw!r}"
        )
    return max(1, int(raw))


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


def _serve(conn: Any, factory: Callable[[int], Any], index: int) -> None:
    """One worker process: build once, then answer calls."""
    try:
        worker = factory(index)
        conn.send(("ready", None))
        while True:  # until the coordinator terminates this process
            method, args = conn.recv()
            conn.send((method, getattr(worker, method)(*args)))
    except BaseException:
        # If the pipe is already gone this send raises too; the
        # coordinator then sees the closed pipe instead.
        conn.send(("error", traceback.format_exc()))
        raise
    finally:
        conn.close()


@contextmanager
def _frozen_heap() -> Iterator[None]:
    """Keep the caller's heap in the permanent GC generation meanwhile.

    A worker forked inside inherits it frozen, so the worker's
    collections never walk the objects it inherited (and never copy
    their pages on write); the caller's heap thaws on exit.
    """
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()


class WorkerGroup:
    """*n* stateful workers behind one ordered-message protocol.

    Worker *i* is built once as ``factory(i)``; :meth:`call` runs one
    method on every worker and returns the replies in worker order.
    With ``processes=False`` the same objects run in-process, so the
    serial fallback and process mode share one loop.  In process mode
    each worker is an ``mp.Process`` + ``mp.Pipe`` pair, and every
    failure raises :class:`~repro.common.errors.WorkerError` naming
    *role*, the worker index and the awaited reply.
    """

    def __init__(
        self, factory: Callable[[int], Any], n: int, role: str, processes: bool
    ) -> None:
        self.role = role
        self._local: Optional[List[Any]] = None
        self._conns: List[Any] = []
        self._processes: List[Any] = []
        if not processes:
            self._local = [factory(i) for i in range(n)]
            return
        try:
            with _frozen_heap():
                for i in range(n):
                    parent, child = mp.Pipe()
                    process = mp.Process(
                        target=_serve, args=(child, factory, i), daemon=True
                    )
                    process.start()
                    child.close()
                    self._processes.append(process)
                    self._conns.append(parent)
            for i in range(n):
                self._receive(i, "ready")
        except BaseException:
            self.close()
            raise

    def __enter__(self) -> "WorkerGroup":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    def call(self, method: str, *args: Any) -> List[Any]:
        """``getattr(worker, method)(*args)`` on every worker, in order."""
        if self._local is not None:
            return [getattr(worker, method)(*args) for worker in self._local]
        for i in range(len(self._conns)):
            with self._pipe(i, method) as conn:
                conn.send((method, args))
        # Receiving in worker order is deadlock-free: every worker
        # computes independently and blocks only on its own pipe.
        return [self._receive(i, method) for i in range(len(self._conns))]

    def close(self) -> None:
        """Stop the worker processes with SIGTERM: after a run each is
        idle in ``recv``, and after a failure the run is abandoned."""
        for process in self._processes:
            process.terminate()
            process.join(timeout=5)
        for conn in self._conns:
            conn.close()

    @contextmanager
    def _pipe(self, index: int, expected: str) -> Iterator[Any]:
        try:
            yield self._conns[index]
        except (EOFError, OSError) as exc:
            raise WorkerError(
                self.role, index, expected,
                f"worker pipe closed ({type(exc).__name__})",
            ) from exc

    def _receive(self, index: int, expected: str) -> Any:
        with self._pipe(index, expected) as conn:
            tag, payload = conn.recv()
        if tag == "error":
            raise WorkerError(
                self.role, index, expected, f"worker raised:\n{payload}"
            )
        if tag != expected:
            raise WorkerError(
                self.role, index, expected, f"protocol error: got {tag!r}"
            )
        return payload


@dataclass
class _Slice:
    """One trial worker's share of a batch: *fn* over *items*."""

    fn: Callable[[Any], Any]
    items: List[Any]

    def run(self) -> List[Any]:
        return [self.fn(item) for item in self.items]


def _fan_out(
    fn: Callable[[Any], Any], items: List[Any], max_workers: int
) -> Tuple[List[Any], int]:
    """``[fn(x) for x in items]`` on up to *max_workers* processes, plus
    the number of workers used (1 means in-process)."""
    workers = min(int(max_workers), len(items))
    pooled = workers > 1 and picklable(fn, items)
    workers = workers if pooled else 1
    # Worker i is built as shares[i], which maps fn over items[i::workers].
    shares = [_Slice(fn, items[i::workers]) for i in range(workers)]
    with WorkerGroup(shares.__getitem__, workers, "slice", pooled) as group:
        slices = group.call("run")
    results: List[Any] = [None] * len(items)
    for i, chunk in enumerate(slices):
        results[i::workers] = chunk
    return results, workers


def parallel_map(
    fn: Callable[[Any], Any],
    items: Iterable[Any],
    max_workers: int = 1,
) -> List[Any]:
    """Ordered ``map(fn, items)`` over a process pool.

    Results come back in input order regardless of completion order.
    Falls back to a plain in-process loop when ``max_workers <= 1``,
    when there is at most one item, or when *fn*/*items* fail a
    pickling pre-check (lambdas, closures, live RNGs...) — so callers
    never need a serial code path of their own.
    """
    return _fan_out(fn, list(items), max_workers)[0]


@dataclass
class TrialRunReport:
    """Ordered results plus the dispatch telemetry of one batch."""

    results: List[TrialResult]
    wall_ns: int
    workers: int
    mode: str

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
) -> TrialRunReport:
    """Execute *specs* and merge results in canonical (spec) order.

    The parallel==serial contract: for any ``max_workers``, the
    returned outcomes are identical to ``[run_trial(s) for s in
    specs]`` — exact replay, not tolerance.  An exception raised inside
    a pooled trial arrives as :class:`~repro.common.errors.WorkerError`
    carrying the remote traceback; in-process runs raise it as is.
    """
    start = time.perf_counter_ns()
    results, workers = _fan_out(run_trial, list(specs), max_workers)
    return TrialRunReport(
        results=results,
        wall_ns=time.perf_counter_ns() - start,
        workers=workers,
        mode=PROCESS_POOL if workers > 1 else SERIAL,
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
    return run_trials(specs, max_workers=max_workers)


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
    return run_trials(specs, max_workers=max_workers)


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
