"""Which public functions the traced run wraps, and the metrics they give.

:func:`install` puts a :class:`~perfbench.spans.Tracer` wrapper on the
public entry functions of every layer of the selection stack (plus the
two coordinator methods and the registered world builders that have no
public seam of their own).  :func:`layer_metrics` turns a finished
trace into the named per-layer metrics of ``BENCHMARK.json``.  Every
metric is reported on every workload; a layer a workload never calls
reads 0.
"""

from __future__ import annotations

import asyncio
import pickle
import weakref
from typing import Any, Callable, Dict, List, Mapping, Tuple

from perfbench.spans import SpanSummary, Tracer
from repro.common.randomness import SeedSequenceFactory
from repro.core.registry import default_registry
from repro.core.scenarios import DirectSelectionScenario
from repro.core.selection import SelectionEngine
from repro.experiments import parallel, sharded, workloads
from repro.faults.resilience import RetryPolicy
from repro.models.base import ReputationModel
from repro.obs.recorder import Recorder
from repro.registry.uddi import UDDIRegistry
from repro.serve import loadgen, service
from repro.serve.core import ServiceCore
from repro.serve.ingest import AdmissionController
from repro.serve.protocol import IngestLog
from repro.services.consumer import Consumer
from repro.services.invocation import InvocationEngine
from repro.services.provider import Service
from repro.store import EventStore

#: every registered mechanism, in registry order
MODEL_NAMES: Tuple[str, ...] = tuple(default_registry().names())

#: (metric, unit) in output order; the BENCHMARK.json ``per_layer`` list
PER_LAYER: Tuple[Tuple[str, str], ...] = (
    ("serve.shell_self_s", "s"),
    ("serve.batch_size_mean", "arrivals"),
    ("serve.admit_batch_self_s", "s"),
    ("serve.admit_s", "s"),
    ("serve.arrival_build_s", "s"),
    ("serve.log_append_s", "s"),
    ("serve.execute_self_s", "s"),
    ("serve.retries", "count"),
    ("serve.rejected", "count"),
    ("obs.record_s", "s"),
    ("obs.record_calls", "count"),
    ("selection.rank_s", "s"),
    ("selection.rank_calls", "count"),
    ("selection.candidate_hit_ratio", "ratio"),
    ("scenario.truth_s", "s"),
    ("scenario.run_self_s", "s"),
    ("registry.search_s", "s"),
    ("registry.search_calls", "count"),
    ("models.score_many_s", "s"),
    ("models.score_many_calls", "count"),
    ("models.rank_self_s", "s"),
    ("models.record_s", "s"),
    ("models.record_calls", "count"),
    ("models.record_many_s", "s"),
    *((f"models.{name}.score_many_s", "s") for name in MODEL_NAMES),
    ("store.append_s", "s"),
    ("store.append_calls", "count"),
    ("store.extend_s", "s"),
    ("store.merge_from_s", "s"),
    ("store.snapshot_s", "s"),
    ("store.snapshot_rebuild_ratio", "ratio"),
    ("store.events", "count"),
    ("services.invoke_s", "s"),
    ("services.invoke_calls", "count"),
    ("services.rate_s", "s"),
    ("services.true_overall_s", "s"),
    ("workloads.world_build_s", "s"),
    ("randomness.stream_s", "s"),
    ("sharded.runtime_init_s", "s"),
    ("sharded.run_epoch_self_s", "s"),
    ("sharded.epoch_scores_s", "s"),
    ("sharded.merge_s", "s"),
    ("sharded.apply_self_s", "s"),
    ("sharded.delta_bytes", "bytes"),
    *((f"parallel.trial_s.{name}", "s") for name in MODEL_NAMES),
    ("parallel.dispatch_overhead_s", "s"),
    ("parallel.imbalance", "ratio"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.spans", "count"),
)


# -- request ids and notes ---------------------------------------------------


def _arg(args: tuple, kwargs: dict, position: int, name: str) -> Any:
    return args[position] if len(args) > position else kwargs[name]


def _arrival_id(arrival: Any) -> Tuple[str, int]:
    return (arrival.client_id, arrival.client_seq)


def _request_of_arrival(args: tuple, kwargs: dict) -> Tuple[str, int]:
    return _arrival_id(_arg(args, kwargs, 1, "arrival"))


def _request_of_record(args: tuple, kwargs: dict) -> Tuple[str, int]:
    return _arrival_id(_arg(args, kwargs, 1, "record").arrival)


def _request_of_kwargs(args: tuple, kwargs: dict) -> Tuple[str, int]:
    return (kwargs["client_id"], kwargs["client_seq"])


def _snapshot_rebuilds() -> Callable[[tuple, dict, Any], bool]:
    """Note whether a snapshot call saw a store version it had not seen."""
    seen: "weakref.WeakKeyDictionary[EventStore, int]" = (
        weakref.WeakKeyDictionary()
    )

    def note(args: tuple, kwargs: dict, result: Any) -> bool:
        store = args[0]
        version = store.version
        fresh = seen.get(store) != version
        seen[store] = version
        return fresh

    return note


def _wrap_builder(
    tracer: Tracer,
    lookup: Callable[[str], Callable[..., Any]],
    register: Callable[..., None],
    name: str,
) -> None:
    """Wrap a registered world builder through its public registry."""
    original = lookup(name)
    register(
        name, tracer.wrapper(original, "workloads.world_build"), overwrite=True
    )
    tracer.on_uninstall(lambda: register(name, original, overwrite=True))


# -- installation ------------------------------------------------------------


def install(tracer: Tracer) -> None:
    """Wrap every layer's public functions (undone by ``uninstall``)."""
    w = tracer.wrap
    # repro.serve; the async shell is the event loop ``run_loadgen`` runs
    w(loadgen, "make_core", "serve.make_core")
    w(asyncio, "run", "serve.shell")
    w(service.SelectionService, "start", "serve.start")
    w(ServiceCore, "admit_batch", "serve.admit_batch",
      note=lambda a, k, r: len(_arg(a, k, 1, "arrivals")))
    w(ServiceCore, "execute", "serve.execute", request=_request_of_record)
    w(AdmissionController, "admit", "serve.admit",
      request=_request_of_arrival, note=lambda a, k, r: not r.admitted)
    w(service, "rank_arrival", "serve.rank_arrival",
      group="serve.arrival_build", request=_request_of_kwargs)
    w(service, "feedback_arrival", "serve.feedback_arrival",
      group="serve.arrival_build", request=_request_of_kwargs)
    w(IngestLog, "append", "serve.log_append")
    w(RetryPolicy, "call", "serve.retry_call",
      note=lambda a, k, r: r.attempts - 1)
    # repro.obs
    for method in ("count", "gauge", "observe", "span", "advance"):
        w(Recorder, method, f"obs.{method}", group="obs.record")
    # repro.core
    w(SelectionEngine, "select", "selection.select")
    w(SelectionEngine, "rank", "selection.rank")
    w(SelectionEngine, "candidates", "selection.candidates")
    w(DirectSelectionScenario, "__init__", "scenario.init")
    w(DirectSelectionScenario, "run", "scenario.run")
    w(DirectSelectionScenario, "true_quality", "scenario.true_quality",
      group="scenario.truth")
    w(DirectSelectionScenario, "optimal_for", "scenario.optimal_for",
      group="scenario.truth")
    # repro.registry
    w(UDDIRegistry, "search", "registry.search")
    # repro.models: the base methods plus each concrete override
    w(ReputationModel, "rank", "models.rank")
    classes: List[type] = [ReputationModel]
    for name in MODEL_NAMES:
        cls = type(default_registry().create(name))
        if cls not in classes:
            classes.append(cls)
    for cls in classes:
        for method in ("score_many", "record", "record_many"):
            if method in cls.__dict__ and not getattr(
                cls.__dict__[method], "__isabstractmethod__", False
            ):
                w(cls, method, f"models.{method}",
                  note=lambda a, k, r: a[0].name)
    # repro.store
    w(EventStore, "append", "store.append")
    w(EventStore, "extend", "store.extend",
      note=lambda a, k, r: len(_arg(a, k, 3, "values")))
    w(EventStore, "merge_from", "store.merge_from",
      note=lambda a, k, r: len(_arg(a, k, 1, "other")))
    w(EventStore, "snapshot", "store.snapshot", note=_snapshot_rebuilds())
    # repro.services
    w(InvocationEngine, "invoke", "services.invoke")
    w(Consumer, "rate", "services.rate")
    w(Service, "true_overall", "services.true_overall")
    # repro.experiments.workloads and repro.common.randomness
    w(loadgen, "make_world", "workloads.make_world",
      group="workloads.world_build")
    _wrap_builder(tracer, parallel.world_builder,
                  parallel.register_world_builder, parallel.DEFAULT_WORLD)
    _wrap_builder(tracer, sharded.shard_world_builder,
                  sharded.register_shard_world_builder,
                  sharded.DEFAULT_SHARD_WORLD)
    for module in (workloads, sharded):
        w(module, "shard_consumer_streams", "randomness.consumer_streams",
          group="randomness.stream")
    w(SeedSequenceFactory, "spawn", "randomness.spawn",
      group="randomness.stream")
    w(SeedSequenceFactory, "rng", "randomness.rng", group="randomness.stream")
    # repro.experiments.sharded (the coordinator has no public seam)
    w(sharded.ShardRuntime, "__init__", "sharded.runtime_init")
    w(sharded.ShardRuntime, "run_epoch", "sharded.run_epoch",
      note=lambda a, k, r: r)
    coordinator = sharded._Coordinator
    w(coordinator, "__init__", "sharded.coordinator_init")
    w(coordinator, "epoch_scores", "sharded.epoch_scores")
    w(coordinator, "apply", "sharded.apply")
    w(coordinator, "finish", "sharded.finish")
    # repro.experiments.parallel
    w(parallel, "run_trial", "parallel.run_trial")
    w(parallel, "build_trial_model", "parallel.build_trial_model")
    w(parallel, "run_selection_experiment", "harness.experiment")


# -- metrics -----------------------------------------------------------------


def _mean(values: List[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _children_seconds(
    summary: SpanSummary, names: Tuple[str, ...], parent_name: str
) -> float:
    tracer = summary.tracer
    total = 0
    for index, parent in enumerate(tracer.parents):
        if (
            parent >= 0
            and tracer.names[index] in names
            and tracer.names[parent] == parent_name
        ):
            total += tracer.ends[index] - tracer.starts[index]
    return total / 1e9


def layer_metrics(
    summary: SpanSummary,
    root: str,
    traced_wall_s: float,
    untraced_wall_s: float,
    extra: Mapping[str, float],
) -> Dict[str, float]:
    """Every ``PER_LAYER`` metric from one traced unit of work.

    *root* names the benchmark's own span around the entry call: its
    self time belongs to no layer, so ``trace.coverage`` leaves it out.
    *extra* supplies the metrics that come from the untraced run
    (``parallel.*``); missing ones read 0.
    """
    s = summary
    candidates = s.count("selection.candidates")
    searches_in_candidates = s.child_count(
        "registry.search", "selection.candidates"
    )
    snapshot_notes = s.notes("store.snapshot")
    deltas = [d for d in s.notes("sharded.run_epoch") if d is not None]
    per_model = s.seconds_by_note("models.score_many")
    out: Dict[str, float] = {
        "serve.shell_self_s": s.self_seconds("serve.shell"),
        "serve.batch_size_mean": _mean(s.notes("serve.admit_batch")),
        "serve.admit_batch_self_s": s.self_seconds("serve.admit_batch"),
        "serve.admit_s": s.seconds("serve.admit"),
        "serve.arrival_build_s": s.seconds("serve.arrival_build"),
        "serve.log_append_s": s.seconds("serve.log_append"),
        "serve.execute_self_s": s.self_seconds("serve.execute"),
        "serve.retries": float(sum(s.notes("serve.retry_call"))),
        "serve.rejected": float(sum(s.notes("serve.admit"))),
        "obs.record_s": s.seconds("obs.record"),
        "obs.record_calls": float(s.count("obs.record")),
        "selection.rank_s": s.seconds("selection.rank"),
        "selection.rank_calls": float(s.count("selection.rank")),
        "selection.candidate_hit_ratio": _ratio(
            candidates - searches_in_candidates, candidates
        ),
        "scenario.truth_s": s.seconds("scenario.truth"),
        "scenario.run_self_s": s.self_seconds("scenario.run"),
        "registry.search_s": s.seconds("registry.search"),
        "registry.search_calls": float(s.count("registry.search")),
        "models.score_many_s": s.seconds("models.score_many"),
        "models.score_many_calls": float(s.count("models.score_many")),
        "models.rank_self_s": s.self_seconds("models.rank"),
        "models.record_s": s.seconds("models.record"),
        "models.record_calls": float(s.count("models.record")),
        "models.record_many_s": s.seconds("models.record_many"),
    }
    for name in MODEL_NAMES:
        out[f"models.{name}.score_many_s"] = per_model.get(name, 0.0)
    out.update({
        "store.append_s": s.seconds("store.append"),
        "store.append_calls": float(s.count("store.append")),
        "store.extend_s": s.seconds("store.extend"),
        "store.merge_from_s": s.seconds("store.merge_from"),
        "store.snapshot_s": s.seconds("store.snapshot"),
        "store.snapshot_rebuild_ratio": _ratio(
            sum(1 for fresh in snapshot_notes if fresh), len(snapshot_notes)
        ),
        "store.events": float(
            s.count("store.append")
            + sum(s.notes("store.extend"))
            + sum(s.notes("store.merge_from"))
        ),
        "services.invoke_s": s.seconds("services.invoke"),
        "services.invoke_calls": float(s.count("services.invoke")),
        "services.rate_s": s.seconds("services.rate"),
        "services.true_overall_s": s.seconds("services.true_overall"),
        "workloads.world_build_s": s.seconds("workloads.world_build"),
        "randomness.stream_s": s.seconds("randomness.stream"),
        "sharded.runtime_init_s": s.seconds("sharded.runtime_init"),
        "sharded.run_epoch_self_s": s.self_seconds("sharded.run_epoch"),
        "sharded.epoch_scores_s": s.seconds("sharded.epoch_scores"),
        "sharded.merge_s": _children_seconds(
            s,
            ("store.merge_from", "store.extend", "models.record_many"),
            "sharded.apply",
        ),
        "sharded.apply_self_s": s.self_seconds("sharded.apply"),
        "sharded.delta_bytes": _mean(
            [float(len(pickle.dumps(delta))) for delta in deltas]
        ),
    })
    for name in MODEL_NAMES:
        key = f"parallel.trial_s.{name}"
        out[key] = float(extra.get(key, 0.0))
    for key in ("parallel.dispatch_overhead_s", "parallel.imbalance"):
        out[key] = float(extra.get(key, 0.0))
    out["trace.coverage"] = _ratio(
        s.total_self_seconds() - s.self_seconds(root), traced_wall_s
    )
    out["trace.overhead_ratio"] = _ratio(traced_wall_s, untraced_wall_s)
    out["trace.spans"] = float(len(s.tracer))
    missing = [name for name, _ in PER_LAYER if name not in out]
    if missing:
        raise KeyError(f"per-layer metrics not computed: {missing}")
    return out
