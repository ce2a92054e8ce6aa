"""The recorder's fast paths return what the slow paths would.

``Metric._key``, ``MetricsRegistry._get_or_create`` and
``Tracer.emit`` each take a shortcut for the common case (exact ``str``
labels, an already-registered metric, plain attrs); ``unpairs`` takes
one for flat payloads.  The pre-shortcut bodies are kept below verbatim
as the oracle: a seeded sequence of recorder operations over awkward
labels and attrs must give the same snapshot JSON, the same trace JSONL
bytes and the same exceptions either way.
"""

from __future__ import annotations

import dataclasses
import enum
import io
import pickle
import random
from typing import Any, Dict, List, Mapping, NamedTuple, Optional, Sequence

import numpy as np
import pytest

from repro.common.errors import ConfigurationError
from repro.obs.metrics import Counter, Metric, MetricsRegistry
from repro.obs.recorder import Recorder
from repro.obs.trace import (
    TraceEvent,
    Tracer,
    _coerce_attr,
    canonical_json,
    write_jsonl,
)
from repro.serve.protocol import pairs, unpairs

# -- the oracle: the bodies before the fast paths, verbatim -------------


def _old_key(self, labels: Sequence[str]):
    key = tuple(str(v) for v in labels)
    if len(key) != len(self.label_names):
        raise ConfigurationError(
            f"metric {self.name!r} expects labels {self.label_names}, "
            f"got {key!r}"
        )
    return key


def _old_get_or_create(
    self, cls: type, name: str, help: str, labels: Sequence[str], **kwargs: Any
) -> Metric:
    metric = self._metrics.get(name)
    if metric is None:
        metric = cls(name, help, labels, **kwargs)
        self._metrics[name] = metric
        return metric
    if not isinstance(metric, cls):
        raise ConfigurationError(
            f"metric {name!r} already registered as {metric.kind}"
        )
    if metric.label_names != tuple(labels):
        raise ConfigurationError(
            f"metric {name!r} already registered with labels "
            f"{metric.label_names}, got {tuple(labels)}"
        )
    return metric


def _old_emit(
    self,
    name: str,
    time: float,
    kind: str = "event",
    duration: float = 0.0,
    attrs: Optional[Mapping[str, Any]] = None,
) -> TraceEvent:
    if duration < 0:
        raise ConfigurationError(
            f"span {name!r} has negative duration {duration}"
        )
    packed = ()
    if attrs:
        packed = tuple(
            sorted((str(k), _coerce_attr(v)) for k, v in attrs.items())
        )
    event = TraceEvent(
        time=float(time),
        seq=self._seq,
        name=name,
        kind=kind,
        duration=float(duration),
        attrs=packed,
    )
    self._seq += 1
    self.events.append(event)
    return event


def _old_unpairs(payload) -> Dict[str, Any]:
    out: Dict[str, Any] = {}
    for key, value in payload:
        if isinstance(value, tuple) and all(
            isinstance(item, tuple) and len(item) == 2 for item in value
        ):
            out[key] = _old_unpairs(value)
        else:
            out[key] = value
    return out


# -- awkward inputs -------------------------------------------------------


class Tag(str):
    """A str subclass: equal to its text, but not an exact str."""


class Color(enum.Enum):
    RED = "red"
    BLUE = 2


class Pair(NamedTuple):
    key: str
    value: Any


LABEL_VALUES: List[Any] = [
    "a", "b", "3", Tag("a"), 3, True, False, np.int64(3), np.float64(2.5),
    Color.RED, None,
]
LABEL_NAMES: List[Any] = [(), ("x",), ("x", "y"), ["x"], ("y",), (Tag("x"),)]
NAMES = ["m.a", "m.b", "m.c"]
ATTR_KEYS: List[Any] = ["k", "a", "z", Tag("q"), 7, Color.BLUE]
ATTR_VALUES: List[Any] = [
    "v", Tag("v"), 1, 0, True, False, 2.5, -0.0, np.int64(4),
    np.float64(0.5), np.bool_(True), Color.RED, Color.BLUE, None, (1, 2),
]
AMOUNTS: List[Any] = [1.0, 2, 0.5, np.float64(1.5), np.int64(2), -1.0]


def _labels(rng: random.Random, names: Any) -> Any:
    n = len(names) if rng.random() < 0.85 else rng.randrange(3)
    values = [rng.choice(LABEL_VALUES) for _ in range(n)]
    return values if rng.random() < 0.1 else tuple(values)


def _attrs(rng: random.Random) -> Optional[Dict[Any, Any]]:
    if rng.random() < 0.1:
        return None
    if rng.random() < 0.6:  # the serve shape: str keys, plain values
        return {
            key: rng.choice(["ok", 3, 0.25, "rank"])
            for key in rng.sample(["kind", "status", "tenant", "tick"], 3)
        }
    return {
        rng.choice(ATTR_KEYS): rng.choice(ATTR_VALUES)
        for _ in range(rng.randrange(4))
    }


def _run(seed: int, ops: int = 160) -> List[Any]:
    """Apply a seeded op sequence; return every observable output."""
    rng = random.Random(seed)
    rec = Recorder()
    outcomes: List[Any] = []
    for _ in range(ops):
        op = rng.choice(
            ["count", "count", "gauge", "observe", "span", "span", "event",
             "direct", "reset"]
        )
        name = rng.choice(NAMES)
        names = rng.choice(LABEL_NAMES)
        labels = _labels(rng, names)
        try:
            if op == "count":
                rec.count(name, rng.choice(AMOUNTS), labels, names)
            elif op == "gauge":
                rec.gauge(name, rng.choice(AMOUNTS), labels, names)
            elif op == "observe":
                rec.observe(name, rng.uniform(0, 30), labels, names)
            elif op == "span":
                rec.span(
                    rng.choice(NAMES),
                    rng.choice([0.0, 0.5, 2, -1.0]),
                    _attrs(rng),
                    rng.choice([None, 1.5, 4]),
                )
            elif op == "event":
                rec.event(rng.choice(NAMES), _attrs(rng), rng.choice([None, 3]))
            elif op == "direct":
                getattr(rec.registry, rng.choice(["counter", "gauge"]))(
                    name, labels=names
                )
            else:
                rec.reset()
            outcomes.append(("ok", op))
        except Exception as exc:  # compared with the oracle's, type and text
            outcomes.append((type(exc).__name__, str(exc)))
    buffer = io.StringIO()
    write_jsonl(rec.snapshot(meta={"seed": seed}), buffer)
    outcomes.append(canonical_json(rec.registry.snapshot()))
    outcomes.append(buffer.getvalue())
    events = rec.tracer.events
    outcomes.append([repr(event) for event in events])
    # one event at a time: a list's pickle memoizes the attr pairs that
    # events share, so only its round trip is compared
    outcomes.append([pickle.dumps(event) for event in events])
    assert pickle.loads(pickle.dumps(events)) == events
    return outcomes


@pytest.fixture
def oracle(monkeypatch):
    """Run a callable with the pre-shortcut bodies patched in."""

    def call(fn, *args):
        with monkeypatch.context() as patch:
            patch.setattr(Metric, "_key", _old_key)
            patch.setattr(MetricsRegistry, "_get_or_create", _old_get_or_create)
            patch.setattr(Tracer, "emit", _old_emit)
            return fn(*args)

    return call


class TestMetricFastPaths:
    def test_int_and_str_labels_share_one_series(self):
        counter = Counter("c", labels=("k",))
        counter.inc(1, labels=(3,))
        counter.inc(2, labels=("3",))
        counter.inc(4, labels=(Tag("3"),))
        assert counter.series == {("3",): 7}
        assert all(type(v) is str for key in counter.series for v in key)

    def test_exact_str_labels_are_their_own_key(self):
        counter = Counter("c", labels=("k", "j"))
        labels = ("a", "b")
        counter.inc(1, labels=labels)
        assert next(iter(counter.series)) is labels

    def test_wrong_label_count_still_raises(self):
        counter = Counter("c", labels=("k",))
        with pytest.raises(ConfigurationError, match="expects labels"):
            counter.inc(1, labels=("a", "b"))

    def test_registered_metric_returned_for_tuple_or_list_names(self):
        reg = MetricsRegistry()
        metric = reg.counter("m", labels=("a",))
        assert reg.counter("m", labels=("a",)) is metric
        assert reg.counter("m", labels=["a"]) is metric

    @pytest.mark.parametrize("labels", [("b",), ["b"], (), ("a", "b")])
    def test_conflicting_labels_raise_as_before(self, labels, oracle):
        def register():
            reg = MetricsRegistry()
            reg.counter("m", labels=("a",))
            with pytest.raises(ConfigurationError) as info:
                reg.counter("m", labels=labels)
            return str(info.value)

        assert register() == oracle(register)

    def test_subclass_registration_matches_slow_path(self, oracle):
        class Special(Counter):
            pass

        def register():
            reg = MetricsRegistry()
            reg._metrics["m"] = Special("m", labels=("a",))
            return type(reg.counter("m", labels=("a",))).__name__

        assert register() == oracle(register) == "Special"


class TestOracleEquivalence:
    def test_op_sequences_match_the_oracle(self, global_random_seed, oracle):
        for offset in range(12):
            seed = global_random_seed * 1000 + offset
            assert _run(seed) == oracle(_run, seed)

    def test_emitted_event_is_the_dataclass_built_one(self):
        tracer = Tracer()
        event = tracer.emit("s", 1, "span", 2, {"b": 1, "a": "x", "c": 0.5})
        built = TraceEvent(
            time=1.0,
            seq=0,
            name="s",
            kind="span",
            duration=2.0,
            attrs=(("a", "x"), ("b", 1), ("c", 0.5)),
        )
        assert type(event) is TraceEvent
        assert event == built and hash(event) == hash(built)
        assert repr(event) == repr(built)
        assert vars(event) == vars(built)
        assert list(vars(event)) == list(vars(built))
        for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.dumps(event, protocol) == pickle.dumps(
                built, protocol
            )
            assert pickle.loads(pickle.dumps(event, protocol)) == built
        with pytest.raises(dataclasses.FrozenInstanceError):
            event.time = 2.0  # type: ignore[misc]

    def test_bool_attrs_still_coerced(self):
        event = Tracer().emit("e", 0.0, attrs={"flag": True, "n": 1})
        assert event.attrs == (("flag", True), ("n", 1))
        assert type(event.attrs[0][1]) is bool
        assert type(event.attrs[1][1]) is int


def _payload(rng: random.Random, depth: int = 0) -> Dict[str, Any]:
    out: Dict[str, Any] = {}
    for _ in range(rng.randrange(4)):
        roll = rng.random()
        if roll < 0.25 and depth < 2:
            value: Any = _payload(rng, depth + 1)
        else:
            value = rng.choice(
                ["x", 1, 0.5, None, True, (1, 2), (), ((1, 2),), [1, 2]]
            )
        out[rng.choice(["a", "b", "c", "rating"])] = value
    return out


class TestUnpairs:
    @pytest.mark.parametrize(
        "payload",
        [
            (),
            (("category", "c0"), ("perspective", None)),
            (("rater", "r"), ("rating", 0.5), ("target", "s")),
            (("a", (("b", 1), ("c", (("d", None),)))),),
            (("a", ()),),
            (("a", (1, 2, 3)),),
            (("a", ((1, 2), (3,))),),
            (("a", Pair("k", 1)),),
            (("a", (Pair("k", 1),)),),
            (("a", [("k", 1)]),),
            (("a", 1), ("a", (("k", 2),))),
            (("a", (("k", 2),)), ("a", 1)),
            [("a", 1), ("b", 2)],
            ("ab", "cd"),
        ],
    )
    def test_matches_the_old_unpairs(self, payload):
        assert unpairs(payload) == _old_unpairs(payload)
        assert repr(unpairs(payload)) == repr(_old_unpairs(payload))

    @pytest.mark.parametrize(
        "payload", [(("a", 1, 2),), (1,), ("abc",), {"a": 1}]
    )
    def test_bad_payloads_raise_as_before(self, payload):
        with pytest.raises(Exception) as old:
            _old_unpairs(payload)
        with pytest.raises(type(old.value)):
            unpairs(payload)

    def test_seeded_round_trips(self, global_random_seed):
        rng = random.Random(global_random_seed)
        for _ in range(200):
            packed = pairs(_payload(rng))
            assert unpairs(packed) == _old_unpairs(packed)
            assert repr(unpairs(packed)) == repr(_old_unpairs(packed))
