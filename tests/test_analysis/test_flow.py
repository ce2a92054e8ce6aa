"""Flow-engine unit tests: symbol resolution, summary fixpoints, and
cross-module taint propagation — the machinery under R009/R011.

The rule fixtures under ``fixtures/rules`` are single-module; these
tests build tiny multi-module projects in ``tmp_path`` to check that
summaries compose across imports.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict

from repro.analysis.core import build_project
from repro.analysis.flow import RNG, FlowAnalysis
from repro.analysis.rules.taint import ReproFlowPolicy


def _analyze(tmp_path: Path, files: Dict[str, str]) -> FlowAnalysis:
    for relpath, source in files.items():
        path = tmp_path / "repro" / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
    project = build_project([tmp_path])
    return FlowAnalysis(project, ReproFlowPolicy())


class TestSummaries:
    def test_source_return_summary(self, tmp_path):
        flow = _analyze(
            tmp_path,
            {
                "services/h.py": (
                    "import time\n\n\n"
                    "def jitter() -> float:\n"
                    "    return time.perf_counter()\n"
                ),
            },
        )
        summary = flow.summaries["services/h.py::jitter"]
        assert summary.returns_kinds() == frozenset({RNG})

    def test_identity_function_returns_its_param(self, tmp_path):
        flow = _analyze(
            tmp_path,
            {
                "services/h.py": (
                    "def relay(value):\n    return value\n"
                ),
            },
        )
        summary = flow.summaries["services/h.py::relay"]
        assert summary.return_params() == frozenset({0})

    def test_fixpoint_converges_quickly(self, tmp_path):
        # Mutually recursive pair: the fixpoint must still terminate
        # well inside the safety valve, with both returns tainted.
        flow = _analyze(
            tmp_path,
            {
                "services/h.py": (
                    "import time\n\n\n"
                    "def ping(n):\n"
                    "    if n:\n"
                    "        return pong(n - 1)\n"
                    "    return time.perf_counter()\n\n\n"
                    "def pong(n):\n"
                    "    return ping(n)\n"
                ),
            },
        )
        assert flow.rounds < FlowAnalysis.MAX_ROUNDS
        for name in ("ping", "pong"):
            summary = flow.summaries[f"services/h.py::{name}"]
            assert RNG in summary.returns_kinds()


class TestCrossModuleTaint:
    def test_taint_crosses_an_import(self, tmp_path):
        flow = _analyze(
            tmp_path,
            {
                "services/clock.py": (
                    "import time\n\n\n"
                    "def jitter() -> float:\n"
                    "    return time.perf_counter()\n"
                ),
                "services/feed.py": (
                    "from repro.services.clock import jitter\n"
                    "from repro.store import EventStore\n\n\n"
                    "def publish(store: EventStore) -> None:\n"
                    "    store.append('r', 't', jitter(), 1)\n"
                ),
            },
        )
        module = flow.project.module("services/feed.py")
        events = flow.taint_events(module)
        assert len(events) == 1
        assert events[0].sink == "EventStore.append"
        assert RNG in events[0].kinds

    def test_sorted_sanitizes_order_not_rng(self, tmp_path):
        flow = _analyze(
            tmp_path,
            {
                "services/feed.py": (
                    "import time\n"
                    "from repro.store import EventStore\n\n\n"
                    "def by_peer(store: EventStore, peers: set) -> None:\n"
                    "    for peer in sorted(peers):\n"
                    "        store.append(peer, 't', 1.0, 1)\n\n\n"
                    "def stamped(store: EventStore) -> None:\n"
                    "    value = sorted([time.perf_counter()])[0]\n"
                    "    store.append('r', 't', value, 1)\n"
                ),
            },
        )
        module = flow.project.module("services/feed.py")
        events = flow.taint_events(module)
        # sorting launders iteration order but not clock values
        assert len(events) == 1
        assert events[0].kinds == frozenset({RNG})

    def test_sink_reached_through_param_forwarding(self, tmp_path):
        # The helper never names a source; it *is* the sink for its
        # caller's tainted argument (sink_params composition).
        flow = _analyze(
            tmp_path,
            {
                "services/feed.py": (
                    "import time\n"
                    "from repro.store import EventStore\n\n\n"
                    "def record(store: EventStore, value) -> None:\n"
                    "    store.append('r', 't', value, 1)\n\n\n"
                    "def publish(store: EventStore) -> None:\n"
                    "    record(store, time.perf_counter())\n"
                ),
            },
        )
        module = flow.project.module("services/feed.py")
        events = flow.taint_events(module)
        lines = {e.lineno for e in events}
        # one event at the forwarding call site, attributed via record
        assert any(e.via and "record" in e.via for e in events)
        assert 10 in lines
