"""F3 — Figure 3: the W3C QoS taxonomy and multi-faceted trust.

Reproduces the figure itself (the 23-metric taxonomy tree) and runs the
multi-faceted-trust experiment it motivates: per-facet trust develops
independently, and the *overall* judgement depends on the consumer's
facet weighting — the same evidence makes one consumer prefer service
X and another prefer service Y.
"""

from __future__ import annotations

import pytest

from repro.common.randomness import SeedSequenceFactory
from repro.core.facets import FacetTrust
from repro.models.liu_ngu_zeng import LiuNguZengModel
from repro.services.consumer import Consumer, PreferenceProfile
from repro.services.description import ServiceDescription
from repro.services.invocation import InvocationEngine
from repro.services.provider import Service
from repro.services.qos import QoSProfile, w3c_taxonomy

from benchmarks.conftest import print_table

TAXONOMY = w3c_taxonomy()


def build_two_tradeoff_services():
    """One service wins on performance, the other on dependability."""
    base = {m.name: 0.5 for m in TAXONOMY}
    perf = dict(base)
    for name in ["processing_time", "throughput", "response_time",
                 "latency"]:
        perf[name] = 0.9
    for name in ["availability", "reliability", "accuracy"]:
        perf[name] = 0.35
    dep = dict(base)
    for name in ["availability", "reliability", "accuracy"]:
        dep[name] = 0.9
    for name in ["processing_time", "throughput", "response_time",
                 "latency"]:
        dep[name] = 0.35
    services = []
    for sid, quality in [("fast-svc", perf), ("steady-svc", dep)]:
        services.append(
            Service(
                description=ServiceDescription(
                    service=sid, provider="p0", category="compute"
                ),
                profile=QoSProfile(quality=quality, noise=0.03),
            )
        )
    return services


def accumulate_trust(services, rounds=30, seed=0):
    seeds = SeedSequenceFactory(seed)
    engine = InvocationEngine(TAXONOMY, rng=seeds.rng("invoke"))
    consumer = Consumer("rater", rating_noise=0.01, rng=seeds.rng("c"))
    trust = FacetTrust()
    model = LiuNguZengModel()
    for t in range(rounds):
        for service in services:
            interaction = engine.invoke(consumer, service, float(t))
            feedback = consumer.rate(interaction, TAXONOMY)
            trust.observe_feedback(feedback)
            model.record(feedback)
    return trust, model


class TestFigure3Taxonomy:
    def test_tree_has_23_leaves_in_5_categories(self):
        assert len(TAXONOMY) == 23
        assert len(TAXONOMY.categories()) == 5

    def test_render_matches_figure_shape(self):
        lines = TAXONOMY.tree_lines()
        print()
        print("== Figure 3: QoS metrics for web services ==")
        for line in lines:
            print(line)
        assert any("performance" in line for line in lines)
        assert any("security" in line for line in lines)


class TestMultiFacetedTrust:
    @pytest.fixture(scope="class")
    def evidence(self):
        services = build_two_tradeoff_services()
        return accumulate_trust(services)

    def test_facet_trust_tracks_truth(self, evidence):
        trust, _ = evidence
        assert trust.facet("fast-svc", "response_time") > 0.75
        assert trust.facet("fast-svc", "reliability") < 0.5
        assert trust.facet("steady-svc", "reliability") > 0.75
        assert trust.facet("steady-svc", "response_time") < 0.5

    def test_facet_weighting_changes_the_winner(self, evidence):
        trust, _ = evidence
        perf_weights = {"response_time": 1.0, "throughput": 1.0,
                        "latency": 1.0}
        dep_weights = {"reliability": 1.0, "availability": 1.0,
                       "accuracy": 1.0}
        assert trust.overall("fast-svc", perf_weights) > trust.overall(
            "steady-svc", perf_weights
        )
        assert trust.overall("steady-svc", dep_weights) > trust.overall(
            "fast-svc", dep_weights
        )

    def test_liu_ngu_zeng_ranking_flips_with_preferences(self, evidence):
        _, model = evidence
        model.set_preferences("racer", {"response_time": 1.0,
                                        "throughput": 1.0})
        model.set_preferences("steady", {"reliability": 1.0,
                                         "availability": 1.0})
        candidates = ["fast-svc", "steady-svc"]
        assert model.rank(candidates, "racer")[0][0] == "fast-svc"
        assert model.rank(candidates, "steady")[0][0] == "steady-svc"

    def test_report(self, evidence):
        trust, _ = evidence
        facets = ["response_time", "throughput", "availability",
                  "reliability", "accuracy", "cost"]
        rows = [
            [f,
             f"{trust.facet('fast-svc', f):.3f}",
             f"{trust.facet('steady-svc', f):.3f}"]
            for f in facets
        ]
        rows.append([
            "overall(perf prefs)",
            f"{trust.overall('fast-svc', {'response_time': 1.0, 'throughput': 1.0}):.3f}",
            f"{trust.overall('steady-svc', {'response_time': 1.0, 'throughput': 1.0}):.3f}",
        ])
        rows.append([
            "overall(dep prefs)",
            f"{trust.overall('fast-svc', {'reliability': 1.0, 'availability': 1.0}):.3f}",
            f"{trust.overall('steady-svc', {'reliability': 1.0, 'availability': 1.0}):.3f}",
        ])
        print_table(
            "Figure 3: per-facet trust after 30 rounds (two trade-off "
            "services)",
            ["facet", "fast-svc", "steady-svc"],
            rows,
        )


@pytest.mark.benchmark(group="fig3")
def test_bench_facet_accumulation(benchmark):
    services = build_two_tradeoff_services()
    benchmark(lambda: accumulate_trust(services, rounds=10))
