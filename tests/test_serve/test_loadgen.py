"""Closed-loop load generator: canonical outputs, independent tally,
and the ``python -m repro.obs summarize`` serve section."""

import io
import json
import re

import pytest

from repro.common.errors import ConfigurationError
from repro.obs.summarize import render_json, render_text, summarize
from repro.obs.trace import load_jsonl, write_jsonl
from repro.serve.core import ServeConfig
from repro.serve.loadgen import LoadSpec, replay_report, run_loadgen
from repro.serve.sla import sla_counts

SMALL = LoadSpec(
    tenants=2, clients_per_tenant=2, requests_per_client=5, seed=3
)

CHAOS = LoadSpec(
    tenants=2,
    clients_per_tenant=2,
    requests_per_client=6,
    seed=4,
    outage_rounds=(1, 3),
    rebuild_rounds=(4, 5),
)

TIGHT = LoadSpec(
    tenants=2,
    clients_per_tenant=3,
    requests_per_client=6,
    seed=5,
    think_time=0.002,
    config=ServeConfig(
        drain_rate=64.0, max_depth=4, tenant_rate=16.0, tenant_burst=4
    ),
)


@pytest.fixture(scope="module")
def small_report():
    return run_loadgen(SMALL)


@pytest.fixture(scope="module")
def chaos_report():
    return run_loadgen(CHAOS)


@pytest.fixture(scope="module")
def tight_report():
    return run_loadgen(TIGHT)


class TestLoadgenCanonical:
    def test_same_spec_same_identity(self, small_report):
        again = run_loadgen(SMALL)
        assert again.identity() == small_report.identity()

    def test_worker_count_invariance(self, small_report):
        for workers in (1, 3):
            assert (
                run_loadgen(SMALL, workers=workers).identity()
                == small_report.identity()
            )

    def test_replay_matches_live(self, chaos_report):
        result = replay_report(CHAOS, chaos_report.log)
        assert result.responses == chaos_report.responses
        assert result.final_scores == chaos_report.final_scores
        assert result.trace_sha256 == chaos_report.trace_sha256
        assert result.responses_sha256 == chaos_report.responses_sha256

    def test_different_seed_different_identity(self, small_report):
        other = run_loadgen(
            LoadSpec(
                tenants=2,
                clients_per_tenant=2,
                requests_per_client=5,
                seed=77,
            )
        )
        assert other.identity() != small_report.identity()


class TestClientSideTally:
    def test_tally_matches_server_sla(
        self, small_report, chaos_report, tight_report
    ):
        for report in (small_report, chaos_report, tight_report):
            assert report.tally_matches_sla()

    def test_chaos_run_sees_degraded_service(self, chaos_report):
        degraded = sum(
            row["degraded"] for row in chaos_report.sla
        )
        assert degraded > 0

    def test_tight_config_sheds_and_throttles(self, tight_report):
        counts = sla_counts(tight_report.sla)
        rejected = sum(
            c["shed"] + c["throttled"] for c in counts.values()
        )
        assert rejected > 0
        assert any(row["shed_rate"] > 0 for row in tight_report.sla)

    def test_wall_quantiles_present_but_not_canonical(self, small_report):
        quantiles = small_report.wall_quantiles_ms()
        assert set(quantiles) == {"_all", "t0", "t1"}
        assert quantiles["_all"]["p99_ms"] >= quantiles["_all"]["p50_ms"]
        # Wall times must never appear in canonical surfaces: not as a
        # number, not inside a string.  A value counts as a whole
        # number only, so a digit run inside a longer integer or inside
        # a float (a rating's 16 fraction digits) does not.
        blob = json.dumps(
            [r.to_dict() for r in small_report.responses]
        ) + small_report.log.canonical_bytes().decode("utf-8")
        for values in small_report.wall_ns.values():
            for value in values:
                whole = rf"(?<![0-9.]){value}(?![0-9]|\.[0-9])"
                assert re.search(whole, blob) is None, value


class TestSummarizeServeSection:
    def test_section_matches_loadgen_sla(self, chaos_report, tmp_path):
        path = tmp_path / "serve.jsonl"
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            write_jsonl(chaos_report.snapshot, handle)
        summary = summarize([load_jsonl(path)])
        assert summary["serve"] == chaos_report.sla

    def test_text_rendering_has_serve_block(self, chaos_report):
        summary = summarize([chaos_report.snapshot])
        text = render_text(summary)
        assert "serve SLA (per tenant):" in text
        assert "t0" in text and "t1" in text

    def test_json_rendering_canonical(self, chaos_report):
        summary = summarize([chaos_report.snapshot])
        assert render_json(summary) == render_json(
            summarize([chaos_report.snapshot])
        )

    def test_no_serve_section_without_serve_metrics(self):
        from repro.obs.recorder import Recorder

        rec = Recorder()
        rec.count("selection.requests")
        summary = summarize([rec.snapshot(meta={})])
        assert summary["serve"] == []
        assert "serve SLA" not in render_text(summary)


class TestSpecValidation:
    def test_rejects_empty_workload(self):
        with pytest.raises(ConfigurationError, match="tenants"):
            LoadSpec(tenants=0)
        with pytest.raises(ConfigurationError, match="clients_per_tenant"):
            LoadSpec(clients_per_tenant=0)
        with pytest.raises(ConfigurationError, match="requests_per_client"):
            LoadSpec(requests_per_client=0)

    def test_trace_roundtrip_preserves_identity(self, small_report):
        buffer = io.StringIO()
        write_jsonl(small_report.snapshot, buffer)
        assert buffer.getvalue().startswith("{")
