"""Per-rule behaviour on the per-rule fixture projects: each rule
fires on its positive cases, stays quiet on the blessed patterns, and
honours per-line suppression comments.

Every class scans only its own ``fixtures/rules/R0xx`` mini-project
(via the ``rule_findings`` factory), so fixtures added for one rule
can never shift another rule's expected counts.
"""

from __future__ import annotations

from tests.test_analysis.conftest import findings_for


class TestR001GlobalNondeterminism:
    def test_fires_on_every_ambient_source(self, rule_findings):
        hits = findings_for(
            rule_findings("R001"), "R001", "models/bad_determinism.py"
        )
        flagged = {f.content.split("#")[0].strip() for f in hits}
        assert "a = random.random()" in flagged
        assert "b = np.random.rand(3)" in flagged
        assert "np.random.seed(0)" in flagged
        assert "c = time.time()" in flagged
        assert "d = datetime.now()" in flagged
        assert "e = uuid.uuid4()" in flagged
        assert "f = os.urandom(8)" in flagged
        assert len(hits) == 7

    def test_suppression_comment_silences(self, rule_findings):
        hits = findings_for(
            rule_findings("R001"), "R001", "models/bad_determinism.py"
        )
        assert not any("suppressed" in f.content for f in hits)

    def test_seeded_constructors_allowed(self, rule_findings):
        hits = findings_for(
            rule_findings("R001"), "R001", "models/bad_determinism.py"
        )
        for blessed in ("default_rng", "SeedSequence", "random.Random",
                        "perf_counter"):
            assert not any(blessed in f.content for f in hits)

    def test_fires_in_serve_scope(self, rule_findings):
        """Wall-clock reads in the serve ingest path are flagged; the
        perf counters stay tolerated for client-side benchmarking."""
        hits = findings_for(
            rule_findings("R001"), "R001", "serve/bad_serve_clock.py"
        )
        flagged = {f.content.split("#")[0].strip() for f in hits}
        assert "now = time.time()" in flagged
        assert "return str(uuid.uuid4())" in flagged
        assert "return datetime.now().isoformat()" in flagged
        assert len(hits) == 3
        assert not any("perf_counter" in f.content for f in hits)
        assert not any("suppressed" in f.content for f in hits)


class TestR002UnorderedIteration:
    def test_fires_on_set_iterations(self, rule_findings):
        hits = findings_for(
            rule_findings("R002"), "R002", "models/bad_iteration.py"
        )
        lines = {f.content for f in hits}
        assert "for peer in self._peers:              # R002: set iteration" in lines
        assert any("shares = {p: 1.0 for p in self._peers}" in l
                   for l in lines)
        assert any("for tgt in targets:" in l for l in lines)
        assert any("set(own) & set(theirs)" in l for l in lines)
        assert any("for p in SEED_PEERS" in l for l in lines)
        assert len(hits) == 5

    def test_sorted_and_membership_not_flagged(self, rule_findings):
        hits = findings_for(
            rule_findings("R002"), "R002", "models/bad_iteration.py"
        )
        assert not any("sorted(" in f.content for f in hits)
        assert not any("len(self._peers)" in f.content for f in hits)
        assert not any('"a" in self._peers' in f.content for f in hits)

    def test_suppression_comment_silences(self, rule_findings):
        hits = findings_for(
            rule_findings("R002"), "R002", "models/bad_iteration.py"
        )
        assert not any("disable=R002" in f.content for f in hits)

    def test_fires_in_serve_scope(self, rule_findings):
        """serve/ is a scoring/ranking path: batch and per-tenant
        tables built off set iteration would put hash-salted order
        into the ingest log."""
        hits = findings_for(
            rule_findings("R002"), "R002", "serve/bad_serve_iteration.py"
        )
        lines = {f.content for f in hits}
        assert any("for tenant in self._tenants:" in l for l in lines)
        assert any("PENDING_TENANTS" in l for l in lines)
        assert len(hits) == 2
        assert not any("sorted(" in f.content for f in hits)
        assert not any("len(self._tenants)" in f.content for f in hits)


class TestR006FloatEquality:
    def test_fires_on_bare_equality(self, rule_findings):
        hits = findings_for(
            rule_findings("R006"), "R006", "models/bad_floatcmp.py"
        )
        lines = {f.content.split("#")[0].strip() for f in hits}
        assert "if score == 0.5:" in lines
        assert "if trust != 1.0:" in lines
        assert "if rating == score:" in lines
        assert len(hits) == 3

    def test_counts_strings_and_tolerances_pass(self, rule_findings):
        hits = findings_for(
            rule_findings("R006"), "R006", "models/bad_floatcmp.py"
        )
        contents = " ".join(f.content for f in hits)
        assert "rating_count" not in contents
        assert "spam" not in contents
        assert "abs(" not in contents
        assert "score > 0.9" not in contents

    def test_suppression_comment_silences(self, rule_findings):
        hits = findings_for(
            rule_findings("R006"), "R006", "models/bad_floatcmp.py"
        )
        assert not any("disable=R006" in f.content for f in hits)


class TestR007ColumnarLoops:
    def test_fires_on_per_row_loops(self, rule_findings):
        hits = findings_for(
            rule_findings("R007"), "R007", "models/bad_columnar.py"
        )
        lines = {f.content.split("#")[0].strip() for f in hits}
        assert "for v in columns.value:" in lines
        assert "for row in store.iter_rows(0):" in lines
        assert any("zip(columns.value, columns.time)" in l for l in lines)
        assert "return [v * 2 for v in values]" in lines
        assert "for v in columns.value.tolist():" in lines
        assert len(hits) == 6

    def test_vectorized_and_plain_loops_pass(self, rule_findings):
        hits = findings_for(
            rule_findings("R007"), "R007", "models/bad_columnar.py"
        )
        contents = " ".join(f.content for f in hits)
        assert "bincount" not in contents
        assert "for item in items" not in contents
        assert "for row in rows" not in contents

    def test_disable_comment_does_not_silence(self, rule_findings):
        hits = findings_for(
            rule_findings("R007"), "R007", "models/bad_columnar.py"
        )
        # commented_reference's loop is identical to looped_rows' but
        # for its disable comment, which R007 does not honour.
        assert (
            sum("store.iter_rows(0)" in f.content for f in hits) == 2
        )

    def test_scoped_to_models(self, rule_findings):
        assert all(
            f.path.startswith("models/")
            for f in findings_for(rule_findings("R007"), "R007")
        )


class TestR002MergeOrder:
    """The cross-shard merge primitives are order-sensitive calls, and
    R002's scope covers every merge path."""

    def test_fires_on_set_ordered_merges(self, rule_findings):
        hits = findings_for(
            rule_findings("R002"), "R002", "experiments/sharded.py"
        )
        lines = {f.content for f in hits}
        assert any("for delta in pending" in l for l in lines)
        assert any(
            "store.merge_from(d) for d in dropped" in l for l in lines
        )
        assert any("merge_snapshots(set(snapshots))" in l for l in lines)
        assert len(hits) == 3

    def test_list_and_sorted_merges_pass(self, rule_findings):
        hits = findings_for(
            rule_findings("R002"), "R002", "experiments/sharded.py"
        )
        contents = " ".join(f.content for f in hits)
        assert "sorted(" not in contents
        assert "for delta in deltas:" not in contents

    def test_loop_without_merge_not_flagged(self, rule_findings):
        hits = findings_for(rule_findings("R002"), "R002")
        assert not any("total += delta" in f.content for f in hits)

    def test_suppression_comment_silences(self, rule_findings):
        hits = findings_for(
            rule_findings("R002"), "R002", "experiments/sharded.py"
        )
        assert not any("disable=R002" in f.content for f in hits)

    def test_fires_in_store_scope(self, rule_findings):
        hits = findings_for(rule_findings("R002"), "R002", "store/")
        assert [f.content for f in hits] == [
            "for shard in shards:                  # R002: set-ordered merge"
        ]


class TestR009AmbientTaint:
    def test_direct_hit(self, rule_findings):
        hits = findings_for(
            rule_findings("R009"), "R009", "services/taint_feed.py"
        )
        assert any("time.monotonic()" in f.content for f in hits)

    def test_multi_hop_chain_hit(self, rule_findings):
        """source -> _jitter -> _laundered -> _relay -> sink: only the
        summary fixpoint sees it; no banned name is on the sink line."""
        hits = findings_for(
            rule_findings("R009"), "R009", "services/taint_feed.py"
        )
        assert any(
            "_relay(_laundered())" in f.content for f in hits
        )

    def test_coded_append_is_a_sink(self, rule_findings):
        hits = findings_for(
            rule_findings("R009"), "R009", "services/taint_feed.py"
        )
        coded = [f for f in hits if "EventStore.extend_coded" in f.message]
        assert len(coded) == 1
        assert "time.monotonic()" in coded[0].content

    def test_set_order_taint_hits_sink(self, rule_findings):
        hits = findings_for(
            rule_findings("R009"), "R009", "services/taint_feed.py"
        )
        order = [
            f for f in hits if "set iteration order" in f.message
        ]
        assert len(order) == 3
        assert "peer" in order[0].content

    def test_set_algebra_order_hits_sink(self, rule_findings):
        """``set(a) | set(b)`` and ``set(a).union(b)`` are sets too: the
        flow engine asks R002's set classifier."""
        hits = findings_for(
            rule_findings("R009"), "R009", "services/taint_feed.py"
        )
        flagged = {
            f.content for f in hits if "set iteration order" in f.message
        }
        assert 'self._store.append(rater, "t", 1.0, 6)' in flagged
        assert 'self._store.append(rater, "t", 1.0, 7)' in flagged

    def test_telemetry_sink_hit(self, rule_findings):
        hits = findings_for(
            rule_findings("R009"), "R009", "services/taint_telemetry.py"
        )
        assert len(hits) == 1
        assert "recorder.gauge" in hits[0].message

    def test_serve_arrival_constructor_is_a_sink(self, rule_findings):
        """Wall clock directly into an Arrival's client tick."""
        hits = findings_for(
            rule_findings("R009"), "R009", "serve/taint_ingest.py"
        )
        arrivals = [f for f in hits if "Arrival fields" in f.message]
        assert len(arrivals) == 1
        assert "ingest log" in arrivals[0].message

    def test_serve_admit_laundered_hit(self, rule_findings):
        """source -> _wall_ticks -> _laundered_now -> admit: ingest
        tick assignment reached through two helper calls."""
        hits = findings_for(
            rule_findings("R009"), "R009", "serve/taint_ingest.py"
        )
        admits = [
            f for f in hits if "AdmissionController.admit" in f.message
        ]
        assert len(admits) == 1
        assert "_laundered_now()" in admits[0].content

    def test_serve_ingest_record_is_a_sink(self, rule_findings):
        hits = findings_for(
            rule_findings("R009"), "R009", "serve/taint_ingest.py"
        )
        assert any("IngestRecord fields" in f.message for f in hits)

    def test_exact_counts_and_clean_paths(self, rule_findings):
        hits = findings_for(rule_findings("R009"), "R009")
        assert len(hits) == 10
        assert len(findings_for(hits, "R009", "serve/")) == 3
        contents = " ".join(f.content for f in hits)
        assert "clean_path" not in contents
        assert "sorted(peers)" not in contents
        assert "bench_ok" not in contents
        assert "suppressed" not in contents
        assert "started" not in contents

    def test_suppression_comment_silences(self, rule_findings):
        hits = findings_for(rule_findings("R009"), "R009")
        assert not any("disable=R009" in f.content for f in hits)

    def test_no_r001_noise_in_fixture(self, rule_findings):
        # perf counters are R001-tolerated; every finding in the R009
        # project must belong to R009 alone.
        assert {f.rule for f in rule_findings("R009")} == {"R009"}


class TestR011SwallowedExceptions:
    def test_bare_and_broad_handlers_hit(self, rule_findings):
        hits = findings_for(
            rule_findings("R011"), "R011", "faults/swallow.py"
        )
        contents = [f.content for f in hits]
        assert any(c.startswith("except:") for c in contents)
        assert "except Exception:" in contents

    def test_inert_helper_chain_hit(self, rule_findings):
        """handler -> _indirect -> _black_hole is observably a no-op;
        the inert-function fixpoint must see through both calls."""
        hits = findings_for(
            rule_findings("R011"), "R011", "faults/swallow.py"
        )
        assert any(
            "except Exception as exc:" in f.content for f in hits
        )

    def test_exact_count_and_handled_paths_pass(self, rule_findings):
        hits = findings_for(rule_findings("R011"), "R011")
        assert len(hits) == 3
        lines = {f.line for f in hits}
        # sentinel return, re-raise, recorder call, narrow handler:
        # all handled, none flagged.
        assert all(f.path == "faults/swallow.py" for f in hits)
        assert len(lines) == 3

    def test_suppression_comment_silences(self, rule_findings):
        hits = findings_for(rule_findings("R011"), "R011")
        assert not any("disable=R011" in f.content for f in hits)

    def test_scoped_to_resilience_paths(self, tmp_path):
        from repro.analysis.core import run_analysis
        from repro.analysis.rules.taint import SwallowedExceptionRule

        source = (
            "def f(fn):\n"
            "    try:\n"
            "        return fn()\n"
            "    except Exception:\n"
            "        pass\n"
        )
        path = tmp_path / "repro" / "models" / "quiet.py"
        path.parent.mkdir(parents=True)
        path.write_text(source)
        assert run_analysis([path], [SwallowedExceptionRule()]) == []
