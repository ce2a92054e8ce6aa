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
        for blessed in ("default_rng", "SeedSequence", "random.Random"):
            assert not any(blessed in f.content for f in hits)

    def test_fires_in_serve_scope(self, rule_findings):
        """Wall-clock reads in the serve ingest path are flagged."""
        hits = findings_for(
            rule_findings("R001"), "R001", "serve/bad_serve_clock.py"
        )
        flagged = {f.content.split("#")[0].strip() for f in hits}
        assert "now = time.time()" in flagged
        assert "return str(uuid.uuid4())" in flagged
        assert "return datetime.now().isoformat()" in flagged
        assert len(hits) == 3
        assert not any("suppressed" in f.content for f in hits)

    def test_timers_confined_to_timer_modules(self, rule_findings):
        """A timer or pid read outside the modules that time themselves
        is a finding; the client-side timing in serve/loadgen.py is not."""
        findings = rule_findings("R001")
        hits = findings_for(findings, "R001", "models/bad_timer.py")
        flagged = {f.content.split("#")[0].strip() for f in hits}
        assert flagged == {"started = time.perf_counter()",
                           "return os.getpid(), started"}
        assert all("process-local timer" in f.message for f in hits)
        assert findings_for(findings, "R001", "serve/loadgen.py") == []


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

    def test_inert_helper_across_an_import(self, tmp_path):
        """The handler's helper lives in another module: the symbol
        table follows the import, so an inert helper is still a
        swallow and one that records the failure is not."""
        from repro.analysis.core import run_analysis
        from repro.analysis.rules.exceptions import SwallowedExceptionRule

        caller = (
            "from repro.faults.helpers import forget\n\n\n"
            "def f(fn):\n"
            "    try:\n"
            "        return fn()\n"
            "    except Exception as exc:\n"
            "        forget(exc)\n"
        )
        helpers = {
            "inert": "def forget(exc):\n    pass\n",
            "recording": (
                "from repro.obs.recorder import get_recorder\n\n\n"
                "def forget(exc):\n"
                "    get_recorder().count(\"faults.forgotten\")\n"
            ),
        }
        flagged = {}
        for name, helper in helpers.items():
            faults = tmp_path / name / "repro" / "faults"
            faults.mkdir(parents=True)
            (faults / "helpers.py").write_text(helper)
            (faults / "caller.py").write_text(caller)
            flagged[name] = [
                (f.path, f.line)
                for f in run_analysis([faults], [SwallowedExceptionRule()])
            ]
        assert flagged == {"inert": [("faults/caller.py", 7)],
                           "recording": []}

    def test_scoped_to_resilience_paths(self, tmp_path):
        from repro.analysis.core import run_analysis
        from repro.analysis.rules.exceptions import SwallowedExceptionRule

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
