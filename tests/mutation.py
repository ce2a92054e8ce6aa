"""Mutation check for the shard path and its epoch score tables, the
model folds and memos, the store cursor protocol, interning, growth and
read-only views, the damped walk, the referral ranking memo, the rank
order and its memo, the scenario's truth key, the metrics fast paths
and the recorder's handles, the serve admission, fluid queue and replay
check, the zoo pin and the ambient oracle: do the gates catch
regressions?

Each :class:`Mutant` is an exact source edit that breaks one rule the
canonical output depends on, plus the one test that must catch it.
The runner copies ``src/`` to a temporary directory, applies one
mutant there, runs its gate against the copy and expects the gate to
fail.  The checkout itself is never edited.

Run from the repository root::

    python -m tests.mutation            # every mutant
    python -m tests.mutation 0 3        # mutants 0 and 3

It prints one line per mutant and ``killed K/N``, and exits non-zero
when a mutant survives or a gate fails or skips on the unmutated copy.
The zoo-pin gate runs only on a Python version that
``tests/zoo_digests.json`` holds a digest set for (3.11 today); on any
other version its mutant reports ``ERROR: gate skips unmutated``.
``tests/test_mutation_list.py`` keeps every ``old`` snippet matching
exactly once, so the list cannot silently go stale.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent

DETERMINISM = "tests/test_experiments/test_shard_determinism.py"
PHILOX = "tests/test_common/test_philox.py"
FOLDS = "tests/test_models/test_batch_scoring.py::TestFoldInterleaving"
REFERRAL = "tests/test_p2p/test_referral.py::TestQueryMemo"
AMBIENT = "tests/test_ambient_oracle.py::test_perturbed_runs_write_equal_bytes"
#: a wall-clock read behind a helper, the shape every ambient mutant
#: launders into a canonical sink: 0 or 1 depending on the clock
CLOCK_HELPER = (
    "def {name}():  # a wall-clock read behind a helper\n"
    '            return int(__import__("time").time()) % 2\n\n'
)


@dataclass(frozen=True)
class Mutant:
    file: str
    old: str
    new: str
    gate: str
    reason: str


MUTANTS: List[Mutant] = [
    Mutant(
        file="src/repro/experiments/sharded.py",
        old="order = np.lexsort((consumers, rounds))",
        new="order = np.lexsort((rounds, consumers))",
        gate=f"{DETERMINISM}::TestMergedOrder::"
        "test_rows_in_round_then_consumer_order",
        reason="merged rows sorted by (consumer, round): every shard count "
        "sorts alike, so only the order test sees it",
    ),
    Mutant(
        file="src/repro/experiments/sharded.py",
        old="for delta in deltas:  # shard-index order: the canonical merge",
        new="for delta in reversed(deltas):  # reversed merge",
        gate=f"{DETERMINISM}::TestShardCountInvariance::"
        "test_one_two_eight_shards_byte_identical",
        reason="rater ids gathered in reverse shard order while every "
        "other column stays in shard order; reversing all of them is "
        "equivalent (the lexsort key is unique per row)",
    ),
    Mutant(
        file="src/repro/store/store.py",
        old="stream = np.stack((rater_idx, target_idx), axis=1).reshape(-1)",
        new="stream = np.concatenate((rater_idx, target_idx))",
        gate=f"{DETERMINISM}::TestMergedOrder::"
        "test_store_equals_append_loop_over_its_rows",
        reason="coded append interns every rater before any target: every "
        "shard count interns alike and the scalar replay compares ids, "
        "so only the append-loop rebuild sees it",
    ),
    Mutant(
        file="src/repro/store/interner.py",
        old="fresh = dict.fromkeys(filterfalse(self._index.__contains__, "
        "values))",
        new="fresh = dict.fromkeys(sorted(filterfalse(self._index.__contains__, "
        "values)))",
        gate="tests/test_store/test_event_store.py::TestAppendCoded::"
        "test_batch_codes_follow_first_appearance",
        reason="new names coded in sorted, not first-appearance, order: "
        "every shard count interns alike, so only a batch whose new "
        "names arrive unsorted sees it",
    ),
    Mutant(
        file="src/repro/experiments/sharded.py",
        old="self.model.ingest_coded(self.store.columns_from(first_row))",
        new="self.model.ingest_coded(self.store.columns_from(0))",
        gate="tests/test_experiments/test_shard_ingest.py::"
        "test_model_store_holds_the_global_rows",
        reason="the model store is fed from row 0 instead of the epoch's "
        "first row, so every epoch re-ingests the earlier ones",
    ),
    Mutant(
        file="src/repro/experiments/sharded.py",
        old="streams = self._streams  # global consumer indices",
        new="streams = np.arange(len(self._streams))",
        gate=f"{DETERMINISM}::TestShardCountInvariance::"
        "test_one_two_eight_shards_byte_identical",
        reason="draws keyed by the shard-local position, so a consumer's "
        "draws depend on which shard hosts it",
    ),
    Mutant(
        file="src/repro/experiments/workloads.py",
        old="keyed_uniforms(key, indices, WEIGHT_DRAWS, 0, n_weights)",
        new="keyed_uniforms(key, np.arange(len(indices)), WEIGHT_DRAWS, 0, "
        "n_weights)",
        gate=f"{DETERMINISM}::TestShardCountInvariance::"
        "test_heterogeneous_world_one_two_eight_identical",
        reason="builder weights keyed by position in the built subset, so "
        "a consumer's preferences depend on which shard builds it; "
        "homogeneous worlds draw no weights and cannot see it",
    ),
    Mutant(
        file="src/repro/experiments/sharded.py",
        old="high = (hashes >> np.uint64(32)) * n + low",
        new="high = (hashes >> np.uint64(32)) * n",
        gate=f"{DETERMINISM}::TestShardCountInvariance::"
        "test_shard_homes_keeps_the_low_half_carry",
        reason="the vector partition drops the low half's carry: it moves "
        "about one id in 2**33 / shards, so a 1 == 2 == 8 run never "
        "meets one; only crafted hashes pin the multiply-shift",
    ),
    Mutant(
        file="src/repro/experiments/sharded.py",
        old="keyed_words(PARTITION_KEY, np.arange(n_consumers), 0, 0)",
        new="keyed_words(PARTITION_KEY, np.arange(1, n_consumers + 1), 0, 0)",
        gate=f"{DETERMINISM}::TestShardCountInvariance::"
        "test_consumer_partition_is_pinned",
        reason="the partition keyed one index off is still a valid, "
        "growth-stable partition, so 1 == 2 == 8 and the coverage tests "
        "pass; only the pinned homes see the moved dispatch statistics",
    ),
    Mutant(
        file="src/repro/common/randomness.py",
        old="counters[2] = step",
        new="counters[2] = 0",
        gate=f"{PHILOX}::TestKeyedDraws::test_counter_layout",
        reason="a counter without the round repeats every round's draws; "
        "shard-count invariance and the scalar replay (same function) "
        "are blind to it",
    ),
    Mutant(
        file="src/repro/common/randomness.py",
        old="PHILOX_ROUNDS = 10",
        new="PHILOX_ROUNDS = 7",
        gate=f"{PHILOX}::TestPhilox::test_known_answers",
        reason="Philox4x32-7 is a different generator; only the Random123 "
        "known answers pin the round count",
    ),
    Mutant(
        file="src/repro/common/randomness.py",
        old="tile = state[:, start : start + _TILE_COLUMNS]",
        new="tile = state[:, start : start + _TILE_COLUMNS - 1]",
        gate=f"{PHILOX}::TestPhilox::test_tiles_equal_small_batches",
        reason="each cache-sized tile skips its last column, which keeps "
        "its raw counter; known answers and every draw narrower than one "
        "tile cannot see it",
    ),
    Mutant(
        file="src/repro/models/sporas.py",
        old="self._is_target[delta.target] = True",
        new="pass",
        gate=f"{FOLDS}::test_sporas_fold_turns_coupled",
        reason="the fold forgets which entities were rated, so a rated "
        "service that starts rating never latches the coupled fallback "
        "and its lifted reputation is read as the newcomer floor",
    ),
    Mutant(
        file="src/repro/models/sporas.py",
        old="self._sweep(delta.target, delta.value)",
        new="self._state[:] = 0.0; self._sweep(delta.target, delta.value)",
        gate=f"{FOLDS}::test_sporas_models_sharing_a_store",
        reason="each version's fold starts from a zero state, so only the "
        "newest rows count; a cold kernel (one fold from row 0) cannot "
        "see it",
    ),
    Mutant(
        file="src/repro/models/pagerank.py",
        old="if len(self._nodes) != known:",
        new="if False:",
        gate=f"{FOLDS}::test_social_network_recomputes_only_on_graph_change",
        reason="a record that adds a node but no edge keeps the stale "
        "authority, so every score misses the new node's share",
    ),
    Mutant(
        file="src/repro/models/walk.py",
        old="nxt = nxt + (restart + spread) * prior",
        new="nxt = nxt + restart * prior + spread / n",
        gate=f"{FOLDS}::test_walk_compute_matches_naive",
        reason="dangling mass goes to the uniform vector, not the prior: "
        "PageRank's prior is uniform, so only EigenTrust with a "
        "pre-trusted set sees it",
    ),
    Mutant(
        file="src/repro/models/base.py",
        old="start = kept[1] if kept is not None and kept[0] is store else 0",
        new="start = kept[1] if kept is not None else 0",
        gate=f"{FOLDS}::test_fold_interleaving",
        reason="readers keyed by row count only: after another store is "
        "swapped in, every kernel fold and scalar replay goes on from "
        "the old store's position and state",
    ),
    Mutant(
        file="src/repro/models/beta.py",
        old="kept = (self._alpha, self._count) if start else (_EMPTY, _EMPTY)",
        new="kept = (_EMPTY, _EMPTY)",
        gate=f"{FOLDS}::test_beta_fold_interleaving",
        reason="each fold starts from zero, so only the newest rows count; "
        "a cold kernel (one fold from row 0) cannot see it",
    ),
    Mutant(
        file="src/repro/models/beta.py",
        old="return (store, store.version, len(store.entities),",
        new="return (store, len(store.entities),",
        gate=f"{FOLDS}::test_beta_ranking_memo",
        reason="beta's scores token drops the store's length, so a write "
        "that names no new id leaves the kept ranking in place",
    ),
    Mutant(
        file="src/repro/models/base.py",
        old="key = (token, batch)",
        new="key = (token,)",
        gate=f"{FOLDS}::test_beta_ranking_memo",
        reason="the ranking memo's hit check drops the candidates, so a "
        "rank of another tuple between two writes gets the kept ranking",
    ),
    Mutant(
        file="src/repro/models/base.py",
        old="if kept is not None and kept[2] != key:",
        new="if False:",
        gate=f"{FOLDS}::test_maximilien_singh_fold_interleaving",
        reason="readers ignore their key: the fold goes on after now "
        "moved, so rows folded earlier keep their old decay weights; a "
        "cold kernel weighs every row at the current now",
    ),
    Mutant(
        file="src/repro/models/base.py",
        old="slots = np.searchsorted(universe, new)",
        new="slots = np.full(len(new), len(universe))",
        gate=f"{FOLDS}::test_wang_vassileva_fold_interleaving",
        reason="new pairs are appended at the end of the pair universe, "
        "not inserted in key order: positions and pooling order go wrong "
        "once a fold meets a pair that sorts before a kept one",
    ),
    Mutant(
        file="src/repro/models/peertrust.py",
        old="inside = codes[2] >= per_target[codes[0]] - self.window",
        new="inside = codes[2] >= 0",
        gate=f"{FOLDS}::test_peertrust_fold_interleaving",
        reason="the window fold keeps every row of a target, not its last "
        "window; a cold fold keeps them all too, so only the base score() "
        "loop (with more than window rows per target) sees it",
    ),
    Mutant(
        file="src/repro/p2p/referral.py",
        old="by_id = sorted(agent.neighbors)",
        new="by_id = list(agent.neighbors)",
        gate=f"{REFERRAL}::test_query_matches_reference_expansion",
        reason="the referral ranking loses its id tie-break: neighbours of "
        "equal weight keep the set's hash-salted order, not id order",
    ),
    Mutant(
        file="src/repro/p2p/referral.py",
        old="self._ranked.pop(origin, None)",
        new="pass",
        gate=f"{REFERRAL}::test_query_matches_reference_expansion",
        reason="a memoised ranking outlives a reinforce that moved a "
        "neighbour's weight, so the query refers in the old order",
    ),
    Mutant(
        file="src/repro/p2p/referral.py",
        old="self._ranked.pop(other, None)",
        new="pass",
        gate=f"{REFERRAL}::test_join_drops_the_ranking_of_a_neighbour_it_"
        "reweighs",
        reason="a join that resets a neighbour's weight to 0.5 without "
        "changing the neighbour set keeps the memoised ranking",
    ),
    Mutant(
        file="src/repro/p2p/referral.py",
        old="if last and neighbor_id not in witnesses:",
        new="if last:",
        gate=f"{REFERRAL}::test_query_matches_reference_expansion",
        reason="no referral at the depth limit is queued, witnesses "
        "included, so their answers go missing",
    ),
    Mutant(
        file="src/repro/models/yu_singh.py",
        old="if hit is not None and hit[0] == len(entries):",
        new="if hit is not None:",
        gate=f"{FOLDS}::test_yu_singh_mass_memo",
        reason="a local mass is memoised past new rows in its history, "
        "so later ratings never reach it; a fresh replay sees them",
    ),
    Mutant(
        file="src/repro/models/epinions.py",
        old="weights: Dict[EntityId, float] = {}",
        new='weights = self.__dict__.setdefault("_weight_memo", {})',
        gate=f"{FOLDS}::test_epinions_weight_memo",
        reason="reviewer weights memoised across calls: a trust or block "
        "edit (or another perspective) reads the weights of an earlier "
        "call",
    ),
    Mutant(
        file="src/repro/models/base.py",
        old="scored.sort(key=_TARGET)",
        new="pass",
        gate="tests/test_models/test_base.py::TestRankOrder::"
        "test_rank_equals_sort_by_negated_score_then_id",
        reason="rank drops the id tie-break: equal scores keep candidate "
        "order, which follows the registry, not the ids",
    ),
    Mutant(
        file="src/repro/models/base.py",
        old="self._reset_replay()",
        new="pass",
        gate=f"{FOLDS}::test_fold_interleaving",
        reason="a restarted scalar replay keeps the state it replayed "
        "before: after a store swap, score() adds the new store's rows "
        "on top of the old one's, while the kernel restarts clean",
    ),
    Mutant(
        file="src/repro/models/subjective_logic.py",
        old="if old is not None:  # a re-rate: take back the old comparison",
        new="if False:  # a re-rate keeps the old comparison",
        gate=f"{FOLDS}::test_subjective_logic_kept_agreement",
        reason="a re-rate adds its comparison with every co-rater but never "
        "takes back the replaced rating's, so kept agreement counts drift "
        "above the recount over common targets",
    ),
    Mutant(
        file="src/repro/models/yu_singh.py",
        old="if feedback.target not in targets:",
        new="if not targets:",
        gate=f"{FOLDS}::test_yu_singh_witness_index",
        reason="the witness index learns a rater only on its first target: "
        "testimony about any later target of that rater goes missing",
    ),
    Mutant(
        file="src/repro/obs/metrics.py",
        old="if type(value) is not str:",
        new="if False:",
        gate="tests/test_obs/test_fast_paths.py::TestMetricFastPaths::"
        "test_int_and_str_labels_share_one_series",
        reason="the label fast path keeps any tuple as its key: labels "
        "(3,) and ('3',) become two series, where str() makes them one",
    ),
    Mutant(
        file="src/repro/obs/metrics.py",
        old="and metric.label_names == labels",
        new="and True",
        gate="tests/test_obs/test_metrics.py::TestRegistry::"
        "test_label_conflict_rejected",
        reason="the registry fast path ignores the label names, so a "
        "re-registration with other labels returns the old metric "
        "instead of raising",
    ),
    Mutant(
        file="src/repro/serve/ingest.py",
        old="self._frac + elapsed, self.ticks_per_token",
        new="elapsed, self.ticks_per_token",
        gate="tests/test_serve/test_ingest.py::TestTokenBucket::"
        "test_exact_refill_with_remainder_carry",
        reason="the token bucket drops its carried remainder: two half "
        "gaps never add up to a token, so a tenant is throttled early",
    ),
    Mutant(
        file="src/repro/obs/recorder.py",
        old="self._handles[cls.kind, name, label_names] = metric",
        new="self._handles[cls.kind, name, ()] = metric",
        gate="tests/test_obs/test_fast_paths.py::TestRecorderHandles::"
        "test_conflicts_on_a_cached_name_raise_as_before",
        reason="the recorder's handle key loses its label names: a metric "
        "cached under one label-name tuple answers a call with none, "
        "which then fails the label count instead of the registration",
    ),
    Mutant(
        file="src/repro/serve/ingest.py",
        old="IngestRecord(tick, batch, ADMITTED, wait, exec_tick, arrival)",
        new="IngestRecord(tick, batch, ADMITTED, exec_tick, wait, arrival)",
        gate="tests/test_serve/test_pinned_hashes.py::"
        "test_steady_load_matches_committed_hashes",
        reason="the positional IngestRecord swaps wait_ticks and "
        "exec_tick: every admitted request waits past its TTL and "
        "expires, which moves the pinned log and response hashes",
    ),
    Mutant(
        file="src/repro/serve/ingest.py",
        old="self.backlog_ticks = max(0, self.backlog_ticks - elapsed)",
        new="self.backlog_ticks = max(0, self.backlog_ticks - elapsed + 1)",
        gate="tests/test_serve/test_ingest.py::TestFluidQueue::"
        "test_backlog_drains_with_ticks",
        reason="the fluid queue drains one tick short per offer, so every "
        "granted wait after a drain is one tick long",
    ),
    Mutant(
        file="src/repro/serve/replay.py",
        old="if derived != record:",
        new="if False:",
        gate="tests/test_serve/test_service.py::TestReplayDivergence::"
        "test_tampered_log_raises",
        reason="replay stops comparing re-derived admissions with the "
        "recorded ones, so a tampered log replays without a "
        "ReplayDivergenceError",
    ),
    Mutant(
        file="src/repro/services/consumer.py",
        old="return TruthTable.taste_key(self.weights, self.segment)",
        new="return TruthTable.taste_key(self.weights, 0)",
        gate="tests/test_services/test_provider.py::TestTruthTable::"
        "test_profile_taste_keys_pick_their_own_rows",
        reason="the kept taste key drops the segment: consumers with equal "
        "weights in different segments share one truth row, so the "
        "optimum and regret of all but the first segment are wrong",
    ),
    Mutant(
        file="src/repro/store/store.py",
        old="for array in (self.order, self.codes, self.starts, self.ends):",
        new="for array in (self.codes, self.starts, self.ends):",
        gate="tests/test_store/test_readonly_views.py::"
        "test_every_store_view_is_read_only",
        reason="a group index's order stays writable, and so does every "
        "rows() slice of it: one reader's write reorders the cached "
        "index under every other reader",
    ),
    Mutant(
        file="src/repro/store/store.py",
        old="grown[:n] = column[:n]",
        new="grown[:n - 1] = column[:n - 1]",
        gate="tests/test_store/test_event_store.py::TestGrowth::"
        "test_views_taken_before_a_growth_keep_their_rows",
        reason="growth copies one row short: the last row kept before a "
        "growth reads as zeros in the grown columns, while views taken "
        "before the growth still show it",
    ),
    Mutant(
        file="src/repro/models/sporas.py",
        old="if len(targets) == 1:",
        new="if len(targets) >= 1:",
        gate=f"{FOLDS}::test_sporas_models_sharing_a_store",
        reason="the one-row step takes every delta, so a fold over several "
        "rows applies only the first",
    ),
    Mutant(
        file="src/repro/models/maximilien_singh.py",
        old="if hit is not None and hit[0] is claims:",
        new="if hit is not None:",
        gate=f"{FOLDS}::test_maximilien_singh_fold_interleaving",
        reason="a kept score outlives a replaced advertisement: a claim "
        "filed after the service's last row never reaches its score",
    ),
    Mutant(
        file="src/repro/models/maximilien_singh.py",
        old="arrays.scores.pop(code, None)",
        new="pass",
        gate=f"{FOLDS}::test_maximilien_singh_kept_scores",
        reason="a fold keeps the scores of the services its rows touch, so "
        "new ratings reach a score only at the next moved now",
    ),
    Mutant(
        file="src/repro/models/peertrust.py",
        old="ref_vals[own] = np.nan",
        new="pass",
        gate=f"{FOLDS}::test_peertrust_fold_interleaving",
        reason="the evaluator's slice of the pair keys is not blanked, so "
        "it compares its vector with itself and trusts its own reports "
        "fully",
    ),
    Mutant(
        file="src/repro/models/peertrust.py",
        old="if self._codes_key[0] is not pairs or self._codes_key[1] != size:",
        new="if self._codes_key[1] != size:",
        gate=f"{FOLDS}::test_peertrust_fold_interleaving",
        reason="the pair codes are kept across a new pair, so the raters, "
        "subjects and counts no longer line up with the pair sums",
    ),
    Mutant(
        file="src/repro/models/wang_vassileva.py",
        old="rater_weight[persp] = 0.0",
        new="pass",
        gate=f"{FOLDS}::test_wang_vassileva_fold_interleaving",
        reason="the evaluator's own pairs join the pool at weight 0.5 "
        "instead of adding +0.0",
    ),
    Mutant(
        file="src/repro/models/wang_vassileva.py",
        old="trust[at] = (sat[at, 0] + 1.0) / (tot[at, 0] + 2.0)",
        new="trust[at[:1]] = (sat[at[:1], 0] + 1.0) / (tot[at[:1], 0] + 2.0)",
        gate=f"{FOLDS}::test_wang_vassileva_fold_interleaving",
        reason="a fold refreshes the posterior of its first touched pair "
        "only, so a delta over several pairs leaves the rest stale",
    ),
    Mutant(
        file="src/repro/models/collaborative.py",
        old="self._means.pop(feedback.target, None)",
        new="pass",
        gate=f"{FOLDS}::test_collaborative_filtering_memo",
        reason="a kept item mean outlives a new or replaced rating of its "
        "item",
    ),
    Mutant(
        file="src/repro/models/collaborative.py",
        old="self._raters.setdefault(feedback.target, {})[feedback.rater] = "
        "None",
        new="pass",
        gate=f"{FOLDS}::test_collaborative_filtering_memo",
        reason="the item -> raters index stays empty, so every batch "
        "prediction falls back to the item mean",
    ),
    Mutant(
        file="src/repro/models/xrep.py",
        old="return (positive + 1.0) / (positive + negative + 2.0)",
        new='return __import__("math").nextafter(\n'
        "            (positive + 1.0) / (positive + negative + 2.0), 2.0)",
        gate="tests/test_zoo_pin.py::test_zoo_outcomes_match_committed_digests",
        reason="XRep's resource reputation moves up by one ulp: xrep has "
        "no batch kernel, so no parity test compares it, and only the "
        "pinned outcome bytes see it",
    ),
    Mutant(
        file="src/repro/serve/ingest.py",
        old="tick = max(arrival.client_tick, self.last_tick + 1)",
        new=CLOCK_HELPER.format(name="_skew")
        + "        tick = max(arrival.client_tick, self.last_tick + 1) + _skew()",
        gate=AMBIENT,
        reason="the ingest tick takes a wall-clock bit through a helper, "
        "so every IngestRecord after it moves with the clock; no static "
        "rule sees a clock read behind a call",
    ),
    Mutant(
        file="src/repro/experiments/sharded.py",
        old="self.store.extend_coded(names, raters, services, ratings, ticks)",
        new=CLOCK_HELPER.format(name="_stamp")
        + "        self.store.extend_coded(names, raters, services, ratings, "
        "ticks + _stamp())",
        gate=AMBIENT,
        reason="the coded append's time column takes a wall-clock bit "
        "through a helper: every shard count shifts alike, so only two "
        "runs under different clocks see it",
    ),
    Mutant(
        file="src/repro/experiments/sharded.py",
        old="names.extend(delta.raters)",
        new="names.extend(set(delta.raters))",
        gate=AMBIENT,
        reason="rater names gathered in set order, so which name each "
        "appended row's rater code decodes to depends on the hash seed",
    ),
    Mutant(
        file="src/repro/serve/core.py",
        old='if record.admitted:\n            rec.observe(\n'
        '                "serve.queue_wait",\n',
        new=CLOCK_HELPER.format(name="_lag")
        + '        if record.admitted:\n            rec.observe(\n'
        '                "serve.queue_wait",\n                _lag() +\n',
        gate=AMBIENT,
        reason="the traced queue-wait histogram observes a wall-clock bit "
        "through a helper, so the serve telemetry snapshot moves with "
        "the clock while every ranking stays put",
    ),
    Mutant(
        file="src/repro/experiments/sharded.py",
        old="now=self.spec.epoch_start(epoch)",
        new="now=self.spec.epoch_start(epoch + 1)",
        gate="tests/test_experiments/test_shard_ingest.py::"
        "test_epoch_scores_are_taken_at_the_epoch_start",
        reason="each epoch's score table is taken at the next epoch's "
        "start: the default beta ignores now, so only a now-aware "
        "model's epoch scores see it",
    ),
]


def _pytest(src: Path, gate: str) -> Tuple[int, bool]:
    """Run *gate* against *src*: pytest's exit code, and whether any
    test in the gate skipped (``-rs`` lists each skip as ``SKIPPED``)."""
    env = dict(os.environ, PYTHONPATH=f"{src}{os.pathsep}{ROOT}")
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-rs",
               "-p", "no:cacheprovider", gate]
    done = subprocess.run(command, cwd=ROOT, env=env, capture_output=True)
    return done.returncode, b"SKIPPED" in done.stdout


def run(indices: Sequence[int]) -> int:
    killed = 0
    errors = 0
    baseline: Dict[str, Tuple[int, bool]] = {}
    with tempfile.TemporaryDirectory(prefix="mutation-") as tmp:
        clean = Path(tmp) / "clean" / "src"
        shutil.copytree(ROOT / "src", clean)
        for index in indices:
            mutant = MUTANTS[index]
            if mutant.gate not in baseline:
                baseline[mutant.gate] = _pytest(clean, mutant.gate)
            code, skipped = baseline[mutant.gate]
            if code != 0:
                print(f"[{index}] ERROR: gate fails unmutated: {mutant.gate}")
                errors += 1
                continue
            # a gate that skips here (the zoo pin on a Python version
            # with no digest set) checks nothing: neither kill nor survivor
            if skipped:
                print(f"[{index}] ERROR: gate skips unmutated: {mutant.gate}")
                errors += 1
                continue
            work = Path(tmp) / f"mutant-{index}" / "src"
            shutil.copytree(ROOT / "src", work)
            path = work.parent / mutant.file
            text = path.read_text(encoding="utf-8")
            if text.count(mutant.old) != 1:
                print(f"[{index}] ERROR: snippet not unique in {mutant.file}")
                errors += 1
                continue
            path.write_text(text.replace(mutant.old, mutant.new),
                            encoding="utf-8")
            # exit code 1 is "tests failed"; anything else (collection
            # or usage errors) does not count as a kill
            code, _ = _pytest(work, mutant.gate)
            status = "killed" if code == 1 else f"SURVIVED (exit {code})"
            killed += code == 1
            print(f"[{index}] {status}: {mutant.file}: {mutant.reason}")
    print(f"killed {killed}/{len(indices)}")
    return 0 if killed == len(indices) and not errors else 1


if __name__ == "__main__":
    chosen = [int(a) for a in sys.argv[1:]] or list(range(len(MUTANTS)))
    sys.exit(run(chosen))
