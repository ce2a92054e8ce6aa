"""Tests for EigenTrust (central and distributed variants)."""

import math

import pytest

from repro.common.errors import ConfigurationError
from repro.models.eigentrust import DistributedEigenTrust, EigenTrustModel
from repro.p2p.dht import ChordDHT

from tests.conftest import feedback


def honest_community(model, peers=("a", "b", "c", "d"), rounds=5):
    """Everyone satisfies everyone."""
    t = 0.0
    for _ in range(rounds):
        for i in peers:
            for j in peers:
                if i != j:
                    model.record(feedback(rater=i, target=j, rating=0.9,
                                          time=t))
                    t += 1.0


class TestEigenTrust:
    def test_trust_sums_to_one(self):
        model = EigenTrustModel(pre_trusted=["a"])
        honest_community(model)
        trust = model.compute()
        assert math.isclose(sum(trust.values()), 1.0, rel_tol=1e-6)

    def test_uniform_community_near_uniform_trust(self):
        model = EigenTrustModel(pre_trusted=["a"], alpha=0.1)
        honest_community(model)
        trust = model.compute()
        values = [trust[p] for p in "abcd"]
        assert max(values) - min(values) < 0.2

    def test_malicious_peer_gets_low_trust(self):
        model = EigenTrustModel(pre_trusted=["a"], alpha=0.2)
        honest_community(model)
        # Everyone is dissatisfied with "mal".
        for i in "abcd":
            for t in range(5):
                model.record(feedback(rater=i, target="mal", rating=0.1,
                                      time=float(t)))
        trust = model.compute()
        assert trust["mal"] < min(trust[p] for p in "abcd")

    def test_collusion_ring_suppressed_by_pretrusted(self):
        # Ring members rate only each other highly; honest peers rate
        # each other and never the ring.  With a pre-trusted prior the
        # disconnected ring receives no mass; with a uniform prior (no
        # pre-trusted peers) it keeps amplifying itself.
        def build(pre_trusted, alpha):
            model = EigenTrustModel(pre_trusted=pre_trusted, alpha=alpha)
            honest_community(model)
            for t in range(20):
                model.record(feedback(rater="ring1", target="ring2",
                                      rating=1.0, time=float(t)))
                model.record(feedback(rater="ring2", target="ring1",
                                      rating=1.0, time=float(t)))
            return model.compute()

        robust = build(pre_trusted=["a", "b"], alpha=0.3)
        fragile = build(pre_trusted=[], alpha=0.1)
        ring_share_robust = robust["ring1"] + robust["ring2"]
        ring_share_fragile = fragile["ring1"] + fragile["ring2"]
        assert ring_share_robust < ring_share_fragile
        assert ring_share_robust < 0.05

    def test_local_trust_normalized(self):
        model = EigenTrustModel()
        model.record(feedback(rater="a", target="b", rating=0.9))
        model.record(feedback(rater="a", target="c", rating=0.9))
        row_sum = model.local_trust("a", "b") + model.local_trust("a", "c")
        assert row_sum == pytest.approx(1.0)

    def test_unsatisfactory_clipped_to_zero(self):
        model = EigenTrustModel()
        model.record(feedback(rater="a", target="b", rating=0.1))
        model.record(feedback(rater="a", target="c", rating=0.9))
        assert model.local_trust("a", "b") == 0.0
        assert model.local_trust("a", "c") == 1.0

    def test_score_normalized_to_top(self):
        model = EigenTrustModel(pre_trusted=["a"])
        honest_community(model)
        scores = [model.score(p) for p in "abcd"]
        assert max(scores) == 1.0

    def test_empty_model(self):
        assert EigenTrustModel().score("x") == 0.5

    def test_dense_matches_sparse_compute(self):
        model = EigenTrustModel(pre_trusted=["a"], alpha=0.15)
        honest_community(model)
        for t in range(5):
            model.record(feedback(rater="a", target="mal", rating=0.1,
                                  time=float(t)))
        sparse = model.compute_naive()
        dense = model.compute()
        for peer, value in sparse.items():
            assert dense[peer] == pytest.approx(value, abs=1e-8)

    def test_dense_empty_model(self):
        assert EigenTrustModel().compute() == {}

    def test_dense_scales_to_hundreds_of_peers(self):
        import numpy as np

        rng = np.random.default_rng(0)
        model = EigenTrustModel(pre_trusted=["p000"], alpha=0.1)
        peers = [f"p{i:03d}" for i in range(200)]
        for i, rater in enumerate(peers):
            for _ in range(5):
                target = peers[int(rng.integers(0, 200))]
                if target == rater:
                    continue
                model.record(feedback(
                    rater=rater, target=target,
                    rating=float(rng.uniform(0.4, 1.0)), time=float(i),
                ))
        trust = model.compute()
        assert len(trust) == 200
        assert abs(sum(trust.values()) - 1.0) < 1e-6

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            EigenTrustModel(alpha=1.5)


class TestDistributedEigenTrust:
    def test_matches_centralized_fixed_point(self):
        central = EigenTrustModel(pre_trusted=["a"], alpha=0.15)
        honest_community(central)
        for t in range(5):
            central.record(feedback(rater="a", target="mal", rating=0.1,
                                    time=float(t)))
        expected = central.compute()

        dht = ChordDHT(["a", "b", "c", "d", "mal"], bits=16)
        distributed = DistributedEigenTrust(central, dht)
        result = distributed.run(rounds=50)
        for peer, value in expected.items():
            assert result[peer] == pytest.approx(value, abs=0.02)

    def test_messages_are_counted(self):
        model = EigenTrustModel(pre_trusted=["a"])
        honest_community(model)
        dht = ChordDHT(["a", "b", "c", "d"], bits=16)
        distributed = DistributedEigenTrust(model, dht)
        distributed.run(rounds=3)
        assert distributed.messages_used > 0
        assert distributed.rounds_run == 3

    def test_redundant_managers_same_fixed_point(self):
        model = EigenTrustModel(pre_trusted=["a"], alpha=0.15)
        honest_community(model)
        dht = ChordDHT(["a", "b", "c", "d"], bits=16)
        single = DistributedEigenTrust(model, dht).run(rounds=30)
        dht2 = ChordDHT(["a", "b", "c", "d"], bits=16)
        triple = DistributedEigenTrust(model, dht2, n_managers=3).run(
            rounds=30
        )
        for peer in single:
            assert triple[peer] == pytest.approx(single[peer], abs=0.01)

    def test_query_trust_median_defeats_one_lying_manager(self):
        model = EigenTrustModel(pre_trusted=["a"], alpha=0.15)
        honest_community(model)
        peers = ["a", "b", "c", "d"]
        dht = ChordDHT(peers, bits=16)
        distributed = DistributedEigenTrust(model, dht, n_managers=3)
        trust = distributed.run(rounds=20)
        honest_answer = distributed.query_trust("a", "b")
        assert honest_answer == pytest.approx(trust["b"], abs=1e-6)
        # Compromise ONE of b's three managers: it claims b is god.
        key = distributed.manager_keys("b")[0]
        owner = dht.responsible_node(key)
        dht.node(owner).store[key] = [999.0]
        tampered_answer = distributed.query_trust("a", "b")
        assert tampered_answer == pytest.approx(trust["b"], abs=1e-6)

    def test_single_manager_is_vulnerable(self):
        model = EigenTrustModel(pre_trusted=["a"], alpha=0.15)
        honest_community(model)
        peers = ["a", "b", "c", "d"]
        dht = ChordDHT(peers, bits=16)
        distributed = DistributedEigenTrust(model, dht, n_managers=1)
        trust = distributed.run(rounds=20)
        key = distributed.manager_keys("b")[0]
        owner = dht.responsible_node(key)
        dht.node(owner).store[key] = [999.0]
        assert distributed.query_trust("a", "b") == 999.0

    def test_rerun_is_idempotent(self):
        # A second run must not be polluted by the first run's
        # published final values sitting in the manager mailboxes.
        model = EigenTrustModel(pre_trusted=["a"], alpha=0.15)
        honest_community(model)
        dht = ChordDHT(["a", "b", "c", "d"], bits=16)
        distributed = DistributedEigenTrust(model, dht)
        first = distributed.run(rounds=25)
        second = distributed.run(rounds=25)
        for peer in first:
            assert second[peer] == pytest.approx(first[peer], abs=1e-9)

    def test_n_managers_validated(self):
        model = EigenTrustModel()
        dht = ChordDHT(["a"], bits=16)
        with pytest.raises(Exception):
            DistributedEigenTrust(model, dht, n_managers=0)


class TestIncrementalCache:
    """The dirty-flag cache must be invisible except in speed."""

    def test_dense_matches_scalar_reference_interleaved(self):
        model = EigenTrustModel(pre_trusted=["a"], alpha=0.15)
        peers = ["a", "b", "c", "d", "e"]
        for i in range(120):
            model.record(feedback(rater=peers[i % 5],
                                  target=peers[(i + 1 + i // 7) % 5],
                                  rating=(i % 10) / 10.0, time=float(i)))
            if i % 11 == 0:
                # Interleave queries so the warm-start path is exercised.
                model.score(peers[i % 5])
        dense = model.compute()
        scalar = model.compute_naive()
        for peer in peers:
            assert dense[peer] == pytest.approx(scalar[peer], abs=1e-9)

    def test_warm_start_survives_peer_growth(self):
        model = EigenTrustModel(pre_trusted=["a"], alpha=0.15)
        honest_community(model)
        model.score("b")  # warm the stationary vector
        # New peers join: the index map must rebuild and the warm
        # vector remap without changing any answer.
        model.record(feedback(rater="e", target="f", rating=0.9, time=500.0))
        model.record(feedback(rater="f", target="a", rating=0.9, time=501.0))
        replay = EigenTrustModel(pre_trusted=["a"], alpha=0.15)
        honest_community(replay)
        replay.record(feedback(rater="e", target="f", rating=0.9, time=500.0))
        replay.record(feedback(rater="f", target="a", rating=0.9, time=501.0))
        for peer in ["a", "b", "c", "d", "e", "f"]:
            assert model.score(peer) == pytest.approx(
                replay.score(peer), abs=1e-9
            )

    def test_queries_reuse_cached_vector(self):
        model = EigenTrustModel(pre_trusted=["a"])
        honest_community(model)
        calls = {"n": 0}
        original = model.compute

        def counting():
            calls["n"] += 1
            return original()

        model.compute = counting
        model.score("a")
        model.score("b")
        model.score_many(["a", "b", "c", "never-seen"])
        assert calls["n"] == 1  # one convergence serves every query
        model.record(feedback(rater="a", target="b", rating=0.9, time=999.0))
        model.score("a")
        assert calls["n"] == 2  # feedback dirties the cache exactly once

    def test_alpha_zero_stays_correct(self):
        # alpha=0 has no unique fixed point, so the warm start must be
        # disabled there rather than silently reusing the old vector.
        model = EigenTrustModel(alpha=0.0)
        honest_community(model)
        model.score("a")
        model.record(feedback(rater="b", target="c", rating=0.95, time=600.0))
        replay = EigenTrustModel(alpha=0.0)
        honest_community(replay)
        replay.record(feedback(rater="b", target="c", rating=0.95, time=600.0))
        for peer in ["a", "b", "c", "d"]:
            assert model.score(peer) == pytest.approx(
                replay.score(peer), abs=1e-9
            )
