"""Tests for referral networks."""

import random

import pytest

from repro.common.errors import ConfigurationError
from repro.common.records import Feedback
from repro.p2p.referral import ReferralNetwork


def fb(rater, target="svc", rating=0.9):
    return Feedback(rater=rater, target=target, time=0.0, rating=rating)


def build(n=20, degree=4, branching=3, seed=0):
    net = ReferralNetwork(degree=degree, branching=branching, rng=seed)
    for i in range(n):
        net.join(f"agent-{i:02d}")
    return net


class TestMembership:
    def test_join_wires_mutual_links(self):
        net = build(10)
        for agent in net.agents():
            for neighbor in agent.neighbors:
                assert agent.peer_id in net.agent(neighbor).neighbors

    def test_duplicate_join_rejected(self):
        net = build(3)
        with pytest.raises(ConfigurationError):
            net.join("agent-00")


class TestQuery:
    def test_finds_witness_with_experience(self):
        net = build(20, degree=4, branching=4, seed=1)
        net.record_experience("agent-10", fb("agent-10"))
        responses, messages = net.query("agent-00", "svc", depth_limit=6)
        witnesses = {r.witness for r in responses}
        assert "agent-10" in witnesses
        assert messages > 0

    def test_chain_length_recorded(self):
        net = build(20, degree=4, branching=4, seed=1)
        net.record_experience("agent-10", fb("agent-10"))
        responses, _ = net.query("agent-00", "svc", depth_limit=6)
        for r in responses:
            assert r.chain[0] == "agent-00"
            assert r.chain[-1] == r.witness
            assert r.chain_length == len(r.chain) - 1

    def test_depth_limit_bounds_search(self):
        net = build(30, degree=2, branching=1, seed=2)
        net.record_experience("agent-29", fb("agent-29"))
        responses, _ = net.query("agent-00", "svc", depth_limit=1)
        # With branching 1 and depth 1 at most one neighbour is asked.
        assert len(responses) <= 1

    def test_witnesses_answer_instead_of_referring(self):
        net = build(10, degree=9, branching=9, seed=0)
        # Everyone is everyone's neighbour (degree 9 over 10 agents).
        net.record_experience("agent-05", fb("agent-05"))
        responses, _ = net.query("agent-00", "svc", depth_limit=3)
        assert {r.witness for r in responses} == {"agent-05"}

    def test_offline_agents_silent(self):
        net = build(10, degree=9, branching=9, seed=0)
        net.record_experience("agent-05", fb("agent-05"))
        net.agent("agent-05").online = False
        responses, _ = net.query("agent-00", "svc", depth_limit=3)
        assert responses == []


class TestAdaptation:
    def test_reinforce_moves_weight(self):
        net = build(10, seed=0)
        before = net.weight("agent-00", "agent-05")
        net.reinforce("agent-00", "agent-05", useful=True)
        assert net.weight("agent-00", "agent-05") > before
        net.reinforce("agent-00", "agent-05", useful=False)
        net.reinforce("agent-00", "agent-05", useful=False)
        assert net.weight("agent-00", "agent-05") < 0.7

    def test_useful_witness_promoted_to_neighbor(self):
        net = build(10, degree=2, seed=3)
        agent = net.agent("agent-00")
        outsider = next(
            a.peer_id for a in net.agents()
            if a.peer_id not in agent.neighbors and a.peer_id != "agent-00"
        )
        for _ in range(10):
            net.reinforce("agent-00", outsider, useful=True)
        assert outsider in agent.neighbors

    def test_witness_that_never_joined_is_not_promoted(self):
        """A useful witness that is not an agent has its weight learned
        but stays out of the neighbour set, so a query deep enough to
        visit the set's members finds only agents."""
        net = ReferralNetwork(degree=4, branching=2, rng=0)
        for name in ("a0", "a1", "a2"):
            net.join(name)
        net.record_experience("a2", fb("a2"))
        for _ in range(3):
            net.reinforce("a0", "x", useful=True)
        got, messages = net.query("a0", "svc", depth_limit=2)
        want = _reference_query(net, "a0", "svc", 2)
        assert messages == want[1]
        assert [(r.witness, r.opinions, r.chain) for r in got] == want[0]
        assert net.weight("a0", "x") > 0.7
        assert "x" not in net.agent("a0").neighbors

    def test_invalid_rate(self):
        net = build(3)
        with pytest.raises(ConfigurationError):
            net.reinforce("agent-00", "agent-01", True, rate=0.0)


def _reference_query(net, origin, target, depth_limit=3):
    """The query with no memo and no witness index: every visited agent
    re-ranks its neighbours by ``(-weight, id)`` and is asked through
    its store, and every referral is queued."""
    responses, messages = [], 0
    visited = {origin}
    frontier = [(origin, (origin,))]
    depth = 0
    while frontier and depth <= depth_limit:
        next_frontier = []
        for agent_id, chain in frontier:
            agent = net.agent(agent_id)
            if not agent.online:
                continue
            if agent_id != origin and agent.store.count_for(target):
                messages += 1
                responses.append(
                    (agent_id, agent.store.for_target(target), chain)
                )
                continue
            if depth == depth_limit:
                continue
            weights = net._weights.get(agent_id, {})
            ranked = sorted(
                agent.neighbor_list(), key=lambda n: (-weights.get(n, 0.5), n)
            )
            referred = 0
            for neighbor_id in ranked:
                if neighbor_id in visited:
                    continue
                if referred >= net.branching:
                    break
                visited.add(neighbor_id)
                referred += 1
                messages += 1
                next_frontier.append((neighbor_id, chain + (neighbor_id,)))
        frontier = next_frontier
        depth += 1
    return responses, messages


class TestQueryMemo:
    """The memoised neighbour rankings and the witness index answer
    every query as the plain expansion does, through joins, records,
    reinforcement (neighbour weights moving, promotions), neighbour
    edits made on a peer directly, churn, and weight ties."""

    def test_query_matches_reference_expansion(self, global_random_seed):
        rng = random.Random(global_random_seed)
        net = ReferralNetwork(
            degree=3, branching=2, rng=global_random_seed
        )
        targets = ["svc-a", "svc-b", "svc-c"]
        for step in range(160):
            agents = [a.peer_id for a in net.agents()]
            kind = rng.random()
            if not agents or kind < 0.1:
                net.join(f"agent-{len(agents):02d}")
            elif kind < 0.35:
                rater = rng.choice(agents)
                net.record_experience(
                    rater, fb(rater, rng.choice(targets), rng.random())
                )
            elif kind < 0.7:
                net.reinforce(
                    rng.choice(agents), rng.choice(agents),
                    useful=rng.random() < 0.6,
                )
            elif kind < 0.75:
                peer = net.agent(rng.choice(agents))
                other = rng.choice(agents)
                if other in peer.neighbors:
                    peer.remove_neighbor(other)
                else:
                    peer.add_neighbor(other)
            elif kind < 0.8:
                peer = net.agent(rng.choice(agents))
                peer.online = not peer.online
            for origin in rng.sample(agents, min(3, len(agents))):
                for target in targets:
                    got, messages = net.query(origin, target, depth_limit=3)
                    want = _reference_query(net, origin, target, 3)
                    assert messages == want[1], (step, origin, target)
                    assert [
                        (r.witness, r.opinions, r.chain) for r in got
                    ] == want[0], (step, origin, target)

    def test_join_drops_the_ranking_of_a_neighbour_it_reweighs(self):
        """An agent put in a neighbour set on the peer before it joined
        keeps the set as it was when it joins, but its weight drops back
        to 0.5: the ranking must be redone."""
        net = ReferralNetwork(degree=4, branching=1, rng=0)
        for name in ("a0", "a1", "a2"):
            net.join(name)
        # the set a promotion of x would leave: a2 and x
        net.agent("a0").remove_neighbor("a1")
        net.agent("a0").add_neighbor("x")
        for _ in range(3):
            net.reinforce("a0", "x", useful=True)
        # memoises a0's ranking, x first; x, at the depth limit and no
        # witness, is not visited
        net.query("a0", "svc", depth_limit=1)
        net.join("x")
        net.record_experience("a2", fb("a2"))
        got, messages = net.query("a0", "svc", depth_limit=1)
        want = _reference_query(net, "a0", "svc", 1)
        assert messages == want[1]
        assert [(r.witness, r.opinions, r.chain) for r in got] == want[0]
