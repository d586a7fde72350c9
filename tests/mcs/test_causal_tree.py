"""Unit tests for tree-structured causal broadcast over relevant sets."""

import pytest

from repro.api import Session
from repro.core.share_graph import ShareGraph
from repro.workloads.distributions import (
    chain_distribution,
    disjoint_blocks,
    random_distribution,
)


class TestConsistency:
    @pytest.mark.parametrize("seed", range(4))
    def test_causally_consistent_on_random_distributions(self, seed):
        dist = random_distribution(5, 4, replicas_per_variable=2, seed=seed)
        session = Session("causal_tree", dist,
                          ("uniform", {"operations_per_process": 5}),
                          seed=seed, criteria=("causal",), exact=True)
        report = session.run()
        assert report.outcome() == "pass"
        assert report.result("causal").consistent is True

    def test_no_updates_left_pending_on_reliable_network(self):
        dist = random_distribution(6, 5, replicas_per_variable=3, seed=1)
        session = Session("causal_tree", dist,
                          ("uniform", {"operations_per_process": 5}), seed=1)
        report = session.run()
        assert report.outcome() == "pass"
        for pid in dist.processes:
            assert session.system.process(pid).pending_updates() == 0


class TestRelevanceConfinement:
    def test_messages_confined_to_relevant_processes(self):
        # disjoint blocks: relevant(x) == clique(x); the tree protocol must
        # not leak a single message outside it
        dist = disjoint_blocks(groups=2, group_size=3, variables_per_group=2)
        session = Session("causal_tree", dist,
                          ("uniform", {"operations_per_process": 6}), seed=3)
        report = session.run()
        assert report.outcome() == "pass"
        assert report.efficiency.irrelevant_messages == 0
        assert report.relevance_violations == 0

    def test_hoop_forwarding_stays_within_theorem1_bound(self):
        # on the Figure 2 chain the intermediates relay x-updates (they are
        # x-relevant by Theorem 1) but nothing reaches beyond the relevant set
        dist = chain_distribution(3)
        session = Session("causal_tree", dist,
                          ("uniform", {"operations_per_process": 5}), seed=0)
        report = session.run()
        assert report.outcome() == "pass"
        assert report.relevance_violations == 0

    def test_tree_spans_each_relevant_set(self):
        dist = chain_distribution(2)
        share = ShareGraph(dist)
        for var in dist.variables:
            tree = share.relevance_tree(var)
            relevant = share.relevant_processes(var)
            assert set(tree) == set(relevant)
            edges = sum(len(neighbours) for neighbours in tree.values())
            assert edges == 2 * (len(relevant) - 1), "a spanning tree"

    @pytest.mark.parametrize("dist", [chain_distribution(3),
                                      random_distribution(6, 5, replicas_per_variable=2, seed=2)],
                             ids=["chain", "random"])
    def test_relayed_variables_stay_within_theorem1_relevant_sets(self, dist):
        session = Session("causal_tree", dist,
                          ("uniform", {"operations_per_process": 8}), seed=2)
        assert session.run().outcome() == "pass"
        share = ShareGraph.of(dist)
        hoop_relayed = set()
        for pid, process in session.system.processes.items():
            relevant = {var for var in dist.variables if pid in share.relevant_processes(var)}
            relayed = process.relayed_variables()
            assert relayed <= relevant, pid
            hoop_relayed |= relayed - set(process.replicated_variables)
        assert hoop_relayed, "some process relays a variable it does not replicate"

    def test_guarantee_envelope_metadata(self):
        from repro.spec import PROTOCOL_REGISTRY

        metadata = PROTOCOL_REGISTRY.get("causal_tree").metadata
        assert metadata["criterion"] == "causal"
        assert metadata["replication"] == "partial"
        assert metadata["fault_tolerant"] is True
        assert metadata["order_tolerant"] is True
        assert metadata["blocking_reads"] is False
