"""Unit tests for the Edge Removal heuristic (Algorithm 4)."""

from itertools import combinations
from unittest import mock

import pytest

from repro.core.edge_removal import EdgeRemovalAnonymizer
from repro.core.opacity import OpacityComputer, max_lo
from repro.core.opacity_session import OpacitySession
from repro.core.pair_types import DegreePairTyping, ExplicitPairTyping
from repro.graph.generators import complete_graph, erdos_renyi_graph, star_graph
from repro.graph.graph import Graph


class TestBasicBehaviour:
    @pytest.mark.parametrize("theta", [0.9, 0.7, 0.5])
    def test_reaches_threshold_on_paper_example(self, paper_example_graph, theta):
        result = EdgeRemovalAnonymizer(length_threshold=1, theta=theta,
                                       seed=0).anonymize(paper_example_graph)
        assert result.success
        assert result.final_opacity <= theta

    def test_final_opacity_is_measured_against_original_degrees(self, paper_example_graph):
        typing = DegreePairTyping(paper_example_graph)
        result = EdgeRemovalAnonymizer(length_threshold=1, theta=0.6,
                                       seed=0).anonymize(paper_example_graph)
        recomputed = OpacityComputer(typing, 1).max_opacity(result.anonymized_graph)
        assert recomputed == pytest.approx(result.final_opacity)
        assert recomputed <= 0.6

    def test_only_removes_edges(self, paper_example_graph):
        result = EdgeRemovalAnonymizer(length_threshold=1, theta=0.5,
                                       seed=0).anonymize(paper_example_graph)
        assert not result.inserted_edges
        assert result.anonymized_graph.edge_set() <= paper_example_graph.edge_set()
        assert len(result.removed_edges) == result.anonymized_graph.num_edges * 0 + (
            paper_example_graph.num_edges - result.anonymized_graph.num_edges)

    def test_distortion_counts_removals_only(self, paper_example_graph):
        result = EdgeRemovalAnonymizer(length_threshold=1, theta=0.5,
                                       seed=0).anonymize(paper_example_graph)
        expected = len(result.removed_edges) / paper_example_graph.num_edges
        assert result.distortion == pytest.approx(expected)

    @pytest.mark.parametrize("length", [1, 2, 3])
    def test_multi_hop_threshold(self, length):
        graph = erdos_renyi_graph(25, 0.12, seed=3)
        result = EdgeRemovalAnonymizer(length_threshold=length, theta=0.6,
                                       seed=0).anonymize(graph)
        assert result.final_opacity <= 0.6
        typing = DegreePairTyping(graph)
        assert max_lo(result.anonymized_graph, typing, length) <= 0.6

    def test_theta_zero_on_star_removes_all_edges(self):
        # Every edge of a star is a (1, k) pair; the only way to get opacity 0
        # for L=1 is to delete all edges.
        graph = star_graph(4)
        result = EdgeRemovalAnonymizer(length_threshold=1, theta=0.0,
                                       seed=0).anonymize(graph)
        assert result.success
        assert result.anonymized_graph.num_edges == 0

    def test_steps_record_monotone_progress_information(self, paper_example_graph):
        result = EdgeRemovalAnonymizer(length_threshold=1, theta=0.5,
                                       seed=0).anonymize(paper_example_graph)
        assert result.num_steps == len(result.steps)
        assert all(step.operation == "remove" for step in result.steps)
        assert result.steps[-1].max_opacity_after == pytest.approx(result.final_opacity)

    def test_max_steps_cap_is_respected(self):
        graph = complete_graph(8)
        result = EdgeRemovalAnonymizer(length_threshold=1, theta=0.1, seed=0,
                                       max_steps=3).anonymize(graph)
        assert result.num_steps <= 3


class TestDeterminismAndSeeding:
    def test_same_seed_same_result(self):
        graph = erdos_renyi_graph(30, 0.15, seed=1)
        first = EdgeRemovalAnonymizer(length_threshold=1, theta=0.5, seed=7).anonymize(graph)
        second = EdgeRemovalAnonymizer(length_threshold=1, theta=0.5, seed=7).anonymize(graph)
        assert first.anonymized_graph == second.anonymized_graph
        assert first.removed_edges == second.removed_edges

    def test_different_seeds_may_differ_but_both_succeed(self):
        graph = erdos_renyi_graph(30, 0.15, seed=1)
        first = EdgeRemovalAnonymizer(length_threshold=1, theta=0.5, seed=1).anonymize(graph)
        second = EdgeRemovalAnonymizer(length_threshold=1, theta=0.5, seed=2).anonymize(graph)
        assert first.success and second.success


class TestCandidatePruning:
    @pytest.mark.parametrize("theta", [0.7, 0.5])
    def test_pruned_and_unpruned_reach_same_threshold(self, theta):
        graph = erdos_renyi_graph(25, 0.2, seed=2)
        pruned = EdgeRemovalAnonymizer(length_threshold=1, theta=theta, seed=0,
                                       prune_candidates=True).anonymize(graph)
        unpruned = EdgeRemovalAnonymizer(length_threshold=1, theta=theta, seed=0,
                                         prune_candidates=False).anonymize(graph)
        assert pruned.success and unpruned.success
        assert pruned.final_opacity <= theta
        assert unpruned.final_opacity <= theta

    def test_pruning_never_scans_more_candidates(self):
        graph = erdos_renyi_graph(25, 0.2, seed=2)
        pruned = EdgeRemovalAnonymizer(length_threshold=2, theta=0.7, seed=0,
                                       prune_candidates=True).anonymize(graph)
        unpruned = EdgeRemovalAnonymizer(length_threshold=2, theta=0.7, seed=0,
                                         prune_candidates=False).anonymize(graph)
        assert pruned.evaluations <= unpruned.evaluations

    @pytest.mark.parametrize("length", [1, 2, 3])
    def test_the_cut_off_is_read_from_the_counts(self, length):
        # One type over every pair, so its within-L count is every
        # within-L pair: above 5000 the pass scans every edge and never
        # lists the pairs; at or below it, it lists them.
        graph = erdos_renyi_graph(120, 0.75, seed=0)
        typing = ExplicitPairTyping(dict.fromkeys(
            combinations(range(graph.num_vertices), 2), "pair"))
        session = OpacitySession(OpacityComputer(typing, length), graph)
        assert session.type_counts()[0].sum() > 5000
        pruner = EdgeRemovalAnonymizer(length_threshold=length)
        forbidden = mock.Mock(side_effect=AssertionError("pair query"))
        with mock.patch.object(OpacitySession, "violating_pair_indices",
                               forbidden):
            assert pruner._removal_candidates(session) == graph.edge_list()
        small = erdos_renyi_graph(25, 0.2, seed=2)
        session = OpacitySession(OpacityComputer(DegreePairTyping(small),
                                                 length), small)
        query = mock.Mock(wraps=session.violating_pair_indices)
        with mock.patch.object(session, "violating_pair_indices", query):
            pruned = pruner._removal_candidates(session)
        assert query.call_count == 1
        assert set(pruned) <= small.edge_set()


class TestLookAhead:
    def test_lookahead_two_succeeds(self, paper_example_graph):
        result = EdgeRemovalAnonymizer(length_threshold=1, theta=0.5, seed=0,
                                       lookahead=2).anonymize(paper_example_graph)
        assert result.success

    def test_lookahead_never_hurts_distortion_on_small_graph(self):
        graph = erdos_renyi_graph(18, 0.25, seed=4)
        base = EdgeRemovalAnonymizer(length_threshold=1, theta=0.4, seed=0,
                                     lookahead=1).anonymize(graph)
        wide = EdgeRemovalAnonymizer(length_threshold=1, theta=0.4, seed=0,
                                     lookahead=2).anonymize(graph)
        assert wide.success
        assert base.success
        # Look-ahead explores a superset of the la=1 moves, so it should not
        # end up with a dramatically worse edit distance.
        assert wide.distortion <= base.distortion + 0.25


class TestEdgeCases:
    def test_graph_with_no_edges(self):
        graph = Graph(5)
        result = EdgeRemovalAnonymizer(length_threshold=2, theta=0.5, seed=0).anonymize(graph)
        assert result.success
        assert result.num_steps == 0

    def test_two_vertices_single_edge(self):
        graph = Graph(2, edges=[(0, 1)])
        result = EdgeRemovalAnonymizer(length_threshold=1, theta=0.5, seed=0).anonymize(graph)
        assert result.success
        assert result.anonymized_graph.num_edges == 0
