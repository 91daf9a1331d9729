"""Unit tests for the Edge Removal/Insertion heuristic (Algorithm 5)."""

import dataclasses
import random
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.edge_removal_insertion import (
    EdgeRemovalInsertionAnonymizer,
    EligiblePairs,
)
from repro.core.opacity import OpacityComputer, max_lo
from repro.core.opacity_session import OpacitySession
from repro.core.pair_types import DegreePairTyping
from repro.graph.generators import complete_graph, erdos_renyi_graph
from repro.graph.graph import Graph
from tests.property.strategies import graphs


class TestBasicBehaviour:
    @pytest.mark.parametrize("theta", [0.9, 0.7])
    def test_reaches_threshold_on_paper_example(self, paper_example_graph, theta):
        result = EdgeRemovalInsertionAnonymizer(
            length_threshold=1, theta=theta, seed=0).anonymize(paper_example_graph)
        assert result.success
        assert result.final_opacity <= theta

    def test_may_stall_where_pure_removal_succeeds(self, paper_example_graph):
        # Section 6 observation: the Removal heuristic is "more capable of
        # always arriving at an alteration that satisfies the constraints",
        # because Rem-Ins must compensate every removal with an insertion and
        # on tiny graphs every insertion re-creates a short link of some type.
        from repro.core.edge_removal import EdgeRemovalAnonymizer
        removal = EdgeRemovalAnonymizer(
            length_threshold=1, theta=0.5, seed=0).anonymize(paper_example_graph)
        both = EdgeRemovalInsertionAnonymizer(
            length_threshold=1, theta=0.5, seed=0).anonymize(paper_example_graph)
        assert removal.success
        # Rem-Ins terminates (no infinite loop) and reports its outcome honestly.
        assert both.final_opacity >= 0.0
        assert both.num_steps >= 1

    def test_edge_count_is_preserved_when_insertions_possible(self, paper_example_graph):
        result = EdgeRemovalInsertionAnonymizer(
            length_threshold=1, theta=0.6, seed=0).anonymize(paper_example_graph)
        assert result.anonymized_graph.num_edges == paper_example_graph.num_edges

    def test_never_reinserts_a_removed_edge(self):
        graph = erdos_renyi_graph(20, 0.2, seed=1)
        result = EdgeRemovalInsertionAnonymizer(
            length_threshold=1, theta=0.5, seed=0).anonymize(graph)
        assert not (result.removed_edges & result.inserted_edges)

    def test_inserted_edges_were_absent_originally(self):
        graph = erdos_renyi_graph(20, 0.2, seed=1)
        result = EdgeRemovalInsertionAnonymizer(
            length_threshold=1, theta=0.5, seed=0).anonymize(graph)
        original_edges = graph.edge_set()
        assert all(edge not in original_edges for edge in result.inserted_edges)

    def test_final_graph_matches_recorded_operations(self):
        graph = erdos_renyi_graph(18, 0.25, seed=2)
        result = EdgeRemovalInsertionAnonymizer(
            length_threshold=1, theta=0.5, seed=0).anonymize(graph)
        expected = (graph.edge_set() - result.removed_edges) | result.inserted_edges
        assert result.anonymized_graph.edge_set() == expected

    def test_multi_hop_threshold_holds(self):
        graph = erdos_renyi_graph(22, 0.12, seed=5)
        result = EdgeRemovalInsertionAnonymizer(
            length_threshold=2, theta=0.6, seed=0).anonymize(graph)
        assert result.final_opacity <= 0.6
        typing = DegreePairTyping(graph)
        assert max_lo(result.anonymized_graph, typing, 2) <= 0.6

    def test_distortion_counts_removals_and_insertions(self):
        graph = erdos_renyi_graph(18, 0.25, seed=2)
        result = EdgeRemovalInsertionAnonymizer(
            length_threshold=1, theta=0.6, seed=0).anonymize(graph)
        expected = (len(result.removed_edges) + len(result.inserted_edges)) / graph.num_edges
        assert result.distortion == pytest.approx(expected)

    def test_step_records_name_both_phases(self, paper_example_graph):
        result = EdgeRemovalInsertionAnonymizer(
            length_threshold=1, theta=0.6, seed=0).anonymize(paper_example_graph)
        assert result.num_steps >= 1
        assert all(step.operation in ("remove", "remove+insert") for step in result.steps)


class TestInsertionCandidateCap:
    def test_cap_limits_evaluations(self):
        graph = erdos_renyi_graph(25, 0.15, seed=3)
        uncapped = EdgeRemovalInsertionAnonymizer(
            length_threshold=1, theta=0.6, seed=0).anonymize(graph)
        capped = EdgeRemovalInsertionAnonymizer(
            length_threshold=1, theta=0.6, seed=0,
            insertion_candidate_cap=20).anonymize(graph)
        assert capped.evaluations <= uncapped.evaluations
        assert capped.success

    def test_cap_still_preserves_edge_count(self):
        graph = erdos_renyi_graph(25, 0.15, seed=3)
        result = EdgeRemovalInsertionAnonymizer(
            length_threshold=1, theta=0.6, seed=0,
            insertion_candidate_cap=10).anonymize(graph)
        assert result.anonymized_graph.num_edges == graph.num_edges


def enumerate_then_sample(graph, removed, cap, rng):
    """The reference: list every eligible pair, then sample the list."""
    candidates = [edge for edge in graph.non_edges() if edge not in removed]
    if cap is not None and len(candidates) > cap:
        candidates = rng.sample(candidates, cap)
    return candidates


def pair_list(endpoints):
    """An int64 ``(k, 2)`` endpoint array as a list of edge tuples."""
    return list(map(tuple, endpoints.tolist()))


def eligible_pairs(graph, removed):
    edges = np.array(list(graph.edges()), dtype=np.int64).reshape(-1, 2)
    return EligiblePairs(graph.num_vertices, (edges[:, 0], edges[:, 1]),
                         removed)


def assert_sampling_matches_reference(graph, removed, cap, seed):
    anonymizer = EdgeRemovalInsertionAnonymizer(length_threshold=1)
    # Bypasses validation, so that cap 0 is exercised too.
    anonymizer._config = dataclasses.replace(anonymizer._config,
                                             insertion_candidate_cap=cap)
    session = OpacitySession(OpacityComputer(DegreePairTyping(graph), 1),
                             graph)
    ours, theirs = random.Random(seed), random.Random(seed)
    observed = anonymizer._insertion_candidates(
        session, ours, SimpleNamespace(removed_edges=removed))
    expected = enumerate_then_sample(graph, removed, cap, theirs)
    # An endpoint array, row for row the sampled list.
    assert observed.dtype == np.int64 and observed.shape == (len(expected), 2)
    assert pair_list(observed) == expected
    assert ours.getstate() == theirs.getstate()  # the same draws


class TestInsertionSampling:
    """Sampling by rank ≡ sampling the enumerated list, draw for draw."""

    @given(st.data(), graphs(min_vertices=0, max_vertices=30),
           st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_matches_enumerate_then_sample(self, data, graph, seed):
        n = graph.num_vertices
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        # Removed pairs are usually absent edges, but may be any pair.
        removed = (set(data.draw(st.lists(st.sampled_from(pairs),
                                          max_size=40)))
                   if pairs else set())
        count = len(eligible_pairs(graph, removed))
        cap = data.draw(st.one_of(st.none(),
                                  st.integers(min_value=0,
                                              max_value=count + 3)))
        assert_sampling_matches_reference(graph, removed, cap, seed)

    @pytest.mark.parametrize("cap", [None, 0, 1, 5, 80, 10_000])
    @pytest.mark.parametrize("size", [7, 40])
    def test_caps_around_the_count(self, cap, size):
        # n=7 with cap <= 5 takes random.sample's small-population path,
        # which copies the population; n=40 with cap 80 its set path.
        graph = erdos_renyi_graph(size, 0.2, seed=size)
        removed = set(list(graph.non_edges())[::7])
        for seed in range(3):
            assert_sampling_matches_reference(graph, removed, cap, seed)

    def test_sequence_equals_the_enumeration(self):
        graph = erdos_renyi_graph(25, 0.3, seed=8)
        removed = set(list(graph.non_edges())[::3])
        eligible = eligible_pairs(graph, removed)
        expected = [edge for edge in graph.non_edges() if edge not in removed]
        assert len(eligible) == len(expected)
        assert pair_list(eligible.pairs()) == expected
        positions = np.array([len(expected) - 1, 0, 5, 5], dtype=np.int64)
        assert pair_list(eligible.pairs(positions)) == \
            [expected[p] for p in positions.tolist()]


class TestEligiblePairs:
    """The excluded ranks built from the session's sorted edge arrays."""

    def test_removed_pair_that_is_still_an_edge_counts_once(self):
        graph = erdos_renyi_graph(12, 0.3, seed=2)
        edges = list(graph.edges())
        removed = set(edges[::2]) | set(list(graph.non_edges())[:3])
        eligible = eligible_pairs(graph, removed)
        expected = [edge for edge in graph.non_edges() if edge not in removed]
        assert len(eligible) == len(expected)
        assert pair_list(eligible.pairs()) == expected

    @pytest.mark.parametrize("num_vertices", [0, 1])
    def test_graph_without_pairs_is_empty(self, num_vertices):
        eligible = eligible_pairs(Graph(num_vertices), set())
        assert len(eligible) == 0
        assert eligible.pairs().shape == (0, 2)

    def test_session_edge_arrays_track_applied_edits(self):
        # The session's edge array, not Graph.edges(), feeds the ranks: it
        # must stay sorted and exact across applied removals and insertions.
        graph = erdos_renyi_graph(20, 0.2, seed=6)
        session = OpacitySession(OpacityComputer(DegreePairTyping(graph), 2),
                                 graph)
        session.edge_endpoints()  # seed the edge array before the edits
        removed = set()
        for step in range(6):
            removal = list(graph.edges())[step * 3 % graph.num_edges]
            insertion = list(graph.non_edges())[step * 5]
            session.apply_edit(removals=[removal], insertions=[insertion])
            removed.add(removal)
            eligible = EligiblePairs(graph.num_vertices,
                                     session.edge_endpoints(), removed)
            expected = [edge for edge in graph.non_edges()
                        if edge not in removed]
            assert pair_list(eligible.pairs()) == expected


class TestEdgeCases:
    def test_complete_graph_has_no_insertion_slots(self):
        # On a complete graph there is no absent edge to insert, so the
        # heuristic degenerates to pure removal but must still progress.
        graph = complete_graph(6)
        result = EdgeRemovalInsertionAnonymizer(
            length_threshold=1, theta=0.8, seed=0).anonymize(graph)
        assert result.final_opacity <= 0.8

    def test_empty_graph(self):
        graph = Graph(4)
        result = EdgeRemovalInsertionAnonymizer(
            length_threshold=1, theta=0.5, seed=0).anonymize(graph)
        assert result.success
        assert result.num_steps == 0

    def test_determinism_with_seed(self):
        graph = erdos_renyi_graph(20, 0.2, seed=4)
        first = EdgeRemovalInsertionAnonymizer(
            length_threshold=1, theta=0.5, seed=9).anonymize(graph)
        second = EdgeRemovalInsertionAnonymizer(
            length_threshold=1, theta=0.5, seed=9).anonymize(graph)
        assert first.anonymized_graph == second.anonymized_graph


class TestScanChunks:
    """A scan chunk of a larger level reads only its own members' cells."""

    @pytest.mark.parametrize("length", [1, 2])
    def test_no_chunk_looks_up_more_cells_than_it_names(self, length,
                                                        monkeypatch):
        from repro.core import anonymizer as anonymizer_module

        graph = erdos_renyi_graph(20, 0.2, seed=1)
        params = dict(length_threshold=length, theta=0.3, seed=0, max_steps=2)
        whole = EdgeRemovalInsertionAnonymizer(**params).anonymize(graph)
        looked_up = []
        check = OpacitySession._check_cells

        def spy_check(session, cells, at, gained):
            looked_up.append((len(cells), at.size))
            return check(session, cells, at, gained)

        monkeypatch.setattr(OpacitySession, "_check_cells", spy_check)
        monkeypatch.setattr(anonymizer_module, "COMPOSED_SCAN_CHUNK", 16)
        chunked = EdgeRemovalInsertionAnonymizer(**params).anonymize(graph)
        # Premise: insertion scans ran, each over many 16-candidate chunks.
        assert chunked.inserted_edges and len(looked_up) > 2 * chunked.num_steps
        assert all(cells <= members for cells, members in looked_up)
        assert (chunked.removed_edges, chunked.inserted_edges,
                chunked.evaluations) == \
            (whole.removed_edges, whole.inserted_edges, whole.evaluations)
