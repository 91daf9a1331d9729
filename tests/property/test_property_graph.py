"""Property-based tests for the Graph data structure."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.property.strategies import graphs, graphs_with_edge


class TestGraphInvariants:
    @given(graphs())
    @settings(max_examples=60, deadline=None)
    def test_handshake_lemma(self, graph):
        assert sum(graph.degrees()) == 2 * graph.num_edges

    @given(graphs())
    @settings(max_examples=60, deadline=None)
    def test_edges_and_non_edges_partition_all_pairs(self, graph):
        n = graph.num_vertices
        edges = graph.edge_set()
        non_edges = set(graph.non_edges())
        assert edges.isdisjoint(non_edges)
        assert len(edges) + len(non_edges) == n * (n - 1) // 2

    @given(graphs_with_edge())
    @settings(max_examples=60, deadline=None)
    def test_remove_then_add_is_identity(self, graph_and_edge):
        graph, edge = graph_and_edge
        snapshot = graph.edge_set()
        graph.remove_edge(*edge)
        graph.add_edge(*edge)
        assert graph.edge_set() == snapshot

    @given(graphs())
    @settings(max_examples=60, deadline=None)
    def test_copy_equals_original_but_is_independent(self, graph):
        clone = graph.copy()
        assert clone == graph
        if clone.num_edges:
            clone.remove_edge(*next(iter(clone.edges())))
            assert clone != graph

    @given(graphs())
    @settings(max_examples=60, deadline=None)
    def test_adjacency_matrix_row_sums_are_degrees(self, graph):
        matrix = graph.adjacency_matrix(dtype=int)
        assert list(matrix.sum(axis=1)) == graph.degrees()

    @given(graphs())
    @settings(max_examples=60, deadline=None)
    def test_connected_components_partition_vertices(self, graph):
        components = graph.connected_components()
        vertices = [v for component in components for v in component]
        assert sorted(vertices) == list(range(graph.num_vertices))


class TestEdgeArray:
    """``Graph.edge_array`` is ``list(edges())`` as an array, at every state."""

    @staticmethod
    def _assert_matches(graph):
        array = graph.edge_array()
        assert array.dtype == np.int64 and array.shape == (graph.num_edges, 2)
        assert not array.flags.writeable
        assert array.tolist() == [list(edge) for edge in graph.edges()]
        assert graph.edge_list() == list(graph.edges())
        assert graph.edge_set() == set(graph.edges())

    @given(graphs(), st.lists(st.tuples(st.integers(0, 11), st.integers(0, 11),
                                        st.booleans()), max_size=25))
    @settings(max_examples=80, deadline=None)
    def test_matches_edges_across_random_edits(self, graph, edits):
        n = graph.num_vertices
        self._assert_matches(graph)
        for u, v, read in edits:
            u, v = u % n, v % n
            if u == v:
                continue
            if read:
                # A cached read, then a second one that must be the same
                # object, before the edit invalidates it.
                cached = graph.edge_array()
                assert graph.edge_array() is cached
            if graph.has_edge(u, v):
                graph.remove_edge(u, v)
            else:
                graph.add_edge(u, v)
            self._assert_matches(graph)

    @given(graphs_with_edge())
    @settings(max_examples=40, deadline=None)
    def test_a_copy_shares_the_snapshot_until_either_side_edits(self, graph_and_edge):
        graph, edge = graph_and_edge
        snapshot = graph.edge_array()
        clone = graph.copy()
        assert clone.edge_array() is snapshot
        clone.remove_edge(*edge)
        self._assert_matches(clone)
        assert graph.edge_array() is snapshot
        self._assert_matches(graph)

    @given(graphs())
    @settings(max_examples=40, deadline=None)
    def test_adjacency_matrix_comes_from_the_snapshot(self, graph):
        n = graph.num_vertices
        expected = np.zeros((n, n), dtype=bool)
        for u, v in graph.edges():
            expected[u, v] = expected[v, u] = True
        np.testing.assert_array_equal(graph.adjacency_matrix(), expected)
