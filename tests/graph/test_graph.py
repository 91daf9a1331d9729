"""Unit tests for the Graph data structure."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import GraphError, InvalidEdgeError
from repro.graph.graph import Graph, normalize_edge


class TestNormalizeEdge:
    def test_orders_endpoints(self):
        assert normalize_edge(5, 2) == (2, 5)
        assert normalize_edge(2, 5) == (2, 5)

    def test_rejects_self_loop(self):
        with pytest.raises(InvalidEdgeError):
            normalize_edge(3, 3)


class TestConstruction:
    def test_empty_graph(self):
        graph = Graph(0)
        assert graph.num_vertices == 0
        assert graph.num_edges == 0
        assert list(graph.edges()) == []

    def test_negative_vertex_count_rejected(self):
        with pytest.raises(GraphError):
            Graph(-1)

    def test_constructor_edges(self):
        graph = Graph(4, edges=[(0, 1), (2, 3)])
        assert graph.num_edges == 2
        assert graph.has_edge(1, 0)
        assert graph.has_edge(3, 2)

    def test_from_edge_list_infers_size(self):
        graph = Graph.from_edge_list([(0, 5), (2, 3)])
        assert graph.num_vertices == 6
        assert graph.num_edges == 2

    def test_from_edge_list_drops_duplicates(self):
        graph = Graph.from_edge_list([(0, 1), (1, 0), (0, 1)])
        assert graph.num_edges == 1


class TestMutation:
    def test_add_and_remove(self):
        graph = Graph(3)
        graph.add_edge(0, 1)
        assert graph.has_edge(0, 1)
        graph.remove_edge(1, 0)
        assert not graph.has_edge(0, 1)
        assert graph.num_edges == 0

    def test_add_duplicate_raises(self):
        graph = Graph(3, edges=[(0, 1)])
        with pytest.raises(InvalidEdgeError):
            graph.add_edge(1, 0)

    def test_remove_missing_raises(self):
        graph = Graph(3)
        with pytest.raises(InvalidEdgeError):
            graph.remove_edge(0, 1)

    def test_self_loop_rejected(self):
        graph = Graph(3)
        with pytest.raises(InvalidEdgeError):
            graph.add_edge(1, 1)

    def test_out_of_range_vertex_rejected(self):
        graph = Graph(3)
        with pytest.raises(GraphError):
            graph.add_edge(0, 7)

    def test_conditional_add_remove(self):
        graph = Graph(3)
        assert graph.add_edge_if_absent(0, 1) is True
        assert graph.add_edge_if_absent(0, 1) is False
        assert graph.remove_edge_if_present(0, 1) is True
        assert graph.remove_edge_if_present(0, 1) is False


class TestAccessors:
    def test_degrees(self, paper_example_graph):
        from tests.conftest import PAPER_EXAMPLE_DEGREES
        assert paper_example_graph.degrees() == PAPER_EXAMPLE_DEGREES
        assert list(paper_example_graph.degree_array()) == PAPER_EXAMPLE_DEGREES

    def test_neighbors_snapshot_is_immutable(self):
        graph = Graph(3, edges=[(0, 1)])
        snapshot = graph.neighbors(0)
        assert snapshot == frozenset({1})
        with pytest.raises(AttributeError):
            snapshot.add(2)  # type: ignore[attr-defined]

    def test_edges_are_canonical_and_unique(self, paper_example_graph):
        edges = list(paper_example_graph.edges())
        assert len(edges) == paper_example_graph.num_edges
        assert all(u < v for u, v in edges)
        assert len(set(edges)) == len(edges)

    def test_non_edges_complement(self):
        graph = Graph(4, edges=[(0, 1)])
        non_edges = set(graph.non_edges())
        assert (0, 1) not in non_edges
        assert len(non_edges) == 4 * 3 // 2 - 1

    def test_contains_protocol(self, triangle_graph):
        assert (0, 1) in triangle_graph
        assert (2, 0) in triangle_graph

    def test_len_is_vertex_count(self, triangle_graph):
        assert len(triangle_graph) == 3

    def test_equality_ignores_edge_order(self):
        first = Graph(3, edges=[(0, 1), (1, 2)])
        second = Graph(3, edges=[(1, 2), (0, 1)])
        assert first == second

    def test_graphs_are_unhashable(self, triangle_graph):
        with pytest.raises(TypeError):
            hash(triangle_graph)


class TestDerivedStructures:
    def test_copy_is_independent(self, triangle_graph):
        clone = triangle_graph.copy()
        clone.remove_edge(0, 1)
        assert triangle_graph.has_edge(0, 1)
        assert not clone.has_edge(0, 1)

    def test_adjacency_matrix_symmetric(self, paper_example_graph):
        matrix = paper_example_graph.adjacency_matrix()
        assert matrix.shape == (7, 7)
        assert np.array_equal(matrix, matrix.T)
        assert matrix.sum() == 2 * paper_example_graph.num_edges

    def test_subgraph_relabels(self, paper_example_graph):
        sub, mapping = paper_example_graph.subgraph([1, 2, 4])
        assert sub.num_vertices == 3
        # Vertices 1, 2, 4 form a triangle in the example graph.
        assert sub.num_edges == 3
        assert set(mapping) == {1, 2, 4}

    def test_connected_components(self, disconnected_graph):
        components = disconnected_graph.connected_components()
        assert sorted(map(tuple, components)) == [(0, 1), (2, 3), (4,)]
        assert not disconnected_graph.is_connected()

    def test_paper_example_is_connected(self, paper_example_graph):
        assert paper_example_graph.is_connected()


#: Vertex count of the copy-on-write suite: small, so writes collide.
COW_VERTICES = 6

cow_pairs = st.tuples(st.integers(0, COW_VERTICES - 1),
                      st.integers(0, COW_VERTICES - 1)).filter(
                          lambda pair: pair[0] != pair[1])
cow_operations = st.one_of(
    st.tuples(st.just("add"), cow_pairs),
    st.tuples(st.just("remove"), cow_pairs),
    st.tuples(st.just("edit"),
              st.tuples(st.lists(cow_pairs, max_size=3),
                        st.lists(cow_pairs, max_size=3))))


def _modelled(model, operation):
    """The edge set ``operation`` leaves, or ``None`` where it must raise."""
    kind, argument = operation
    if kind == "edit":
        removals, insertions = argument
    else:
        removals, insertions = ((argument,), ()) if kind == "remove" else ((), (argument,))
    after = set(model)
    for present, edges in ((True, removals), (False, insertions)):
        for u, v in edges:
            edge = normalize_edge(u, v)
            if (edge in after) != present:
                return None
            (after.discard if present else after.add)(edge)
    return after


def _apply(graph, operation):
    kind, argument = operation
    if kind == "add":
        graph.add_edge(*argument)
    elif kind == "remove":
        graph.remove_edge(*argument)
    else:
        graph.edit(*argument)


def _assert_matches(graph, model):
    assert graph.num_edges == len(model)
    assert graph.edge_array().tolist() == [list(edge) for edge in sorted(model)]
    for v in graph.vertices():
        expected = {u for edge in model if v in edge for u in edge if u != v}
        assert graph.degree(v) == len(expected)
        assert graph.adjacency(v) == expected
        assert graph.neighbors(v) == frozenset(expected)


class TestCopyOnWrite:
    """Copies share neighbour sets until written, and never see each other's writes."""

    @given(st.lists(cow_pairs, max_size=10),
           st.lists(st.tuples(st.integers(0, 3), cow_operations), max_size=30),
           st.integers(0, 30))
    @settings(max_examples=150, deadline=None)
    def test_interleaved_writes_match_edge_set_models(self, edges, operations,
                                                      copy_at):
        original = Graph.from_edge_list(edges, num_vertices=COW_VERTICES)
        graphs = [original, original.copy(), original.copy()]
        models = [set(original.edge_list()) for _ in graphs]
        for step, (which, operation) in enumerate(operations):
            if step == copy_at:  # a copy of a copy, mid-sequence
                graphs.append(graphs[1].copy())
                models.append(set(models[1]))
            which %= len(graphs)
            snapshots = [(graph.edge_array(), graph.edge_array().copy())
                         for graph in graphs]
            expected = _modelled(models[which], operation)
            if expected is None:
                with pytest.raises(InvalidEdgeError):
                    _apply(graphs[which], operation)
            else:
                _apply(graphs[which], operation)
                models[which] = expected
            for graph, model in zip(graphs, models):
                _assert_matches(graph, model)
            for taken, values in snapshots:
                assert np.array_equal(taken, values)

    @pytest.mark.parametrize("write", ["add", "remove", "edit"])
    def test_a_fresh_clone_shares_its_sets_until_written(self, write):
        original = Graph(5, edges=[(0, 1), (1, 2), (3, 4)])
        clone = original.copy()
        assert all(clone.adjacency(v) is original.adjacency(v)
                   for v in range(5))
        if write == "add":
            clone.add_edge(0, 2)
        elif write == "remove":
            clone.remove_edge(0, 1)
        else:
            clone.edit([(0, 1)], [(0, 2)])
        written = {0, 1} if write == "remove" else {0, 2}
        if write == "edit":
            written = {0, 1, 2}
        for v in range(5):
            assert (clone.adjacency(v) is original.adjacency(v)) == (v not in written)
        assert original.edge_list() == [(0, 1), (1, 2), (3, 4)]
        # The original gave up its sets too: its own write copies, not mutates.
        shared = clone.adjacency(3)
        original.remove_edge(3, 4)
        assert clone.adjacency(3) is shared and shared == {4}
        assert clone.has_edge(3, 4) and not original.has_edge(3, 4)
