"""Unit tests for structural property computation (Tables 2/3 columns)."""

import networkx as nx
import numpy as np
import pytest

from repro.graph.distance import floyd_warshall
from repro.graph.generators import complete_graph, erdos_renyi_graph, path_graph, star_graph
from repro.graph.graph import Graph
from repro.graph.matrices import UNREACHABLE
from repro.graph.properties import (
    average_clustering_coefficient,
    average_degree,
    degree_standard_deviation,
    diameter,
    geodesic_histogram,
    graph_properties,
    local_clustering_coefficient,
)


def _to_networkx(graph: Graph) -> nx.Graph:
    nx_graph = nx.Graph()
    nx_graph.add_nodes_from(range(graph.num_vertices))
    nx_graph.add_edges_from(graph.edges())
    return nx_graph


class TestDegreeStatistics:
    def test_average_degree(self, paper_example_graph):
        assert average_degree(paper_example_graph) == pytest.approx(20 / 7)

    def test_average_degree_empty(self):
        assert average_degree(Graph(0)) == 0.0

    def test_degree_stddev_regular_graph(self):
        assert degree_standard_deviation(complete_graph(5)) == 0.0

    def test_degree_stddev_star(self):
        graph = star_graph(4)
        expected = float(nx.Graph(_to_networkx(graph)).degree(0))  # hub degree = 4
        assert expected == 4
        assert degree_standard_deviation(graph) > 0


class TestClustering:
    def test_triangle_has_full_clustering(self, triangle_graph):
        assert local_clustering_coefficient(triangle_graph, 0) == 1.0
        assert average_clustering_coefficient(triangle_graph) == 1.0

    def test_path_has_zero_clustering(self, path4_graph):
        assert average_clustering_coefficient(path4_graph) == 0.0

    def test_low_degree_vertices_have_zero_coefficient(self, path4_graph):
        assert local_clustering_coefficient(path4_graph, 0) == 0.0

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_networkx(self, seed):
        graph = erdos_renyi_graph(30, 0.2, seed=seed)
        expected = nx.average_clustering(_to_networkx(graph))
        assert average_clustering_coefficient(graph) == pytest.approx(expected)


class TestDiameter:
    def test_path_diameter(self):
        assert diameter(path_graph(6)) == 5

    def test_complete_graph_diameter(self):
        assert diameter(complete_graph(5)) == 1

    def test_disconnected_uses_reachable_pairs(self, disconnected_graph):
        assert diameter(disconnected_graph) == 1

    def test_single_vertex(self):
        assert diameter(Graph(1)) == 0

    def test_paper_example_diameter(self, paper_example_graph):
        assert diameter(paper_example_graph) == 3


class TestGeodesicHistogram:
    def test_counts_sum_to_pair_count(self, paper_example_graph):
        histogram = geodesic_histogram(paper_example_graph)
        assert sum(histogram.values()) == 7 * 6 // 2
        assert UNREACHABLE not in histogram  # example graph is connected

    def test_matches_figure_4a_counts(self, paper_example_graph):
        histogram = geodesic_histogram(paper_example_graph)
        assert histogram == {1: 10, 2: 8, 3: 3}


def _floyd_warshall_histogram(graph):
    """The Floyd–Warshall reference: a dense matrix, pairs i < j counted."""
    distances = floyd_warshall(graph)
    upper = distances[np.triu_indices(graph.num_vertices, k=1)]
    values, counts = np.unique(upper, return_counts=True)
    return {int(value): int(count) for value, count in zip(values, counts)}


class TestGeodesicHistogramAgainstFloydWarshall:
    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_tiny_graphs(self, n):
        for graph in (Graph(n), complete_graph(n)):
            assert geodesic_histogram(graph) == _floyd_warshall_histogram(graph)
            assert diameter(graph) == (1 if graph.num_edges else 0)

    @pytest.mark.parametrize("n,p", [(12, 0.0), (30, 0.05), (40, 0.1),
                                     (60, 0.3), (300, 0.01), (300, 0.02)])
    def test_random_graphs_connected_or_not(self, n, p):
        for seed in range(3):
            graph = erdos_renyi_graph(n, p, seed=seed)
            expected = _floyd_warshall_histogram(graph)
            histogram = geodesic_histogram(graph)
            assert histogram == expected
            assert list(histogram) == sorted(histogram)
            finite = [value for value in expected if value != UNREACHABLE]
            assert diameter(graph) == max(finite, default=0)

    def test_blocks_cover_every_pair(self, monkeypatch):
        # Source blocks smaller than n must still count each pair once.
        import repro.graph.properties as properties

        graph = erdos_renyi_graph(50, 0.06, seed=5)
        monkeypatch.setattr(properties, "GEODESIC_BLOCK", 7)
        assert geodesic_histogram(graph) == _floyd_warshall_histogram(graph)


class TestGraphProperties:
    def test_full_report(self, paper_example_graph):
        properties = graph_properties(paper_example_graph)
        assert properties.num_vertices == 7
        assert properties.num_edges == 10
        assert properties.diameter == 3
        assert properties.average_degree == pytest.approx(20 / 7)
        payload = properties.as_dict()
        assert payload["nodes"] == 7
        assert payload["links"] == 10
