"""Property-based tests for the utility metrics."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.metrics.clustering import mean_clustering_difference
from repro.metrics.distortion import edge_edit_distance, edit_distance_ratio
from repro.metrics.distributions import degree_distribution, geodesic_distribution
from repro.metrics.emd import emd_between_histograms
from tests.oracles import set_edge_edit_distance
from tests.property.strategies import edit_scripts, graphs, graphs_with_edge

histograms = st.dictionaries(st.integers(min_value=0, max_value=15),
                             st.floats(min_value=0.0, max_value=10.0,
                                       allow_nan=False, allow_infinity=False),
                             max_size=8)


class TestDistortionProperties:
    @given(graphs())
    @settings(max_examples=50, deadline=None)
    def test_self_distance_is_zero(self, graph):
        assert edge_edit_distance(graph, graph.copy()) == 0

    @given(graphs_with_edge())
    @settings(max_examples=50, deadline=None)
    def test_single_edit_costs_one(self, graph_and_edge):
        graph, edge = graph_and_edge
        modified = graph.copy()
        modified.remove_edge(*edge)
        assert edge_edit_distance(graph, modified) == 1
        assert edit_distance_ratio(graph, modified) == 1 / graph.num_edges

    @given(graphs(), graphs())
    @settings(max_examples=40, deadline=None)
    def test_symmetry_of_edit_distance(self, first, second):
        if first.num_vertices != second.num_vertices:
            return
        assert edge_edit_distance(first, second) == edge_edit_distance(second, first)

    @given(edit_scripts(max_edits=10))
    @settings(max_examples=60, deadline=None)
    def test_edit_distance_matches_the_edge_set_oracle(self, graph_and_script):
        graph, script = graph_and_script
        modified = graph.copy()
        for kind, edge in script:
            (modified.remove_edge if kind == "remove" else modified.add_edge)(*edge)
            assert (edge_edit_distance(graph, modified)
                    == set_edge_edit_distance(graph, modified))

    @given(graphs(), graphs())
    @settings(max_examples=40, deadline=None)
    def test_unrelated_graphs_match_the_edge_set_oracle(self, first, second):
        if first.num_vertices != second.num_vertices:
            return
        assert (edge_edit_distance(first, second)
                == set_edge_edit_distance(first, second))


class TestEmdProperties:
    @given(histograms)
    @settings(max_examples=60, deadline=None)
    def test_identity(self, histogram):
        assert emd_between_histograms(histogram, dict(histogram)) <= 1e-9

    @given(histograms, histograms)
    @settings(max_examples=60, deadline=None)
    def test_symmetry_and_nonnegativity(self, first, second):
        forward = emd_between_histograms(first, second)
        backward = emd_between_histograms(second, first)
        assert forward >= 0.0
        assert abs(forward - backward) < 1e-9

    @given(histograms, st.integers(min_value=1, max_value=5))
    @settings(max_examples=40, deadline=None)
    def test_translation_invariance(self, histogram, shift):
        shifted = {key + shift: value for key, value in histogram.items()}
        other = {key + shift + 1: value for key, value in histogram.items()}
        base = {key + 1: value for key, value in histogram.items()}
        assert abs(emd_between_histograms(histogram, base)
                   - emd_between_histograms(shifted, other)) < 1e-9


class TestGraphMetricProperties:
    @given(graphs())
    @settings(max_examples=40, deadline=None)
    def test_distributions_sum_to_one(self, graph):
        degree = degree_distribution(graph)
        if graph.num_vertices:
            assert abs(sum(degree.values()) - 1.0) < 1e-9
        geodesic = geodesic_distribution(graph)
        if graph.num_vertices >= 2:
            assert abs(sum(geodesic.values()) - 1.0) < 1e-9

    @given(graphs_with_edge())
    @settings(max_examples=30, deadline=None)
    def test_clustering_difference_bounded(self, graph_and_edge):
        graph, edge = graph_and_edge
        modified = graph.copy()
        modified.remove_edge(*edge)
        value = mean_clustering_difference(graph, modified)
        assert 0.0 <= value <= 1.0
