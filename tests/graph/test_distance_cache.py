"""Tests for the shared L_max distance cache (thresholding correctness)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.graph import (
    Graph,
    LMaxDistanceCache,
    available_engines,
    bounded_distance_matrix,
    threshold_distances,
)
from repro.graph.matrices import distance_dtype, unreachable_value

from tests.property.strategies import graphs


class TestThresholdDistances:
    def test_matches_direct_computation(self, paper_example_graph):
        for l_max in (2, 3, 4):
            full = bounded_distance_matrix(paper_example_graph, l_max)
            for length in range(1, l_max + 1):
                direct = bounded_distance_matrix(paper_example_graph, length)
                derived = threshold_distances(full, length)
                assert np.array_equal(derived, direct)
                assert derived.dtype == direct.dtype == distance_dtype(length)

    def test_returns_fresh_contiguous_copy(self, triangle_graph):
        full = bounded_distance_matrix(triangle_graph, 2)
        derived = threshold_distances(full, 2)
        assert derived is not full
        assert derived.flags["C_CONTIGUOUS"]
        derived[0, 1] = 99
        assert full[0, 1] != 99

    def test_unreachable_cells_stay_unreachable(self, disconnected_graph):
        full = bounded_distance_matrix(disconnected_graph, 3)
        derived = threshold_distances(full, 1)
        assert derived[0, 2] == unreachable_value(derived.dtype)
        assert derived[0, 1] == 1

    def test_invalid_bound_rejected(self, triangle_graph):
        full = bounded_distance_matrix(triangle_graph, 2)
        with pytest.raises(ConfigurationError):
            threshold_distances(full, 0)

    @settings(max_examples=40, deadline=None)
    @given(graph=graphs(max_vertices=10), l_max=st.integers(1, 4),
           length=st.integers(1, 4))
    def test_threshold_bit_identical_across_engines(self, graph, l_max, length):
        # The acceptance property: for every engine, truncating the L_max
        # matrix at any smaller L reproduces the direct computation exactly.
        if length > l_max:
            length, l_max = l_max, length
        for engine in available_engines():
            full = bounded_distance_matrix(graph, l_max, engine=engine)
            direct = bounded_distance_matrix(graph, length, engine=engine)
            assert np.array_equal(threshold_distances(full, length), direct), \
                (engine, l_max, length)


class TestLMaxDistanceCache:
    def test_single_computation_serves_every_length(self, paper_example_graph):
        cache = LMaxDistanceCache(paper_example_graph, 3)
        for length in (1, 2, 3, 2, 1):
            matrix = cache.matrix(length)
            assert np.array_equal(
                matrix, bounded_distance_matrix(paper_example_graph, length))
        assert cache.compute_count == 1

    def test_lazy_until_first_matrix(self, triangle_graph):
        cache = LMaxDistanceCache(triangle_graph, 2)
        assert cache.compute_count == 0
        cache.matrix(1)
        assert cache.compute_count == 1

    def test_matrices_are_independent_copies(self, paper_example_graph):
        cache = LMaxDistanceCache(paper_example_graph, 2)
        first = cache.matrix(2)
        first[0, 1] = 77
        assert cache.matrix(2)[0, 1] != 77

    def test_length_beyond_l_max_rejected(self, triangle_graph):
        cache = LMaxDistanceCache(triangle_graph, 2)
        with pytest.raises(ConfigurationError):
            cache.matrix(3)
        with pytest.raises(ConfigurationError):
            cache.matrix(0)

    def test_invalid_l_max_rejected(self, triangle_graph):
        with pytest.raises(ConfigurationError):
            LMaxDistanceCache(triangle_graph, 0)

    def test_respects_engine(self, paper_example_graph):
        # The cache computes with the one pipeline kernel; its slices equal
        # every engine's matrix.
        cache = LMaxDistanceCache(paper_example_graph, 3)
        for engine in available_engines():
            assert np.array_equal(
                cache.matrix(2),
                bounded_distance_matrix(paper_example_graph, 2, engine=engine))

    def test_empty_graph(self):
        cache = LMaxDistanceCache(Graph(0), 2)
        assert cache.matrix(1).shape == (0, 0)
