"""The sample-load generators draw what ``randrange``/``choice`` drew.

:func:`~repro.graph.generators.gnm_random_graph`,
:func:`~repro.graph.generators.powerlaw_cluster_graph` and
:func:`~repro.datasets.synthetic._adjust_edge_count` read their random
integers straight from the RNG's words.  Each is held to its
``randrange``/``choice`` implementation in ``tests/oracles.py``: the same
edge array, and the same ``rng.getstate()`` afterwards, for an int seed and
for one shared :class:`random.Random` carried from the generator into the
adjustment, as :func:`~repro.datasets.synthetic.synthesize_sample` carries
it.  The cases cover the empty and the complete G(n, m), n ∈ {0, 1, 2},
vertex counts that are powers of two (where ``n.bit_length()`` rejects
about half the draws), trims and pads, and chunks of a few words, so that
a pair's two draws often fall in different chunks.
"""

from __future__ import annotations

import random
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.datasets.synthetic import _adjust_edge_count
from repro.graph import generators
from tests import oracles

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
#: Chunk caps: single words, odd sizes that split pairs, and the product's.
CHUNK_WORDS = st.sampled_from([1, 2, 3, 5, 64, generators._MAX_CHUNK_WORDS])


def assert_same_edges(got, want):
    assert got.num_vertices == want.num_vertices
    assert got.num_edges == want.num_edges
    np.testing.assert_array_equal(got.edge_array(), want.edge_array())


@st.composite
def gnm_shapes(draw, max_vertices: int = 70):
    """``(n, m)``: n often a power of two, m often 0 or n(n−1)/2."""
    n = draw(st.one_of(st.integers(0, max_vertices),
                       st.sampled_from([0, 1, 2, 4, 8, 16, 32, 64])))
    max_edges = n * (n - 1) // 2
    m = draw(st.one_of(st.integers(0, max_edges),
                       st.sampled_from([0, max_edges])))
    return n, m


@st.composite
def powerlaw_shapes(draw):
    """``(n, attachment, triangle probability)``."""
    n = draw(st.one_of(st.integers(2, 80), st.sampled_from([2, 16, 32, 64])))
    attachment = draw(st.integers(1, min(n - 1, 12)))
    probability = draw(st.one_of(st.floats(0.0, 1.0),
                                 st.sampled_from([0.0, 0.85, 1.0])))
    return n, attachment, probability


class TestGnmMatchesRandrange:
    @given(gnm_shapes(), SEEDS, CHUNK_WORDS)
    @example((0, 0), 0, generators._MAX_CHUNK_WORDS)
    @example((1, 0), 0, generators._MAX_CHUNK_WORDS)
    @example((2, 1), 0, 1)
    @example((64, 2016), 1, generators._MAX_CHUNK_WORDS)
    @settings(max_examples=120, deadline=None)
    def test_same_edges_and_rng_state(self, shape, seed, chunk_words):
        n, m = shape
        got_rng, want_rng = random.Random(seed), random.Random(seed)
        with mock.patch.object(generators, "_MAX_CHUNK_WORDS", chunk_words):
            got = generators.gnm_random_graph(n, m, seed=got_rng)
        want = oracles.gnm_random_graph(n, m, seed=want_rng)
        assert_same_edges(got, want)
        assert got_rng.getstate() == want_rng.getstate()

    @given(gnm_shapes(), SEEDS)
    @settings(max_examples=40, deadline=None)
    def test_same_edges_from_an_int_seed(self, shape, seed):
        n, m = shape
        assert_same_edges(generators.gnm_random_graph(n, m, seed=seed),
                          oracles.gnm_random_graph(n, m, seed=seed))

    @given(gnm_shapes(max_vertices=40), SEEDS)
    @settings(max_examples=40, deadline=None)
    def test_the_codes_become_the_snapshot(self, shape, seed):
        n, m = shape
        graph = generators.gnm_random_graph(n, m, seed=seed)
        assert graph._edge_codes is not None
        assert graph.edge_list() == sorted(
            (u, v) for u in range(n) for v in graph.adjacency(u) if u < v)


class TestPowerlawClusterMatchesChoice:
    @given(powerlaw_shapes(), SEEDS)
    @example((2, 1, 0.85), 0)
    @example((64, 12, 1.0), 3)
    @settings(max_examples=120, deadline=None)
    def test_same_edges_and_rng_state(self, shape, seed):
        got_rng, want_rng = random.Random(seed), random.Random(seed)
        got = generators.powerlaw_cluster_graph(*shape, seed=got_rng)
        want = oracles.powerlaw_cluster_graph(*shape, seed=want_rng)
        assert_same_edges(got, want)
        assert got_rng.getstate() == want_rng.getstate()

    @given(powerlaw_shapes(), SEEDS)
    @settings(max_examples=40, deadline=None)
    def test_same_edges_from_an_int_seed(self, shape, seed):
        assert_same_edges(generators.powerlaw_cluster_graph(*shape, seed=seed),
                          oracles.powerlaw_cluster_graph(*shape, seed=seed))


class TestAdjustmentMatchesRandrange:
    """One shared RNG, generator then adjustment, as a sample draws it."""

    @given(st.data(), SEEDS, st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_trims_and_pads_from_one_shared_rng(self, data, seed, clustered):
        if clustered:
            shape = data.draw(powerlaw_shapes())
            n = shape[0]
            generate = (generators.powerlaw_cluster_graph,
                        oracles.powerlaw_cluster_graph)
        else:
            shape = data.draw(gnm_shapes(max_vertices=40))
            n = shape[0]
            generate = generators.gnm_random_graph, oracles.gnm_random_graph
        max_edges = n * (n - 1) // 2
        # Past n(n−1)/2 the target is clipped to it.
        target = data.draw(st.one_of(st.integers(0, max_edges + 2),
                                     st.sampled_from([0, max_edges])))
        got_rng, want_rng = random.Random(seed), random.Random(seed)
        got = generate[0](*shape, seed=got_rng)
        want = generate[1](*shape, seed=want_rng)
        assert_same_edges(got, want)
        assert got_rng.getstate() == want_rng.getstate()
        got = _adjust_edge_count(got, target, got_rng)
        want = oracles.adjust_edge_count(want, target, want_rng)
        assert got.num_edges == min(target, max_edges)
        assert_same_edges(got, want)
        assert got_rng.getstate() == want_rng.getstate()
