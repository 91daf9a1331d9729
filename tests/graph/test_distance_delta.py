"""Unit tests for the incremental distance session (delta evaluation)."""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest

from repro.errors import ConfigurationError, InvalidEdgeError
from repro.graph import Graph, erdos_renyi_graph
from repro.graph.distance import bounded_distance_matrix
from repro.graph.distance_delta import DistanceSession
from repro.graph.distance_store import StoreConfig, TiledStore
from tests.oracles import assert_batch_entry_matches, largest_region_removal


def full_matrix(session):
    """The session's whole matrix, read as rows (works on either tier)."""
    return session.rows(np.arange(session.graph.num_vertices))


def apply_delta(session, delta):
    """Materialize a previewed delta into a full matrix (for comparison)."""
    matrix = full_matrix(session)
    if delta.rows.size:
        matrix[delta.rows, :] = delta.new_rows
        matrix[:, delta.rows] = delta.new_rows.T
    return matrix


def tiled_session(graph, length, budget_bytes=64):
    """A session on the tiled tier, two rows per tile."""
    return DistanceSession(graph, length, store_config=StoreConfig(
        tier="tiled", budget_bytes=budget_bytes, tile_rows=2))


def reference_after(graph, removals, insertions, length):
    for u, v in removals:
        graph.remove_edge(u, v)
    for u, v in insertions:
        graph.add_edge(u, v)
    try:
        return bounded_distance_matrix(graph, length)
    finally:
        for u, v in insertions:
            graph.remove_edge(u, v)
        for u, v in removals:
            graph.add_edge(u, v)


class TestPreview:
    @pytest.mark.parametrize("length", [1, 2, 3])
    def test_single_removal_matches_scratch(self, paper_example_graph, length):
        session = DistanceSession(paper_example_graph, length)
        for edge in list(paper_example_graph.edges()):
            delta = session.preview(removals=[edge])
            expected = reference_after(paper_example_graph, [edge], [], length)
            assert np.array_equal(apply_delta(session, delta), expected)

    @pytest.mark.parametrize("length", [1, 2, 3])
    def test_single_insertion_matches_scratch(self, paper_example_graph, length):
        session = DistanceSession(paper_example_graph, length)
        for edge in list(paper_example_graph.non_edges()):
            delta = session.preview(insertions=[edge])
            expected = reference_after(paper_example_graph, [], [edge], length)
            assert np.array_equal(apply_delta(session, delta), expected)

    def test_combination_edit_matches_scratch(self, paper_example_graph):
        session = DistanceSession(paper_example_graph, 2)
        removals = [(0, 1), (4, 5)]
        insertions = [(0, 6), (3, 6)]
        delta = session.preview(removals=removals, insertions=insertions)
        expected = reference_after(paper_example_graph, removals, insertions, 2)
        assert np.array_equal(apply_delta(session, delta), expected)

    def test_preview_leaves_no_trace(self, paper_example_graph):
        session = DistanceSession(paper_example_graph, 2)
        before_edges = paper_example_graph.edge_set()
        before_matrix = session.distances.copy()
        session.preview(removals=[(0, 1)], insertions=[(0, 6)])
        assert paper_example_graph.edge_set() == before_edges
        assert np.array_equal(session.distances, before_matrix)

    def test_empty_preview_is_empty_delta(self, paper_example_graph):
        session = DistanceSession(paper_example_graph, 2)
        delta = session.preview()
        assert delta.num_affected_rows == 0


class TestApply:
    @pytest.mark.parametrize("length", [1, 2, 3])
    def test_random_edit_sequence_stays_exact(self, length):
        graph = erdos_renyi_graph(30, 0.2, seed=5)
        session = DistanceSession(graph, length)
        for index in range(25):
            edges = list(graph.edges())
            non_edges = list(graph.non_edges())
            if index % 2 == 0 and edges:
                session.apply(removals=[edges[index % len(edges)]])
            elif non_edges:
                session.apply(insertions=[non_edges[index % len(non_edges)]])
            assert np.array_equal(session.distances,
                                  bounded_distance_matrix(graph, length))

    def test_apply_returns_the_previewed_delta(self, paper_example_graph):
        session = DistanceSession(paper_example_graph, 2)
        previewed = session.preview(removals=[(0, 1)])
        applied = session.apply(removals=[(0, 1)])
        assert np.array_equal(applied.rows, previewed.rows)
        assert np.array_equal(applied.new_rows, previewed.new_rows)
        assert not paper_example_graph.has_edge(0, 1)
        assert np.array_equal(session.distances,
                              bounded_distance_matrix(paper_example_graph, 2))

    @pytest.mark.parametrize("removal", [True, False])
    def test_one_store_read_per_op_endpoints(self, removal):
        # Each op reads both endpoint rows in one call; an insertion also
        # reads its affected rows, and the delta ends with one read that
        # drops unchanged rows.
        graph = erdos_renyi_graph(12, 0.3, seed=3)
        session = tiled_session(graph, 3)
        edges = list(graph.edges() if removal else graph.non_edges())[:3]
        removals, insertions = (edges, []) if removal else ([], edges)
        expected = reference_after(graph, removals, insertions, 3)
        reads = []
        original = TiledStore.rows

        def spy(store, block):
            reads.append(np.asarray(block).tolist())
            return original(store, block)

        with mock.patch.object(TiledStore, "rows", spy):
            delta = session.preview(removals, insertions)
        per_op = 1 if removal else 2
        assert len(reads) == per_op * len(edges) + 1
        assert reads[:-1:per_op] == [list(edge) for edge in edges]
        assert np.array_equal(apply_delta(session, delta), expected)
        session.close()


class TestLargeAffectedRegion:
    """Removals touching most rows stay slab deltas through every path."""

    def test_largest_region_removal_after_an_insertion(self):
        # A dense L = 3 sample, where a removal's affected rows are most
        # of the graph.
        graph = erdos_renyi_graph(40, 0.3, seed=11)
        session = DistanceSession(graph, 3)
        removal, region = largest_region_removal(session.distances, 3)
        assert region > graph.num_vertices // 2
        insertion = next(iter(graph.non_edges()))
        alone = session.preview(removals=[removal])
        assert np.array_equal(apply_delta(session, alone),
                              reference_after(graph, [removal], [], 3))
        # The removal follows the insertion, as greedy combinations apply.
        delta = session.preview(removals=[removal], insertions=[insertion])
        expected = reference_after(graph, [removal], [insertion], 3)
        assert np.array_equal(apply_delta(session, delta), expected)
        staged = session.stage(removals=[removal], insertions=[insertion])
        assert np.array_equal(staged.rows, delta.rows)
        assert np.array_equal(staged.new_rows, delta.new_rows)
        session.commit(staged)
        assert np.array_equal(session.distances, expected)
        assert np.array_equal(session.distances,
                              bounded_distance_matrix(graph, 3))

    def test_mixed_sequence_of_largest_region_removals_stays_exact(self):
        graph = erdos_renyi_graph(40, 0.3, seed=12)
        session = DistanceSession(graph, 3)
        for index in range(12):
            non_edges = list(graph.non_edges())
            if index % 2 == 0 and graph.num_edges:
                removal, _ = largest_region_removal(session.distances, 3)
                session.apply(removals=[removal])
            elif non_edges:
                session.apply(insertions=[non_edges[index % len(non_edges)]])
            assert np.array_equal(session.distances,
                                  bounded_distance_matrix(graph, 3))


def broom(n, with_handle=True):
    """Hub 1 carries every leaf; vertex 0 hangs off it with a short tail.

    Toggling the handle ``(0, 1)`` changes every row at L = 3.
    """
    tail = n - 2
    edges = [(0, tail), (tail, n - 1)]
    edges += [(1, leaf) for leaf in range(2, tail)]
    if with_handle:
        edges.append((0, 1))
    return Graph(n, edges=edges)


def chunk_counter(name):
    """Patch ``DistanceSession.<name>`` with a call-counting passthrough."""
    return mock.patch.object(DistanceSession, name, autospec=True,
                             side_effect=getattr(DistanceSession, name))


class TestSlabBeyondTheRowCap:
    def test_one_removal_streams_through_the_row_cap(self):
        # Removing (0, 1) changes every leaf's row, more rows than one
        # stacked pass holds at this n, so the slab is recomputed in chunks.
        graph = broom(2100)
        session = DistanceSession(graph, 3)
        cap = session._batch_slab_row_cap()
        expected = reference_after(graph, [(0, 1)], [], 3)
        with chunk_counter("_expand_rows") as kernel:
            delta = session.preview(removals=[(0, 1)])
            [batched] = session.preview_batch(removals=[(0, 1)])
            staged = session.stage(removals=[(0, 1)])
        assert delta.num_affected_rows > cap
        # Two chunks each for preview, preview_batch and stage.
        assert kernel.call_count == 6
        assert np.array_equal(apply_delta(session, delta), expected)
        assert np.array_equal(apply_delta(session, batched), expected)
        session.commit(staged)
        assert np.array_equal(session.distances, expected)

    def test_one_insertion_streams_through_the_row_cap(self):
        # Inserting the handle brings every leaf within 2 of vertex 0: the
        # relaxed rows outnumber one stacked pass and stream in chunks.
        graph = broom(2100, with_handle=False)
        session = DistanceSession(graph, 3)
        cap = session._batch_slab_row_cap()
        expected = reference_after(graph, [], [(0, 1)], 3)
        with chunk_counter("_relax_rows") as kernel:
            delta = session.preview(insertions=[(0, 1)])
            [batched] = session.preview_batch(insertions=[(0, 1)])
            staged = session.stage(insertions=[(0, 1)])
        assert delta.num_affected_rows > cap
        # Two chunks each for preview, preview_batch and stage.
        assert kernel.call_count == 6
        assert np.array_equal(apply_delta(session, delta), expected)
        assert np.array_equal(apply_delta(session, batched), expected)
        session.commit(staged)
        assert np.array_equal(session.distances, expected)

    @pytest.mark.parametrize("removal", [True, False],
                             ids=["removal", "insertion"])
    def test_tiled_budget_cap_streams_one_edit(self, removal):
        # The tiled tier caps a stacked pass at budget // (16 n) rows: 20
        # here, so toggling the handle streams through five chunks.
        n = 100
        graph = broom(n, with_handle=removal)
        session = tiled_session(graph, 3, budget_bytes=16 * n * 20)
        cap = session._batch_slab_row_cap()
        assert cap == 20
        removals, insertions = (([(0, 1)], []) if removal
                                else ([], [(0, 1)]))
        edit = {"removals": removals, "insertions": insertions}
        expected = reference_after(graph, removals, insertions, 3)
        name = "_expand_rows" if removal else "_relax_rows"
        with chunk_counter(name) as kernel:
            delta = session.preview(removals, insertions)
            [batched] = session.preview_batch(**edit)
            staged = session.stage(**edit)
        assert delta.num_affected_rows == n
        # Five chunks each for preview, preview_batch and stage.
        assert kernel.call_count == 15
        assert np.array_equal(apply_delta(session, delta), expected)
        assert np.array_equal(apply_delta(session, batched), expected)
        session.commit(staged)
        assert np.array_equal(full_matrix(session), expected)
        session.close()


class TestWideFrontiers:
    def test_256_wide_frontier_is_not_truncated(self):
        # Regression: a uint8 matmul accumulator wraps at 256 common
        # neighbors, silently reporting reachable vertices as UNREACHABLE.
        hub, sink = 1, 258
        leaves = range(2, 258)  # exactly 256 intermediate vertices
        edges = [(0, hub)]
        edges += [(hub, leaf) for leaf in leaves]
        edges += [(leaf, sink) for leaf in leaves]
        graph = Graph(259, edges=edges)
        reference = bounded_distance_matrix(graph, 3, engine="bfs")
        assert reference[0, sink] == 3
        assert np.array_equal(bounded_distance_matrix(graph, 3, engine="numpy"),
                              reference)
        session = DistanceSession(graph, 3)
        session.apply(removals=[(0, hub)])
        session.apply(insertions=[(0, hub)])
        assert np.array_equal(session.distances, reference)


class TestValidation:
    def test_rejects_bad_length(self):
        with pytest.raises(ConfigurationError):
            DistanceSession(Graph(3), 0)

    def test_preview_of_present_edge_insertion_raises_and_restores(self, paper_example_graph):
        session = DistanceSession(paper_example_graph, 2)
        before = paper_example_graph.edge_set()
        with pytest.raises(InvalidEdgeError):
            # (0, 1) is already present, so the removal is undone and the
            # offending insertion never sticks.
            session.preview(removals=[(4, 5)], insertions=[(0, 1)])
        assert paper_example_graph.edge_set() == before


class TestPreviewBatch:
    """Every batch entry equals its sequential preview bit for bit.

    The one exception: a candidate that flips no cell across the L
    boundary comes back as ``None``.
    """

    @pytest.mark.parametrize("length", [1, 2, 3])
    def test_removal_batch_matches_sequential_previews(self, paper_example_graph,
                                                       length):
        edges = list(paper_example_graph.edges())
        sequential_session = DistanceSession(paper_example_graph.copy(), length)
        expected = [sequential_session.preview(removals=[edge]) for edge in edges]
        batch_session = DistanceSession(paper_example_graph, length)
        observed = batch_session.preview_batch(removals=edges)
        assert len(observed) == len(expected)
        for got, want in zip(observed, expected):
            assert_batch_entry_matches(batch_session.distances, got, want,
                                       length)

    @pytest.mark.parametrize("length", [1, 2, 3])
    def test_insertion_batch_matches_sequential_previews(self, paper_example_graph,
                                                         length):
        edges = list(paper_example_graph.non_edges())
        sequential_session = DistanceSession(paper_example_graph.copy(), length)
        expected = [sequential_session.preview(insertions=[edge]) for edge in edges]
        batch_session = DistanceSession(paper_example_graph, length)
        observed = batch_session.preview_batch(insertions=edges)
        assert len(observed) == len(expected)
        for got, want in zip(observed, expected):
            assert_batch_entry_matches(batch_session.distances, got, want,
                                       length)

    @pytest.mark.parametrize("length", [1, 2, 3])
    @pytest.mark.parametrize("removal", [True, False],
                             ids=["removal", "insertion"])
    def test_tiled_batch_matches_dense_previews(self, length, removal):
        # Eighteen rows overflow the tiled tier's 16-row stacked pass, so
        # candidates' slabs split across chunks and tiles.
        graph = erdos_renyi_graph(18, 0.25, seed=3)
        edges = list(graph.edges() if removal else graph.non_edges())
        dense = DistanceSession(graph.copy(), length)
        kind = "removals" if removal else "insertions"
        expected = [dense.preview(**{kind: [edge]}) for edge in edges]
        tiled = tiled_session(graph, length)
        observed = tiled.preview_batch(**{kind: edges})
        assert len(observed) == len(expected)
        for got, want in zip(observed, expected):
            assert_batch_entry_matches(dense.distances, got, want, length)
        tiled.close()

    def test_batch_on_random_graphs_matches_scratch_matrices(self):
        for seed in range(4):
            graph = erdos_renyi_graph(18, 0.2, seed=seed)
            session = DistanceSession(graph, 2)
            edges = list(graph.edges())
            non_edges = list(graph.non_edges())[:40]
            edits = [([edge], []) for edge in edges]
            edits += [([], [edge]) for edge in non_edges]
            deltas = session.preview_batch(removals=edges, insertions=non_edges)
            for (removals, insertions), delta in zip(edits, deltas):
                expected = reference_after(graph, removals, insertions, 2)
                if delta is None:
                    # No pair crosses L: the within-2 pairs are unchanged.
                    assert np.array_equal(expected <= 2,
                                          session.distances <= 2)
                else:
                    assert np.array_equal(apply_delta(session, delta),
                                          expected)

    def test_batch_leaves_no_trace(self, paper_example_graph):
        session = DistanceSession(paper_example_graph, 2)
        before_edges = paper_example_graph.edge_set()
        before_matrix = session.distances.copy()
        session.preview_batch(removals=list(paper_example_graph.edges()),
                              insertions=list(paper_example_graph.non_edges()))
        assert paper_example_graph.edge_set() == before_edges
        assert np.array_equal(session.distances, before_matrix)

    def test_tiled_batch_leaves_no_trace(self, paper_example_graph):
        session = tiled_session(paper_example_graph, 2)
        before_edges = paper_example_graph.edge_set()
        before_matrix = full_matrix(session)
        session.preview_batch(removals=list(paper_example_graph.edges()),
                              insertions=list(paper_example_graph.non_edges()))
        assert paper_example_graph.edge_set() == before_edges
        assert np.array_equal(full_matrix(session), before_matrix)
        session.close()

    def test_empty_batch_returns_no_deltas(self, paper_example_graph):
        session = DistanceSession(paper_example_graph, 2)
        assert session.preview_batch() == []

    def test_small_slab_chunks_do_not_change_results(self, monkeypatch):
        graph = erdos_renyi_graph(16, 0.25, seed=1)
        session = DistanceSession(graph, 2)
        edges = list(graph.edges())
        non_edges = list(graph.non_edges())
        expected = session.preview_batch(removals=edges, insertions=non_edges)
        monkeypatch.setattr(DistanceSession, "_batch_slab_row_cap", lambda self: 1)
        monkeypatch.setattr(DistanceSession, "_batch_candidate_cap", lambda self: 1)
        chunked = session.preview_batch(removals=edges, insertions=non_edges)
        assert [got is None for got in chunked] == \
            [want is None for want in expected]
        for got, want in zip(chunked, expected):
            if want is not None:
                assert np.array_equal(got.rows, want.rows)
                assert np.array_equal(got.new_rows, want.new_rows)


class TestInitialDistances:
    """A session seeded with a precomputed matrix behaves like a cold one."""

    def test_adopts_precomputed_matrix_without_engine_run(self, paper_example_graph):
        precomputed = bounded_distance_matrix(paper_example_graph, 2)
        session = DistanceSession(paper_example_graph, 2,
                                  initial_distances=precomputed)
        assert np.array_equal(session.distances, precomputed)

    def test_seeded_session_produces_identical_deltas(self, paper_example_graph):
        cold = DistanceSession(paper_example_graph.copy(), 2)
        seeded = DistanceSession(
            paper_example_graph, 2,
            initial_distances=bounded_distance_matrix(paper_example_graph, 2))
        for edge in list(paper_example_graph.edges()):
            a = cold.preview(removals=[edge])
            b = seeded.preview(removals=[edge])
            assert np.array_equal(a.rows, b.rows)
            assert np.array_equal(a.new_rows, b.new_rows)

    def test_shape_mismatch_rejected(self, paper_example_graph):
        with pytest.raises(ConfigurationError):
            DistanceSession(paper_example_graph, 2,
                            initial_distances=np.zeros((3, 3), dtype=np.int32))


class TestFusedPreviewBatch:
    """Flip-free candidates come back as ``None``, and only they do."""

    @pytest.mark.parametrize("length", [1, 2, 3])
    def test_none_exactly_where_no_membership_flips(self, paper_example_graph,
                                                    length):
        session = DistanceSession(paper_example_graph, length)
        edges = list(paper_example_graph.edges())
        non_edges = list(paper_example_graph.non_edges())
        previews = [session.preview(removals=[edge]) for edge in edges]
        previews += [session.preview(insertions=[edge]) for edge in non_edges]
        fused = session.preview_batch(removals=edges, insertions=non_edges)
        assert len(previews) == len(fused)
        for want, got in zip(previews, fused):
            assert_batch_entry_matches(session.distances, got, want, length)

    def test_triangle_removal_at_l2_is_skipped(self):
        # Removing one triangle edge at L = 2 lengthens its pair to 2 via
        # the third vertex: distances change but nothing crosses L, so the
        # batch materializes no delta at all.
        triangle = Graph(3, edges=[(0, 1), (1, 2), (0, 2)])
        session = DistanceSession(triangle, 2)
        assert session.preview_batch(removals=[(0, 1)]) == [None]
        # The preview does see the change.
        assert session.preview(removals=[(0, 1)]).rows.size > 0

    def test_removal_at_l1_always_flips(self):
        triangle = Graph(3, edges=[(0, 1), (1, 2), (0, 2)])
        session = DistanceSession(triangle, 1)
        assert session.preview_batch(removals=[(0, 1)])[0] is not None
