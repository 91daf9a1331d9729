"""Unit tests for the stateful opacity session against its reference oracles."""

from __future__ import annotations

import re
import tracemalloc
from contextlib import ExitStack
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api.progress import CallbackObserver, NullObserver
from repro.baselines import (
    GadedMaxAnonymizer,
    GadedRandAnonymizer,
    GadesAnonymizer,
)
from repro.core import anonymizer as anonymizer_module
from repro.core import opacity_session as opacity_session_module
from repro.core import (
    DegreePairTyping,
    EdgeRemovalAnonymizer,
    EdgeRemovalInsertionAnonymizer,
    ExplicitPairTyping,
    OpacityComputer,
    OpacitySession,
)
from repro.datasets import load_sample
from repro.errors import ConfigurationError, InvalidEdgeError
from repro.graph import Graph, erdos_renyi_graph
from repro.graph.distance import bounded_distance_matrix
from repro.graph.distance_delta import DistanceSession
from repro.graph.distance_store import StoreConfig, TiledStore
from repro.graph.two_hop import triu_unflat
from tests.oracles import (
    PerCandidateSession,
    ScratchSession,
    largest_region_removal,
    outcomes,
    run_on,
    type_mask,
)

ALL_ALGORITHMS = [
    (EdgeRemovalAnonymizer, dict(length_threshold=2, theta=0.4, seed=0)),
    (EdgeRemovalInsertionAnonymizer,
     dict(length_threshold=2, theta=0.5, seed=1, insertion_candidate_cap=40)),
    (GadedRandAnonymizer, dict(theta=0.4, seed=0)),
    (GadedMaxAnonymizer, dict(theta=0.4, seed=0)),
    (GadesAnonymizer, dict(theta=0.55, seed=0, max_steps=4, swap_sample_size=200)),
]

#: The product session and its copy-evaluate-restore oracle, with the ids
#: of the evaluation modes they replaced.
SESSION_CLASSES = [pytest.param(ScratchSession, id="scratch"),
                   pytest.param(OpacitySession, id="incremental")]


def assert_results_identical(first, second):
    assert [(step.operation, step.edges, step.max_opacity_after)
            for step in first.steps] == \
           [(step.operation, step.edges, step.max_opacity_after)
            for step in second.steps]
    assert first.final_opacity == second.final_opacity
    assert first.evaluations == second.evaluations
    assert first.success == second.success
    assert first.stop_reason == second.stop_reason
    assert first.anonymized_graph == second.anonymized_graph
    assert first.distortion == second.distortion


class TestSessionBasics:
    def test_rejects_unknown_mode(self, paper_example_graph):
        # One evaluation path: the session takes no ``mode`` at all.
        computer = OpacityComputer(DegreePairTyping(paper_example_graph), 2)
        for mode in ("lazy", "scratch", "incremental"):
            with pytest.raises(TypeError, match="mode"):
                OpacitySession(computer, paper_example_graph, mode=mode)

    @pytest.mark.parametrize("session_class", SESSION_CLASSES)
    def test_current_matches_stateless_evaluator(self, paper_example_graph,
                                                 session_class):
        computer = OpacityComputer(DegreePairTyping(paper_example_graph), 2)
        session = session_class(computer, paper_example_graph)
        expected = computer.evaluate(paper_example_graph)
        observed = session.current()
        assert observed.max_fraction == expected.max_fraction
        assert observed.types_at_max == expected.types_at_max
        assert dict(observed.per_type) == dict(expected.per_type)

    @pytest.mark.parametrize("session_class", SESSION_CLASSES)
    def test_evaluate_edit_leaves_no_trace(self, paper_example_graph,
                                           session_class):
        computer = OpacityComputer(DegreePairTyping(paper_example_graph), 2)
        session = session_class(computer, paper_example_graph)
        before = paper_example_graph.edge_set()
        session.evaluate_edit(removals=[(0, 1)])
        session.evaluate_edit(insertions=[(0, 6)])
        assert paper_example_graph.edge_set() == before

    def test_evaluate_edit_matches_scratch_reference(self, paper_example_graph):
        typing = DegreePairTyping(paper_example_graph)
        computer = OpacityComputer(typing, 2)
        incremental = OpacitySession(computer, paper_example_graph.copy())
        scratch = ScratchSession(computer, paper_example_graph.copy())
        for edge in list(paper_example_graph.edges()):
            left = incremental.evaluate_edit(removals=[edge])
            right = scratch.evaluate_edit(removals=[edge])
            assert left == right
        for edge in list(paper_example_graph.non_edges()):
            left = incremental.evaluate_edit(insertions=[edge])
            right = scratch.evaluate_edit(insertions=[edge])
            assert left == right

    def test_apply_edit_keeps_state_in_sync(self, paper_example_graph):
        typing = DegreePairTyping(paper_example_graph)
        computer = OpacityComputer(typing, 2)
        session = OpacitySession(computer, paper_example_graph)
        session.apply_edit(removals=[(0, 1)])
        session.apply_edit(insertions=[(0, 6)])
        expected = computer.evaluate(paper_example_graph)
        observed = session.current()
        assert observed.max_fraction == expected.max_fraction
        assert dict(observed.per_type) == dict(expected.per_type)

    def test_explicit_typing_deltas(self):
        graph = Graph(5, edges=[(0, 1), (1, 2), (2, 3), (3, 4)])
        typing = ExplicitPairTyping({(0, 2): "near", (0, 4): "far", (1, 3): "near"})
        computer = OpacityComputer(typing, 2)
        incremental = OpacitySession(computer, graph.copy())
        scratch = ScratchSession(computer, graph.copy())
        assert incremental.evaluate_edit(removals=[(1, 2)]) == \
            scratch.evaluate_edit(removals=[(1, 2)])
        assert incremental.evaluate_edit(insertions=[(0, 4)]) == \
            scratch.evaluate_edit(insertions=[(0, 4)])
        incremental.apply_edit(removals=[(1, 2)])
        expected = computer.evaluate(incremental.graph)
        assert incremental.current().max_fraction == expected.max_fraction


class TestModeEquivalence:
    @pytest.mark.parametrize("algorithm,params", ALL_ALGORITHMS)
    def test_end_to_end_runs_are_bit_identical(self, algorithm, params):
        graph = erdos_renyi_graph(22, 0.25, seed=9)
        incremental = algorithm(**params).anonymize(graph)
        scratch, evaluations = run_on(ScratchSession, algorithm(**params), graph)
        assert evaluations == scratch.evaluations > 0
        assert_results_identical(incremental, scratch)


class _StopAfterEvaluations(NullObserver):
    """Stop the run once ``limit`` tentative evaluations have been observed."""

    def __init__(self, limit):
        self.limit = limit
        self.seen = 0

    def on_evaluation(self, evaluations):
        self.seen = evaluations

    def should_stop(self):
        return self.seen >= self.limit


class _StopAndKeepRng(_StopAfterEvaluations):
    """Stop at ``limit`` and keep the checkpoints' tie-breaking RNG states."""

    def __init__(self, limit):
        super().__init__(limit)
        self.rng_states = []

    def on_checkpoint(self, checkpoint):
        self.rng_states.append(checkpoint.rng_state)


def _stopped_outcome(result):
    return (result.evaluations, result.stop_reason,
            [step.edges for step in result.steps],
            result.anonymized_graph.edge_set())


def _assert_stops_alike(session_class, algorithm, params, graph, limit):
    """A ``limit``-evaluation stop ends product and oracle runs alike."""
    product = algorithm(**params).anonymize(
        graph, observer=_StopAfterEvaluations(limit))
    oracle, evaluations = run_on(session_class, algorithm(**params), graph,
                                 observer=_StopAfterEvaluations(limit))
    # A stop may land mid-chunk, so the oracle can serve a few extra.
    assert evaluations >= oracle.evaluations > 0
    assert _stopped_outcome(product) == _stopped_outcome(oracle)
    return product


class TestObserverParity:
    """Cancellation latency is independent of the session: a scan reports
    once per scored chunk and, when the observer asks to stop, bisects the
    chunk to the exact evaluation it stops at, so an eval-count stop fires
    at the same point on the product session and on the scratch oracle."""

    @pytest.mark.parametrize("algorithm,params", ALL_ALGORITHMS)
    @pytest.mark.parametrize("limit", [3, 17])
    def test_stop_mid_scan_is_mode_independent(self, algorithm, params, limit):
        graph = erdos_renyi_graph(22, 0.25, seed=9)
        result = _assert_stops_alike(ScratchSession, algorithm, params, graph,
                                     limit)
        # The stop happened promptly: no more than one full step beyond the
        # evaluation budget was recorded.
        assert result.stop_reason in ("observer", None)

    def test_stop_interrupts_within_a_single_scan(self):
        graph = erdos_renyi_graph(25, 0.3, seed=2)
        limit = 5
        anonymizer = EdgeRemovalAnonymizer(length_threshold=2, theta=0.0,
                                           seed=0)
        for result in (
                anonymizer.anonymize(graph,
                                     observer=_StopAfterEvaluations(limit)),
                run_on(ScratchSession, anonymizer, graph,
                       observer=_StopAfterEvaluations(limit))[0]):
            assert result.stop_reason == "observer"
            # The scan for a single step spans |E| evaluations, so stopping
            # at 5 proves the chunk-level report bisects to an exact stop.
            assert result.evaluations <= limit + 2


def _scan_chunks(size):
    """Patch both scan chunk sizes to ``size`` for the block."""
    stack = ExitStack()
    for name in ("COMPOSED_SCAN_CHUNK", "BATCH_SCAN_CHUNK"):
        stack.enter_context(mock.patch.object(anonymizer_module, name, size))
    return stack


#: Every algorithm that scans through ``scored_chunks``, with the lengths
#: it runs at (the baselines support L = 1 only).
CHUNKED_SCANS = [
    (EdgeRemovalAnonymizer, dict(lookahead=1), (1, 2, 3)),
    (EdgeRemovalAnonymizer, dict(lookahead=2), (1, 2, 3)),
    (EdgeRemovalInsertionAnonymizer, dict(lookahead=1), (1, 2, 3)),
    (EdgeRemovalInsertionAnonymizer, dict(lookahead=2), (1, 2, 3)),
    (GadesAnonymizer, dict(swap_sample_size=20), (1,)),
    (GadedMaxAnonymizer, {}, (1,)),
]


class TestChunkReports:
    """A scan reports once per scored chunk, yet a count-based stop lands
    on the exact evaluation a per-evaluation report would stop at."""

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_stop_across_chunk_boundaries(self, data):
        algorithm, params, lengths = data.draw(st.sampled_from(CHUNKED_SCANS))
        length = data.draw(st.sampled_from(lengths))
        anonymizer = algorithm(length_threshold=length, theta=0.0, seed=0,
                               max_steps=2, **params)
        graph = erdos_renyi_graph(12, 0.3, seed=3)
        with _scan_chunks(data.draw(st.integers(2, 5))):
            total = anonymizer.anonymize(graph).evaluations
            limit = data.draw(st.integers(1, total))
            stopped = _StopAndKeepRng(limit)
            product = anonymizer.anonymize(graph, observer=stopped)
        # One candidate per chunk reports every evaluation: the cadence of
        # the per-candidate oracle, which look-ahead levels use anyway.
        reference = _StopAndKeepRng(limit)
        with _scan_chunks(1):
            oracle, _ = run_on(PerCandidateSession, anonymizer, graph,
                               observer=reference)
        assert stopped.seen == reference.seen == limit
        assert _stopped_outcome(product) == _stopped_outcome(oracle)
        # The tie-break drew exactly the per-candidate draws before the stop.
        assert stopped.rng_states == reference.rng_states

    @pytest.mark.parametrize("algorithm,params,length", [
        (algorithm, params, length)
        for algorithm, params, lengths in CHUNKED_SCANS
        for length in sorted({lengths[0], lengths[-1]})])
    def test_one_report_per_scored_chunk(self, algorithm, params, length):
        graph = erdos_renyi_graph(12, 0.3, seed=3)
        chunks, reports = [], []
        score = OpacitySession.score_combinations

        def spy(session, endpoints, members, gained):
            chunks.append(len(members))
            return score(session, endpoints, members, gained)

        with _scan_chunks(3), \
                mock.patch.object(OpacitySession, "score_combinations", spy):
            result = algorithm(length_threshold=length, theta=0.0, seed=0,
                               max_steps=2, **params).anonymize(
                graph, observer=CallbackObserver(on_evaluation=reports.append))
        assert result.stop_reason != "observer"
        # Some chunk held several candidates, so per-evaluation reports
        # would have made more calls.
        assert sum(chunks) > len(chunks)
        # The driver evaluates the initial graph and each applied step.
        driver = 1 + result.num_steps
        assert len(reports) == len(chunks) + driver
        assert sum(chunks) + driver == result.evaluations


class TestEvaluateEdits:
    """The batched scan API must reproduce per-candidate evaluation exactly."""

    @pytest.mark.parametrize("session_class", SESSION_CLASSES)
    def test_single_edge_batches_match_per_candidate(self, paper_example_graph,
                                                     session_class):
        computer = OpacityComputer(DegreePairTyping(paper_example_graph), 2)
        session = session_class(computer, paper_example_graph)
        removals = [((edge,), ()) for edge in paper_example_graph.edges()]
        insertions = [((), (edge,)) for edge in paper_example_graph.non_edges()]
        for candidates in (removals, insertions):
            expected = [session.evaluate_edit(r, i) for r, i in candidates]
            assert outcomes(session.evaluate_edits(candidates)) == expected

    @pytest.mark.parametrize("session_class", SESSION_CLASSES)
    def test_multi_edge_candidates_match_per_candidate(self, session_class):
        graph = erdos_renyi_graph(14, 0.3, seed=5)
        computer = OpacityComputer(DegreePairTyping(graph), 1)
        session = session_class(computer, graph)
        edges = list(graph.edges())
        absent = list(graph.non_edges())
        candidates = [((edges[0], edges[1]), (absent[0], absent[1])),
                      ((edges[2],), (absent[2],)),
                      ((), (absent[3], absent[4]))]
        expected = [session.evaluate_edit(r, i) for r, i in candidates]
        assert outcomes(session.evaluate_edits(candidates)) == expected

    def test_batch_leaves_no_trace(self, paper_example_graph):
        computer = OpacityComputer(DegreePairTyping(paper_example_graph), 2)
        session = OpacitySession(computer, paper_example_graph)
        before = paper_example_graph.edge_set()
        current = session.current()
        session.evaluate_edits([((edge,), ()) for edge in before])
        assert paper_example_graph.edge_set() == before
        assert session.current().max_fraction == current.max_fraction

    def test_empty_candidate_list(self, paper_example_graph):
        computer = OpacityComputer(DegreePairTyping(paper_example_graph), 2)
        session = OpacitySession(computer, paper_example_graph)
        assert len(session.evaluate_edits([])) == 0

    def test_explicit_typing_batches_match_per_candidate(self):
        graph = Graph(5, edges=[(0, 1), (1, 2), (2, 3), (3, 4)])
        typing = ExplicitPairTyping({(0, 2): "near", (0, 4): "far", (1, 3): "near"})
        computer = OpacityComputer(typing, 2)
        session = OpacitySession(computer, graph)
        candidates = [((edge,), ()) for edge in graph.edges()]
        expected = [session.evaluate_edit(r, i) for r, i in candidates]
        assert outcomes(session.evaluate_edits(candidates)) == expected

    def test_batches_interleaved_with_applied_edits(self, paper_example_graph):
        computer = OpacityComputer(DegreePairTyping(paper_example_graph), 2)
        session = OpacitySession(computer, paper_example_graph)
        for _ in range(3):
            candidates = [((edge,), ()) for edge in session.graph.edges()]
            evaluations = outcomes(session.evaluate_edits(candidates))
            expected = [session.evaluate_edit(r, i) for r, i in candidates]
            assert evaluations == expected
            best = min(range(len(evaluations)),
                       key=lambda pos: evaluations[pos].fraction)
            session.apply_edit(*candidates[best])


class TestStackedL1Count:
    """At L = 1 ``evaluate_edits`` composes every candidate from its edited
    edges' signed type hits; a batch must equal its candidates scored alone."""

    @staticmethod
    def _assert_matches_per_candidate(session, candidates):
        before = session.graph.edge_set()
        expected = [session.evaluate_edit(r, i) for r, i in candidates]
        assert outcomes(session.evaluate_edits(candidates)) == expected
        assert session.graph.edge_set() == before

    def test_explicit_typing(self):
        graph = Graph(6, edges=[(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
        typing = ExplicitPairTyping({(0, 1): "a", (2, 3): "a", (1, 4): "a",
                                     (0, 5): "b", (3, 4): "b", (1, 2): "c"})
        session = OpacitySession(OpacityComputer(typing, 1), graph)
        candidates = [((edge,), ()) for edge in graph.edges()]
        candidates += [((), (edge,)) for edge in graph.non_edges()]
        candidates += [(((0, 1), (3, 4)), ((1, 4), (0, 5))),
                       (((1, 2),), ((0, 2),)),
                       ((), ())]
        self._assert_matches_per_candidate(session, candidates)

    def test_swaps_whose_gain_and_loss_cancel(self):
        # On a cycle every vertex has degree 2, so each swap removes two
        # (2, 2) pairs and inserts two: the type's count nets to zero.
        cycle = Graph(8, edges=[(i, (i + 1) % 8) for i in range(8)])
        session = OpacitySession(
            OpacityComputer(DegreePairTyping(cycle), 1), cycle)
        swaps = [(((0, 1), (4, 5)), ((0, 4), (1, 5))),
                 (((2, 3), (6, 7)), ((2, 6), (3, 7)))]
        self._assert_matches_per_candidate(session, swaps)
        unchanged = session.current()
        for evaluation in outcomes(session.evaluate_edits(swaps)):
            assert evaluation.fraction == unchanged.max_fraction
            assert evaluation.types_at_max == unchanged.types_at_max

    def test_gades_style_swaps_on_a_mixed_degree_graph(self):
        graph = erdos_renyi_graph(14, 0.3, seed=5)
        session = OpacitySession(
            OpacityComputer(DegreePairTyping(graph), 1), graph)
        edges = list(graph.edges())
        absent = list(graph.non_edges())
        swaps = [((edges[k], edges[k + 1]), (absent[k], absent[k + 1]))
                 for k in range(0, 10, 2)]
        self._assert_matches_per_candidate(session, swaps)

    def test_empty_candidate_inside_a_list(self):
        graph = erdos_renyi_graph(10, 0.3, seed=1)
        session = OpacitySession(
            OpacityComputer(DegreePairTyping(graph), 1), graph)
        edge = next(iter(graph.edges()))
        candidates = [((), ()), ((edge,), ()), ((), ())]
        self._assert_matches_per_candidate(session, candidates)
        assert session.evaluate_edits([((), ())]).outcome(0).fraction == \
            session.current().max_fraction

    def test_empty_list(self):
        graph = erdos_renyi_graph(10, 0.3, seed=1)
        session = OpacitySession(
            OpacityComputer(DegreePairTyping(graph), 1), graph)
        assert len(session.evaluate_edits([])) == 0

    def test_invalid_member_raises_and_padding_never_does(self):
        graph = erdos_renyi_graph(10, 0.3, seed=1)
        session = OpacitySession(
            OpacityComputer(DegreePairTyping(graph), 1), graph)
        edge = min(graph.edges())
        absent = min(graph.non_edges())
        # Ragged rows pad with -1; the padding must pass the check.
        assert len(session.evaluate_edits(
            [((edge,), (absent,)), ((), ()), ((edge,), ())])) == 3
        for candidates, message in (
                ([((), ()), ((absent,), ())], "not present"),
                ([((edge,), ()), ((), (edge,))], "already present")):
            with pytest.raises(InvalidEdgeError, match=message):
                session.evaluate_edits(candidates)


class TestViolatingPairIndices:
    def _max_types(self, session):
        current = session.current()
        return {key for key, entry in current.per_type.items()
                if entry.fraction == current.max_fraction}

    def test_incremental_mask_tracks_scratch_across_edits(self):
        graph = erdos_renyi_graph(16, 0.25, seed=3)
        computer = OpacityComputer(DegreePairTyping(graph), 2)
        incremental = OpacitySession(computer, graph.copy())
        scratch = ScratchSession(computer, graph.copy())
        for _ in range(6):
            max_types = self._max_types(incremental)
            left = incremental.violating_pair_indices(
                type_mask(incremental.computer.typing, max_types))
            right = scratch.violating_pair_indices(
                type_mask(scratch.computer.typing, max_types))
            assert left[0].tolist() == right[0].tolist()
            assert left[1].tolist() == right[1].tolist()
            edges = list(incremental.graph.edges())
            if not edges:
                break
            incremental.apply_edit(removals=[edges[0]])
            scratch.apply_edit(removals=[edges[0]])

    def test_mask_survives_largest_region_removals(self):
        # Each step removes the edge whose slab of affected rows is widest;
        # its flipped cells are folded into the within-L set.
        graph = erdos_renyi_graph(16, 0.25, seed=4)
        computer = OpacityComputer(DegreePairTyping(graph), 2)
        incremental = OpacitySession(computer, graph.copy())
        scratch = ScratchSession(computer, graph.copy())
        max_types = self._max_types(incremental)
        # Seed the within-L set.
        incremental.violating_pair_indices(
            type_mask(incremental.computer.typing, max_types))
        every_row = np.arange(graph.num_vertices)
        for _ in range(4):
            edge, region = largest_region_removal(
                scratch.distance_rows(every_row), 2)
            assert region > graph.num_vertices // 2
            incremental.apply_edit(removals=[edge])
            scratch.apply_edit(removals=[edge])
            max_types = self._max_types(incremental)
            left = incremental.violating_pair_indices(
                type_mask(incremental.computer.typing, max_types))
            right = scratch.violating_pair_indices(
                type_mask(scratch.computer.typing, max_types))
            assert left[0].tolist() == right[0].tolist()
            assert left[1].tolist() == right[1].tolist()

    def test_mask_survives_removals_past_the_tiled_row_cap(self):
        # The tiled session's 64-byte budget caps a stacked pass at 16
        # rows; each step's widest slab is larger, so it streams in chunks
        # before its flipped cells are folded into the within-L set.
        graph = erdos_renyi_graph(40, 0.15, seed=4)
        sessions = self._sessions(graph, 3)
        tiled, scratch = sessions[1], sessions[2]
        max_types = self._max_types(tiled)
        # Seed the within-L set.
        tiled.violating_pair_indices(type_mask(tiled.computer.typing,
                                               max_types))
        every_row = np.arange(graph.num_vertices)
        for _ in range(3):
            edge, region = largest_region_removal(
                tiled.distance_rows(every_row), 3)
            assert region > 16
            for session in sessions:
                session.apply_edit(removals=[edge])
            max_types = self._max_types(scratch)
            expected = scratch.violating_pair_indices(
                type_mask(scratch.computer.typing, max_types))
            for session in sessions[:2]:
                assert self._max_types(session) == max_types
                rows, cols = session.violating_pair_indices(
                    type_mask(session.computer.typing, max_types))
                assert rows.tolist() == expected[0].tolist()
                assert cols.tolist() == expected[1].tolist()
        for session in sessions:
            session.close()

    @staticmethod
    def _sessions(graph, length):
        """Dense and tiled product sessions, and the scratch oracle."""
        computer = OpacityComputer(DegreePairTyping(graph), length)
        tiled = StoreConfig(tier="tiled", budget_bytes=64, tile_rows=1)
        return [OpacitySession(computer, graph.copy()),
                OpacitySession(computer, graph.copy(), store_config=tiled),
                ScratchSession(computer, graph.copy())]

    @pytest.mark.parametrize("num_vertices,edges,expected", [
        (0, [], []),
        (1, [], []),
        (2, [], []),
        (2, [(0, 1)], [(0, 1)]),
    ])
    def test_tiny_graphs(self, num_vertices, edges, expected):
        graph = Graph(num_vertices, edges=edges)
        for session in self._sessions(graph, 2):
            rows, cols = session.violating_pair_indices(
                type_mask(session.computer.typing, self._max_types(session)))
            assert rows.dtype == np.int64 and cols.dtype == np.int64
            assert list(zip(rows.tolist(), cols.tolist())) == expected
            session.close()

    def test_empty_max_types_selects_nothing(self):
        graph = erdos_renyi_graph(12, 0.3, seed=5)
        for session in self._sessions(graph, 2):
            rows, cols = session.violating_pair_indices(
                type_mask(session.computer.typing, set()))
            assert rows.dtype == np.int64 and rows.size == 0 and cols.size == 0
            session.close()

    def test_graph_without_within_l_pairs(self):
        graph = Graph(7)
        for session in self._sessions(graph, 3):
            every_type = set(session.computer.typing.types())
            rows, cols = session.violating_pair_indices(
                type_mask(session.computer.typing, every_type))
            assert rows.size == 0 and cols.size == 0
            session.close()

    def test_pairs_are_int64_in_triu_order(self):
        graph = erdos_renyi_graph(14, 0.2, seed=6)
        matrix = bounded_distance_matrix(graph, 2)
        typing = DegreePairTyping(graph)
        for session in self._sessions(graph, 2):
            max_types = self._max_types(session)
            rows, cols = session.violating_pair_indices(
                type_mask(session.computer.typing, max_types))
            assert rows.dtype == np.int64 and cols.dtype == np.int64
            expected = [(i, j) for i in range(14) for j in range(i + 1, 14)
                        if matrix[i, j] <= 2 and typing.type_of(i, j) in max_types]
            assert list(zip(rows.tolist(), cols.tolist())) == expected
            session.close()

    def test_edit_and_exact_inverse_restore_the_answer(self):
        graph = erdos_renyi_graph(14, 0.25, seed=7)
        edge = next(iter(graph.edges()))
        non_edge = next(iter(graph.non_edges()))
        for session in self._sessions(graph, 2):
            every_type = set(session.computer.typing.types())
            before = session.violating_pair_indices(
                type_mask(session.computer.typing, every_type))
            session.apply_edit(removals=[edge])
            session.violating_pair_indices(
                type_mask(session.computer.typing, every_type))
            session.apply_edit(insertions=[edge])
            session.apply_edit(insertions=[non_edge])
            session.apply_edit(removals=[non_edge])
            after = session.violating_pair_indices(
                type_mask(session.computer.typing, every_type))
            assert before[0].tolist() == after[0].tolist()
            assert before[1].tolist() == after[1].tolist()
            session.close()


class TestOpeningCountReadsTilesInPlace:
    """The opening count streams the store's tiles, copying no rows."""

    @pytest.mark.parametrize("tile_rows", [1, 7, 40])
    def test_l2_opening_count_makes_no_row_reads(self, tile_rows):
        graph = erdos_renyi_graph(40, 0.1, seed=5)
        computer = OpacityComputer(DegreePairTyping(graph), 2)
        config = StoreConfig(tier="tiled", budget_bytes=2 * tile_rows * 40,
                             tile_rows=tile_rows)
        original = TiledStore.rows
        with mock.patch.object(TiledStore, "rows", autospec=True,
                               side_effect=original) as spy:
            session = OpacitySession(computer, graph.copy(),
                                     store_config=config)
            withins = session.type_counts()[0].copy()
            store = TiledStore(graph, 2, tile_rows=tile_rows,
                               budget_bytes=config.budget_bytes)
            flat = opacity_session_module._within_pair_set(store, 2)
        assert spy.call_count == 0
        session.close()
        store.close()
        dense = computer.within_counts(bounded_distance_matrix(graph, 2))
        np.testing.assert_array_equal(withins, dense)
        typed = computer.type_indices(*triu_unflat(flat, 40))
        np.testing.assert_array_equal(
            np.bincount(typed, minlength=dense.size + 1)[:dense.size], dense)


class TestViolatingPairMemory:
    """The pruning query's state is O(within-L pairs), never O(n²)."""

    def test_tiled_query_peak_stays_below_one_byte_per_pair(self):
        n = 3000
        graph = load_sample("gnutella", n, seed=0)
        session = OpacitySession(
            OpacityComputer(DegreePairTyping(graph), 2), graph,
            store_config=StoreConfig(tier="tiled", budget_bytes=1 << 20))
        bound = n * (n - 1) // 2

        def traced_query_peak():
            current = session.current()
            max_types = {key for key, entry in current.per_type.items()
                         if entry.fraction == current.max_fraction}
            tracemalloc.start()
            try:
                rows, _ = session.violating_pair_indices(
                    type_mask(session.computer.typing, max_types))
                return tracemalloc.get_traced_memory()[1], rows
            finally:
                tracemalloc.stop()

        try:
            first, rows = traced_query_peak()
            assert rows.size > 0  # premise: the query has pairs to return
            session.apply_edit(removals=[next(iter(graph.edges()))])
            later, _ = traced_query_peak()
        finally:
            session.close()
        assert first < bound, f"first query traced {first} B >= {bound} B"
        assert later < bound, f"later query traced {later} B >= {bound} B"


class TestScanModeEquivalence:
    @pytest.mark.parametrize("algorithm,params", ALL_ALGORITHMS)
    def test_end_to_end_runs_are_bit_identical(self, algorithm, params):
        graph = erdos_renyi_graph(22, 0.25, seed=9)
        batched = algorithm(**params).anonymize(graph)
        sequential, evaluations = run_on(PerCandidateSession,
                                         algorithm(**params), graph)
        assert evaluations == sequential.evaluations > 0
        assert_results_identical(batched, sequential)

    @pytest.mark.parametrize("algorithm,params", ALL_ALGORITHMS)
    def test_stop_mid_scan_is_scan_mode_independent(self, algorithm, params):
        graph = erdos_renyi_graph(22, 0.25, seed=9)
        _assert_stops_alike(PerCandidateSession, algorithm, params, graph, 9)

    def test_rejects_retired_scan_knobs(self):
        # scan_workers alone chooses the scan, and the L = 1-only baselines
        # never start a pool, so they take no scan knob at all: the retired
        # one is unknown to every config, and scan_workers is refused as a
        # knob outside the baselines' registered ones.
        with pytest.raises(TypeError, match="scan_mode"):
            EdgeRemovalAnonymizer(scan_mode="parallel")
        for baseline in (GadesAnonymizer, GadedRandAnonymizer,
                         GadedMaxAnonymizer):
            with pytest.raises(TypeError, match="scan_mode"):
                baseline(scan_mode="parallel")
            with pytest.raises(ConfigurationError,
                               match="does not accept parameter 'scan_workers'"):
                baseline(scan_workers=2)


class TestLengthOneFastPath:
    """At L = 1 a batched scan skips the distance machinery entirely; its
    results (and the graph left behind) must match the slow paths exactly."""

    def test_l1_batch_matches_per_candidate_and_scratch(self):
        graph = erdos_renyi_graph(16, 0.3, seed=9)
        computer = OpacityComputer(DegreePairTyping(graph), 1)
        incremental = OpacitySession(computer, graph.copy())
        scratch = ScratchSession(computer, graph.copy())
        edges = list(graph.edges())
        absent = list(graph.non_edges())
        candidates = ([((edge,), ()) for edge in edges[:8]]
                      + [((), (edge,)) for edge in absent[:5]]
                      # a GADES-style swap: two removals plus two insertions
                      + [((edges[0], edges[1]), (absent[5], absent[6]))])
        batched = outcomes(incremental.evaluate_edits(candidates))
        assert batched == [incremental.evaluate_edit(r, i) for r, i in candidates]
        assert batched == outcomes(scratch.evaluate_edits(candidates))

    def test_l1_batch_leaves_no_trace(self):
        graph = erdos_renyi_graph(12, 0.3, seed=4)
        computer = OpacityComputer(DegreePairTyping(graph), 1)
        session = OpacitySession(computer, graph)
        before = graph.edge_set()
        session.evaluate_edits([((edge,), ()) for edge in before])
        assert graph.edge_set() == before

    def test_l1_batch_after_applied_edits(self):
        graph = erdos_renyi_graph(12, 0.35, seed=6)
        computer = OpacityComputer(DegreePairTyping(graph), 1)
        session = OpacitySession(computer, graph)
        for _ in range(2):
            candidates = [((edge,), ()) for edge in session.graph.edges()]
            evaluations = outcomes(session.evaluate_edits(candidates))
            assert evaluations == [session.evaluate_edit(r, i)
                                   for r, i in candidates]
            best = min(range(len(evaluations)),
                       key=lambda pos: evaluations[pos].fraction)
            session.apply_edit(*candidates[best])


class TestOneCheckPerBatch:
    """Each scored batch is checked once, by ``_check_cells``, at every L."""

    @pytest.mark.parametrize("length", [1, 2, 3])
    def test_every_scored_chunk_checks_once(self, length, monkeypatch):
        checks = []
        score = OpacitySession.score_combinations
        check = OpacitySession._check_cells

        def spy_score(session, *args):
            checks.append(0)
            return score(session, *args)

        def spy_check(session, *args):
            checks[-1] += 1
            return check(session, *args)

        monkeypatch.setattr(OpacitySession, "score_combinations", spy_score)
        monkeypatch.setattr(OpacitySession, "_check_cells", spy_check)
        graph = erdos_renyi_graph(16, 0.3, seed=3)
        with _scan_chunks(3):
            result = EdgeRemovalInsertionAnonymizer(
                length_threshold=length, theta=0.2, lookahead=2, seed=0,
                max_steps=2).anonymize(graph)
        # Premise: steps were taken, each over many scored chunks.
        assert result.num_steps and len(checks) > 2 * result.num_steps
        assert checks == [1] * len(checks)

    @pytest.mark.parametrize("length", [1, 2, 3])
    def test_cells_no_member_names_are_never_read(self, length):
        # Vertex 2 is outside the graph, but only padding names its cell.
        graph = Graph(2, [(0, 1)])
        computer = OpacityComputer(DegreePairTyping(graph), length)
        level = (np.array([[2, 0]]), np.array([[-1]]), np.array([[False]]))
        session = OpacitySession(computer, graph.copy())
        try:
            observed = session.score_combinations(*level)
        finally:
            session.close()
        expected = ScratchSession(computer, graph.copy()).score_combinations(
            *level)
        assert [array.tolist() for array in observed] == \
            [array.tolist() for array in expected]

    @pytest.mark.parametrize("tiled", [False, True], ids=["dense", "tiled"])
    def test_single_member_levels_skip_per_edge_checks(self, tiled):
        graph = erdos_renyi_graph(20, 0.25, seed=2)
        computer = OpacityComputer(DegreePairTyping(graph), 3)
        config = StoreConfig(tier="tiled", budget_bytes=2048) if tiled \
            else None
        session = OpacitySession(computer, graph.copy(), store_config=config)
        edges = np.stack(session.edge_endpoints(), axis=1)
        endpoints = np.concatenate(
            [edges, np.array(sorted(graph.non_edges()), dtype=np.int64)])
        members = np.arange(len(endpoints)).reshape(-1, 1)
        gained = members >= len(edges)
        forbidden = mock.Mock(side_effect=AssertionError("per-edge check"))
        batches = []
        preview_batch = DistanceSession.preview_batch

        def counting(distance, *args):
            batches.append(args)
            return preview_batch(distance, *args)

        try:
            with mock.patch.object(Graph, "check_edit", forbidden), \
                    mock.patch.object(DistanceSession, "preview", forbidden), \
                    mock.patch.object(DistanceSession, "preview_batch",
                                      counting):
                observed = session.score_combinations(endpoints, members,
                                                      gained)
        finally:
            session.close()
        # One stacked pass over the removals and insertions together.
        assert len(batches) == 1
        expected = ScratchSession(computer, graph.copy()).score_combinations(
            endpoints, members, gained)
        assert [array.tolist() for array in observed] == \
            [array.tolist() for array in expected]


class TestInOrderMemberValidation:
    """Every L validates a candidate's members in order — removals, then
    insertions, each against the graph its earlier members leave — as
    applying them to the graph one by one does."""

    EDGE = (0, 2)
    CASES = {
        "remove-twice": (((0, 2), (0, 2)), (), "not present"),
        "insert-twice": ((), ((0, 2), (0, 2)), "already present"),
        "remove-then-reinsert": (((0, 2),), ((0, 2),), None),
    }

    @pytest.mark.parametrize("length", [1, 2, 3])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_session_matches_a_fresh_scratch_session(self, length, case):
        removals, insertions, error = self.CASES[case]
        graph = erdos_renyi_graph(30, 0.2, seed=7)
        assert graph.has_edge(*self.EDGE)
        if not removals:
            graph.remove_edge(*self.EDGE)  # the insertions need it absent
        computer = OpacityComputer(DegreePairTyping(graph), length)
        session = OpacitySession(computer, graph.copy())
        scratch = ScratchSession(computer, graph.copy())
        if error is None:
            assert session.evaluate_edit(removals, insertions) == \
                scratch.evaluate_edit(removals, insertions)
            assert session.evaluate_edit(removals, insertions).fraction == \
                session.current().max_fraction
        else:
            message = re.escape(f"edge {self.EDGE} {error}")
            for evaluator in (session, scratch):
                with pytest.raises(InvalidEdgeError, match=message):
                    evaluator.evaluate_edit(removals, insertions)
        # Nothing is left applied, by the product or by the oracle.
        assert session.graph == graph
        assert scratch.graph == graph
