"""Unit tests for the stateful opacity session and the evaluation modes."""

from __future__ import annotations

import pytest

from repro.api.progress import NullObserver
from repro.baselines import (
    GadedMaxAnonymizer,
    GadedRandAnonymizer,
    GadesAnonymizer,
)
from repro.core import (
    DegreePairTyping,
    EdgeRemovalAnonymizer,
    EdgeRemovalInsertionAnonymizer,
    ExplicitPairTyping,
    OpacityComputer,
    OpacitySession,
)
from repro.errors import ConfigurationError
from repro.graph import Graph, erdos_renyi_graph

ALL_ALGORITHMS = [
    (EdgeRemovalAnonymizer, dict(length_threshold=2, theta=0.4, seed=0)),
    (EdgeRemovalInsertionAnonymizer,
     dict(length_threshold=2, theta=0.5, seed=1, insertion_candidate_cap=40)),
    (GadedRandAnonymizer, dict(theta=0.4, seed=0)),
    (GadedMaxAnonymizer, dict(theta=0.4, seed=0)),
    (GadesAnonymizer, dict(theta=0.55, seed=0, max_steps=4, swap_sample_size=200)),
]


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
        computer = OpacityComputer(DegreePairTyping(paper_example_graph), 2)
        with pytest.raises(ConfigurationError):
            OpacitySession(computer, paper_example_graph, mode="lazy")

    @pytest.mark.parametrize("mode", ["scratch", "incremental"])
    def test_current_matches_stateless_evaluator(self, paper_example_graph, mode):
        computer = OpacityComputer(DegreePairTyping(paper_example_graph), 2)
        session = OpacitySession(computer, paper_example_graph, mode=mode)
        expected = computer.evaluate(paper_example_graph)
        observed = session.current()
        assert observed.max_fraction == expected.max_fraction
        assert observed.types_at_max == expected.types_at_max
        assert dict(observed.per_type) == dict(expected.per_type)

    @pytest.mark.parametrize("mode", ["scratch", "incremental"])
    def test_evaluate_edit_leaves_no_trace(self, paper_example_graph, mode):
        computer = OpacityComputer(DegreePairTyping(paper_example_graph), 2)
        session = OpacitySession(computer, paper_example_graph, mode=mode)
        before = paper_example_graph.edge_set()
        session.evaluate_edit(removals=[(0, 1)])
        session.evaluate_edit(insertions=[(0, 6)])
        assert paper_example_graph.edge_set() == before

    def test_evaluate_edit_matches_scratch_reference(self, paper_example_graph):
        typing = DegreePairTyping(paper_example_graph)
        computer = OpacityComputer(typing, 2)
        incremental = OpacitySession(computer, paper_example_graph.copy(),
                                     mode="incremental")
        scratch = OpacitySession(computer, paper_example_graph.copy(),
                                 mode="scratch")
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
        session = OpacitySession(computer, paper_example_graph, mode="incremental")
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
        incremental = OpacitySession(computer, graph.copy(), mode="incremental")
        scratch = OpacitySession(computer, graph.copy(), mode="scratch")
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
        incremental = algorithm(evaluation_mode="incremental", **params).anonymize(graph)
        scratch = algorithm(evaluation_mode="scratch", **params).anonymize(graph)
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


class TestObserverParity:
    """Cancellation latency is unchanged by the session refactor: observers
    are still polled after *every* tentative evaluation inside a scan, so an
    eval-count stop fires at the same point in both modes (satellite #6)."""

    @pytest.mark.parametrize("algorithm,params", ALL_ALGORITHMS)
    @pytest.mark.parametrize("limit", [3, 17])
    def test_stop_mid_scan_is_mode_independent(self, algorithm, params, limit):
        graph = erdos_renyi_graph(22, 0.25, seed=9)
        outcomes = {}
        for mode in ("incremental", "scratch"):
            observer = _StopAfterEvaluations(limit)
            result = algorithm(evaluation_mode=mode, **params).anonymize(
                graph, observer=observer)
            outcomes[mode] = (result.evaluations, result.stop_reason,
                              [step.edges for step in result.steps],
                              result.anonymized_graph.edge_set())
        assert outcomes["incremental"] == outcomes["scratch"]
        # The stop happened promptly: no more than one full step beyond the
        # evaluation budget was recorded.
        assert outcomes["incremental"][1] in ("observer", None)

    def test_stop_interrupts_within_a_single_scan(self):
        graph = erdos_renyi_graph(25, 0.3, seed=2)
        limit = 5
        for mode in ("incremental", "scratch"):
            observer = _StopAfterEvaluations(limit)
            result = EdgeRemovalAnonymizer(
                length_threshold=2, theta=0.0, seed=0,
                evaluation_mode=mode).anonymize(graph, observer=observer)
            assert result.stop_reason == "observer"
            # The scan for a single step spans |E| evaluations, so stopping
            # at 5 proves per-evaluation polling survived the refactor.
            assert result.evaluations <= limit + 2


class TestEvaluateEdits:
    """The batched scan API must reproduce per-candidate evaluation exactly."""

    @pytest.mark.parametrize("mode", ["scratch", "incremental"])
    def test_single_edge_batches_match_per_candidate(self, paper_example_graph, mode):
        computer = OpacityComputer(DegreePairTyping(paper_example_graph), 2)
        session = OpacitySession(computer, paper_example_graph, mode=mode)
        removals = [((edge,), ()) for edge in paper_example_graph.edges()]
        insertions = [((), (edge,)) for edge in paper_example_graph.non_edges()]
        for candidates in (removals, insertions):
            expected = [session.evaluate_edit(r, i) for r, i in candidates]
            assert session.evaluate_edits(candidates) == expected

    @pytest.mark.parametrize("mode", ["scratch", "incremental"])
    def test_multi_edge_candidates_match_per_candidate(self, mode):
        graph = erdos_renyi_graph(14, 0.3, seed=5)
        computer = OpacityComputer(DegreePairTyping(graph), 1)
        session = OpacitySession(computer, graph, mode=mode)
        edges = list(graph.edges())
        absent = list(graph.non_edges())
        candidates = [((edges[0], edges[1]), (absent[0], absent[1])),
                      ((edges[2],), (absent[2],)),
                      ((), (absent[3], absent[4]))]
        expected = [session.evaluate_edit(r, i) for r, i in candidates]
        assert session.evaluate_edits(candidates) == expected

    def test_batch_leaves_no_trace(self, paper_example_graph):
        computer = OpacityComputer(DegreePairTyping(paper_example_graph), 2)
        session = OpacitySession(computer, paper_example_graph, mode="incremental")
        before = paper_example_graph.edge_set()
        current = session.current()
        session.evaluate_edits([((edge,), ()) for edge in before])
        assert paper_example_graph.edge_set() == before
        assert session.current().max_fraction == current.max_fraction

    def test_empty_candidate_list(self, paper_example_graph):
        computer = OpacityComputer(DegreePairTyping(paper_example_graph), 2)
        session = OpacitySession(computer, paper_example_graph, mode="incremental")
        assert session.evaluate_edits([]) == []

    def test_explicit_typing_batches_match_per_candidate(self):
        graph = Graph(5, edges=[(0, 1), (1, 2), (2, 3), (3, 4)])
        typing = ExplicitPairTyping({(0, 2): "near", (0, 4): "far", (1, 3): "near"})
        computer = OpacityComputer(typing, 2)
        session = OpacitySession(computer, graph, mode="incremental")
        candidates = [((edge,), ()) for edge in graph.edges()]
        expected = [session.evaluate_edit(r, i) for r, i in candidates]
        assert session.evaluate_edits(candidates) == expected

    def test_batches_interleaved_with_applied_edits(self, paper_example_graph):
        computer = OpacityComputer(DegreePairTyping(paper_example_graph), 2)
        session = OpacitySession(computer, paper_example_graph, mode="incremental")
        for _ in range(3):
            candidates = [((edge,), ()) for edge in session.graph.edges()]
            evaluations = session.evaluate_edits(candidates)
            expected = [session.evaluate_edit(r, i) for r, i in candidates]
            assert evaluations == expected
            best = min(range(len(evaluations)),
                       key=lambda pos: evaluations[pos].fraction)
            session.apply_edit(*candidates[best])


class TestStackedL1Count:
    """At L = 1 ``evaluate_edits`` tallies every candidate's edited edges in
    one grouped count; it must equal the per-candidate previews exactly."""

    @staticmethod
    def _assert_matches_per_candidate(session, candidates):
        before = session.graph.edge_set()
        expected = [session.evaluate_edit(r, i) for r, i in candidates]
        assert session.evaluate_edits(candidates) == expected
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
        for evaluation in session.evaluate_edits(swaps):
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
        assert session.evaluate_edits([((), ())])[0].fraction == \
            session.current().max_fraction

    def test_empty_list(self):
        graph = erdos_renyi_graph(10, 0.3, seed=1)
        session = OpacitySession(
            OpacityComputer(DegreePairTyping(graph), 1), graph)
        assert session.evaluate_edits([]) == []


class TestViolatingPairIndices:
    def _max_types(self, session):
        current = session.current()
        return {key for key, entry in current.per_type.items()
                if entry.fraction == current.max_fraction}

    def test_incremental_mask_tracks_scratch_across_edits(self):
        graph = erdos_renyi_graph(16, 0.25, seed=3)
        computer = OpacityComputer(DegreePairTyping(graph), 2)
        incremental = OpacitySession(computer, graph.copy(), mode="incremental")
        scratch = OpacitySession(computer, graph.copy(), mode="scratch")
        for _ in range(6):
            max_types = self._max_types(incremental)
            left = incremental.violating_pair_indices(max_types)
            right = scratch.violating_pair_indices(max_types)
            assert left[0].tolist() == right[0].tolist()
            assert left[1].tolist() == right[1].tolist()
            edges = list(incremental.graph.edges())
            if not edges:
                break
            incremental.apply_edit(removals=[edges[0]])
            scratch.apply_edit(removals=[edges[0]])

    def test_mask_survives_from_scratch_fallback_deltas(self):
        graph = erdos_renyi_graph(16, 0.25, seed=4)
        computer = OpacityComputer(DegreePairTyping(graph), 2)
        incremental = OpacitySession(computer, graph.copy(), mode="incremental",
                                     fallback_row_fraction=0.0)
        scratch = OpacitySession(computer, graph.copy(), mode="scratch")
        max_types = self._max_types(incremental)
        incremental.violating_pair_indices(max_types)  # materialize the mask
        for edge in list(graph.edges())[:4]:
            incremental.apply_edit(removals=[edge])
            scratch.apply_edit(removals=[edge])
        max_types = self._max_types(incremental)
        left = incremental.violating_pair_indices(max_types)
        right = scratch.violating_pair_indices(max_types)
        assert left[0].tolist() == right[0].tolist()
        assert left[1].tolist() == right[1].tolist()


class TestScanModeEquivalence:
    @pytest.mark.parametrize("algorithm,params", ALL_ALGORITHMS)
    def test_end_to_end_runs_are_bit_identical(self, algorithm, params):
        graph = erdos_renyi_graph(22, 0.25, seed=9)
        batched = algorithm(scan_mode="batched", **params).anonymize(graph)
        sequential = algorithm(scan_mode="per_candidate", **params).anonymize(graph)
        assert_results_identical(batched, sequential)

    @pytest.mark.parametrize("algorithm,params", ALL_ALGORITHMS)
    def test_stop_mid_scan_is_scan_mode_independent(self, algorithm, params):
        graph = erdos_renyi_graph(22, 0.25, seed=9)
        outcomes = {}
        for scan_mode in ("per_candidate", "batched"):
            observer = _StopAfterEvaluations(9)
            result = algorithm(scan_mode=scan_mode, **params).anonymize(
                graph, observer=observer)
            outcomes[scan_mode] = (result.evaluations, result.stop_reason,
                                   [step.edges for step in result.steps],
                                   result.anonymized_graph.edge_set())
        assert outcomes["per_candidate"] == outcomes["batched"]

    def test_rejects_unknown_scan_mode(self):
        with pytest.raises(ConfigurationError):
            EdgeRemovalAnonymizer(scan_mode="vectorized")
        with pytest.raises(ConfigurationError):
            GadesAnonymizer(scan_mode="vectorized")


class TestLengthOneFastPath:
    """At L = 1 a batched scan skips the distance machinery entirely; its
    results (and the graph left behind) must match the slow paths exactly."""

    def test_l1_batch_matches_per_candidate_and_scratch(self):
        graph = erdos_renyi_graph(16, 0.3, seed=9)
        computer = OpacityComputer(DegreePairTyping(graph), 1)
        incremental = OpacitySession(computer, graph.copy(), mode="incremental")
        scratch = OpacitySession(computer, graph.copy(), mode="scratch")
        edges = list(graph.edges())
        absent = list(graph.non_edges())
        candidates = ([((edge,), ()) for edge in edges[:8]]
                      + [((), (edge,)) for edge in absent[:5]]
                      # a GADES-style swap: two removals plus two insertions
                      + [((edges[0], edges[1]), (absent[5], absent[6]))])
        batched = incremental.evaluate_edits(candidates)
        assert batched == [incremental.evaluate_edit(r, i) for r, i in candidates]
        assert batched == scratch.evaluate_edits(candidates)

    def test_l1_batch_leaves_no_trace(self):
        graph = erdos_renyi_graph(12, 0.3, seed=4)
        computer = OpacityComputer(DegreePairTyping(graph), 1)
        session = OpacitySession(computer, graph, mode="incremental")
        before = graph.edge_set()
        session.evaluate_edits([((edge,), ()) for edge in before])
        assert graph.edge_set() == before

    def test_l1_batch_after_applied_edits(self):
        graph = erdos_renyi_graph(12, 0.35, seed=6)
        computer = OpacityComputer(DegreePairTyping(graph), 1)
        session = OpacitySession(computer, graph, mode="incremental")
        for _ in range(2):
            candidates = [((edge,), ()) for edge in session.graph.edges()]
            evaluations = session.evaluate_edits(candidates)
            assert evaluations == [session.evaluate_edit(r, i)
                                   for r, i in candidates]
            best = min(range(len(evaluations)),
                       key=lambda pos: evaluations[pos].fraction)
            session.apply_edit(*candidates[best])
