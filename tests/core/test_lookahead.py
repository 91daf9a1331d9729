"""Unit tests for the look-ahead combination search."""

import random
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from repro.api.progress import NullObserver
from repro.core import (
    EdgeRemovalAnonymizer,
    EdgeRemovalInsertionAnonymizer,
    ExplicitPairTyping,
)
from repro.core.lookahead import _combinations_capped, search_best_combination
from repro.core.opacity_session import ScoredBatch
from repro.graph import erdos_renyi_graph
from tests.oracles import PerCandidateSession, run_on


def _make_evaluator(scores):
    """Build a batch evaluator from a mapping frozenset(edges) -> fraction.

    ``calls`` lists every evaluated combination in order, ``batches`` the
    combination list each call received; each level comes back as one
    :class:`ScoredBatch` with one type at every maximum.
    """
    calls = []
    batches = []

    def evaluate_batch(combos):
        combos = list(combos)
        batches.append(combos)
        calls.extend(tuple(combo) for combo in combos)
        fractions = [scores[frozenset(combo)] for combo in combos]
        yield ScoredBatch(combos,
                          np.array([f.numerator for f in fractions], dtype=np.int64),
                          np.array([f.denominator for f in fractions], dtype=np.int64),
                          np.ones(len(combos), dtype=np.int64))

    evaluate_batch.calls = calls
    evaluate_batch.batches = batches
    return evaluate_batch


class TestSearchBestCombination:
    def test_single_improving_move_is_taken_without_escalation(self):
        edges = [(0, 1), (0, 2)]
        scores = {
            frozenset({(0, 1)}): Fraction(1, 2),
            frozenset({(0, 2)}): Fraction(3, 4),
        }
        evaluate = _make_evaluator(scores)
        best = search_best_combination(edges, evaluate, current_fraction=Fraction(1),
                                       lookahead=2, rng=random.Random(0),
                                       max_combinations=100)
        assert best.edges == ((0, 1),)
        # No size-2 combination should have been evaluated.
        assert all(len(call) == 1 for call in evaluate.calls)

    def test_escalates_to_pairs_when_singles_do_not_improve(self):
        edges = [(0, 1), (0, 2)]
        scores = {
            frozenset({(0, 1)}): Fraction(1),
            frozenset({(0, 2)}): Fraction(1),
            frozenset({(0, 1), (0, 2)}): Fraction(1, 3),
        }
        evaluate = _make_evaluator(scores)
        best = search_best_combination(edges, evaluate, current_fraction=Fraction(1),
                                       lookahead=2, rng=random.Random(0),
                                       max_combinations=100)
        assert set(best.edges) == {(0, 1), (0, 2)}

    def test_lookahead_one_never_evaluates_pairs(self):
        edges = [(0, 1), (0, 2), (1, 2)]
        scores = {frozenset({edge}): Fraction(1) for edge in edges}
        evaluate = _make_evaluator(scores)
        best = search_best_combination(edges, evaluate, current_fraction=Fraction(1),
                                       lookahead=1, rng=random.Random(0),
                                       max_combinations=100)
        assert len(best.edges) == 1
        assert all(len(call) == 1 for call in evaluate.calls)

    def test_returns_best_overall_when_nothing_improves(self):
        edges = [(0, 1), (0, 2)]
        scores = {
            frozenset({(0, 1)}): Fraction(4, 5),
            frozenset({(0, 2)}): Fraction(9, 10),
            frozenset({(0, 1), (0, 2)}): Fraction(1),
        }
        evaluate = _make_evaluator(scores)
        best = search_best_combination(edges, evaluate, current_fraction=Fraction(1, 2),
                                       lookahead=2, rng=random.Random(0),
                                       max_combinations=100)
        assert best.edges == ((0, 1),)

    def test_empty_candidate_list_returns_none(self):
        best = search_best_combination([], lambda combos: iter(()),
                                       current_fraction=Fraction(1), lookahead=2,
                                       rng=random.Random(0), max_combinations=100)
        assert best is None


class TestCombinationCapping:
    def test_exact_enumeration_below_cap(self):
        edges = [(0, i) for i in range(1, 6)]
        combos = list(_combinations_capped(edges, 2, cap=100, rng=random.Random(0)))
        assert len(combos) == 10
        assert len(set(map(frozenset, combos))) == 10

    def test_sampling_beyond_cap(self):
        edges = [(0, i) for i in range(1, 30)]
        combos = list(_combinations_capped(edges, 3, cap=50, rng=random.Random(0)))
        assert len(combos) == 50
        assert len(set(combos)) == 50
        assert all(len(combo) == 3 for combo in combos)


class TestCappedSamplingNearPoolSize:
    """Regression tests for the overestimating partial-product bug: with
    ``size`` close to the pool, a running product of partial binomials peaks
    mid-way (e.g. C(30, 15) for pool=30) and wrongly trips the cap, making
    the rejection-sampling loop ask for more distinct combinations than
    exist — an infinite loop.  The count is now exact."""

    def test_size_near_pool_enumerates_exactly(self):
        # C(30, 28) = 435 <= cap, but the old partial product exceeded it.
        edges = [(0, i) for i in range(1, 31)]
        combos = list(_combinations_capped(edges, 28, cap=1000,
                                           rng=random.Random(0)))
        assert len(combos) == 435
        assert len(set(map(frozenset, combos))) == 435

    def test_size_equal_to_pool_is_single_combination(self):
        edges = [(0, i) for i in range(1, 21)]
        combos = list(_combinations_capped(edges, 20, cap=5,
                                           rng=random.Random(0)))
        assert combos == [tuple(edges)]

    def test_sampling_just_under_distinct_count_terminates(self):
        # cap one below the exact count: sampling must collect cap distinct
        # combinations and stop (the old code could never have).
        edges = [(0, i) for i in range(1, 31)]
        combos = list(_combinations_capped(edges, 28, cap=434,
                                           rng=random.Random(3)))
        assert len(combos) == 434
        assert len(set(combos)) == 434

    def test_sampling_is_seed_deterministic(self):
        edges = [(0, i) for i in range(1, 31)]
        first = list(_combinations_capped(edges, 28, cap=100,
                                          rng=random.Random(7)))
        second = list(_combinations_capped(edges, 28, cap=100,
                                           rng=random.Random(7)))
        assert first == second

    def test_search_with_lookahead_near_pool_size(self):
        edges = [(0, 1), (0, 2), (0, 3), (1, 2)]
        scores = {}
        for size in range(1, 5):
            from itertools import combinations as iter_combinations
            for combo in iter_combinations(edges, size):
                scores[frozenset(combo)] = Fraction(1)
        scores[frozenset(edges)] = Fraction(1, 4)
        evaluate = _make_evaluator(scores)
        best = search_best_combination(edges, evaluate,
                                       current_fraction=Fraction(1),
                                       lookahead=4, rng=random.Random(0),
                                       max_combinations=3)
        # Every level is capped at 3 sampled combinations; the search must
        # terminate and return a candidate even when C(4, size) > 3.
        assert best is not None

    def test_search_near_pool_size_is_seed_deterministic(self):
        edges = [(0, i) for i in range(1, 9)]
        scores = {}
        from itertools import combinations as iter_combinations
        for size in range(1, 9):
            for combo in iter_combinations(edges, size):
                scores[frozenset(combo)] = Fraction(len(combo), len(combo) + 1)
        runs = []
        for _ in range(2):
            evaluate = _make_evaluator(scores)
            best = search_best_combination(edges, evaluate,
                                           current_fraction=Fraction(1, 10),
                                           lookahead=7, rng=random.Random(11),
                                           max_combinations=5)
            runs.append((best.edges, tuple(evaluate.calls)))
        assert runs[0] == runs[1]


class TestBatchEvaluation:
    def test_size_one_level_uses_the_batch_evaluator(self):
        edges = [(0, 1), (0, 2)]
        scores = {
            frozenset({(0, 1)}): Fraction(1, 2),
            frozenset({(0, 2)}): Fraction(3, 4),
        }
        evaluate = _make_evaluator(scores)
        best = search_best_combination(edges, evaluate,
                                       current_fraction=Fraction(1),
                                       lookahead=2, rng=random.Random(0),
                                       max_combinations=100)
        assert best.edges == ((0, 1),)
        assert evaluate.batches == [[((0, 1),), ((0, 2),)]]

    def test_every_level_reaches_evaluate_batch_in_combination_order(self):
        edges = [(0, 1), (0, 2), (0, 3), (1, 2)]
        scores = {frozenset(combo): Fraction(1)
                  for size in range(1, 5) for combo in combinations(edges, size)}
        scores[frozenset(edges[:3])] = Fraction(1, 3)
        evaluate = _make_evaluator(scores)
        best = search_best_combination(edges, evaluate,
                                       current_fraction=Fraction(1),
                                       lookahead=4, rng=random.Random(0),
                                       max_combinations=100)
        assert best.edges == tuple(edges[:3])
        # One call per level, sizes 1..3 (size 3 improves), each holding
        # the level's combinations in enumeration order.
        assert evaluate.batches == [list(combinations(edges, size))
                                    for size in (1, 2, 3)]
        assert evaluate.calls == [combo for batch in evaluate.batches
                                  for combo in batch]

    def test_sampled_level_goes_through_one_batch(self):
        edges = [(0, i) for i in range(1, 9)]
        scores = {frozenset(combo): Fraction(1)
                  for size in (1, 2) for combo in combinations(edges, size)}
        evaluate = _make_evaluator(scores)
        search_best_combination(edges, evaluate, current_fraction=Fraction(1),
                                lookahead=2, rng=random.Random(4),
                                max_combinations=10)
        # C(8, 1) = 8 fits under the cap; C(8, 2) = 28 is sampled down to
        # 10 distinct pairs, all drawn before the level's single call.
        singles, pairs = evaluate.batches
        assert singles == list(combinations(edges, 1))
        assert len(pairs) == len(set(pairs)) == 10
        assert all(len(combo) == 2 for combo in pairs)

    def test_seventh_positional_argument_must_be_none(self):
        edges = [(0, 1)]
        scores = {frozenset({(0, 1)}): Fraction(1, 2)}
        best = search_best_combination(edges, _make_evaluator(scores),
                                       Fraction(1), 1, random.Random(0), 10,
                                       None)
        assert best.edges == ((0, 1),)
        with pytest.raises(TypeError):
            search_best_combination(edges, _make_evaluator(scores),
                                    Fraction(1), 1, random.Random(0), 10,
                                    _make_evaluator(scores))


class _StopAtEvaluation(NullObserver):
    """Stop the run once evaluation ``limit`` has been reported."""

    def __init__(self, limit):
        self.limit = limit
        self.seen = 0

    def on_evaluation(self, evaluations):
        self.seen = evaluations

    def should_stop(self):
        return self.seen >= self.limit


class _StopAndRecord(_StopAtEvaluation):
    """Stop at evaluation ``limit`` and keep the checkpoints' RNG states."""

    def __init__(self, limit):
        super().__init__(limit)
        self.rng_states = []

    def on_checkpoint(self, checkpoint):
        self.rng_states.append(checkpoint.rng_state)


def _explicit_typing(graph):
    """Pairs labelled by ``(u + v) % 3``: two labels, every third pair untyped."""
    labels = {0: "a", 1: "b"}
    return ExplicitPairTyping({(u, v): labels[(u + v) % 3]
                               for u in range(graph.num_vertices)
                               for v in range(u + 1, graph.num_vertices)
                               if (u + v) % 3 in labels})


class TestStopInsideCombinationLevels:
    """A stop inside the size-2 level lands on the exact evaluation, on the
    product session and on the per-candidate oracle alike, even though the
    product computes a whole chunk first."""

    @staticmethod
    def _graph():
        # 15 edges whose first step has no improving single removal: the
        # initial evaluation, 15 singles, then C(15, 2) = 105 pairs.  Nine
        # degree-pair types share the 15 edges, so many pairs remove two
        # edges of one type.
        return erdos_renyi_graph(12, 0.3, seed=3)

    @pytest.mark.parametrize("algorithm,params,typed,limit", [
        # Inside the size-3 level: 1 + 15 + 105 evaluations precede it.
        (EdgeRemovalAnonymizer, dict(lookahead=3), False, 200),
        # A sampled size-2 level: 20 of C(15, 2) = 105 pairs.
        (EdgeRemovalAnonymizer, dict(lookahead=2, max_combinations=20),
         False, 30),
        # Removal/Insertion: inside the pair level, then inside the
        # insertion scan that follows the first removal.
        (EdgeRemovalInsertionAnonymizer, dict(lookahead=2), False, 60),
        (EdgeRemovalInsertionAnonymizer, dict(lookahead=2), False, 150),
        # An explicit typing with untyped pairs, look-ahead 3.
        (EdgeRemovalAnonymizer, dict(lookahead=3), True, 25),
        (EdgeRemovalAnonymizer, dict(lookahead=3), True, 90),
    ])
    def test_stop_matches_per_candidate_oracle(self, algorithm, params, typed,
                                               limit):
        """Same stop point, edits, graph and RNG state as the oracle.

        The RNG state travels in the stop's checkpoints, so it proves the
        batched tie-break drew exactly the per-candidate draws before the
        stop.
        """
        graph = self._graph()
        typing = _explicit_typing(graph) if typed else None
        runs = []
        for session_class in (None, PerCandidateSession):
            observer = _StopAndRecord(limit)
            anonymizer = algorithm(length_threshold=1, theta=0.0, seed=0,
                                   prune_candidates=False, **params)
            if session_class is None:
                result = anonymizer.anonymize(graph, typing=typing,
                                              observer=observer)
            else:
                result, served = run_on(session_class, anonymizer, graph,
                                        typing=typing, observer=observer)
                assert served >= limit
            assert observer.seen == limit
            assert result.stop_reason == "observer"
            assert result.evaluations == limit + 1
            runs.append((result.steps, result.anonymized_graph,
                         observer.rng_states))
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("scan_mode", ["per_candidate", "batched"])
    @pytest.mark.parametrize("limit", [17, 40, 121])
    def test_stop_at_exact_evaluation(self, scan_mode, limit):
        graph = self._graph()
        assert graph.num_edges == 15
        observer = _StopAtEvaluation(limit)
        anonymizer = EdgeRemovalAnonymizer(
            length_threshold=1, theta=0.0, seed=0, lookahead=2,
            prune_candidates=False)
        if scan_mode == "per_candidate":
            result, served = run_on(PerCandidateSession, anonymizer, graph,
                                    observer=observer)
            assert served >= limit
        else:
            result = anonymizer.anonymize(graph, observer=observer)
        assert observer.seen == limit
        assert result.stop_reason == "observer"
        # The stop's re-evaluation of the current graph adds one.
        assert result.evaluations == limit + 1
        assert result.steps == []
        # Every tentative pair removal was undone.
        assert result.anonymized_graph == graph
        assert result.anonymized_graph.edge_set() == graph.edge_set()

    def test_unstopped_first_step_spans_both_levels(self):
        graph = self._graph()
        result = EdgeRemovalAnonymizer(
            length_threshold=1, theta=0.0, seed=0, lookahead=2,
            prune_candidates=False, max_steps=1).anonymize(graph)
        assert result.evaluations == 1 + 15 + 105 + 1
        assert len(result.steps[0].edges) == 2
