"""Property-based differential tests for the evaluation-session layer.

The incremental sessions promise *bit-identical* results to the stateless
from-scratch evaluator: same ``Fraction`` opacities, same ``types_at_max``,
same per-type counts, and — for whole anonymization runs — the same step
sequence under a fixed seed.  These tests drive random graphs through random
edit sequences and check exactly that,
against the reference sessions of :mod:`tests.oracles`.  At L = 2 every
session check runs on both representations of the common-neighbour
counts (triu planes and sorted codes, :func:`session_configs`).
"""

from __future__ import annotations

import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    OpacityComputer,
    OpacitySession,
)
from repro.errors import ReproError
from repro.graph.distance import bounded_distance_matrix
from repro.graph.distance_delta import DistanceSession
from repro.graph.distance_store import StoreConfig
from repro.graph.graph import Graph
from tests.oracles import (
    PerCandidateSession,
    ScratchSession,
    assert_batch_entry_matches,
    outcomes,
    run_on,
    type_mask,
)
from tests.property.strategies import (
    TWO_HOP_BUDGETS,
    combination_levels,
    combined_edit_scripts,
    edit_scripts,
    graphs,
    length_bounds,
    messy_levels,
    thetas,
    two_hop_config,
    typings,
)


def session_configs(length):
    """The ``store_config`` of each session a check at ``length`` opens.

    At L = 2 one per representation of the counts, else the default.
    """
    if length == 2:
        return [two_hop_config(state) for state in sorted(TWO_HOP_BUDGETS)]
    return [None]


class TestDistanceSessionProperties:
    @given(edit_scripts(), length_bounds)
    @settings(max_examples=40, deadline=None)
    def test_applied_edits_track_scratch_matrices(self, script_case, length):
        graph, script = script_case
        session = DistanceSession(graph, length)
        for kind, edge in script:
            if kind == "remove":
                session.apply(removals=[edge])
            else:
                session.apply(insertions=[edge])
            expected = bounded_distance_matrix(graph, length)
            assert np.array_equal(session.distances, expected)

    @given(combined_edit_scripts(), length_bounds)
    @settings(max_examples=40, deadline=None)
    def test_previews_match_scratch_and_leave_no_trace(self, script_case,
                                                       length):
        """Edits of 1-3 ops on both tiers: ``preview`` leaves no trace, and
        it and ``stage`` + ``commit`` match the scratch matrix.  The tiled
        session's 64-byte budget holds the whole matrix only up to eight
        vertices, so it spills on larger graphs."""
        graph, script = script_case
        sessions = [DistanceSession(graph.copy(), length, store_config=config)
                    for config in (None, StoreConfig(
                        tier="tiled", budget_bytes=64, tile_rows=2))]
        everything = np.arange(graph.num_vertices)
        try:
            for removals, insertions in script:
                for session in sessions:
                    before = session.graph.edge_set()
                    materialized = session.rows(everything)
                    delta = session.preview(removals, insertions)
                    assert session.graph.edge_set() == before
                    assert np.array_equal(session.rows(everything),
                                          materialized)
                    if delta.rows.size:
                        materialized[delta.rows, :] = delta.new_rows
                        materialized[:, delta.rows] = delta.new_rows.T
                    # Advance to the edited graph the way every caller does.
                    staged = session.stage(removals, insertions)
                    assert np.array_equal(staged.rows, delta.rows)
                    assert np.array_equal(staged.new_rows, delta.new_rows)
                    session.commit(staged)
                    expected = bounded_distance_matrix(session.graph, length)
                    assert np.array_equal(materialized, expected)
                    assert np.array_equal(session.rows(everything), expected)
        finally:
            for session in sessions:
                session.close()


class TestOpacitySessionProperties:
    @given(edit_scripts(), length_bounds)
    @settings(max_examples=40, deadline=None)
    def test_session_state_matches_stateless_evaluation(self, script_case,
                                                        length):
        graph, script = script_case
        typing = DegreePairTyping(graph)
        computer = OpacityComputer(typing, length)
        sessions = [OpacitySession(computer, graph.copy(), store_config=config)
                    for config in session_configs(length)]
        for kind, edge in script:
            graph.edit(*(([edge], ()) if kind == "remove" else ((), [edge])))
            expected = computer.evaluate(graph)
            for session in sessions:
                session.apply_edit(
                    removals=[edge] if kind == "remove" else (),
                    insertions=[edge] if kind == "insert" else ())
                observed = session.current()
                assert observed.max_fraction == expected.max_fraction
                assert observed.types_at_max == expected.types_at_max
                assert dict(observed.per_type) == dict(expected.per_type)

    @given(edit_scripts(max_edits=5), length_bounds)
    @settings(max_examples=40, deadline=None)
    def test_tentative_evaluations_match_scratch_mode(self, script_case, length):
        graph, script = script_case
        typing = DegreePairTyping(graph)
        computer = OpacityComputer(typing, length)
        sessions = [OpacitySession(computer, graph.copy(), store_config=config)
                    for config in session_configs(length)]
        scratch = ScratchSession(computer, graph.copy())
        for kind, edge in script:
            removals = [edge] if kind == "remove" else ()
            insertions = [edge] if kind == "insert" else ()
            expected = scratch.evaluate_edit(removals, insertions)
            for session in sessions:
                assert session.evaluate_edit(removals, insertions) == expected
                session.apply_edit(removals, insertions)
            scratch.apply_edit(removals, insertions)


class TestViolatingPairProperties:
    """The pruning query is tier-independent.

    The sparse within-L set of a tiled session (spill-forcing budget, tiny
    tiles) and of a dense session must both return exactly the scratch
    oracle's pairs, in the same order, after every applied edit of a random
    script.
    """

    @given(edit_scripts(), st.sampled_from([1, 2, 3]),
           st.integers(min_value=1, max_value=3), st.data())
    @settings(max_examples=60, deadline=None)
    def test_tiers_and_modes_agree_after_every_step(self, script_case, length,
                                                    tile_rows, data):
        graph, script = script_case
        computer = OpacityComputer(data.draw(typings(graph)), length)
        tiled = StoreConfig(tier="tiled", budget_bytes=64, tile_rows=tile_rows)
        sessions = [
            OpacitySession(computer, graph.copy(), store_config=tiled),
        ] + [OpacitySession(computer, graph.copy(), store_config=config)
             for config in session_configs(length)]
        scratch = ScratchSession(computer, graph.copy())
        every_type = set(computer.typing.types())
        try:
            for step in range(len(script) + 1):
                if step:
                    kind, edge = script[step - 1]
                    edit = {"removals" if kind == "remove" else "insertions":
                            [edge]}
                    for session in sessions + [scratch]:
                        session.apply_edit(**edit)
                current = scratch.current()
                max_types = {key for key, entry in current.per_type.items()
                             if entry.fraction == current.max_fraction}
                for wanted in (max_types, every_type):
                    mask = type_mask(computer.typing, wanted)
                    rows, cols = scratch.violating_pair_indices(mask)
                    for session in sessions:
                        got_rows, got_cols = session.violating_pair_indices(
                            mask)
                        assert got_rows.dtype == np.int64
                        assert np.array_equal(got_rows, rows)
                        assert np.array_equal(got_cols, cols)
        finally:
            for session in sessions:
                session.close()


class TestEndToEndModeEquivalence:
    @given(graphs(max_vertices=9), length_bounds, thetas,
           st.integers(min_value=0, max_value=3))
    @settings(max_examples=20, deadline=None)
    def test_edge_removal_runs_identically(self, graph, length, theta, seed):
        self._assert_identical(
            EdgeRemovalAnonymizer,
            dict(length_threshold=length, theta=theta, seed=seed), graph)

    @given(graphs(max_vertices=8), thetas, st.integers(min_value=0, max_value=3))
    @settings(max_examples=15, deadline=None)
    def test_edge_removal_insertion_runs_identically(self, graph, theta, seed):
        self._assert_identical(
            EdgeRemovalInsertionAnonymizer,
            dict(length_threshold=2, theta=theta, seed=seed), graph)

    @given(graphs(max_vertices=8), thetas, st.integers(min_value=0, max_value=3))
    @settings(max_examples=15, deadline=None)
    def test_gaded_max_runs_identically(self, graph, theta, seed):
        self._assert_identical(GadedMaxAnonymizer,
                               dict(theta=theta, seed=seed), graph)

    @given(graphs(max_vertices=8), thetas, st.integers(min_value=0, max_value=3))
    @settings(max_examples=10, deadline=None)
    def test_gaded_rand_runs_identically(self, graph, theta, seed):
        self._assert_identical(GadedRandAnonymizer,
                               dict(theta=theta, seed=seed), graph)

    @given(graphs(max_vertices=8), st.integers(min_value=0, max_value=3))
    @settings(max_examples=10, deadline=None)
    def test_gades_runs_identically(self, graph, seed):
        self._assert_identical(
            GadesAnonymizer,
            dict(theta=0.5, seed=seed, max_steps=3, swap_sample_size=50), graph)

    @staticmethod
    def _assert_identical(algorithm, params, graph, **run_kwargs):
        """The product run equals runs on both oracle sessions.

        Each oracle must have served exactly the run's evaluations, so the
        comparison can never silently pit the product against itself.
        ``run_kwargs`` (a ``typing``) go to every ``anonymize`` call.
        """
        reference, evaluations = run_on(ScratchSession, algorithm(**params),
                                        graph, **run_kwargs)
        assert evaluations == reference.evaluations > 0
        per_candidate, evaluations = run_on(PerCandidateSession,
                                            algorithm(**params), graph,
                                            **run_kwargs)
        assert evaluations == per_candidate.evaluations
        products = [algorithm(**params, scale_budget_bytes=budget).anonymize(
                        graph, **run_kwargs)
                    for budget in (TWO_HOP_BUDGETS.values()
                                   if params.get("length_threshold") == 2
                                   else [None])]
        for observed in products + [per_candidate]:
            assert [(step.operation, step.edges, step.max_opacity_after)
                    for step in observed.steps] == \
                   [(step.operation, step.edges, step.max_opacity_after)
                    for step in reference.steps]
            assert observed.final_opacity == reference.final_opacity
            assert observed.evaluations == reference.evaluations
            assert observed.distortion == reference.distortion
            assert observed.anonymized_graph == reference.anonymized_graph


class TestLookaheadModeEquivalence:
    """Look-ahead levels run through one batch evaluator; runs on the
    scratch and per-candidate oracles and the product must agree exactly.  A
    ``max_combinations`` of 4 forces the sampled level whenever a step has
    five or more candidates.  The typing is the degree typing or an explicit
    one with untyped pairs and three labels, so combinations often pair two
    edges of one type (composed at L = 1 as one double hit)."""

    @given(graphs(max_vertices=8), st.sampled_from([1, 2]),
           st.sampled_from([2, 3]), thetas, st.integers(min_value=0, max_value=3),
           st.sampled_from([4, 100_000]), st.data())
    @settings(max_examples=30, deadline=None)
    def test_edge_removal_lookahead_runs_identically(self, graph, length,
                                                     lookahead, theta, seed,
                                                     max_combinations, data):
        TestEndToEndModeEquivalence._assert_identical(
            EdgeRemovalAnonymizer,
            dict(length_threshold=length, theta=theta, seed=seed,
                 lookahead=lookahead, max_combinations=max_combinations,
                 max_steps=4), graph, typing=data.draw(typings(graph)))

    @given(graphs(max_vertices=7), st.sampled_from([1, 2]),
           st.sampled_from([2, 3]), thetas, st.integers(min_value=0, max_value=3),
           st.sampled_from([4, 100_000]), st.data())
    @settings(max_examples=20, deadline=None)
    def test_edge_removal_insertion_lookahead_runs_identically(
            self, graph, length, lookahead, theta, seed, max_combinations,
            data):
        TestEndToEndModeEquivalence._assert_identical(
            EdgeRemovalInsertionAnonymizer,
            dict(length_threshold=length, theta=theta, seed=seed,
                 lookahead=lookahead, max_combinations=max_combinations,
                 max_steps=3), graph, typing=data.draw(typings(graph)))

    def test_same_type_pairs_compose_identically(self):
        """A 10-cycle under the degree typing: every pair is of type (2, 2).

        Every size-2 combination removes two edges of that one type; the
        sampled level (cap 6 of C(10, 2) = 45) runs whenever a step finds
        no improving single removal."""
        cycle = Graph(10, [(v, (v + 1) % 10) for v in range(10)])
        for lookahead in (2, 3):
            TestEndToEndModeEquivalence._assert_identical(
                EdgeRemovalAnonymizer,
                dict(length_threshold=1, theta=0.0, seed=1,
                     lookahead=lookahead, max_combinations=6), cycle)


@st.composite
def candidate_scans(draw, max_candidates: int = 12):
    """A graph plus a list of independent single-candidate edits.

    Each candidate is ``(removals, insertions)`` evaluated against the *same*
    graph state — exactly the scans the greedy algorithms batch.  The list is
    drawn homogeneous (all single-edge removals, all single-edge insertions)
    or mixed (multi-edge swaps included) to exercise both the stacked and
    the sequential-fallback batch paths.
    """
    graph = draw(graphs(max_vertices=10))
    edges = graph.edge_list()
    non_edges = sorted(graph.non_edges())
    shape = draw(st.sampled_from(["removals", "insertions", "mixed"]))
    count = draw(st.integers(min_value=0, max_value=max_candidates))
    candidates = []
    for _ in range(count):
        if shape == "removals" and edges:
            pool = draw(st.integers(min_value=0, max_value=len(edges) - 1))
            candidates.append(((edges[pool],), ()))
        elif shape == "insertions" and non_edges:
            pool = draw(st.integers(min_value=0, max_value=len(non_edges) - 1))
            candidates.append(((), (non_edges[pool],)))
        elif shape == "mixed" and len(edges) >= 2 and len(non_edges) >= 2:
            removal_pair = draw(st.permutations(range(len(edges))))[:2]
            insertion_pair = draw(st.permutations(range(len(non_edges))))[:2]
            candidates.append((tuple(edges[p] for p in removal_pair),
                               tuple(non_edges[p] for p in insertion_pair)))
    return graph, candidates


class TestEvaluateEditsProperties:
    @given(candidate_scans(), length_bounds)
    @settings(max_examples=60, deadline=None)
    def test_batch_matches_per_candidate_exactly(self, scan_case, length):
        graph, candidates = scan_case
        computer = OpacityComputer(DegreePairTyping(graph), length)
        for config in session_configs(length):
            session = OpacitySession(computer, graph, store_config=config)
            expected = [session.evaluate_edit(removals, insertions)
                        for removals, insertions in candidates]
            observed = outcomes(session.evaluate_edits(candidates))
            assert observed == expected

    @given(candidate_scans(), length_bounds)
    @settings(max_examples=40, deadline=None)
    def test_batch_matches_scratch_mode(self, scan_case, length):
        graph, candidates = scan_case
        computer = OpacityComputer(DegreePairTyping(graph), length)
        scratch = ScratchSession(computer, graph.copy())
        expected = outcomes(scratch.evaluate_edits(candidates))
        for config in session_configs(length):
            incremental = OpacitySession(computer, graph.copy(),
                                         store_config=config)
            assert outcomes(incremental.evaluate_edits(candidates)) == expected

    @given(candidate_scans(max_candidates=6), length_bounds)
    @settings(max_examples=30, deadline=None)
    def test_preview_batch_matches_sequential_previews(self, scan_case, length):
        graph, candidates = scan_case
        single_removals = [removals[0] for removals, insertions in candidates
                           if len(removals) == 1 and not insertions]
        single_insertions = [insertions[0] for removals, insertions in candidates
                             if len(insertions) == 1 and not removals]
        sequential = DistanceSession(graph.copy(), length)
        expected = [sequential.preview(removals=[edge])
                    for edge in single_removals]
        expected += [sequential.preview(insertions=[edge])
                     for edge in single_insertions]
        batch = DistanceSession(graph, length)
        observed = batch.preview_batch(removals=single_removals,
                                       insertions=single_insertions)
        assert len(observed) == len(expected)
        for got, want in zip(observed, expected):
            assert_batch_entry_matches(batch.distances, got, want, length)


class TestScoreCombinationsProperties:
    """``score_combinations`` and ``evaluate_edits`` equal the scratch oracle."""

    @given(combination_levels(), length_bounds)
    @settings(max_examples=80, deadline=None)
    def test_level_matches_evaluate_edits_and_scratch(self, level, length):
        graph, typing, gained, endpoints, members, edits = level
        computer = OpacityComputer(typing, length)
        scratch = ScratchSession(computer, graph.copy())
        expected = scratch.score_combinations(endpoints, members, gained)
        for config in session_configs(length):
            session = OpacitySession(computer, graph.copy(),
                                     store_config=config)
            observed = session.score_combinations(endpoints, members, gained)
            assert [array.tolist() for array in observed] == \
                [array.tolist() for array in expected]
            assert outcomes(session.evaluate_edits(edits)) == \
                outcomes(scratch.evaluate_edits(edits))


def _scored_or_raised(call):
    """``call()``'s three outcome arrays as lists, or its error's type and message."""
    try:
        return [array.tolist() for array in call()]
    except ReproError as error:
        return type(error), str(error)


class TestOneBatchCheck:
    """Every L checks a batch by one rule, that of applying it edit by edit.

    Batches hold absent removals, present insertions, repeats, self-loops,
    removals re-inserted by the same row and vertices outside ``0 .. n -
    1``.  :meth:`~OpacitySession.score_combinations` and
    :meth:`~OpacitySession.evaluate_edits` must raise the error type and
    message :class:`~tests.oracles.ScratchSession`'s sequential edits
    raise, or score as they do, and leave the graph as it was.
    """

    @pytest.mark.parametrize("length,tier", [(1, "dense"), (2, "dense"),
                                             (3, "dense"), (3, "tiled")])
    @given(messy_levels(broken=True))
    @settings(max_examples=60, deadline=None)
    def test_batches_raise_or_score_as_sequential_edits(self, length, tier,
                                                        level):
        graph, typing, endpoints, members, gained = level
        computer = OpacityComputer(typing, length)
        config = StoreConfig(tier="tiled", budget_bytes=64, tile_rows=2) \
            if tier == "tiled" else None
        session = OpacitySession(computer, graph.copy(), store_config=config)
        scratch = ScratchSession(computer, graph.copy())
        flags = gained.tolist()
        edits = [(tuple(tuple(endpoints[j].tolist())
                        for j, flag in zip(row, row_flags)
                        if j >= 0 and not flag),
                  tuple(tuple(endpoints[j].tolist())
                        for j, flag in zip(row, row_flags) if j >= 0 and flag))
                 for row, row_flags in zip(members.tolist(), flags)]


        def level(oracle):
            return oracle.score_combinations(endpoints, members, gained)

        def listed(oracle):
            batch = oracle.evaluate_edits(edits)
            return batch.numerators, batch.denominators, batch.types_at_max

        try:
            for evaluator in (level, listed):
                assert _scored_or_raised(lambda: evaluator(session)) == \
                    _scored_or_raised(lambda: evaluator(scratch))
            assert session.graph == graph
            assert scratch.graph == graph
        finally:
            session.close()


class TestScansLeaveTheGraphAlone:
    """No candidate scan mutates the working graph, on any tier or path."""

    @given(combination_levels(), st.sampled_from([1, 2, 3]), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_scans_never_call_graph_mutators(self, level, length, tiled):
        graph, typing, gained, endpoints, members, edits = level
        computer = OpacityComputer(typing, length)
        config = StoreConfig(tier="tiled", budget_bytes=64, tile_rows=2) \
            if tiled else None
        session = OpacitySession(computer, graph, store_config=config)
        singles = [((), (tuple(edge),)) if index >= graph.num_edges else
                   ((tuple(edge),), ())
                   for index, edge in enumerate(endpoints.tolist())]
        forbidden = mock.Mock(side_effect=AssertionError("graph mutated"))
        try:
            with mock.patch.object(Graph, "add_edge", forbidden), \
                    mock.patch.object(Graph, "remove_edge", forbidden):
                session.score_combinations(endpoints, members, gained)
                session.evaluate_edits(singles)
                session.evaluate_edits(edits)
                for removals, insertions in singles:
                    session.evaluate_edit(removals, insertions)
        finally:
            session.close()


def _shuffle_adjacency(graph: Graph, rng: random.Random) -> None:
    """Rebuild every adjacency set of ``graph`` with a different history.

    Members go in in shuffled order, and half of the sets first grow
    through junk members that are then discarded: both change a set's
    iteration order without changing its content.
    """
    for vertex, members in enumerate(graph._adjacency):
        order = list(members)
        rng.shuffle(order)
        rebuilt = set()
        junk = [graph.num_vertices + rng.randrange(1 << 20)
                for _ in range(rng.choice([0, 0, 8, 40]))]
        for member in junk + order:
            rebuilt.add(member)
        for member in junk:
            rebuilt.discard(member)
        graph._adjacency[vertex] = rebuilt


class _ShuffleBetweenSteps(NullObserver):
    """Shuffle the working graph's adjacency sets after every greedy step."""

    def __init__(self, seed: int) -> None:
        self._rng = random.Random(seed)

    def on_step(self, step, result) -> None:
        _shuffle_adjacency(result.anonymized_graph, self._rng)


_ALGORITHMS = {
    "rem": lambda length, workers, seed: EdgeRemovalAnonymizer(
        length_threshold=length, theta=0.2, seed=seed, lookahead=2,
        max_steps=4, scan_workers=workers),
    "rem-ins": lambda length, workers, seed: EdgeRemovalInsertionAnonymizer(
        length_threshold=length, theta=0.2, seed=seed, lookahead=2,
        max_steps=3, scan_workers=workers),
    # The baselines run at L = 1, where scans compose from type positions
    # and never start a pool, so they take no scan knob.
    "gades": lambda length, workers, seed: GadesAnonymizer(
        theta=0.5, seed=seed, max_steps=3, swap_sample_size=20),
    "gaded-rand": lambda length, workers, seed: GadedRandAnonymizer(
        theta=0.2, seed=seed, max_steps=4),
    "gaded-max": lambda length, workers, seed: GadedMaxAnonymizer(
        theta=0.2, seed=seed, max_steps=4),
}


class TestAdjacencyOrderIndependence:
    """Results never depend on adjacency-set iteration order.

    Between greedy steps an observer rebuilds every adjacency set of the
    working graph in a shuffled order; serial and two-worker pooled scans
    must still equal the unshuffled serial run — at L = 1 and 2 for the
    paper's heuristics, at the baselines' fixed L = 1.
    """

    @pytest.mark.parametrize("algorithm,length", [
        ("rem", 1), ("rem", 2), ("rem-ins", 1), ("rem-ins", 2),
        ("gades", 1), ("gaded-rand", 1), ("gaded-max", 1)])
    @given(graph=graphs(min_vertices=6, max_vertices=10),
           seed=st.integers(min_value=0, max_value=3),
           shuffle_seed=st.integers(min_value=0, max_value=2 ** 16))
    @settings(max_examples=6, deadline=None)
    def test_shuffled_adjacency_between_steps(self, algorithm, length, graph,
                                              seed, shuffle_seed):
        build = _ALGORITHMS[algorithm]
        reference = build(length, 0, seed).anonymize(graph)
        for workers in (0, 2):
            shuffled = build(length, workers, seed).anonymize(
                graph, observer=_ShuffleBetweenSteps(shuffle_seed))
            assert shuffled.steps == reference.steps
            assert shuffled.evaluations == reference.evaluations
            assert shuffled.final_opacity == reference.final_opacity
            assert shuffled.anonymized_graph == reference.anonymized_graph
