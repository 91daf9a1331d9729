"""Property-based differential tests for the evaluation-session layer.

The incremental sessions promise *bit-identical* results to the stateless
from-scratch evaluator: same ``Fraction`` opacities, same ``types_at_max``,
same per-type counts, and — for whole anonymization runs — the same step
sequence under a fixed seed.  These tests drive random graphs through random
edit sequences across every distance engine and check exactly that.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

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
from repro.graph.distance import available_engines, bounded_distance_matrix
from repro.graph.distance_delta import DistanceSession
from repro.graph.graph import Graph
from tests.property.strategies import graphs, length_bounds, thetas

engines = st.sampled_from(sorted(available_engines()))
fallback_fractions = st.sampled_from([0.0, 0.5, 1.0])


@st.composite
def edit_scripts(draw, max_edits: int = 8):
    """A graph plus a feasible sequence of alternating random edits.

    Each entry is ``("remove" | "insert", edge)``; feasibility (edges exist /
    are absent at that point) is guaranteed by replaying the script while it
    is generated.
    """
    graph = draw(graphs(max_vertices=10))
    working = graph.copy()
    script = []
    for _ in range(draw(st.integers(min_value=0, max_value=max_edits))):
        edges = working.edge_list()
        non_edges = sorted(working.non_edges())
        choices = []
        if edges:
            choices.append("remove")
        if non_edges:
            choices.append("insert")
        if not choices:
            break
        kind = draw(st.sampled_from(choices))
        pool = edges if kind == "remove" else non_edges
        edge = pool[draw(st.integers(min_value=0, max_value=len(pool) - 1))]
        if kind == "remove":
            working.remove_edge(*edge)
        else:
            working.add_edge(*edge)
        script.append((kind, edge))
    return graph, script


class TestDistanceSessionProperties:
    @given(edit_scripts(), length_bounds, engines, fallback_fractions)
    @settings(max_examples=40, deadline=None)
    def test_applied_edits_track_scratch_matrices(self, script_case, length,
                                                  engine, fallback):
        graph, script = script_case
        session = DistanceSession(graph, length, engine=engine,
                                  fallback_row_fraction=fallback)
        for kind, edge in script:
            if kind == "remove":
                session.apply(removals=[edge])
            else:
                session.apply(insertions=[edge])
            expected = bounded_distance_matrix(graph, length, engine=engine)
            assert np.array_equal(session.distances, expected)

    @given(edit_scripts(max_edits=4), length_bounds, fallback_fractions)
    @settings(max_examples=40, deadline=None)
    def test_previews_match_scratch_and_leave_no_trace(self, script_case,
                                                       length, fallback):
        graph, script = script_case
        session = DistanceSession(graph, length, fallback_row_fraction=fallback)
        for kind, edge in script:
            before = graph.edge_set()
            matrix_before = session.distances.copy()
            delta = session.preview(
                removals=[edge] if kind == "remove" else (),
                insertions=[edge] if kind == "insert" else ())
            assert graph.edge_set() == before
            assert np.array_equal(session.distances, matrix_before)
            if delta.from_scratch:
                materialized = delta.new_rows
            else:
                materialized = session.distances.copy()
                if delta.rows.size:
                    materialized[delta.rows, :] = delta.new_rows
                    materialized[:, delta.rows] = delta.new_rows.T
            if kind == "remove":
                graph.remove_edge(*edge)
            else:
                graph.add_edge(*edge)
            assert np.array_equal(materialized, bounded_distance_matrix(graph, length))
            session.refresh()


class TestOpacitySessionProperties:
    @given(edit_scripts(), length_bounds, engines)
    @settings(max_examples=40, deadline=None)
    def test_session_state_matches_from_scratch_evaluation(self, script_case,
                                                           length, engine):
        graph, script = script_case
        typing = DegreePairTyping(graph)
        computer = OpacityComputer(typing, length, engine=engine)
        session = OpacitySession(computer, graph, mode="incremental")
        for kind, edge in script:
            session.apply_edit(
                removals=[edge] if kind == "remove" else (),
                insertions=[edge] if kind == "insert" else ())
            expected = computer.evaluate(graph)
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
        incremental = OpacitySession(computer, graph.copy(), mode="incremental")
        scratch = OpacitySession(computer, graph.copy(), mode="scratch")
        for kind, edge in script:
            removals = [edge] if kind == "remove" else ()
            insertions = [edge] if kind == "insert" else ()
            assert incremental.evaluate_edit(removals, insertions) == \
                scratch.evaluate_edit(removals, insertions)
            incremental.apply_edit(removals, insertions)
            scratch.apply_edit(removals, insertions)


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
    def _assert_identical(algorithm, params, graph):
        reference = algorithm(evaluation_mode="scratch",
                              scan_mode="per_candidate", **params).anonymize(graph)
        for evaluation_mode, scan_mode in (("incremental", "batched"),
                                           ("incremental", "per_candidate")):
            observed = algorithm(evaluation_mode=evaluation_mode,
                                 scan_mode=scan_mode, **params).anonymize(graph)
            assert [(step.operation, step.edges, step.max_opacity_after)
                    for step in observed.steps] == \
                   [(step.operation, step.edges, step.max_opacity_after)
                    for step in reference.steps]
            assert observed.final_opacity == reference.final_opacity
            assert observed.evaluations == reference.evaluations
            assert observed.distortion == reference.distortion
            assert observed.anonymized_graph == reference.anonymized_graph


class TestLookaheadModeEquivalence:
    """Look-ahead levels run through the same batch evaluator in every scan
    mode; scratch, per-candidate and batched runs must agree exactly.  A
    ``max_combinations`` of 4 forces the sampled level whenever a step has
    five or more candidates."""

    @given(graphs(max_vertices=8), st.sampled_from([1, 2]),
           st.sampled_from([2, 3]), thetas, st.integers(min_value=0, max_value=3),
           st.sampled_from([4, 100_000]))
    @settings(max_examples=20, deadline=None)
    def test_edge_removal_lookahead_runs_identically(self, graph, length,
                                                     lookahead, theta, seed,
                                                     max_combinations):
        TestEndToEndModeEquivalence._assert_identical(
            EdgeRemovalAnonymizer,
            dict(length_threshold=length, theta=theta, seed=seed,
                 lookahead=lookahead, max_combinations=max_combinations,
                 max_steps=4), graph)

    @given(graphs(max_vertices=7), st.sampled_from([1, 2]),
           st.sampled_from([2, 3]), thetas, st.integers(min_value=0, max_value=3),
           st.sampled_from([4, 100_000]))
    @settings(max_examples=15, deadline=None)
    def test_edge_removal_insertion_lookahead_runs_identically(
            self, graph, length, lookahead, theta, seed, max_combinations):
        TestEndToEndModeEquivalence._assert_identical(
            EdgeRemovalInsertionAnonymizer,
            dict(length_threshold=length, theta=theta, seed=seed,
                 lookahead=lookahead, max_combinations=max_combinations,
                 max_steps=3), graph)


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
    @given(candidate_scans(), length_bounds, fallback_fractions)
    @settings(max_examples=60, deadline=None)
    def test_batch_matches_per_candidate_exactly(self, scan_case, length,
                                                 fallback):
        graph, candidates = scan_case
        computer = OpacityComputer(DegreePairTyping(graph), length)
        session = OpacitySession(computer, graph, mode="incremental",
                                 fallback_row_fraction=fallback)
        expected = [session.evaluate_edit(removals, insertions)
                    for removals, insertions in candidates]
        observed = session.evaluate_edits(candidates)
        assert observed == expected

    @given(candidate_scans(), length_bounds)
    @settings(max_examples=40, deadline=None)
    def test_batch_matches_scratch_mode(self, scan_case, length):
        graph, candidates = scan_case
        computer = OpacityComputer(DegreePairTyping(graph), length)
        incremental = OpacitySession(computer, graph.copy(), mode="incremental")
        scratch = OpacitySession(computer, graph.copy(), mode="scratch")
        assert incremental.evaluate_edits(candidates) == \
            scratch.evaluate_edits(candidates)

    @given(candidate_scans(max_candidates=6), length_bounds, engines,
           fallback_fractions)
    @settings(max_examples=30, deadline=None)
    def test_preview_batch_matches_sequential_previews(self, scan_case, length,
                                                       engine, fallback):
        graph, candidates = scan_case
        single_removals = [removals[0] for removals, insertions in candidates
                           if len(removals) == 1 and not insertions]
        single_insertions = [insertions[0] for removals, insertions in candidates
                             if len(insertions) == 1 and not removals]
        sequential = DistanceSession(graph.copy(), length, engine=engine,
                                     fallback_row_fraction=fallback)
        expected = [sequential.preview(removals=[edge])
                    for edge in single_removals]
        expected += [sequential.preview(insertions=[edge])
                     for edge in single_insertions]
        batch = DistanceSession(graph, length, engine=engine,
                                fallback_row_fraction=fallback)
        observed = batch.preview_batch(removals=single_removals,
                                       insertions=single_insertions)
        assert len(observed) == len(expected)
        for got, want in zip(observed, expected):
            assert got.removals == want.removals
            assert got.insertions == want.insertions
            assert got.from_scratch == want.from_scratch
            assert np.array_equal(got.rows, want.rows)
            assert np.array_equal(got.new_rows, want.new_rows)
