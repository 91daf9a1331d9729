"""Differential tests for the exact L = 2 kernel (``graph/two_hop.py``).

At L = 2 every candidate scan scores from the common-neighbour counts:
``d(i, j) <= 2`` exactly when ``A[i, j] = 1`` or ``|N(i) ∩ N(j)| > 0``.
The kernel is checked against two independent oracles:

* the distance-slab path (:meth:`OpacitySession._collect_changes`, the
  L >= 3 production path, run at L = 2 by a second session over a
  :class:`DistanceSession` on a copy of the graph, :func:`slab_session`),
  on each candidate's ``(type, count change)`` multiset, both fed the
  level as :meth:`~OpacitySession.score_combinations` checks it
  (:func:`checked`);
* :class:`~tests.oracles.ScratchSession`, on the scored outcomes and on
  whole greedy runs.

Invalid member edits must raise the :class:`InvalidEdgeError` that
:class:`~tests.oracles.ScratchSession`'s sequential edits raise, and score
as it does otherwise.  After every applied edit, the count set must describe the
same within-2 pairs as a fresh :func:`bounded_distance_matrix` and the
pruning query.  Finally, no L = 2 scan, pruning pass or applied edit may
preview, stage or commit a slab or read distance rows, and no L = 2
session keeps a distance session once it has opened.

Every check runs on both representations of the counts: the triu planes
a default-budget session keeps and the sorted codes a session whose
budget is below the planes' bytes keeps (``TWO_HOP_BUDGETS``).  The two
must also answer every flip, applied edit and query identically.
"""

from __future__ import annotations

from contextlib import ExitStack, contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    DegreePairTyping,
    EdgeRemovalAnonymizer,
    EdgeRemovalInsertionAnonymizer,
    OpacityComputer,
    OpacitySession,
)
from repro.core.opacity_session import own_cells
from repro.errors import InvalidEdgeError
from repro.graph.distance import bounded_distance_matrix
from repro.graph.distance_delta import DistanceSession
from repro.graph.distance_store import DenseStore, StoreConfig, TiledStore
from repro.graph.generators import erdos_renyi_graph
from repro.graph.graph import Graph
from repro.graph.two_hop import TwoHopCounts, triu_flat, triu_unflat
from tests.oracles import ScratchSession, outcomes, run_on
from tests.property.strategies import (
    TWO_HOP_BUDGETS,
    combination_levels,
    edit_scripts,
    graphs,
    messy_levels,
    thetas,
    two_hop_config,
    typings,
)

#: Run a test once per L = 2 state representation.
STATES = pytest.mark.parametrize("state", sorted(TWO_HOP_BUDGETS))

#: A spill-forcing tiled tier with tiny tiles.
TILED = StoreConfig(tier="tiled", budget_bytes=64, tile_rows=2)


def l2_session(typing, graph, state):
    """An L = 2 :class:`OpacitySession` on representation ``state``.

    ``state`` is ``"plane"`` or ``"sorted"`` (:data:`TWO_HOP_BUDGETS`), or
    ``"tiled"``: the tiled tier, which keeps the sorted codes.
    """
    config = TILED if state == "tiled" else two_hop_config(state)
    session = OpacitySession(OpacityComputer(typing, 2), graph,
                             store_config=config)
    assert (session._two_hop._plane is not None) == (state == "plane")
    return session


def change_sets(changes, count):
    """Each of ``count`` candidates' change triples as a ``{type: delta}`` dict.

    Asserts the triple form on the way: every candidate index is below
    ``count``, the triples are sorted by candidate then type with no
    repeat, and no delta is zero.
    """
    candidate, types, deltas = (part.tolist() for part in changes)
    keys = list(zip(candidate, types))
    assert keys == sorted(set(keys))
    assert all(0 <= c < count for c in candidate)
    assert 0 not in deltas
    sets = [{} for _ in range(count)]
    for c, t, d in zip(candidate, types, deltas):
        sets[c][t] = d
    return sets


def checked(session, endpoints, members, gained):
    """A level as :meth:`OpacitySession.score_combinations` hands it on.

    Its own cells, checked once by ``session`` (:meth:`_check_cells`), with
    only the live members kept and ``gained`` broadcast against them.
    """
    endpoints, members = own_cells(endpoints, members)
    gained = np.broadcast_to(gained, members.shape)
    live = session._check_cells(endpoints, members, gained)
    return endpoints, np.where(live, members, -1), gained


@contextmanager
def slab_session(typing, graph):
    """An L = 2 session whose slab path runs on its own distance session.

    An L = 2 :class:`OpacitySession` keeps no distances once it has opened,
    so this one is handed a :class:`DistanceSession` over its own copy of
    ``graph``: its :meth:`~OpacitySession._collect_changes` is the L >= 3
    production path at L = 2, sharing no state with the session under
    test.
    """
    oracle = OpacitySession(OpacityComputer(typing, 2), graph.copy())
    oracle._distance = DistanceSession(oracle.graph, 2)
    try:
        yield oracle
    finally:
        oracle.close()


def raised(call):
    """``call()``'s :class:`InvalidEdgeError` message, or ``None``."""
    try:
        call()
    except InvalidEdgeError as error:
        return str(error)
    return None


def scores(session, endpoints, members, gained):
    """``session.score_combinations`` as lists."""
    return [array.tolist() for array in
            session.score_combinations(endpoints, members, gained)]


@STATES
class TestKernelMatchesTheSlabPath:
    @given(combination_levels())
    @settings(max_examples=80, deadline=None)
    def test_changes_equal_the_slab_path_per_candidate(self, state, level):
        graph, typing, gained, endpoints, members, edits = level
        session = l2_session(typing, graph, state)
        level = checked(session, endpoints, members, gained)
        kernel = session._two_hop_changes(*level)
        with slab_session(typing, graph) as oracle:
            slab = oracle._collect_changes(*level)
        assert change_sets(kernel, len(members)) == \
            change_sets(slab, len(members))

    @given(messy_levels())
    @settings(max_examples=120, deadline=None)
    def test_invalid_members_raise_where_scratch_does(self, state, level):
        graph, typing, endpoints, members, gained = level
        session = l2_session(typing, graph.copy(), state)
        scratch = ScratchSession(OpacityComputer(typing, 2), graph.copy())
        expected = raised(lambda: scores(scratch, endpoints, members, gained))
        assert raised(lambda: scores(session, endpoints, members, gained)) \
            == expected
        if expected is None:
            assert scores(session, endpoints, members, gained) == \
                scores(scratch, endpoints, members, gained)
            with slab_session(typing, graph) as oracle:
                level = checked(session, endpoints, members, gained)
                assert change_sets(session._two_hop_changes(*level),
                                   len(members)) == \
                    change_sets(oracle._collect_changes(*level), len(members))

    def test_a_reinserted_removal_nets_to_nothing(self, state):
        # A path: no edge has a common neighbour, so only the edge itself
        # keeps its pair within 2.
        graph = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        typing = DegreePairTyping(graph)
        session = l2_session(typing, graph, state)
        endpoints = np.array([(0, 1), (3, 4)], dtype=np.int64)
        members = np.array([[0, 0], [0, 1]])
        gained = np.array([[False, True], [False, False]])
        level = checked(session, endpoints, members, gained)
        kernel = session._two_hop_changes(*level)
        with slab_session(typing, graph) as oracle:
            slab = oracle._collect_changes(*level)
        assert change_sets(kernel, 2) == change_sets(slab, 2)
        assert change_sets(kernel, 2)[0] == {}

    def test_self_loops_raise(self, state):
        graph = erdos_renyi_graph(6, 0.5, seed=1)
        session = l2_session(DegreePairTyping(graph), graph, state)
        with pytest.raises(InvalidEdgeError, match="self-loops"):
            session.score_combinations(np.array([[0, 0]]), np.array([[0]]),
                                       np.array([True]))


@STATES
class TestKernelMatchesScratch:
    @given(combination_levels())
    @settings(max_examples=60, deadline=None)
    def test_level_outcomes_equal_scratch(self, state, level):
        graph, typing, gained, endpoints, members, edits = level
        computer = OpacityComputer(typing, 2)
        session = l2_session(typing, graph.copy(), state)
        scratch = ScratchSession(computer, graph.copy())
        assert [array.tolist() for array in
                session.score_combinations(endpoints, members, gained)] == \
            [array.tolist() for array in
             scratch.score_combinations(endpoints, members, gained)]
        assert outcomes(session.evaluate_edits(edits)) == \
            outcomes(scratch.evaluate_edits(edits))

    @given(graphs(max_vertices=8), st.sampled_from([1, 2, 3]), thetas,
           st.integers(min_value=0, max_value=3), st.data())
    @settings(max_examples=25, deadline=None)
    def test_removal_runs_equal_scratch(self, state, graph, lookahead, theta,
                                        seed, data):
        self._assert_run_matches(
            EdgeRemovalAnonymizer,
            dict(length_threshold=2, theta=theta, seed=seed,
                 lookahead=lookahead, max_combinations=6, max_steps=4,
                 scale_budget_bytes=TWO_HOP_BUDGETS[state]),
            graph, data.draw(typings(graph)))

    @given(graphs(max_vertices=7), st.sampled_from([1, 2]), thetas,
           st.integers(min_value=0, max_value=3), st.data())
    @settings(max_examples=20, deadline=None)
    def test_rem_ins_runs_equal_scratch(self, state, graph, lookahead, theta,
                                        seed, data):
        self._assert_run_matches(
            EdgeRemovalInsertionAnonymizer,
            dict(length_threshold=2, theta=theta, seed=seed,
                 lookahead=lookahead, max_combinations=6, max_steps=3,
                 scale_budget_bytes=TWO_HOP_BUDGETS[state]),
            graph, data.draw(typings(graph)))

    @staticmethod
    def _assert_run_matches(algorithm, params, graph, typing):
        reference, evaluations = run_on(ScratchSession, algorithm(**params),
                                        graph, typing=typing)
        assert evaluations == reference.evaluations > 0
        observed = algorithm(**params).anonymize(graph, typing=typing)
        assert [(step.operation, step.edges, step.max_opacity_after)
                for step in observed.steps] == \
               [(step.operation, step.edges, step.max_opacity_after)
                for step in reference.steps]
        assert observed.evaluations == reference.evaluations
        assert observed.anonymized_graph == reference.anonymized_graph


class TestRepresentationsAgree:
    """The plane and the sorted codes answer every flip, edit and query alike.

    Chunk for chunk and array for array; the sessions and greedy runs on
    each are held to the oracles by the parametrized classes above.
    """

    @given(edit_scripts(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_flips_applies_and_queries_are_identical(self, script_case, data):
        graph, script = script_case
        counts = [TwoHopCounts(graph, plane=True),
                  TwoHopCounts(graph, plane=False)]
        assert [count._plane is not None for count in counts] == [True, False]
        working = graph.copy()
        n = graph.num_vertices
        rows, cols = triu_unflat(np.arange(n * (n - 1) // 2), n)
        for step in range(len(script) + 1):
            if step:
                kind, edge = script[step - 1]
                edit = ([edge], []) if kind == "remove" else ([], [edge])
                working.edit(*edit)
                # The flipped pairs and their after-states; how the sorted
                # codes moved is theirs alone.
                applied = [[array.tolist() for array in count.apply(*edit)[:2]]
                           for count in counts]
                assert applied[0] == applied[1]
            # Every pair as a single-edge candidate: its edge removed, or
            # its non-edge inserted.
            endpoints = np.stack([rows, cols], axis=1)
            members = np.arange(rows.size).reshape(-1, 1)
            present = np.array([working.has_edge(int(u), int(v))
                                for u, v in endpoints.tolist()], dtype=bool)
            gained = ~present.reshape(-1, 1)
            chunks = [[tuple(np.asarray(part).tolist() for part in chunk)
                       for chunk in count.flips(endpoints, members, gained)]
                      for count in counts]
            assert chunks[0] == chunks[1]
            assert counts[0].within_pairs().tolist() == \
                counts[1].within_pairs().tolist()
            assert [array.tolist() for array in counts[0].pairs] == \
                [array.tolist() for array in counts[1].pairs]
            picked = data.draw(st.lists(st.integers(0, rows.size - 1),
                                        max_size=6))
            paths = [sorted(zip(*(array.tolist() for array in
                                  count.path_edges(rows[picked], cols[picked]))))
                     for count in counts]
            assert paths[0] == paths[1]


class TestCountSetInvariant:
    """After every applied edit the count set, a fresh bounded distance
    matrix and the pruning query describe the same within-2 pairs."""

    @given(edit_scripts(), st.sampled_from(["plane", "sorted", "tiled"]),
           st.data())
    @settings(max_examples=80, deadline=None)
    def test_within_pairs_agree_after_every_edit(self, script_case, state,
                                                 data):
        graph, script = script_case
        computer = OpacityComputer(data.draw(typings(graph)), 2)
        session = l2_session(computer.typing, graph, state)
        n = graph.num_vertices
        size = len(computer.type_order[0])
        try:
            for step in range(len(script) + 1):
                if step:
                    kind, edge = script[step - 1]
                    session.apply_edit(
                        removals=[edge] if kind == "remove" else (),
                        insertions=[edge] if kind == "insert" else ())
                within = session._two_hop.within_pairs()
                rows, cols = np.nonzero(
                    bounded_distance_matrix(session.graph, 2) <= 2)
                upper = cols > rows
                assert within.tolist() == \
                    triu_flat(rows[upper], cols[upper], n).tolist()
                # The pruning query lists the typed ones among them.
                typed = computer.type_indices(*triu_unflat(within, n)) < size
                rows, cols = session.violating_pair_indices(
                    np.ones(size, dtype=bool))
                assert triu_flat(rows, cols, n).tolist() == \
                    within[typed].tolist()
                self._assert_counts_are_common_neighbours(session, graph)
        finally:
            session.close()

    @staticmethod
    def _assert_counts_are_common_neighbours(session, graph):
        n = graph.num_vertices
        adjacency = graph.adjacency_matrix(dtype=np.int64)
        common = adjacency @ adjacency
        rows, cols = np.nonzero(np.triu(common, 1))
        pairs, counts = session._two_hop.pairs
        assert pairs.tolist() == triu_flat(rows, cols, n).tolist()
        assert counts.tolist() == common[rows, cols].tolist()


class TestNoSlabWorkAtL2:
    """No L = 2 scan or pruning pass previews a slab or reads distance rows."""

    FORBIDDEN = ("preview", "preview_batch", "rows")

    @given(combination_levels(), st.booleans())
    @settings(max_examples=40, deadline=None)
    def test_scans_and_pruning_never_touch_distances(self, level, tiled):
        graph, typing, gained, endpoints, members, edits = level
        computer = OpacityComputer(typing, 2)
        config = StoreConfig(tier="tiled", budget_bytes=64, tile_rows=2) \
            if tiled else None
        session = OpacitySession(computer, graph, store_config=config)
        pruner = EdgeRemovalAnonymizer(length_threshold=2)
        try:
            with self._forbidden():
                session.score_combinations(endpoints, members, gained)
                session.evaluate_edits(edits)
                pruner._removal_candidates(session)
        finally:
            session.close()

    def test_greedy_runs_never_preview(self):
        graph = erdos_renyi_graph(12, 0.3, seed=4)
        forbidden = mock.Mock(side_effect=AssertionError("slab preview"))
        with mock.patch.object(DistanceSession, "preview", forbidden), \
                mock.patch.object(DistanceSession, "preview_batch", forbidden):
            for algorithm in (EdgeRemovalAnonymizer,
                              EdgeRemovalInsertionAnonymizer):
                result = algorithm(length_threshold=2, theta=0.3, lookahead=2,
                                   seed=0, max_steps=3,
                                   scan_workers=2).anonymize(graph)
                assert result.num_steps > 0
                assert result.debug_info["parallel_scans"] == 0
        assert forbidden.call_count == 0

    def _forbidden(self):
        forbidden = mock.Mock(side_effect=AssertionError("distance read"))
        stack = ExitStack()
        for name in self.FORBIDDEN:
            stack.enter_context(
                mock.patch.object(DistanceSession, name, forbidden))
        stack.enter_context(
            mock.patch.object(OpacitySession, "distance_rows", forbidden))
        for store in (DenseStore, TiledStore):
            stack.enter_context(mock.patch.object(store, "rows", forbidden))
        return stack
