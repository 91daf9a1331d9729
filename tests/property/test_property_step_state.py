"""Differential tests for the per-step state a greedy loop reads.

After every applied edit, an :class:`~repro.core.opacity_session.OpacitySession`
answers three per-step queries from its arrays: :meth:`current` (summarized
from the count vector, ``per_type`` built lazily), :meth:`max_type_mask`
and :meth:`edge_endpoints` (the sorted edge array folded forward by each
edit).  Each must equal the oracle of :mod:`tests.oracles`: a result built
from one ``Fraction`` per type over a fresh distance matrix, the key set of
the types at its maximum, and ``list(graph.edges())``.
"""

from __future__ import annotations

import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.api.progress import NullObserver
from repro.core import (
    DegreePairTyping,
    EdgeRemovalAnonymizer,
    EdgeRemovalInsertionAnonymizer,
    ExplicitPairTyping,
    OpacityComputer,
    OpacitySession,
)
from repro.baselines.gaded import GadedMaxAnonymizer, removal_totals
from repro.core.anonymizer import AnonymizerConfig, TieBreaker
from repro.core.opacity import group_maxima
from repro.core.opacity_session import CandidateOutcome, ScoredBatch
from repro.graph.graph import Graph
from tests.oracles import (
    FractionTieBreaker,
    ScratchSession,
    SerialTieBreaker,
    evaluate_with_fractions,
    result_from_counts,
    type_keys,
)
from tests.property.strategies import (
    edit_scripts,
    graphs,
    length_bounds,
    thetas,
    typings,
)


def assert_state_matches_oracle(session: OpacitySession, graph: Graph) -> None:
    """The session's per-step state equals the oracle's for ``graph``."""
    computer = session.computer
    expected = evaluate_with_fractions(computer, graph)
    observed = session.current()
    assert isinstance(observed.max_fraction, Fraction)
    assert observed.max_fraction == expected.max_fraction
    assert observed.max_opacity == expected.max_opacity
    assert observed.types_at_max == expected.types_at_max
    assert dict(observed.per_type) == dict(expected.per_type)

    at_max = {key for key, entry in expected.per_type.items()
              if entry.fraction == expected.max_fraction}
    mask = session.max_type_mask()
    assert mask.dtype == bool and not mask.flags.writeable
    keys = type_keys(computer.typing)
    assert {key for key, flag in zip(keys, mask.tolist()) if flag} == at_max
    withins, totals = session.type_counts()
    assert (withins / totals).tolist() == [
        expected.per_type[key].opacity for key in keys]

    edge_u, edge_v = session.edge_endpoints()
    assert edge_u.dtype == np.int64 and edge_v.dtype == np.int64
    assert list(zip(edge_u.tolist(), edge_v.tolist())) == list(graph.edges())
    edge_u, edge_v = session.edge_endpoints(mask)
    assert list(zip(edge_u.tolist(), edge_v.tolist())) == [
        edge for edge in graph.edges()
        if computer.typing.type_of(*edge) in at_max]


class TestStateAfterEveryEdit:
    @given(edit_scripts(), length_bounds, st.booleans(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_random_scripts(self, script_case, length, seed_edges, data):
        graph, script = script_case
        computer = OpacityComputer(data.draw(typings(graph)), length)
        session = OpacitySession(computer, graph)
        if seed_edges:  # fold every edit into the edge array, not just seed it
            session.edge_endpoints()
        try:
            assert_state_matches_oracle(session, graph)
            for kind, edge in script:
                session.apply_edit(
                    removals=[edge] if kind == "remove" else (),
                    insertions=[edge] if kind == "insert" else ())
                assert_state_matches_oracle(session, graph)
        finally:
            session.close()

    @given(edit_scripts(max_edits=5), st.integers(min_value=0, max_value=3))
    @settings(max_examples=25, deadline=None)
    def test_multi_edge_edits(self, script_case, split):
        """Edits applying several removals and insertions at once."""
        graph, script = script_case
        session = OpacitySession(OpacityComputer(DegreePairTyping(graph), 2),
                                 graph)
        session.edge_endpoints()
        try:
            for start in range(0, len(script), split + 1):
                chunk = script[start:start + split + 1]
                removals = [edge for kind, edge in chunk if kind == "remove"]
                insertions = [edge for kind, edge in chunk if kind == "insert"]
                # A chunk may remove what it inserted (or vice versa);
                # apply it in order when the kinds interleave that way.
                if set(removals) & set(insertions):
                    for kind, edge in chunk:
                        session.apply_edit(
                            removals=[edge] if kind == "remove" else (),
                            insertions=[edge] if kind == "insert" else ())
                else:
                    session.apply_edit(removals=removals,
                                       insertions=insertions)
                assert_state_matches_oracle(session, graph)
        finally:
            session.close()

    @pytest.mark.parametrize("length", [1, 2, 3])
    @pytest.mark.parametrize("num_vertices", [0, 1, 2, 6])
    def test_zero_edge_graph(self, num_vertices, length):
        graph = Graph(num_vertices)
        session = OpacitySession(
            OpacityComputer(DegreePairTyping(graph), length), graph)
        try:
            assert_state_matches_oracle(session, graph)
            if num_vertices >= 2:
                session.apply_edit(insertions=[(0, num_vertices - 1)])
                assert_state_matches_oracle(session, graph)
                session.apply_edit(removals=[(0, num_vertices - 1)])
                assert_state_matches_oracle(session, graph)
        finally:
            session.close()

    @pytest.mark.parametrize("length", [1, 2, 4])
    def test_all_typed_pairs_unreachable(self, length):
        """Two components; only cross-component pairs are typed."""
        graph = Graph(6, edges=[(0, 1), (1, 2), (3, 4), (4, 5)])
        typing = ExplicitPairTyping({(u, v): ("x", u % 2)
                                     for u in range(3) for v in range(3, 6)})
        session = OpacitySession(OpacityComputer(typing, length), graph)
        try:
            assert_state_matches_oracle(session, graph)
            current = session.current()
            assert current.max_fraction == 0
            assert session.max_type_mask().all()
            for edit in ({"removals": [(0, 1)]}, {"insertions": [(0, 2)]},
                         {"removals": [(3, 4)]}):
                session.apply_edit(**edit)
                assert_state_matches_oracle(session, graph)
        finally:
            session.close()


class _StateChecker(NullObserver):
    """Checks every session a run opens against the oracle after each step."""

    def __init__(self) -> None:
        self.sessions = []
        self.steps = 0

    def on_step(self, step, result) -> None:
        session = self.sessions[-1]
        assert session.graph is result.anonymized_graph
        assert_state_matches_oracle(session, result.anonymized_graph)
        self.steps += 1

    def capture(self):
        checker = self
        original = AnonymizerConfig.open_session

        def open_session(config, computer, graph, initial_distances=None):
            session = original(config, computer, graph, initial_distances)
            checker.sessions.append(session)
            return session

        return mock.patch.object(AnonymizerConfig, "open_session", open_session)


class TestStateThroughGreedyRuns:
    @given(graphs(min_vertices=4, max_vertices=11), st.sampled_from([1, 2]),
           st.integers(min_value=0, max_value=3), st.booleans())
    @settings(max_examples=25, deadline=None)
    def test_rem_and_rem_ins_steps(self, graph, length, seed, insert):
        algorithm = (EdgeRemovalInsertionAnonymizer if insert
                     else EdgeRemovalAnonymizer)
        checker = _StateChecker()
        with checker.capture():
            algorithm(length_threshold=length, theta=0.2, seed=seed,
                      max_steps=6).anonymize(graph, observer=checker)
        assert len(checker.sessions) == 1

    def test_rem_ins_inserts_edges(self):
        """The premise of the rem-ins leg: its steps really insert edges."""
        from repro.graph import erdos_renyi_graph

        graph = erdos_renyi_graph(14, 0.3, seed=2)
        checker = _StateChecker()
        with checker.capture():
            result = EdgeRemovalInsertionAnonymizer(
                length_threshold=2, theta=0.3, seed=0,
                max_steps=5).anonymize(graph, observer=checker)
        assert result.inserted_edges and checker.steps == result.num_steps

    @given(graphs(min_vertices=5, max_vertices=11),
           st.integers(min_value=0, max_value=3), st.booleans())
    @settings(max_examples=15, deadline=None)
    def test_resumed_pass(self, graph, seed, insert):
        algorithm = (EdgeRemovalInsertionAnonymizer if insert
                     else EdgeRemovalAnonymizer)
        anonymizer = algorithm(length_threshold=2, seed=seed, max_steps=8)
        thetas = (0.8, 0.5, 0.2)
        keep = _CheckpointKeeper()
        full = anonymizer.anonymize_schedule(graph, thetas, observer=keep)
        checker = _StateChecker()
        with checker.capture():
            resumed = anonymizer.anonymize_schedule(
                graph, thetas[1:], observer=checker,
                resume_from=keep.checkpoints[0])
        assert [run.steps for run in resumed] == [run.steps for run in full[1:]]


class _CheckpointKeeper(NullObserver):
    def __init__(self) -> None:
        self.checkpoints = []

    def on_checkpoint(self, checkpoint) -> None:
        self.checkpoints.append(checkpoint)


@st.composite
def type_columns(draw):
    """Types as ``(pair count, share)``: small counts, and large ones.

    The large counts are ``b`` and ``b + 1`` for one ``b`` of ``2**26``,
    ``2**30`` or ``2**33``; at the last two the ratios ``(b-1)/b`` and
    ``b/(b+1)`` (:func:`within_values` makes both) are distinct fractions
    sharing one float.
    """
    base = draw(st.sampled_from([1 << 26, 1 << 30, 1 << 33]))
    total = st.one_of(st.integers(min_value=1, max_value=60),
                      st.integers(min_value=1, max_value=1 << 40),
                      st.sampled_from([base, base + 1]))
    return draw(st.lists(st.tuples(total, st.floats(min_value=0.0,
                                                    max_value=1.0)),
                         min_size=1, max_size=8))


def within_values(total, share):
    """Counts of a type of ``total`` pairs that make ties and near-ties."""
    return [0, total, int(total * share), max(0, total - 1)]


@st.composite
def changed_counts(draw):
    """``(totals, withins, afters)``: types, their counts, and candidates' counts.

    Each candidate's count vector after its edit redraws some of the
    types' counts from :func:`within_values`.
    """
    columns = draw(type_columns())
    totals = [total for total, _ in columns]
    values = [within_values(total, share) for total, share in columns]
    withins = [draw(st.sampled_from(choices)) for choices in values]
    afters = draw(st.lists(st.tuples(*(
        st.one_of(st.just(within), st.sampled_from(choices))
        for within, choices in zip(withins, values))).map(list), max_size=5))
    return totals, withins, afters


def fraction_summary(withins, totals):
    """The exact maximum of ``withins / totals`` and how many types reach it."""
    fractions = [Fraction(w, t) for w, t in zip(withins, totals)]
    best = max(fractions)
    return best, [value == best for value in fractions]


def summarizing_session(withins, totals):
    """An :class:`OpacitySession` holding only the given count vectors.

    Just enough state for :meth:`OpacitySession._summarize_changed`,
    which reads the counts and the exact ordering built from them.
    """
    session = object.__new__(OpacitySession)
    session._withins = np.array(withins, dtype=np.int64)
    session._totals = np.array(totals, dtype=np.int64)
    session._ranking = None
    return session


class TestSummarizer:
    @given(type_columns(), st.integers(min_value=1, max_value=4), st.data())
    @settings(max_examples=80, deadline=None)
    def test_groups_match_fraction_reference(self, columns, count, data):
        totals = [total for total, _ in columns]
        rows = [[data.draw(st.sampled_from(within_values(total, share)))
                 for total, share in columns] for _ in range(count)]
        # The entries of every group, in a drawn order.
        entries = [(row, column) for row in range(count)
                   for column in range(len(columns))]
        entries = data.draw(st.permutations(entries))
        groups = np.array([row for row, _ in entries], dtype=np.int64)
        nums = np.array([rows[row][column] for row, column in entries],
                        dtype=np.int64)
        dens = np.array([totals[column] for _, column in entries],
                        dtype=np.int64)
        best_num, best_den, at_max = group_maxima(groups, nums, dens, count)
        for row in range(count):
            best, flags = fraction_summary(rows[row], totals)
            assert (best_num[row], best_den[row]) == \
                (best.numerator, best.denominator)
            observed = {column: bool(flag) for (owner, column), flag
                        in zip(entries, at_max.tolist()) if owner == row}
            assert observed == dict(enumerate(flags))

    @pytest.mark.parametrize("base", [1 << 30, 1 << 33])
    def test_distinct_fractions_sharing_a_float(self, base):
        """(b-1)/b and b/(b+1) round to one float for large b."""
        totals = np.array([base, base + 1, 7], dtype=np.int64)
        withins = np.array([base - 1, base, 3], dtype=np.int64)
        assert (withins[0] / totals[0]) == (withins[1] / totals[1])
        nums, dens, at_max = group_maxima(np.zeros(3, dtype=np.int64),
                                          withins, totals, 1)
        assert Fraction(int(nums[0]), int(dens[0])) == Fraction(base, base + 1)
        assert at_max.tolist() == [False, True, False]

    @given(changed_counts())
    @example(([1 << 30, (1 << 30) + 1, 7], [0, 1 << 30, 3],
              [[(1 << 30) - 1, 1 << 30, 3], [(1 << 30) - 1, 1 << 30, 7]]))
    @example(([1 << 33, (1 << 33) + 1], [1 << 33, 0],
              [[(1 << 33) - 1, 1 << 33], [0, 0]]))
    @settings(max_examples=120, deadline=None)
    def test_changed_types_match_fraction_reference(self, case):
        """The grouped summary of change triples equals ``Fraction`` maxima
        and tie counts over each candidate's whole count vector.

        The examples make the distinct ratios ``(b-1)/b`` and ``b/(b+1)``,
        which share one float, a candidate's top two: ``Fraction`` settles
        them.
        """
        totals, withins, afters = case
        triples = sorted((candidate, position, new - old)
                         for candidate, after in enumerate(afters)
                         for position, (old, new) in enumerate(zip(withins,
                                                                   after))
                         if new != old)
        candidate, types, deltas = (np.array([t[k] for t in triples],
                                             dtype=np.int64).reshape(-1)
                                    for k in range(3))
        nums, dens, ties = summarizing_session(withins, totals) \
            ._summarize_changed(len(afters), candidate, types, deltas)
        expected = []
        for after in afters:
            best, flags = fraction_summary(after, totals)
            expected.append((best.numerator, best.denominator, sum(flags)))
        assert list(zip(nums.tolist(), dens.tolist(), ties.tolist())) == \
            expected

    def test_oracle_reference_agrees_with_the_product_on_a_sample(self):
        from repro.graph import erdos_renyi_graph

        graph = erdos_renyi_graph(20, 0.2, seed=4)
        computer = OpacityComputer(DegreePairTyping(graph), 2)
        keys, _ = computer.type_order
        counts = computer.within_counts(computer.distances(graph)).tolist()
        expected = result_from_counts(computer.typing, dict(zip(keys, counts)))
        observed = computer.evaluate(graph)
        assert observed == expected


class TestGadedMaxTotal:
    """GADED-Max's secondary key, computed once per distinct removed type,
    equals the scratch oracle's float sum of per-type opacities bit for bit."""

    @given(graphs(max_vertices=10), thetas, st.data())
    @settings(max_examples=60, deadline=None)
    def test_totals_match_scratch_sum(self, graph, theta, data):
        # The degree typing, or an explicit one with untyped pairs, whose
        # removal leaves the total unchanged.
        computer = OpacityComputer(data.draw(typings(graph)), 1)
        session = OpacitySession(computer, graph.copy())
        scratch = ScratchSession(computer, graph.copy())
        for mask_theta in (theta, None):
            edges = GadedMaxAnonymizer._disclosing_edges(session, mask_theta)
            endpoints = np.array(edges, dtype=np.int64).reshape(-1, 2)
            totals = removal_totals(session, endpoints).tolist()
            assert len(totals) == len(edges)
            for edge, total in zip(edges, totals):
                per_type = scratch.result_after(removals=[edge]).per_type
                assert total == float(sum(entry.opacity
                                          for entry in per_type.values()))


class TestTieBreakerReference:
    @given(st.integers(min_value=0, max_value=2 ** 32),
           st.lists(st.tuples(st.integers(min_value=0, max_value=6),
                              st.integers(min_value=1, max_value=6),
                              st.integers(min_value=0, max_value=2)),
                    max_size=40))
    @settings(max_examples=150, deadline=None)
    def test_same_winner_and_rng_state_as_fraction_reference(self, seed,
                                                             stream):
        outcomes = [CandidateOutcome(edges=((index, index + 1),),
                                     numerator=num, denominator=den,
                                     types_at_max=ties)
                    for index, (num, den, ties) in enumerate(stream)]
        serial_rng, reference_rng = random.Random(seed), random.Random(seed)
        serial = SerialTieBreaker(serial_rng)
        reference = FractionTieBreaker(reference_rng)
        for outcome in outcomes:
            serial.offer(outcome)
            reference.offer(outcome)
        assert serial.best is reference.best
        assert serial_rng.getstate() == reference_rng.getstate()


#: One outcome: (numerator, denominator, types_at_max).  Small values make
#: exact ties frequent, and equal fractions arrive unreduced (1/2, 2/4, 3/6).
outcome_values = st.tuples(st.integers(min_value=0, max_value=4),
                           st.integers(min_value=1, max_value=6),
                           st.integers(min_value=0, max_value=2))


@st.composite
def chunked_levels(draw):
    """Look-ahead levels of outcomes, each cut into scan chunks."""
    levels = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        stream = draw(st.lists(outcome_values, max_size=30))
        cuts = sorted(draw(st.sets(st.integers(min_value=0,
                                               max_value=len(stream)))))
        bounds = [0] + cuts + [len(stream)]
        levels.append([stream[start:stop]
                       for start, stop in zip(bounds, bounds[1:])])
    return levels


class TestBatchTieBreakerReplay:
    """:meth:`TieBreaker.offer_batch` replays per-candidate offers exactly.

    A level breaker and an overall breaker share one RNG, as in
    ``search_best_combination``: every outcome goes to the level breaker,
    then the overall one, and the overall breaker carries across levels.
    The batched replay must pick the same outcomes as per-candidate
    :class:`FractionTieBreaker` offers and leave the RNG in the same state,
    however the levels are chunked.
    """

    @given(st.integers(min_value=0, max_value=2 ** 32), chunked_levels())
    @settings(max_examples=300, deadline=None)
    def test_same_winners_and_rng_state_as_fraction_reference(self, seed,
                                                              levels):
        product_rng, reference_rng = random.Random(seed), random.Random(seed)
        overall = TieBreaker(product_rng)
        reference_overall = FractionTieBreaker(reference_rng)
        index = 0
        for chunks in levels:
            level = TieBreaker(product_rng)
            reference_level = FractionTieBreaker(reference_rng)
            for chunk in chunks:
                edges = [((index + offset, index + offset + 1),)
                         for offset in range(len(chunk))]
                index += len(chunk)
                batch = ScoredBatch(edges,
                                    *(np.array(column, dtype=np.int64)
                                      for column in zip(*chunk))
                                    if chunk else
                                    (np.empty(0, dtype=np.int64),) * 3)
                TieBreaker.offer_batch((level, overall), batch)
                for position in range(len(batch)):
                    outcome = batch.outcome(position)
                    reference_level.offer(outcome)
                    reference_overall.offer(outcome)
            assert level.best == reference_level.best
            assert overall.best == reference_overall.best
            assert product_rng.getstate() == reference_rng.getstate()

    @given(st.integers(min_value=0, max_value=2 ** 32),
           st.lists(outcome_values, max_size=40))
    @settings(max_examples=150, deadline=None)
    def test_single_breaker_matches_per_candidate_offers(self, seed, stream):
        product_rng, reference_rng = random.Random(seed), random.Random(seed)
        product = TieBreaker(product_rng)
        reference = SerialTieBreaker(reference_rng)
        columns = [np.array(column, dtype=np.int64)
                   for column in zip(*stream)] or \
            [np.empty(0, dtype=np.int64)] * 3
        batch = ScoredBatch([((k, k + 1),) for k in range(len(stream))],
                            *columns)
        TieBreaker.offer_batch((product,), batch)
        for position in range(len(batch)):
            reference.offer(batch.outcome(position))
        assert product.best == reference.best
        assert product_rng.getstate() == reference_rng.getstate()
