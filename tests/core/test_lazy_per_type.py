"""Greedy runs build no per-type objects until a caller reads ``per_type``.

The session summarizes its count arrays once per step; the
:class:`~repro.core.opacity.TypeOpacity` entries of a result are only
created when ``per_type`` is read.  Counting constructions over whole runs
guards that deterministically.
"""

from __future__ import annotations

import pytest

from repro.baselines import GadedMaxAnonymizer
from repro.core import (
    DegreePairTyping,
    EdgeRemovalAnonymizer,
    EdgeRemovalInsertionAnonymizer,
    OpacityComputer,
    OpacitySession,
)
from repro.core.opacity import TypeOpacity
from repro.graph import erdos_renyi_graph


@pytest.fixture
def constructions(monkeypatch):
    """A list that gains one entry per :class:`TypeOpacity` constructed."""
    made = []
    original = TypeOpacity.__init__

    def counting_init(self, *args, **kwargs):
        made.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(TypeOpacity, "__init__", counting_init)
    return made


@pytest.mark.parametrize("algorithm,params", [
    (EdgeRemovalAnonymizer, dict(length_threshold=1, theta=0.3, seed=0)),
    (EdgeRemovalAnonymizer, dict(length_threshold=2, theta=0.4, seed=1,
                                 lookahead=2, max_combinations=50)),
    (EdgeRemovalInsertionAnonymizer,
     dict(length_threshold=2, theta=0.4, seed=0, insertion_candidate_cap=30)),
    (GadedMaxAnonymizer, dict(theta=0.3, seed=0)),
])
def test_full_runs_construct_no_type_opacity(constructions, algorithm, params):
    graph = erdos_renyi_graph(24, 0.25, seed=5)
    result = algorithm(**params).anonymize(graph)
    assert result.num_steps > 0  # premise: the loop ran
    assert constructions == []


def test_reading_per_type_builds_the_entries_once(constructions):
    graph = erdos_renyi_graph(16, 0.3, seed=2)
    computer = OpacityComputer(DegreePairTyping(graph), 2)
    session = OpacitySession(computer, graph)
    try:
        current = session.current()
        assert constructions == []
        entries = dict(current.per_type)
        assert len(constructions) == len(entries) == len(computer.type_order[0])
        dict(current.per_type)
        assert len(constructions) == len(entries)
    finally:
        session.close()
