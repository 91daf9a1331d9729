"""L = 1 sessions keep only the edge set.

At L = 1 the within-L pairs are exactly the edges, so an
:class:`~repro.core.opacity_session.OpacitySession` keeps its sorted edge
array and per-type counts and builds no distance store or adjacency
mirror; a grid whose every point is at L = 1 computes and publishes no
L_max base.  The spies below make every such constructor raise and run
all five algorithms through the facade and through a pooled
shared-memory grid.
"""

from __future__ import annotations

import multiprocessing

import numpy as np
import pytest

from repro.api import AnonymizationRequest, GridRequest, anonymize, run_grid
from repro.api.shm import SharedSampleArena
from repro.core import DegreePairTyping, OpacityComputer, OpacitySession
from repro.errors import InvalidEdgeError
from repro.graph import Graph, erdos_renyi_graph
from repro.graph import distance_delta, distance_store
from repro.graph.distance_cache import LMaxDistanceCache
from repro.graph.distance_delta import DistanceSession

ALGORITHMS = ("rem", "rem-ins", "gaded-rand", "gaded-max", "gades")

BASE = AnonymizationRequest(dataset="enron", sample_size=40, seed=0,
                            theta=0.3)

#: Everything an L = 1 run must not build: the distance session, both
#: store tiers, both adjacency mirrors and the grid's L_max cache.
SPIED = (distance_delta.DistanceSession, distance_store.DenseStore,
         distance_store.TiledStore, distance_delta._DenseAdjacency,
         distance_delta._CSROverlayAdjacency, LMaxDistanceCache)


@pytest.fixture
def no_distance_state(monkeypatch):
    """Make every distance-state constructor raise, in this process and
    in pool workers forked from it."""
    def refuse(self, *args, **kwargs):
        raise AssertionError(f"built a {type(self).__name__}")

    for cls in SPIED:
        monkeypatch.setattr(cls, "__init__", refuse)


class TestNoDistanceState:
    def test_spies_fire_at_l2(self, no_distance_state):
        with pytest.raises(AssertionError, match="built a DistanceSession"):
            anonymize(BASE.with_overrides(length_threshold=2))

    @pytest.mark.parametrize("algorithm,lookahead",
                             [(name, 1) for name in ALGORITHMS]
                             + [("rem", 2), ("rem-ins", 2)])
    def test_no_l1_run_builds_distance_state(self, no_distance_state,
                                             algorithm, lookahead):
        response = anonymize(BASE.with_overrides(algorithm=algorithm,
                                                 lookahead=lookahead))
        assert response.error is None
        assert response.evaluations > 1  # premise: the run scanned

    def test_pooled_shm_grid_builds_no_distance_state(self, no_distance_state,
                                                      monkeypatch):
        # The spies reach the pool workers only when they are forked.
        assert multiprocessing.get_context().get_start_method() == "fork"
        published = []
        publish = SharedSampleArena.publish.__func__

        def record(cls, graph, base=None, l_max=None):
            arena = publish(cls, graph, base, l_max)
            published.append(arena.descriptor)
            return arena

        monkeypatch.setattr(SharedSampleArena, "publish", classmethod(record))
        grid = GridRequest.from_axes(BASE, algorithms=ALGORITHMS,
                                     thetas=(0.5, 0.3))
        response = run_grid(grid, max_workers=2)
        assert response.ok
        assert response.num_sample_loads == 1
        assert response.num_distance_computes == 0
        assert [(descriptor.matrix, descriptor.tiled, descriptor.l_max)
                for descriptor in published] == [(None, None, None)]


class TestL1GridComputesNoBase:
    @pytest.mark.parametrize("max_workers", (0, 2))
    def test_l1_only_grid_reports_no_distance_compute(self, max_workers):
        grid = GridRequest.from_axes(BASE, algorithms=("rem", "gaded-max"),
                                     thetas=(0.5, 0.3))
        response = run_grid(grid, max_workers=max_workers)
        assert response.ok
        assert response.num_sample_loads == 1
        assert response.num_distance_computes == 0
        for ours, request in zip(response.responses, grid.requests):
            assert ours.anonymized_edges == anonymize(request).anonymized_edges


def _session(graph: Graph) -> OpacitySession:
    return OpacitySession(OpacityComputer(DegreePairTyping(graph), 1), graph)


def _state(session: OpacitySession):
    everything = np.ones(session.type_counts()[0].size, dtype=bool)
    return (session.graph.edge_set(), session.type_counts()[0].tolist(),
            [part.tolist() for part in session.edge_endpoints()],
            [part.tolist() for part in session.violating_pair_indices(everything)])


class TestL1ApplyEdit:
    @pytest.fixture
    def graph(self):
        return erdos_renyi_graph(12, 0.3, seed=3)

    @pytest.mark.parametrize("kind", ("absent removal", "present insertion",
                                      "valid then invalid"))
    def test_invalid_edit_raises_the_stage_message_and_changes_nothing(
            self, graph, kind):
        present = sorted(graph.edge_set())
        absent = next(edge for edge in graph.non_edges())
        edit = {"absent removal": dict(removals=[absent]),
                "present insertion": dict(insertions=[present[0]]),
                "valid then invalid": dict(removals=[present[0]],
                                           insertions=[present[1]])}[kind]
        with pytest.raises(InvalidEdgeError) as staged:
            DistanceSession(graph.copy(), 2).stage(**edit)
        session = _session(graph)
        before = _state(session)
        with pytest.raises(InvalidEdgeError) as applied:
            session.apply_edit(**edit)
        assert str(applied.value) == str(staged.value)
        assert _state(session) == before

    def test_a_removal_the_edit_reinserts_nets_to_nothing(self, graph):
        session = _session(graph)
        edge = sorted(graph.edge_set())[0]
        before = _state(session)
        session.apply_edit(removals=[edge], insertions=[edge[::-1]])
        assert _state(session) == before
        assert session.current().max_fraction == \
            session.computer.evaluate(graph).max_fraction
