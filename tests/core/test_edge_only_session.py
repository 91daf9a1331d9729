"""L = 1 sessions keep only the edge set; L = 2 sessions drop the store.

At L = 1 the within-L pairs are exactly the edges, so an
:class:`~repro.core.opacity_session.OpacitySession` keeps its sorted edge
array and per-type counts and builds no distance store or adjacency
mirror; a grid whose every point is at L = 1 computes and publishes no
L_max base.  The spies below make every such constructor raise and run
all five algorithms through the facade and through a pooled
shared-memory grid.

At L = 2 the store serves the opening count only: every applied edit
takes its flipped pairs from the common-neighbour counts.  A second set of
spies makes every ``stage``, ``commit`` and distance-row read raise, makes
both adjacency-mirror constructors raise, and checks that no session
holds a distance session when it applies an edit, for ``rem`` and
``rem-ins`` at look-ahead 1 and 2 on both tiers, through the facade and a
pooled grid.  A control shows that the mirror spies fire at L = 3.  A hypothesis sequence holds the counts and
the within-2 set to fresh recounts after every applied edit.

From the moment a session opens to the finished response, no run at
L <= 2 walks the graph's edges in Python: every bulk reader shares the
graph's cached :meth:`~repro.graph.graph.Graph.edge_array`.  A spy on
:meth:`Graph.edges` armed when the session opens checks it.  Applied
edits carry that snapshot forward (:meth:`Graph.edit`), so no graph
rebuilds it from its adjacency sets after the session opens either; and
an L = 2 edit edits the common-neighbour counts' CSR in place, never
calling :meth:`CSRAdjacency.from_edges`.  Two more spies check those.

An L = 2 session keeps its counts and pair types in triu planes of
``n(n−1)/2`` entries only where both fit its scale budget and the tier is
not ``tiled``.  A spy on numpy's array constructors checks that a run on
the tiled tier, or under a budget below the planes' bytes, makes no array
of that many entries, so the tiled tier still holds no ``n²`` state; a
default-budget run makes and holds both planes.

A session types its edges only when something reads the types: the
L = 1 opening count, or a masked :meth:`OpacitySession.edge_endpoints`
query (the L = 1 pruning pass, GADED).  A spy shows that an L = 2 ``rem``
or ``rem-ins`` run never carries edge types across an edit, and runs that
do type their edges match runs that type them when the session opens.
"""

from __future__ import annotations

import multiprocessing

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import AnonymizationRequest, GridRequest, anonymize, run_grid
from repro.api.shm import SharedSampleArena
from repro.core import DegreePairTyping, OpacityComputer, OpacitySession
from repro.core.anonymizer import AnonymizerConfig
from repro.errors import InvalidEdgeError
from repro.graph import Graph, erdos_renyi_graph
from repro.graph import distance_delta, distance_store
from repro.graph.distance import bounded_distance_matrix
from repro.graph.distance_cache import LMaxDistanceCache
from repro.graph.distance_delta import DistanceSession
from repro.graph.distance_store import CSRAdjacency, StoreConfig
from repro.graph.two_hop import triu_flat
from tests.oracles import ScratchSession
from tests.property.strategies import graphs, typings

ALGORITHMS = ("rem", "rem-ins", "gaded-rand", "gaded-max", "gades")

BASE = AnonymizationRequest(dataset="enron", sample_size=40, seed=0,
                            theta=0.3)

#: Everything an L = 1 run must not build: the distance session, both
#: store tiers, both adjacency mirrors and the grid's L_max cache.
SPIED = (distance_delta.DistanceSession, distance_store.DenseStore,
         distance_store.TiledStore, distance_delta._DenseAdjacency,
         distance_delta._CSROverlayAdjacency, LMaxDistanceCache)


@pytest.fixture
def edge_walks(monkeypatch):
    """The ``Graph.edges`` calls made after the first session opened."""
    opened, calls = [], []
    edges, open_session = Graph.edges, AnonymizerConfig.open_session

    def spy_edges(self):
        if opened:
            calls.append(self.num_edges)
        return edges(self)

    def spy_open(self, *args, **kwargs):
        opened.append(True)
        return open_session(self, *args, **kwargs)

    monkeypatch.setattr(Graph, "edges", spy_edges)
    monkeypatch.setattr(AnonymizerConfig, "open_session", spy_open)
    return opened, calls


@pytest.fixture
def snapshot_builds(monkeypatch):
    """The ``Graph.edge_array`` calls, made after the first session opened,
    that found no cached snapshot and so walked the adjacency sets."""
    opened, builds = [], []
    edge_array, open_session = Graph.edge_array, AnonymizerConfig.open_session

    def spy_edge_array(self):
        if opened and self._edge_array is None:
            builds.append(self.num_edges)
        return edge_array(self)

    def spy_open(self, *args, **kwargs):
        opened.append(True)
        return open_session(self, *args, **kwargs)

    monkeypatch.setattr(Graph, "edge_array", spy_edge_array)
    monkeypatch.setattr(AnonymizerConfig, "open_session", spy_open)
    return opened, builds


@pytest.fixture
def csr_builds_in_apply(monkeypatch):
    """The ``CSRAdjacency.from_edges`` calls made inside ``apply_edit``,
    and the number of ``apply_edit`` calls."""
    applying, builds, applied = [], [], []
    from_edges, apply_edit = CSRAdjacency.from_edges.__func__, OpacitySession.apply_edit

    def spy_from_edges(cls, n, first, second):
        if applying:
            builds.append(first.size)
        return from_edges(cls, n, first, second)

    def spy_apply(self, removals=(), insertions=()):
        applying.append(True)
        applied.append(True)
        try:
            return apply_edit(self, removals, insertions)
        finally:
            applying.pop()

    monkeypatch.setattr(CSRAdjacency, "from_edges", classmethod(spy_from_edges))
    monkeypatch.setattr(OpacitySession, "apply_edit", spy_apply)
    return applying, builds, applied


def _run(algorithm: str, length: int, tier: str):
    response = anonymize(BASE.with_overrides(
        algorithm=algorithm, length_threshold=length, scale_tier=tier,
        scale_budget_bytes=1 << 12, include_utility=True))
    assert response.error is None
    assert response.num_steps > 0  # premise: a real run
    return response


class TestNoPythonEdgeWalks:
    @pytest.mark.parametrize("tier", ["dense", "tiled"])
    @pytest.mark.parametrize("length", [1, 2])
    @pytest.mark.parametrize("algorithm", ["rem", "rem-ins"])
    def test_session_to_response_never_calls_edges(self, edge_walks, algorithm,
                                                   length, tier):
        opened, calls = edge_walks
        _run(algorithm, length, tier)
        assert opened
        assert calls == []

    def test_the_spy_fires(self, edge_walks):
        opened, calls = edge_walks
        opened.append(True)
        list(Graph(3, edges=[(0, 1)]).edges())
        assert calls == [1]

    @pytest.mark.parametrize("tier", ["dense", "tiled"])
    @pytest.mark.parametrize("length", [1, 2])
    @pytest.mark.parametrize("algorithm", ["rem", "rem-ins"])
    def test_session_to_response_never_rebuilds_the_edge_snapshot(
            self, snapshot_builds, algorithm, length, tier):
        opened, builds = snapshot_builds
        _run(algorithm, length, tier)
        assert opened
        assert builds == []

    def test_the_snapshot_spy_fires_after_a_single_mutation(self,
                                                            snapshot_builds):
        opened, builds = snapshot_builds
        opened.append(True)
        graph = Graph(3, edges=[(0, 1)])
        graph.edge_array()
        graph.edit([(0, 1)], [(1, 2)])
        graph.edge_array()  # carried: no build
        graph.add_edge(0, 2)
        graph.edge_array()
        assert builds == [1, 2]

    @pytest.mark.parametrize("tier", ["dense", "tiled"])
    @pytest.mark.parametrize("algorithm", ["rem", "rem-ins"])
    def test_no_l2_edit_rebuilds_the_csr(self, csr_builds_in_apply, algorithm,
                                         tier):
        _, builds, applied = csr_builds_in_apply
        _run(algorithm, 2, tier)
        assert applied  # premise: edits were applied
        assert builds == []

    def test_the_csr_spy_fires(self, csr_builds_in_apply):
        applying, builds, _ = csr_builds_in_apply
        applying.append(True)
        CSRAdjacency.from_graph(Graph(3, edges=[(0, 1)]))
        assert builds == [1]


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
        assert [(descriptor.matrix, descriptor.l_max)
                for descriptor in published] == [(None, None)]


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


#: The distance-session calls an L = 2 edit no longer makes.
L2_FORBIDDEN = ("stage", "commit", "rows")

L2 = BASE.with_overrides(length_threshold=2)


#: The adjacency mirrors a distance session builds on its first preview
#: or edit, and never for a read-only opening count.
MIRRORS = (distance_delta._DenseAdjacency, distance_delta._CSROverlayAdjacency)


@pytest.fixture
def no_mirror(monkeypatch):
    """Make both adjacency-mirror constructors raise, in this process and
    in pool workers forked from it."""
    def refuse(self, *args, **kwargs):
        raise AssertionError(f"built a {type(self).__name__}")

    for cls in MIRRORS:
        monkeypatch.setattr(cls, "__init__", refuse)


@pytest.fixture
def no_store_after_opening(monkeypatch, no_mirror):
    """Make every ``stage``, ``commit`` and distance-row read raise, and
    check before every applied edit that the session holds no distance
    session, in this process and in pool workers forked from it.  No
    adjacency mirror may be built either.

    Returns the list of edits applied in this process.
    """
    def refuse(name):
        def method(self, *args, **kwargs):
            raise AssertionError(f"DistanceSession.{name} called")
        return method

    for name in L2_FORBIDDEN:
        monkeypatch.setattr(DistanceSession, name, refuse(name))
    applied = []
    apply_edit = OpacitySession.apply_edit

    def checked(self, removals=(), insertions=()):
        assert self._distance is None, "the session holds a DistanceSession"
        applied.append((tuple(removals), tuple(insertions)))
        return apply_edit(self, removals, insertions)

    monkeypatch.setattr(OpacitySession, "apply_edit", checked)
    return applied


@pytest.fixture
def plane_sized(monkeypatch):
    """Run an L = 2 request; return the sessions it opened and the number of
    1-D arrays of ``n(n−1)/2`` entries numpy's constructors made meanwhile."""
    sizes, sessions = [], []
    open_session = AnonymizerConfig.open_session

    def spy_open(self, *args, **kwargs):
        session = open_session(self, *args, **kwargs)
        sessions.append(session)
        return session

    def spied(make):
        def spy(*args, **kwargs):
            array = make(*args, **kwargs)
            if array.ndim == 1:
                sizes.append(array.size)
            return array
        return spy

    for name in ("zeros", "empty", "full", "ones", "arange"):
        monkeypatch.setattr(np, name, spied(getattr(np, name)))
    monkeypatch.setattr(AnonymizerConfig, "open_session", spy_open)

    def run(request):
        response = anonymize(request)
        assert response.error is None
        assert response.num_steps > 0  # premise: a real run
        n = response.num_vertices
        return sessions, sizes.count(n * (n - 1) // 2)
    return run


class TestL2PlaneMemory:
    N = 100
    CELLS = N * (N - 1) // 2

    @pytest.mark.parametrize("algorithm", ["rem", "rem-ins"])
    @pytest.mark.parametrize("tier,budget", [
        # The planes would fit this budget; the tiled tier never takes them.
        ("tiled", 1 << 20),
        # Each plane takes at least a byte per entry.
        ("auto", CELLS),
    ])
    def test_no_plane_sized_array_without_the_planes(self, plane_sized,
                                                     algorithm, tier, budget):
        sessions, planes = plane_sized(BASE.with_overrides(
            sample_size=self.N, length_threshold=2, algorithm=algorithm,
            max_steps=4, scale_tier=tier, scale_budget_bytes=budget))
        assert planes == 0
        assert [session._two_hop._plane for session in sessions] == [None]
        assert sessions[0]._type_plane is None

    @pytest.mark.parametrize("algorithm", ["rem", "rem-ins"])
    def test_a_default_budget_session_holds_both_planes(self, plane_sized,
                                                        algorithm):
        sessions, planes = plane_sized(BASE.with_overrides(
            sample_size=self.N, length_threshold=2, algorithm=algorithm,
            max_steps=4))
        assert planes == 2  # the spy fires
        (session,) = sessions
        assert session._two_hop._plane.shape == \
            session._type_plane.shape == (self.CELLS,)
        assert session._two_hop._plane.dtype == np.uint8


class TestL2AppliesFromCounts:
    @pytest.mark.parametrize("tier", ("dense", "tiled"))
    @pytest.mark.parametrize("algorithm,lookahead", [
        ("rem", 1), ("rem", 2), ("rem-ins", 1), ("rem-ins", 2)])
    def test_facade_runs_never_stage_commit_or_read_rows(
            self, no_store_after_opening, algorithm, lookahead, tier):
        request = L2.with_overrides(
            algorithm=algorithm, lookahead=lookahead, scale_tier=tier,
            scale_budget_bytes=1024 if tier == "tiled" else None)
        response = anonymize(request)
        assert response.error is None
        assert response.num_steps > 0  # premise: edits were applied
        # rem-ins applies each step's removal and insertion phases apart.
        assert len(no_store_after_opening) >= response.num_steps

    def test_pooled_grid_never_stages_commits_or_reads_rows(
            self, no_store_after_opening):
        # The spies reach the pool workers only when they are forked.
        assert multiprocessing.get_context().get_start_method() == "fork"
        grid = GridRequest.from_axes(L2, algorithms=("rem", "rem-ins"),
                                     lookaheads=(1, 2), thetas=(0.5, 0.3))
        response = run_grid(grid, max_workers=2)
        assert response.ok
        assert response.num_distance_computes == 1  # the L_max base stays
        assert all(point.num_steps > 0 for point in response.responses)

    @pytest.mark.parametrize("tier,mirror", [
        ("dense", "_DenseAdjacency"), ("tiled", "_CSROverlayAdjacency")])
    def test_mirror_spies_fire_at_l3(self, no_mirror, tier, mirror):
        request = L2.with_overrides(
            length_threshold=3, scale_tier=tier,
            scale_budget_bytes=1024 if tier == "tiled" else None)
        with pytest.raises(AssertionError, match=f"built a {mirror}"):
            anonymize(request)

    def test_distance_rows_names_the_length(self):
        graph = erdos_renyi_graph(10, 0.3, seed=2)
        for length in (1, 2):
            session = OpacitySession(
                OpacityComputer(DegreePairTyping(graph), length), graph)
            with pytest.raises(ValueError, match=f"L = {length}"):
                session.distance_rows([0])


@pytest.fixture
def edge_type_folds(monkeypatch):
    """The ``_fold_edge_types`` and ``apply_edit`` calls of every session."""
    folds, applied = [], []
    fold, apply_edit = OpacitySession._fold_edge_types, OpacitySession.apply_edit

    def spy_fold(self, *args):
        folds.append(self._computer.length_threshold)
        return fold(self, *args)

    def spy_apply(self, removals=(), insertions=()):
        applied.append(self._computer.length_threshold)
        return apply_edit(self, removals, insertions)

    monkeypatch.setattr(OpacitySession, "_fold_edge_types", spy_fold)
    monkeypatch.setattr(OpacitySession, "apply_edit", spy_apply)
    return folds, applied


def eagerly_typed(monkeypatch):
    """Make every session type its edges when it opens, as all L once did."""
    init = OpacitySession.__init__

    def typed_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self._typed_edges()

    monkeypatch.setattr(OpacitySession, "__init__", typed_init)


class TestEdgeTypesOnDemand:
    @pytest.mark.parametrize("tier", ("dense", "tiled"))
    @pytest.mark.parametrize("algorithm", ("rem", "rem-ins"))
    def test_l2_runs_never_carry_edge_types(self, edge_type_folds, algorithm,
                                            tier):
        folds, applied = edge_type_folds
        _run(algorithm, 2, tier)
        assert applied  # premise: edits were applied
        assert folds == []

    @pytest.mark.parametrize("algorithm,length", [
        ("rem", 1), ("rem-ins", 1), ("gaded-max", 1), ("gaded-rand", 1)])
    def test_typed_runs_match_eagerly_typed_runs(self, edge_type_folds,
                                                 monkeypatch, algorithm,
                                                 length):
        folds, _ = edge_type_folds
        request = BASE.with_overrides(algorithm=algorithm,
                                      length_threshold=length)
        response = anonymize(request)
        assert response.error is None
        assert response.num_steps > 0
        assert folds  # the L = 1 count and GADED's masked query type edges
        eagerly_typed(monkeypatch)
        eager = anonymize(request)
        assert eager.anonymized_edges == response.anonymized_edges
        assert (eager.final_opacity, eager.num_steps, eager.evaluations) == \
            (response.final_opacity, response.num_steps, response.evaluations)


@st.composite
def valid_edits(draw, graph: Graph):
    """One valid edit of ``graph``: up to two removals and two insertions.

    Sometimes the edit also re-inserts one of its removals (given in the
    other orientation), which nets to nothing; the empty edit can occur.
    """
    present = sorted(graph.edge_set())
    absent = list(graph.non_edges())
    removals = draw(st.lists(st.sampled_from(present), max_size=2,
                             unique=True)) if present else []
    insertions = draw(st.lists(st.sampled_from(absent), max_size=2,
                               unique=True)) if absent else []
    if removals and draw(st.booleans()):
        insertions.insert(draw(st.integers(0, len(insertions))),
                          removals[0][::-1])
    return removals, insertions


class TestL2EditSequences:
    @given(graphs(min_vertices=3, max_vertices=10), st.booleans(), st.data())
    @settings(max_examples=60, deadline=None)
    def test_counts_and_within_set_match_fresh_recounts(self, graph, tiled,
                                                        data):
        computer = OpacityComputer(data.draw(typings(graph)), 2)
        config = StoreConfig(tier="tiled", budget_bytes=64, tile_rows=2) \
            if tiled else None
        session = OpacitySession(computer, graph.copy(), store_config=config)
        scratch = ScratchSession(computer, graph.copy())
        assert session._distance is None
        n = graph.num_vertices
        size = len(computer.type_order[0])
        everything = np.ones(size, dtype=bool)
        # Seed the pruning set, so every edit below is folded into it.
        session.violating_pair_indices(everything)
        try:
            for _ in range(data.draw(st.integers(1, 6))):
                removals, insertions = data.draw(valid_edits(session.graph))
                session.apply_edit(removals, insertions)
                scratch.apply_edit(removals, insertions)
                assert session.graph == scratch.graph
                assert session.type_counts()[0].tolist() == \
                    scratch.type_counts()[0].tolist()
                rows, cols = np.nonzero(np.triu(
                    bounded_distance_matrix(session.graph, 2) <= 2, 1))
                within = triu_flat(rows, cols, n)
                assert session._two_hop.within_pairs().tolist() == \
                    within.tolist()
                typed = computer.type_indices(rows, cols) < size
                pruning = session.violating_pair_indices(everything)
                assert triu_flat(*pruning, n).tolist() == \
                    within[typed].tolist()
                assert session.current().max_fraction == \
                    scratch.current().max_fraction
        finally:
            session.close()
