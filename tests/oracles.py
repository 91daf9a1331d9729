"""Reference evaluation sessions for the differential suites.

The product scores every candidate through one
:class:`~repro.core.opacity_session.OpacitySession` path.  The references
it is proven against live here:

* :class:`ScratchSession` — the paper's copy-evaluate-restore loop: every
  query applies the edit to the working graph, recounts it from a fresh
  distance matrix, and reverts.  Its results are assembled by
  :func:`result_from_counts`, which builds a ``Fraction`` per type and
  compares them — the reference for the product's array summarizer.
* :class:`PerCandidateSession` — an incremental session that scores every
  candidate of a scan alone, one
  :meth:`~OpacitySession.score_combinations` row per call, so no
  candidate's result can depend on the batch around it: its padding
  width, its stacked tallies or its shared cell lookups.
* :class:`FractionTieBreaker` — Algorithm 4's selection rule comparing
  ``Fraction`` maxima, the reference for the product's exactly ranked
  :class:`~repro.core.anonymizer.TieBreaker`.
* :class:`SerialTieBreaker` — a :class:`~repro.core.anonymizer.TieBreaker`
  offered one outcome at a time, comparing maxima by integer
  cross-multiplication: the per-outcome reference for
  :meth:`~repro.core.anonymizer.TieBreaker.offer_batch`.
* :func:`outcomes` — a :class:`~repro.core.opacity_session.ScoredBatch` as
  a list of :class:`~repro.core.opacity_session.CandidateOutcome`, the
  form the differential suites compare.
* :func:`independent_schedule` — one full single-θ
  :meth:`~repro.core.anonymizer.BaseAnonymizer.anonymize` run per grid
  point, the reference every checkpointed θ pass
  (``anonymize_schedule``) is proven against;
  :func:`independent_responses` is the same reference one layer up: one
  error-isolated :func:`~repro.api.batch.execute_request` per request of
  a grid; :func:`independent_runs` is one facade
  :func:`~repro.api.facade.anonymize` per request, the reference of a
  fail-fast grid, and :func:`independent_grids` routes the figure
  builders through it.

:func:`assert_batch_entry_matches` holds one entry of
:meth:`~repro.graph.distance_delta.DistanceSession.preview_batch` to its
candidate's own :meth:`~repro.graph.distance_delta.DistanceSession.preview`,
and :func:`largest_region_removal` picks the removal whose slab of
affected rows is widest.

:func:`set_edge_edit_distance` is Equation 1's numerator over two Python
edge sets, the reference for the product's sorted-code
:func:`~repro.metrics.distortion.edge_edit_distance`, and
:func:`response_dict_by_asdict` is the ``dataclasses.asdict`` form of a
response, the reference for its field-by-field
:meth:`~repro.api.requests.AnonymizationResponse.to_dict`.

:func:`oracle_sessions` runs any anonymizer on either one by patching
:meth:`~repro.core.anonymizer.AnonymizerConfig.open_session`, the single
seam through which every greedy algorithm opens its session, and scores
look-ahead levels one combination per chunk (:func:`one_at_a_time`), so
the product's chunking and its stop handling are checked too.  It uses
:func:`unittest.mock.patch.object`, so it is safe inside hypothesis
``@given`` tests (no function-scoped fixture involved).

:func:`gnm_random_graph`, :func:`powerlaw_cluster_graph` and
:func:`adjust_edge_count` are the sample-load generators as they drew
before they read the RNG's words directly: every draw one
``randrange``/``choice`` call, the triangle closure over a freshly sorted
neighbour set.  The product's word-level generators are proven against
them draw for draw, RNG state included.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from dataclasses import asdict, replace
from fractions import Fraction
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple
from unittest import mock

import numpy as np

from repro.api.progress import AnonymizationStopped
from repro.core.anonymizer import (
    AnonymizationResult,
    AnonymizerConfig,
    BaseAnonymizer,
    TieBreaker,
    validate_theta_schedule,
)
from repro.core.opacity import OpacityComputer, OpacityResult, TypeOpacity
from repro.core.opacity_session import (
    CandidateOutcome,
    OpacitySession,
    ScoredBatch,
)
from repro.core.pair_types import PairTyping, TypeKey
from repro.errors import ConfigurationError
from repro.graph.generators import SeedLike, _empty_sets, _rng
from repro.graph.graph import Edge, Graph


def result_from_counts(typing: PairTyping, counts: Mapping[TypeKey, int]
                       ) -> OpacityResult:
    """Algorithm 1's result from within-L counts, one ``Fraction`` per type.

    Every non-empty type of ``typing`` gets a :class:`TypeOpacity`; the
    maximum is found by comparing their ``Fraction`` values, and the types at
    the maximum are counted by ``Fraction`` equality.
    """
    per_type: Dict[TypeKey, TypeOpacity] = {}
    max_fraction = Fraction(0)
    for type_key in typing.types():
        total = typing.pair_count(type_key)
        if total == 0:
            continue
        entry = TypeOpacity(type_key=type_key,
                            within_threshold=counts.get(type_key, 0),
                            total_pairs=total)
        per_type[type_key] = entry
        if entry.fraction > max_fraction:
            max_fraction = entry.fraction
    types_at_max = sum(1 for entry in per_type.values()
                       if entry.fraction == max_fraction)
    return OpacityResult(max_opacity=float(max_fraction),
                         max_fraction=max_fraction,
                         types_at_max=types_at_max, per_type=per_type)


def evaluate_with_fractions(computer: OpacityComputer, graph: Graph) -> OpacityResult:
    """``computer.evaluate(graph)`` assembled by :func:`result_from_counts`."""
    keys, _ = computer.type_order
    counts = computer.within_counts(computer.distances(graph)).tolist()
    return result_from_counts(computer.typing, dict(zip(keys, counts)))


def type_keys(typing: PairTyping) -> List[TypeKey]:
    """The typing's non-empty types in iteration order: the order of a type mask."""
    return [key for key in typing.types() if typing.pair_count(key) > 0]


def type_mask(typing: PairTyping, wanted) -> np.ndarray:
    """The flags, in type order, of the types in ``wanted``."""
    return np.array([key in wanted for key in type_keys(typing)], dtype=bool)


class FractionTieBreaker:
    """Algorithm 4's selection rule (lines 8-18) comparing ``Fraction`` maxima.

    The reference for :class:`~repro.core.anonymizer.TieBreaker`: the same
    preference order and reservoir draws, with each candidate's exact
    maximum compared as a ``Fraction``.
    """

    def __init__(self, rng: random.Random) -> None:
        self._rng = rng
        self.best: Optional[CandidateOutcome] = None
        self._tie_count = 0

    def offer(self, candidate: CandidateOutcome) -> None:
        if self.best is None or candidate.fraction < self.best.fraction:
            self.best = candidate
            self._tie_count = 1
            return
        if candidate.fraction == self.best.fraction:
            if candidate.types_at_max < self.best.types_at_max:
                self.best = candidate
                self._tie_count = 1
            elif candidate.types_at_max == self.best.types_at_max:
                self._tie_count += 1
                if self._rng.random() < 1.0 / self._tie_count:
                    self.best = candidate


class SerialTieBreaker(TieBreaker):
    """Algorithm 4's selection rule applied one outcome per :meth:`offer`.

    Exact maxima are compared by integer cross-multiplication, the
    ordering ``Fraction`` induces.  Its state is the product's, so a
    breaker can take offers from both :meth:`offer` and
    :meth:`~repro.core.anonymizer.TieBreaker.offer_batch`.
    """

    def offer(self, candidate: CandidateOutcome) -> None:
        """Consider one candidate outcome."""
        best = self.best
        ordering = 0 if best is None else (
            candidate.numerator * best.denominator
            - best.numerator * candidate.denominator)
        if best is None or ordering < 0:
            self.best = candidate
            self._tie_count = 1
            return
        if ordering == 0:
            if candidate.types_at_max < best.types_at_max:
                self.best = candidate
                self._tie_count = 1
            elif candidate.types_at_max == best.types_at_max:
                self._tie_count += 1
                if self._rng.random() < 1.0 / self._tie_count:
                    self.best = candidate


def outcomes(batch: ScoredBatch) -> List[CandidateOutcome]:
    """Every outcome of ``batch``, in candidate order."""
    return [batch.outcome(index) for index in range(len(batch))]


def score_by_evaluation(session, endpoints: np.ndarray, members: np.ndarray,
                        gained) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``score_combinations`` as one ``session.evaluate_edit`` per row.

    A member is an insertion where ``gained`` (broadcast against
    ``members``) flags it and a removal elsewhere; negative members are
    padding.
    """
    results = []
    flags = np.broadcast_to(gained, np.shape(members)).tolist()
    for row, row_flags in zip(np.asarray(members).tolist(), flags):
        edges = [(tuple(endpoints[j].tolist()), flag)
                 for j, flag in zip(row, row_flags) if j >= 0]
        results.append(session.evaluate_edit(
            tuple(edge for edge, flag in edges if not flag),
            tuple(edge for edge, flag in edges if flag)))
    return tuple(np.array([getattr(outcome, name) for outcome in results],
                          dtype=np.int64)
                 for name in ("numerator", "denominator", "types_at_max"))


def assert_batch_entry_matches(distances: np.ndarray, got, want,
                               length: int) -> None:
    """``got`` (a batch entry) is ``want`` (the preview), or ``None`` without flips.

    ``distances`` is the pre-edit matrix.  The entry is ``None`` exactly
    when the preview flips no cell across the L boundary; otherwise it
    equals the preview field for field.
    """
    flips = not np.array_equal(distances[want.rows] <= length,
                               want.new_rows <= length)
    assert (got is not None) == flips
    if got is not None:
        assert got.removals == want.removals
        assert got.insertions == want.insertions
        assert np.array_equal(got.rows, want.rows)
        assert np.array_equal(got.new_rows, want.new_rows)


def largest_region_removal(distances: np.ndarray, length: int
                           ) -> Tuple[Edge, int]:
    """The edge whose removal can change the most rows, and that row count.

    A row ``i`` of ``distances`` can change when some shortest path from
    ``i`` crosses the edge ``{u, v}``: ``|D[i, u] - D[i, v]| = 1`` with the
    nearer endpoint within ``length - 1``.  These rows are the removal's
    slab.  Ties go to the first edge in sorted order.
    """
    first, second = np.nonzero(np.triu(distances == 1))
    near = np.minimum(distances[first], distances[second]) <= length - 1
    sizes = (near & (np.abs(distances[first].astype(np.int64)
                            - distances[second]) == 1)).sum(axis=1)
    best = int(np.argmax(sizes))
    return (int(first[best]), int(second[best])), int(sizes[best])


class ScratchSession:
    """Copy-evaluate-restore behind the session interface the algorithms use.

    Every tentative edit is applied to the shared working graph, evaluated
    from scratch and undone.  ``initial_distances`` and
    ``store_config`` are accepted for interface parity and ignored: every
    query recomputes a dense matrix.  ``evaluations`` counts the stateless
    evaluations served, :meth:`current` included.  Type masks are read in
    the typing's order of non-empty types (:func:`type_keys`) and turned
    into key sets; pair types come from ``type_of``.
    """

    scan_workers = 0
    scan_parallelism = 1
    parallel_scans = 0

    def __init__(self, computer: OpacityComputer, graph: Graph,
                 initial_distances=None, store_config=None) -> None:
        self._computer = computer
        self._graph = graph
        self.evaluations = 0

    @property
    def computer(self) -> OpacityComputer:
        return self._computer

    @property
    def graph(self) -> Graph:
        return self._graph

    def current(self) -> OpacityResult:
        self.evaluations += 1
        return evaluate_with_fractions(self._computer, self._graph)

    def max_type_mask(self) -> np.ndarray:
        current = evaluate_with_fractions(self._computer, self._graph)
        return type_mask(self._computer.typing,
                         {key for key, entry in current.per_type.items()
                          if entry.fraction == current.max_fraction})

    def type_counts(self) -> Tuple[np.ndarray, np.ndarray]:
        """Within-L and pair counts per type, from a fresh distance matrix."""
        _, totals = self._computer.type_order
        return (self._computer.within_counts(
            self._computer.distances(self._graph)), totals)

    def edge_endpoints(self, mask=None) -> Tuple[np.ndarray, np.ndarray]:
        """``graph.edges()`` as arrays, filtered by ``type_of`` membership."""
        edges = list(self._graph.edges())
        if mask is not None:
            wanted = self._masked_types(mask)
            edges = [edge for edge in edges
                     if self._computer.typing.type_of(*edge) in wanted]
        pairs = np.array(edges, dtype=np.int64).reshape(-1, 2)
        return pairs[:, 0], pairs[:, 1]

    def _masked_types(self, mask) -> set:
        return {key for key, flag in zip(type_keys(self._computer.typing), mask)
                if flag}

    def result_after(self, removals: Sequence[Edge] = (),
                     insertions: Sequence[Edge] = ()) -> OpacityResult:
        """Algorithm 1's result after the edit: apply, recount, revert.

        Members apply in order, removals then insertions; a member that
        fails leaves the graph as it was, since exactly the members applied
        before it are undone, last first.
        """
        applied = []
        try:
            for u, v in removals:
                self._graph.remove_edge(u, v)
                applied.append((self._graph.add_edge, u, v))
            for u, v in insertions:
                self._graph.add_edge(u, v)
                applied.append((self._graph.remove_edge, u, v))
            return evaluate_with_fractions(self._computer, self._graph)
        finally:
            for undo, u, v in reversed(applied):
                undo(u, v)

    def evaluate_edit(self, removals: Sequence[Edge] = (),
                      insertions: Sequence[Edge] = ()) -> CandidateOutcome:
        self.evaluations += 1
        outcome = self.result_after(removals, insertions)
        return CandidateOutcome(edges=tuple(removals) + tuple(insertions),
                                numerator=outcome.max_fraction.numerator,
                                denominator=outcome.max_fraction.denominator,
                                types_at_max=outcome.types_at_max)

    def evaluate_edits(self, candidates) -> ScoredBatch:
        results = [self.evaluate_edit(removals, insertions)
                   for removals, insertions in candidates]
        return ScoredBatch(
            [outcome.edges for outcome in results],
            *(np.array([getattr(outcome, name) for outcome in results],
                       dtype=np.int64)
              for name in ("numerator", "denominator", "types_at_max")))

    def score_combinations(self, endpoints, members, gained):
        return score_by_evaluation(self, endpoints, members, gained)

    def apply_edit(self, removals: Sequence[Edge] = (),
                   insertions: Sequence[Edge] = ()) -> None:
        for u, v in removals:
            self._graph.remove_edge(u, v)
        for u, v in insertions:
            self._graph.add_edge(u, v)

    def distance_rows(self, block) -> np.ndarray:
        """Rows of a freshly computed dense L-bounded matrix."""
        return self._computer.distances(self._graph)[np.asarray(block)]

    def short_path_edges(self, rows, cols) -> Tuple[np.ndarray, np.ndarray]:
        """Edges on a path of length <= 2 between a pair, from a fresh matrix.

        An edge ``(u, v)`` lies on such a path of ``(i, j)`` when
        ``D[i, u] + 1 + D[v, j] <= 2`` or the mirror image holds — the
        distance test the product's adjacency-only query replaces.
        """
        distances = self._computer.distances(self._graph).astype(np.int64)
        edge_u, edge_v = self.edge_endpoints()
        di, dj = distances[np.asarray(rows)], distances[np.asarray(cols)]
        on_path = ((di[:, edge_u] + dj[:, edge_v] + 1 <= 2)
                   | (di[:, edge_v] + dj[:, edge_u] + 1 <= 2)).any(axis=0)
        return edge_u[on_path], edge_v[on_path]

    def violating_pair_indices(self, mask) -> Tuple[np.ndarray, np.ndarray]:
        """Within-L pairs of a type flagged in ``mask``, from a fresh matrix.

        A plain scan of ``np.triu_indices`` order with ``type_of`` per pair
        — independent of the product's sparse within-L set.
        """
        n = self._graph.num_vertices
        distances = self._computer.distances(self._graph)
        rows, cols = np.triu_indices(n, 1)
        within = distances[rows, cols] <= self._computer.length_threshold
        rows, cols = rows[within].astype(np.int64), cols[within].astype(np.int64)
        typing = self._computer.typing
        max_types = self._masked_types(mask)
        member = np.fromiter(
            (typing.type_of(i, j) in max_types
             for i, j in zip(rows.tolist(), cols.tolist())),
            dtype=bool, count=rows.size)
        return rows[member], cols[member]

    def close(self) -> None:
        pass


class PerCandidateSession(OpacitySession):
    """An incremental session that scores every candidate alone.

    :meth:`score_combinations` calls the product's once per row, so every
    scan — look-ahead levels, GADES swaps, GADED removals and
    :meth:`evaluate_edits` lists alike — is scored one candidate at a
    time.  ``evaluations`` counts the evaluations served, :meth:`current`
    included, like :class:`ScratchSession`.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.evaluations = 0

    def current(self) -> OpacityResult:
        self.evaluations += 1
        return super().current()

    def score_combinations(self, endpoints, members, gained):
        self.evaluations += len(members)
        gained = np.broadcast_to(gained, members.shape)
        rows = [super(PerCandidateSession, self).score_combinations(
                    endpoints, members[row:row + 1], gained[row:row + 1])
                for row in range(len(members))]
        return tuple(np.array([row[part][0] for row in rows], dtype=np.int64)
                     for part in range(3))


def one_at_a_time(anonymizer, session, result, kind: str):
    """``_combo_evaluator`` that scores and counts one combination at a time.

    Each combination is counted, then offered as a one-outcome
    :class:`~repro.core.opacity_session.ScoredBatch`: the per-candidate
    cadence the product's chunked evaluator must reproduce.
    """
    def evaluate_batch(level):
        gained = np.full(level.members.shape[1], kind == "insert")
        for index in range(len(level)):
            one = level[index:index + 1]
            scored = ScoredBatch(one, *session.score_combinations(
                one.endpoints, one.members, gained))
            result.evaluations += 1
            result.observer.on_evaluation(result.evaluations)
            if result.observer.should_stop():
                raise AnonymizationStopped()
            yield scored
    return evaluate_batch


@contextmanager
def oracle_sessions(session_class) -> Iterator[List]:
    """Open every anonymizer session inside the block as ``session_class``.

    Look-ahead levels are scored by :func:`one_at_a_time`.  Yields the
    list of sessions opened so far, so a test can assert the oracle really
    ran.
    """
    opened: List = []

    def open_session(config, computer, graph, initial_distances=None):
        session = session_class(computer, graph,
                                initial_distances=initial_distances,
                                store_config=config.store_config())
        opened.append(session)
        return session

    with mock.patch.object(AnonymizerConfig, "open_session", open_session), \
            mock.patch.object(BaseAnonymizer, "_combo_evaluator",
                              one_at_a_time):
        yield opened


def run_on(session_class, anonymizer, graph, **kwargs):
    """``anonymizer.anonymize(graph, **kwargs)`` on ``session_class`` sessions.

    Returns ``(result, evaluations served by the oracle sessions)``.
    """
    with oracle_sessions(session_class) as opened:
        result = anonymizer.anonymize(graph, **kwargs)
    return result, sum(session.evaluations for session in opened)


def at_theta(anonymizer, theta: float):
    """A copy of ``anonymizer`` whose single-run threshold is ``theta``.

    Every algorithm is a :class:`~repro.core.anonymizer.BaseAnonymizer`
    and rebuilds from its config.
    """
    return type(anonymizer)(config=replace(anonymizer.config, theta=theta))


def independent_schedule(anonymizer, graph: Graph, thetas: Sequence[float],
                         **kwargs) -> List[AnonymizationResult]:
    """One single-θ ``anonymize`` run per grid point, in schedule order.

    The reference for ``anonymizer.anonymize_schedule(graph, thetas)``:
    ``thetas`` is deduplicated and sorted descending like the product's
    schedule, and every run starts cold from ``graph``.  ``kwargs`` go to
    each ``anonymize`` call; an ``initial_distances`` array is copied per
    run (every run consumes its seed), and store payloads are dropped so
    each run recomputes its own.
    """
    seed = kwargs.pop("initial_distances", None)
    results = []
    for theta in validate_theta_schedule(thetas):
        if isinstance(seed, np.ndarray):
            kwargs["initial_distances"] = seed.copy()
        results.append(at_theta(anonymizer, theta).anonymize(graph, **kwargs))
    return results


def independent_responses(requests, **kwargs) -> List:
    """One error-isolated single run per request, in request order.

    The reference for the grid engine's grouped, checkpointed execution:
    ``kwargs`` (``registry``, ``observer``, ``data_dir``) go to every
    :func:`~repro.api.batch.execute_request` call.
    """
    from repro.api.batch import execute_request

    return [execute_request(request, **kwargs) for request in requests]


def independent_runs(requests, data_dir=None) -> List:
    """One facade ``anonymize`` per request: a fail-fast grid's reference."""
    from repro.api.facade import anonymize

    return [anonymize(request, data_dir=data_dir) for request in requests]


@contextmanager
def independent_grids() -> Iterator[None]:
    """Serve every figure builder's grid with :func:`independent_runs`."""
    from repro.api.sweeps import GridResponse
    from repro.experiments import figures

    def run_grid(grid, max_workers=0, data_dir=None):
        return GridResponse(responses=independent_runs(grid.requests,
                                                       data_dir=data_dir))

    with mock.patch.object(figures, "run_grid", run_grid):
        yield


def set_edge_edit_distance(original: Graph, modified: Graph) -> int:
    """``|E Δ Ê|`` over the two graphs' Python edge sets."""
    return len(set(original.edges()) ^ set(modified.edges()))


def response_dict_by_asdict(response) -> Dict:
    """An ``AnonymizationResponse`` as plain data, by ``dataclasses.asdict``."""
    payload = asdict(response)
    payload["request"] = asdict(response.request)
    if payload["request"]["edges"] is not None:
        payload["request"]["edges"] = [[u, v] for u, v in
                                       payload["request"]["edges"]]
    for name in ("removed_edges", "inserted_edges", "anonymized_edges"):
        payload[name] = [[u, v] for u, v in payload[name]]
    if payload["metrics"] is not None:
        payload["metrics"] = dict(payload["metrics"])
    return payload


def gnm_random_graph(num_vertices: int, num_edges: int, seed: SeedLike = None) -> Graph:
    """G(n, m) random graph: exactly ``num_edges`` distinct edges chosen uniformly."""
    max_edges = num_vertices * (num_vertices - 1) // 2
    if num_edges > max_edges:
        raise ConfigurationError(
            f"cannot place {num_edges} edges in a simple graph with {num_vertices} vertices")
    randrange = _rng(seed).randrange
    adjacency = _empty_sets(num_vertices)
    placed = 0
    while placed < num_edges:
        u = randrange(num_vertices)
        v = randrange(num_vertices)
        if u != v and v not in adjacency[u]:
            adjacency[u].add(v)
            adjacency[v].add(u)
            placed += 1
    return Graph._from_adjacency(adjacency, placed)


def powerlaw_cluster_graph(num_vertices: int, attachment: int,
                           triangle_probability: float, seed: SeedLike = None) -> Graph:
    """Holme–Kim style graph: preferential attachment plus triangle closure.

    Produces scale-free degree distributions *and* tunable clustering, which
    is the regime of the web-graph samples (Google, Berkeley-Stanford) in the
    paper's Table 3.
    """
    if attachment < 1 or attachment >= num_vertices:
        raise ConfigurationError(
            f"attachment must be in [1, num_vertices), got {attachment} for n={num_vertices}")
    if not 0.0 <= triangle_probability <= 1.0:
        raise ConfigurationError("triangle_probability must be in [0, 1]")
    rng = _rng(seed)
    draw, choice = rng.random, rng.choice
    adjacency = _empty_sets(num_vertices)
    repeated: list[int] = list(range(attachment))
    for new_vertex in range(attachment, num_vertices):
        neighbors = adjacency[new_vertex]
        first_target = choice(repeated)
        while first_target == new_vertex:
            first_target = choice(repeated)
        if first_target not in neighbors:
            neighbors.add(first_target)
            adjacency[first_target].add(new_vertex)
        repeated.append(first_target)
        repeated.append(new_vertex)
        added = 1
        last_target = first_target
        attempts = 0
        while added < attachment and attempts < 10 * attachment:
            attempts += 1
            if draw() < triangle_probability and adjacency[last_target]:
                # Close a triangle: attach to a neighbor of the previous target.
                candidate = choice(sorted(adjacency[last_target]))
            else:
                candidate = choice(repeated)
            if candidate == new_vertex or candidate in neighbors:
                continue
            neighbors.add(candidate)
            adjacency[candidate].add(new_vertex)
            repeated.append(candidate)
            repeated.append(new_vertex)
            last_target = candidate
            added += 1
    return Graph._from_adjacency(adjacency)


def adjust_edge_count(graph: Graph, target_edges: int, rng: random.Random) -> Graph:
    """Randomly add or remove edges until ``graph`` has exactly ``target_edges``.

    The draws are made first, in local loops, and applied as one
    :meth:`Graph.edit`.
    """
    n = graph.num_vertices
    target_edges = min(target_edges, n * (n - 1) // 2)
    randrange = rng.randrange
    removals = []
    if graph.num_edges > target_edges:
        # One sorted list, kept in step by popping each drawn edge: the
        # same draws over the same edges as re-listing after every trim.
        # It holds the edges' ``u·n + v`` codes, in edge order: plain ints
        # are no work for the garbage collector, m tuples would be.
        codes = graph.edge_codes().tolist()
        while len(codes) > target_edges:
            removals.append(divmod(codes.pop(randrange(len(codes))), n))
    insertions = {}  # insertion-ordered, so edited in draw order
    missing = target_edges - graph.num_edges
    while len(insertions) < missing:
        u = randrange(n)
        v = randrange(n)
        if u != v:
            edge = (u, v) if u < v else (v, u)
            if edge not in insertions and v not in graph.adjacency(u):
                insertions[edge] = None
    if removals or insertions:
        graph.edit(removals, insertions)
    return graph
