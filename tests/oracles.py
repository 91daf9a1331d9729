"""Reference evaluation sessions for the differential suites.

The product scores every candidate through one
:class:`~repro.core.opacity_session.OpacitySession` path.  The references
it is proven against live here:

* :class:`ScratchSession` — the paper's copy-evaluate-restore loop: every
  query applies the edit to the working graph, runs the stateless
  Algorithm 1 evaluator, and reverts.
* :class:`PerCandidateSession` — an incremental session whose batch scans
  loop the single-candidate :meth:`~OpacitySession.evaluate_edit` path
  instead of the stacked passes.
* :func:`independent_schedule` — one full single-θ
  :meth:`~repro.core.anonymizer.BaseAnonymizer.anonymize` run per grid
  point, the reference every checkpointed θ pass
  (``anonymize_schedule``) is proven against;
  :func:`independent_responses` is the same reference one layer up: one
  error-isolated :func:`~repro.api.batch.execute_request` per request of
  a grid; :func:`independent_records` one
  :meth:`~repro.experiments.runner.ExperimentRunner.run` per θ of every
  plan, and :func:`independent_grids` routes the figure builders through
  it.

:func:`oracle_sessions` runs any anonymizer on either one by patching
:meth:`~repro.core.anonymizer.AnonymizerConfig.open_session`, the single
seam through which every greedy algorithm opens its session.  It uses
:func:`unittest.mock.patch.object`, so it is safe inside hypothesis
``@given`` tests (no function-scoped fixture involved).
"""

from __future__ import annotations

import copy
from contextlib import contextmanager
from dataclasses import replace
from typing import Iterator, List, Sequence, Tuple
from unittest import mock

import numpy as np

from repro.core.anonymizer import (
    AnonymizationResult,
    AnonymizerConfig,
    validate_theta_schedule,
)
from repro.core.opacity import OpacityComputer, OpacityResult
from repro.core.opacity_session import EditEvaluation, OpacitySession
from repro.graph.graph import Edge, Graph


class ScratchSession:
    """Copy-evaluate-restore behind the session interface the algorithms use.

    Tentative edits mutate and restore the shared working graph in the
    same order as the incremental session (removals, then insertions;
    undone in reverse), so adjacency-set iteration — and every seeded
    tie-break downstream — is the same in both.  ``initial_distances`` and
    ``store_config`` are accepted for interface parity and ignored: every
    query recomputes a dense matrix.  ``evaluations`` counts the stateless
    evaluations served, :meth:`current` included.
    """

    scan_workers = 0
    scan_parallelism = 1
    parallel_scans = 0
    fallback_row_fraction = None

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
        return self._computer.evaluate(self._graph)

    def evaluate_edit(self, removals: Sequence[Edge] = (),
                      insertions: Sequence[Edge] = ()) -> EditEvaluation:
        self.evaluations += 1
        for u, v in removals:
            self._graph.remove_edge(u, v)
        for u, v in insertions:
            self._graph.add_edge(u, v)
        try:
            outcome = self._computer.evaluate(self._graph)
        finally:
            for u, v in insertions:
                self._graph.remove_edge(u, v)
            for u, v in removals:
                self._graph.add_edge(u, v)
        total = float(sum(entry.opacity for entry in outcome.per_type.values()))
        return EditEvaluation(fraction=outcome.max_fraction,
                              types_at_max=outcome.types_at_max,
                              total_opacity=total)

    def evaluate_edits(self, candidates) -> List[EditEvaluation]:
        return [self.evaluate_edit(removals, insertions)
                for removals, insertions in candidates]

    def apply_edit(self, removals: Sequence[Edge] = (),
                   insertions: Sequence[Edge] = ()) -> None:
        for u, v in removals:
            self._graph.remove_edge(u, v)
        for u, v in insertions:
            self._graph.add_edge(u, v)

    def distance_rows(self, block) -> np.ndarray:
        """Rows of a freshly computed dense L-bounded matrix."""
        return self._computer.distances(self._graph)[np.asarray(block)]

    def violating_pair_indices(self, max_types) -> Tuple[np.ndarray, np.ndarray]:
        """Within-L pairs of a type in ``max_types``, from a fresh matrix.

        A plain scan of ``np.triu_indices`` order with ``type_of`` per pair
        — independent of the product's sparse within-L set.
        """
        n = self._graph.num_vertices
        distances = self._computer.distances(self._graph)
        rows, cols = np.triu_indices(n, 1)
        within = distances[rows, cols] <= self._computer.length_threshold
        rows, cols = rows[within].astype(np.int64), cols[within].astype(np.int64)
        typing = self._computer.typing
        member = np.fromiter(
            (typing.type_of(i, j) in max_types
             for i, j in zip(rows.tolist(), cols.tolist())),
            dtype=bool, count=rows.size)
        return rows[member], cols[member]

    def close(self) -> None:
        pass


class PerCandidateSession(OpacitySession):
    """An incremental session whose batch scans loop :meth:`evaluate_edit`.

    ``evaluations`` counts the evaluations served, :meth:`current`
    included, like :class:`ScratchSession`.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.evaluations = 0

    def current(self) -> OpacityResult:
        self.evaluations += 1
        return super().current()

    def evaluate_edits(self, candidates) -> List[EditEvaluation]:
        self.evaluations += len(candidates)
        return [self.evaluate_edit(removals, insertions)
                for removals, insertions in candidates]


@contextmanager
def oracle_sessions(session_class) -> Iterator[List]:
    """Open every anonymizer session inside the block as ``session_class``.

    Yields the list of sessions opened so far, so a test can assert the
    oracle really ran.
    """
    opened: List = []

    def open_session(config, computer, graph, initial_distances=None):
        session = session_class(computer, graph,
                                initial_distances=initial_distances,
                                store_config=config.store_config())
        opened.append(session)
        return session

    with mock.patch.object(AnonymizerConfig, "open_session", open_session):
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

    :class:`~repro.core.anonymizer.BaseAnonymizer` subclasses rebuild from
    their config; the baselines keep θ in ``_theta`` next to immutable
    scalar knobs, so a shallow copy with θ replaced is the same run.
    """
    config = getattr(anonymizer, "config", None)
    if isinstance(config, AnonymizerConfig):
        return type(anonymizer)(config=replace(config, theta=theta))
    clone = copy.copy(anonymizer)
    clone._theta = theta
    return clone


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


def independent_records(runner, plans) -> List[List]:
    """One ``runner.run`` per θ of every plan: ``run_grid``'s reference."""
    return [[runner.run(config) for config in plan.configs()]
            for plan in plans]


@contextmanager
def independent_grids() -> Iterator[None]:
    """Serve every ``ExperimentRunner.run_grid`` with :func:`independent_records`."""
    from repro.experiments.runner import ExperimentRunner

    def run_grid(runner, plans, max_workers=0):
        return independent_records(runner, list(plans))

    with mock.patch.object(ExperimentRunner, "run_grid", run_grid):
        yield
