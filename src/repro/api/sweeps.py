"""Multi-axis experiment grid engine at the service layer.

The paper's figures vary more than θ: dataset, sample size, seed, path
bound L, look-ahead, and algorithm all appear as experiment axes.  The
θ-sweep engine (:mod:`repro.api.theta_sweep`) makes the θ axis nearly free
— one checkpointed anonymization per group — but every other axis still
paid full price per group: the sample was reloaded, the utility baseline
recomputed, and every distinct L ran its own full bounded-distance
computation.

This module generalizes the sweep into a **grid**:

* :func:`expand_grid` / :meth:`GridRequest.from_axes` — cartesian-product
  expansion of a base request over any subset of
  dataset × size × algorithm × L × look-ahead × seed × θ axes;
* :func:`sample_groups` — partition a grid by *graph source* (dataset,
  size, seed — or explicit edges), the unit across which loaded samples,
  baselines, and distance matrices are shared;
* :func:`plan_grid` / :func:`plan_sample_group` — split each sample group
  into θ-group plans (done / todo / resume checkpoint) and the L_max of
  its single distance computation;
* :func:`prepare_sample` / :func:`run_prepared` — the two halves of a
  sample group: load the sample, derive its dense L_max base for the
  θ-groups at L >= 2 (every smaller L is a thresholded copy; an L = 1
  session reads no distances, a tiled one computes its own tiles) and
  the baseline once, then run each
  θ-sweep group through the checkpointed schedule
  (:func:`execute_sample_group` is both, in-process); every failure goes
  through :func:`settle_failure`;
* :func:`run_grid` — a whole :class:`GridRequest` through the one grid
  executor, :meth:`~repro.api.batch.BatchRunner.iter_grid`.

Per-configuration responses are bit-identical to independent
:func:`~repro.api.facade.anonymize` runs (asserted by
``tests/api/test_grid.py``); only the work performed differs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from itertools import product
from typing import (Any, Collection, Dict, Iterable, List, Mapping,
                    NamedTuple, Optional, Sequence, Tuple)

from repro.api.cache import ExecutionCache, GridStats, sample_key
from repro.api.progress import ProgressObserver, notify_group
from repro.api.registry import AnonymizerRegistry
from repro.api.requests import AnonymizationRequest, AnonymizationResponse
from repro.api import theta_sweep
from repro.api.theta_sweep import group_requests
from repro.errors import ConfigurationError, GridAbortedError

__all__ = [
    "ERROR_POLICIES",
    "GRID_AXES",
    "GridRequest",
    "GridResponse",
    "PreparedSample",
    "SamplePlan",
    "ThetaGroupPlan",
    "expand_grid",
    "execute_sample_group",
    "plan_grid",
    "plan_sample_group",
    "prepare_sample",
    "run_grid",
    "run_prepared",
    "sample_groups",
    "settle_failure",
    "validate_error_policy",
]

#: Grid-level failure policies: ``"isolate"`` (the historical behaviour —
#: a failing request becomes an error response, its neighbours keep
#: running) or ``"fail_fast"`` (the first failure aborts the whole grid
#: with :class:`~repro.errors.GridAbortedError`).
ERROR_POLICIES: Tuple[str, ...] = ("fail_fast", "isolate")


def validate_error_policy(on_error: str) -> None:
    """Raise :class:`ConfigurationError` unless ``on_error`` is known."""
    if on_error not in ERROR_POLICIES:
        raise ConfigurationError(
            f"unknown error policy {on_error!r}; choose from {ERROR_POLICIES}")

#: Grid axes in canonical nesting order (outermost first, θ varies
#: fastest, matching how the paper's figures sweep θ for an otherwise
#: fixed configuration).
GRID_AXES: Tuple[str, ...] = ("dataset", "sample_size", "algorithm",
                              "length_threshold", "lookahead", "seed", "theta")


def expand_grid(base: AnonymizationRequest,
                axes: Mapping[str, Sequence[Any]]) -> List[AnonymizationRequest]:
    """Cartesian-product expansion of ``base`` over named grid axes.

    ``axes`` maps axis names (a subset of :data:`GRID_AXES`) to non-empty
    value sequences; axes left out keep the base request's value.  Nesting
    follows the canonical axis order regardless of mapping order, with θ
    varying fastest.  A ``dataset`` or ``sample_size`` axis requires a
    dataset-sourced base request (explicit edge lists have no dataset to
    vary).
    """
    unknown = sorted(set(axes) - set(GRID_AXES))
    if unknown:
        raise ConfigurationError(
            f"unknown grid axis(es) {unknown}; known: {list(GRID_AXES)}")
    for name, values in axes.items():
        if not tuple(values):
            raise ConfigurationError(f"grid axis {name!r} must not be empty")
    if base.edges is not None and ({"dataset", "sample_size"} & set(axes)):
        raise ConfigurationError(
            "dataset/sample_size axes require a dataset-sourced base request")
    ordered = {name: tuple(axes[name]) if name in axes
               else (getattr(base, name),) for name in GRID_AXES}
    names = tuple(ordered)
    return [base.with_overrides(**dict(zip(names, values)))
            for values in product(*ordered.values())]


def sample_groups(requests: Sequence[AnonymizationRequest]) -> List[List[int]]:
    """Partition request indices into groups sharing a graph source.

    Requests agreeing on dataset/size/seed (or on an explicit edge list)
    resolve to bit-identical input graphs, so one loaded sample — and one
    L_max distance computation — can serve all of them.  Group
    order follows first appearance; indices keep their input order.
    """
    groups: Dict[Any, List[int]] = {}
    for index, request in enumerate(requests):
        groups.setdefault(sample_key(request), []).append(index)
    return list(groups.values())


@dataclass(frozen=True)
class GridRequest:
    """A multi-axis grid of anonymization jobs sharing samples and distances.

    ``requests`` is an arbitrary configuration grid (usually built with
    :meth:`from_axes`); :func:`run_grid` partitions it into sample groups,
    and each sample group into θ-sweep groups, so the θ axis costs one
    checkpointed pass per group and the remaining axes share one loaded
    sample and one L_max distance computation.  Every field survives a
    JSON round-trip, mirroring the single-run records.
    """

    requests: Tuple[AnonymizationRequest, ...]
    on_error: str = "isolate"

    def __post_init__(self) -> None:
        object.__setattr__(self, "requests", tuple(self.requests))
        if not self.requests:
            raise ConfigurationError("a grid requires at least one request")
        validate_error_policy(self.on_error)

    @classmethod
    def from_axes(cls, base: AnonymizationRequest, *,
                  datasets: Optional[Sequence[str]] = None,
                  sample_sizes: Optional[Sequence[int]] = None,
                  algorithms: Optional[Sequence[str]] = None,
                  length_thresholds: Optional[Sequence[int]] = None,
                  lookaheads: Optional[Sequence[int]] = None,
                  seeds: Optional[Sequence[int]] = None,
                  thetas: Optional[Sequence[float]] = None,
                  on_error: str = "isolate") -> "GridRequest":
        """Expand ``base`` over the given axes (see :func:`expand_grid`)."""
        axes: Dict[str, Sequence[Any]] = {}
        for name, values in (("dataset", datasets),
                             ("sample_size", sample_sizes),
                             ("algorithm", algorithms),
                             ("length_threshold", length_thresholds),
                             ("lookahead", lookaheads),
                             ("seed", seeds),
                             ("theta", thetas)):
            if values is not None:
                axes[name] = values
        return cls(requests=tuple(expand_grid(base, axes)), on_error=on_error)

    def sample_groups(self) -> List[List[int]]:
        """Indices of :attr:`requests` grouped by shared graph source."""
        return sample_groups(self.requests)

    def groups(self) -> List[List[int]]:
        """Indices of :attr:`requests` partitioned into θ-sweep groups."""
        return group_requests(self.requests)

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Plain-data (JSON-safe) form."""
        return {
            "requests": [request.to_dict() for request in self.requests],
            "on_error": self.on_error,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "GridRequest":
        """Inverse of :meth:`to_dict`; unknown keys raise (typo protection)."""
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ConfigurationError(
                f"unknown grid field(s) {unknown}; known: {sorted(known)}")
        data = dict(payload)
        data["requests"] = tuple(AnonymizationRequest.from_dict(entry)
                                 for entry in data.get("requests", ()))
        return cls(**data)

    def to_json(self, **dumps_kwargs: Any) -> str:
        """JSON form of :meth:`to_dict`."""
        return json.dumps(self.to_dict(), **dumps_kwargs)

    @classmethod
    def from_json(cls, text: str) -> "GridRequest":
        """Inverse of :meth:`to_json`."""
        return cls.from_dict(json.loads(text))


@dataclass(frozen=True)
class GridResponse:
    """Outcome of a :class:`GridRequest`, responses in request order.

    ``num_sample_loads`` / ``num_distance_computes`` report the total work
    the grid performed across *every* participating process (parent and
    pool workers) — the observable the sample cache and the shared-memory
    data plane are judged by.  Every execution route reports them; they
    are ``None`` only on responses assembled without running the grid.
    """

    responses: Tuple[AnonymizationResponse, ...]
    num_groups: int = 0
    num_sample_groups: int = 0
    num_sample_loads: Optional[int] = None
    num_distance_computes: Optional[int] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "responses", tuple(self.responses))

    @property
    def ok(self) -> bool:
        """Whether every response completed without raising."""
        return all(response.ok for response in self.responses)

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Plain-data (JSON-safe) form."""
        return {
            "responses": [response.to_dict() for response in self.responses],
            "num_groups": self.num_groups,
            "num_sample_groups": self.num_sample_groups,
            "num_sample_loads": self.num_sample_loads,
            "num_distance_computes": self.num_distance_computes,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "GridResponse":
        """Inverse of :meth:`to_dict`."""
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ConfigurationError(
                f"unknown grid response field(s) {unknown}; known: {sorted(known)}")
        data = dict(payload)
        data["responses"] = tuple(AnonymizationResponse.from_dict(entry)
                                  for entry in data.get("responses", ()))
        return cls(**data)

    def to_json(self, **dumps_kwargs: Any) -> str:
        """JSON form of :meth:`to_dict`."""
        return json.dumps(self.to_dict(), **dumps_kwargs)

    @classmethod
    def from_json(cls, text: str) -> "GridResponse":
        """Inverse of :meth:`to_json`."""
        return cls.from_dict(json.loads(text))


@dataclass(frozen=True)
class ThetaGroupPlan:
    """One θ-sweep group's execution plan within a sample group.

    ``indices`` index into the *sample group's* request list.  ``done``
    maps indices already served by a persisted checkpoint to that
    checkpoint (materialized, no anonymization work); ``todo`` lists the
    indices still to run; ``resume_checkpoint``, when set, is the
    checkpoint the todo suffix continues the interrupted pass from.
    """

    indices: Tuple[int, ...]
    done: Mapping[int, Any]
    todo: Tuple[int, ...]
    resume_checkpoint: Optional[Any] = None


def plan_sample_group(requests: Sequence[AnonymizationRequest],
                      resume_from: Optional[Mapping[int, Any]] = None
                      ) -> Tuple[List[ThetaGroupPlan], int]:
    """Split a sample group into θ-group plans and the shared L_max bound.

    Every execution route plans through here (:func:`plan_grid` maps the
    result to global request indices), so all of them agree on which grid
    points resume from checkpoints and on the L_max the single distance
    computation runs at.

    Returns ``(plans, l_max)``: one :class:`ThetaGroupPlan` per θ-sweep
    group of ``requests`` (group order), and the largest
    ``length_threshold`` over the grid points that will actually consume
    a matrix — resumed/materialized grid points never read the original
    graph's matrix and L = 1 sessions read none, so neither may inflate
    the single computation.  It is 0 when no grid point needs one.
    """
    requests = list(requests)
    resume = dict(resume_from) if resume_from else {}
    plans: List[ThetaGroupPlan] = []
    for indices in group_requests(requests):
        done: Dict[int, Any] = {}
        for index in indices:
            checkpoint = resume.get(index)
            if checkpoint is not None and \
                    abs(checkpoint.theta - requests[index].theta) <= 1e-12:
                done[index] = checkpoint
        todo = [index for index in indices if index not in done]
        resume_checkpoint = None
        if done and todo:
            candidate = min(done.values(), key=lambda ckpt: ckpt.theta)
            # A pass can only be continued from a checkpoint that (a) was
            # still running cleanly (no stop reason), (b) recorded its RNG,
            # and (c) sits strictly above every remaining grid point.
            if (candidate.rng_state is not None
                    and candidate.stop_reason is None
                    and all(requests[index].theta < candidate.theta
                            for index in todo)):
                resume_checkpoint = candidate
        plans.append(ThetaGroupPlan(indices=tuple(indices), done=done,
                                    todo=tuple(todo),
                                    resume_checkpoint=resume_checkpoint))
    l_max = max((requests[index].length_threshold for plan in plans
                 if plan.resume_checkpoint is None for index in plan.todo
                 if requests[index].length_threshold > 1),
                default=0)
    return plans, l_max


class SamplePlan(NamedTuple):
    """One sample group planned in global request indices: the ``members``
    it executes, its θ-group ``plans`` and its ``l_max`` bound."""

    members: Tuple[int, ...]
    plans: Tuple[ThetaGroupPlan, ...]
    l_max: int


def plan_grid(requests: Sequence[AnonymizationRequest], *,
              skip: Collection[int] = (),
              resume_from: Optional[Mapping[int, Any]] = None
              ) -> List[SamplePlan]:
    """:func:`plan_sample_group` over every sample group, in grid indices.

    Indices in ``skip`` are left out (a sample group with nothing left is
    dropped); ``resume_from`` maps grid indices to stored checkpoints.
    """
    resume = resume_from or {}
    planned: List[SamplePlan] = []
    for indices in sample_groups(requests):
        members = [index for index in indices if index not in skip]
        if not members:
            continue
        plans, l_max = plan_sample_group(
            [requests[index] for index in members],
            {local: resume[index] for local, index in enumerate(members)
             if index in resume})
        planned.append(SamplePlan(
            members=tuple(members),
            plans=tuple(ThetaGroupPlan(
                indices=tuple(members[local] for local in plan.indices),
                done={members[local]: checkpoint
                      for local, checkpoint in plan.done.items()},
                todo=tuple(members[local] for local in plan.todo),
                resume_checkpoint=plan.resume_checkpoint) for plan in plans),
            l_max=l_max))
    return planned


def settle_failure(on_error: str, stage: str, exc: Exception,
                   requests: Any, indices: Iterable[int],
                   settled: Dict[int, AnonymizationResponse]) -> None:
    """Apply ``on_error`` to a failure blocking the grid points ``indices``.

    ``fail_fast`` raises :class:`~repro.errors.GridAbortedError`;
    ``isolate`` settles each index not settled yet with an error response.
    """
    if on_error == "fail_fast":
        raise GridAbortedError(
            f"grid aborted (on_error='fail_fast'): {stage} failed with "
            f"{type(exc).__name__}: {exc}") from exc
    for index in indices:
        if index not in settled:
            settled[index] = AnonymizationResponse.failure(requests[index], exc)


def _abort_on_error(responses: Iterable[AnonymizationResponse]) -> None:
    """Raise :class:`GridAbortedError` for the first failed response."""
    for response in responses:
        if response.error is not None:
            request = response.request
            label = request.request_id or (
                f"{request.algorithm} L={request.length_threshold} "
                f"theta={request.theta}")
            raise GridAbortedError(
                f"grid aborted (on_error='fail_fast'): request [{label}] "
                f"failed with {response.error}")


@dataclass
class PreparedSample:
    """What a sample group's θ-groups share, derived once per process.

    ``base`` is the dense L_max matrix the shm parent publishes (``None``
    when no grid point reads a dense base — an L = 1 or all-tiled grid —
    or its computation failed); ``responses`` holds the grid points
    already settled (materialized checkpoints, error responses of points
    whose artifact failed).
    """

    l_max: int
    graph: Any = None
    base: Any = None
    baseline: Any = None
    responses: Dict[int, AnonymizationResponse] = field(default_factory=dict)


def prepare_sample(requests: Any, plans: Sequence[ThetaGroupPlan],
                   l_max: int, cache: ExecutionCache, *,
                   on_error: str = "isolate",
                   data_dir: Optional[str] = None) -> PreparedSample:
    """The prepare half of a sample group: load, L_max base, baseline.

    ``requests`` is indexable by every index of ``plans``.  Loads the
    sample once through ``cache``, derives its dense L_max base for the
    first runnable request at L >= 2 that resolves to the dense tier (a
    tiled request's session computes its own tiles, so an all-tiled
    sample has no base), the utility baseline when any grid point needs
    one, and materializes the grid points served by stored checkpoints.
    Each failure goes through :func:`settle_failure`, except the base's:
    that is left to the run half, where each θ-group's own distances
    settle it.
    """
    from repro.api.checkpoints import materialize_response

    prepared = PreparedSample(l_max=l_max)
    settled = prepared.responses
    indices = [index for plan in plans for index in plan.indices]
    first = requests[indices[0]]
    try:
        prepared.graph = cache.graph_for(first)
    except Exception as exc:  # noqa: BLE001 — isolation is the contract
        settle_failure(on_error, "sample load", exc, requests, indices, settled)
        return prepared
    utility = [index for plan in plans for index in plan.indices
               if any(requests[member].include_utility
                      for member in plan.indices)]
    if utility:
        try:
            prepared.baseline = cache.baseline_for(first)
        except Exception as exc:  # noqa: BLE001
            settle_failure(on_error, "baseline", exc, requests, utility,
                           settled)
    runs = [plan.todo[0] for plan in plans
            if plan.resume_checkpoint is None and plan.todo
            and requests[plan.todo[0]].length_threshold > 1]
    for index in runs:
        try:
            prepared.base = cache.base_for(requests[index], l_max)
        except Exception:  # noqa: BLE001 — e.g. DistanceMemoryError
            # Not settled here: the run half asks for each θ-group's own
            # distances, so a failure such as an explicit dense request
            # over budget fails only that request's grid points.
            continue
        if prepared.base is not None:
            break
    for plan in plans:
        for index, checkpoint in plan.done.items():
            if index in settled:
                continue
            try:
                settled[index] = materialize_response(
                    requests[index], checkpoint, original_graph=prepared.graph,
                    baseline=prepared.baseline, data_dir=data_dir)
            except Exception as exc:  # noqa: BLE001
                settle_failure(on_error, "stored checkpoint", exc, requests,
                               (index,), settled)
    return prepared


def run_prepared(requests: Any, plans: Sequence[ThetaGroupPlan],
                 prepared: PreparedSample, cache: ExecutionCache, *,
                 registry: Optional[AnonymizerRegistry] = None,
                 observer: Optional[ProgressObserver] = None,
                 data_dir: Optional[str] = None,
                 on_error: str = "isolate") -> Dict[int, AnonymizationResponse]:
    """The run half: every unsettled θ-group through ``execute_sweep_group``.

    Each dense θ-group at L >= 2 thresholds its initial matrix from the
    sample's L_max base (a tiled one computes its own tiles); the observer
    hears the indices about to run (``on_group``) before each pass.
    Returns the settled responses plus the new ones, keyed by request
    index.
    """
    responses = dict(prepared.responses)
    for plan in plans:
        todo = [index for index in plan.todo if index not in responses]
        if not todo:
            continue
        group = [requests[index] for index in todo]
        initial_distances = None
        if plan.resume_checkpoint is None and group[0].length_threshold > 1:
            try:
                initial_distances = cache.distances_for(group[0],
                                                        prepared.l_max)
            except Exception as exc:  # noqa: BLE001 — e.g. DistanceMemoryError
                settle_failure(on_error, "distance matrix", exc, requests,
                               todo, responses)
                continue
        notify_group(observer, tuple(todo))
        outcome = theta_sweep.execute_sweep_group(
            group, registry=registry, observer=observer, data_dir=data_dir,
            graph=prepared.graph, initial_distances=initial_distances,
            baseline=prepared.baseline, resume_from=plan.resume_checkpoint)
        if on_error == "fail_fast":
            _abort_on_error(outcome)
        responses.update(zip(todo, outcome))
    return responses


def execute_sample_group(requests: Sequence[AnonymizationRequest], *,
                         registry: Optional[AnonymizerRegistry] = None,
                         observer: Optional[ProgressObserver] = None,
                         data_dir: Optional[str] = None,
                         cache: Optional[ExecutionCache] = None,
                         resume_from: Optional[Mapping[int, Any]] = None,
                         on_error: str = "isolate"
                         ) -> List[AnonymizationResponse]:
    """Execute one sample group of a grid in-process, in request order.

    All requests must share a graph source (one :func:`sample_groups`
    partition).  :func:`prepare_sample` loads the sample once through
    ``cache`` (a throwaway one by default), derives the baseline and one
    L_max distance computation (none when every point is at L = 1 or on
    the tiled tier); :func:`run_prepared` runs each θ-sweep group, at
    L >= 2 on the dense tier on a thresholded copy.  A failing θ-group
    (or sample load) yields error responses without aborting its
    neighbours, unless
    ``on_error="fail_fast"`` turns the first failure into a
    :class:`~repro.errors.GridAbortedError`.

    ``resume_from`` maps request indices to ``AnonymizationCheckpoint``
    records of an earlier, interrupted run of the same group.  Those grid
    points are *materialized* (no anonymization work); each θ-group's
    remaining points continue the interrupted pass from its lowest-θ
    checkpoint when the algorithm and checkpoint allow it, or re-run
    cold — both bit-identical to the uninterrupted run.  The observer's
    optional ``on_group`` hook hears the indices of each θ-group before
    it runs, so checkpoint-persisting observers can attribute the stream.
    """
    validate_error_policy(on_error)
    requests = list(requests)
    if not requests:
        return []
    if cache is None:
        cache = ExecutionCache(data_dir=data_dir)
    plans, l_max = plan_sample_group(requests, resume_from)
    prepared = prepare_sample(requests, plans, l_max, cache,
                              on_error=on_error, data_dir=data_dir)
    responses = run_prepared(requests, plans, prepared, cache,
                             registry=registry, observer=observer,
                             data_dir=data_dir, on_error=on_error)
    return [responses[index] for index in range(len(requests))]


def run_grid(grid: GridRequest, *,
             max_workers: Optional[int] = 0,
             registry: Optional[AnonymizerRegistry] = None,
             data_dir: Optional[str] = None,
             shared_memory: Optional[bool] = None) -> GridResponse:
    """Group and execute a :class:`GridRequest`, responses in request order.

    ``max_workers=0`` (the default) runs in-process, as does any grid
    with a custom ``registry`` (only this process knows it); otherwise the
    θ-groups fan across a :class:`~repro.api.batch.BatchRunner` pool
    (``None`` = one worker per CPU).  On the default shared-memory plane
    the parent loads each sample and runs each L_max computation once and
    workers attach zero-copy views; ``shared_memory=False`` lets workers
    prepare their own samples.  Responses are bit-identical on every
    route, and the counters total the work of every process.
    """
    from repro.api.batch import BatchRunner

    stats = GridStats()
    runner = BatchRunner(max_workers=max_workers, data_dir=data_dir,
                         shared_memory=shared_memory)
    responses = runner.run_grid(grid, registry=registry, stats=stats)
    return GridResponse(responses=tuple(responses),
                        num_groups=len(grid.groups()),
                        num_sample_groups=len(grid.sample_groups()),
                        num_sample_loads=stats.sample_loads,
                        num_distance_computes=stats.distance_computes)
