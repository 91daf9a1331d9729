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
* :func:`execute_sample_group` — run one sample group: load the sample
  once (through an :class:`~repro.api.cache.ExecutionCache`), run one full
  bounded-distance computation at the group's maximum L and serve every
  smaller L by thresholding
  (:class:`~repro.graph.distance_cache.LMaxDistanceCache`), then execute
  each θ-sweep group through the checkpointed schedule with failure
  isolated per θ-group;
* :func:`run_grid` — fan the sample groups of a whole :class:`GridRequest`
  across a :class:`~repro.api.batch.BatchRunner` process pool (each worker
  holds a process-level cache, so it loads each sample once across all the
  groups it executes) and return a :class:`GridResponse` in request order.

Per-configuration responses are bit-identical to independent
:func:`~repro.api.facade.anonymize` runs (asserted by
``tests/api/test_grid.py``); only the work performed differs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from itertools import product
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.api.cache import ExecutionCache, GridStats, sample_key
from repro.api.progress import ProgressObserver, notify_group
from repro.api.registry import AnonymizerRegistry
from repro.api.requests import AnonymizationRequest, AnonymizationResponse
from repro.api.theta_sweep import execute_sweep_group, group_requests
from repro.errors import ConfigurationError, GridAbortedError

__all__ = [
    "ERROR_POLICIES",
    "GRID_AXES",
    "GridRequest",
    "GridResponse",
    "ThetaGroupPlan",
    "expand_grid",
    "execute_sample_group",
    "plan_sample_group",
    "run_grid",
    "sample_groups",
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
    L_max distance computation per engine — can serve all of them.  Group
    order follows first appearance; indices keep their input order.
    """
    groups: Dict[Any, List[int]] = {}
    for index, request in enumerate(requests):
        groups.setdefault(sample_key(request), []).append(index)
    return list(groups.values())


@dataclass(frozen=True)
class GridRequest:
    """A multi-axis grid of anonymization jobs executed with shared caches.

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
    pool workers) — the observable the shared caches and the shared-memory
    data plane are judged by.  They are ``None`` when the execution path
    could not track them.
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
                      ) -> Tuple[List[ThetaGroupPlan], Dict[str, int]]:
    """Split a sample group into θ-group plans and shared L_max bounds.

    This is the planning half of :func:`execute_sample_group`, shared with
    the shared-memory fan-out in :class:`~repro.api.batch.BatchRunner`:
    both must agree on which grid points resume from checkpoints and on
    the per-engine L_max the single distance computation runs at.

    Returns ``(plans, l_max_by_engine)``: one :class:`ThetaGroupPlan` per
    θ-sweep group of ``requests`` (group order), and the largest
    ``length_threshold`` per engine over the grid points that will
    actually consume a matrix — resumed/materialized grid points never read
    the original graph's matrix, so they may not inflate the single engine
    run.
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
    l_max_by_engine: Dict[str, int] = {}
    for plan in plans:
        if plan.resume_checkpoint is not None:
            continue
        for index in plan.todo:
            request = requests[index]
            l_max_by_engine[request.engine] = max(
                l_max_by_engine.get(request.engine, 0),
                request.length_threshold)
    return plans, l_max_by_engine


def _abort_on_error(responses: Sequence[AnonymizationResponse]) -> None:
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


def execute_sample_group(requests: Sequence[AnonymizationRequest], *,
                         registry: Optional[AnonymizerRegistry] = None,
                         observer: Optional[ProgressObserver] = None,
                         data_dir: Optional[str] = None,
                         cache: Optional[ExecutionCache] = None,
                         resume_from: Optional[Mapping[int, Any]] = None,
                         on_error: str = "isolate"
                         ) -> List[AnonymizationResponse]:
    """Execute one sample group of a grid, responses in request order.

    All requests must share a graph source (one :func:`sample_groups`
    partition).  The sample is loaded once through ``cache`` (a throwaway
    cache is created when none is given — within-group amortization still
    applies), the utility baseline is derived once, and one full
    bounded-distance computation at the group's maximum L serves every
    θ-sweep group's initial matrix by thresholding.  Each θ-sweep group
    then runs through :func:`~repro.api.theta_sweep.execute_sweep_group`
    with its own failure isolation: a failing group (or a failing sample
    load) yields error responses without aborting its neighbours —
    unless ``on_error="fail_fast"``, which turns the first failure into a
    :class:`~repro.errors.GridAbortedError` instead.

    ``resume_from`` maps request indices (into ``requests``) to
    ``AnonymizationCheckpoint`` records persisted by an earlier,
    interrupted run of the same group.  Grid points whose checkpoint is
    present are *materialized* from it (no anonymization work); each
    θ-group's remaining grid points either continue the interrupted pass
    from its lowest-θ checkpoint (when the algorithm supports
    ``resume_from`` and the checkpoint carries an RNG state) or re-run
    cold — both bit-identical to the uninterrupted run.  Before running a
    θ-group the executor announces the indices about to run via the
    observer's optional ``on_group`` hook, so checkpoint-persisting
    observers can attribute the stream.
    """
    validate_error_policy(on_error)
    requests = list(requests)
    resume = dict(resume_from) if resume_from else {}
    if not requests:
        return []
    if cache is None:
        cache = ExecutionCache(data_dir=data_dir)
    try:
        graph = cache.graph_for(requests[0])
    except Exception as exc:  # noqa: BLE001 — isolation is the contract
        if on_error == "fail_fast":
            raise GridAbortedError(
                f"grid aborted (on_error='fail_fast'): sample load failed "
                f"with {type(exc).__name__}: {exc}") from exc
        return [AnonymizationResponse.failure(request, exc)
                for request in requests]
    # Split every θ-group into grid points already served by a persisted
    # checkpoint ("done") and points still to run ("todo"), and derive the
    # shared per-engine computation bound (see plan_sample_group).
    plans, l_max_by_engine = plan_sample_group(requests, resume)
    ordered: List[Optional[AnonymizationResponse]] = [None] * len(requests)
    for plan in plans:
        indices, done, todo = plan.indices, plan.done, plan.todo
        resume_checkpoint = plan.resume_checkpoint
        first = requests[indices[0]]
        baseline = None
        if any(requests[index].include_utility for index in indices):
            try:
                baseline = cache.baseline_for(first)
            except Exception as exc:  # noqa: BLE001 — same isolation contract
                if on_error == "fail_fast":
                    raise GridAbortedError(
                        f"grid aborted (on_error='fail_fast'): baseline "
                        f"failed with {type(exc).__name__}: {exc}") from exc
                for index in indices:
                    ordered[index] = AnonymizationResponse.failure(
                        requests[index], exc)
                continue
        if done:
            from repro.api.checkpoints import materialize_response

            for index, checkpoint in done.items():
                try:
                    ordered[index] = materialize_response(
                        requests[index], checkpoint, original_graph=graph,
                        baseline=baseline, data_dir=data_dir)
                except Exception as exc:  # noqa: BLE001
                    if on_error == "fail_fast":
                        raise GridAbortedError(
                            f"grid aborted (on_error='fail_fast'): stored "
                            f"checkpoint failed to materialize with "
                            f"{type(exc).__name__}: {exc}") from exc
                    ordered[index] = AnonymizationResponse.failure(
                        requests[index], exc)
        if not todo:
            continue
        group = [requests[index] for index in todo]
        initial_distances = None
        if resume_checkpoint is None:
            try:
                initial_distances = cache.distances_for(
                    group[0], l_max_by_engine[group[0].engine])
            except Exception as exc:  # noqa: BLE001 — e.g. unknown engine
                if on_error == "fail_fast":
                    raise GridAbortedError(
                        f"grid aborted (on_error='fail_fast'): distance "
                        f"matrix failed with {type(exc).__name__}: {exc}"
                        ) from exc
                for index in todo:
                    ordered[index] = AnonymizationResponse.failure(
                        requests[index], exc)
                continue
        notify_group(observer, tuple(todo))
        responses = execute_sweep_group(
            group, registry=registry,
            observer=observer, data_dir=data_dir, graph=graph,
            initial_distances=initial_distances, baseline=baseline,
            resume_from=resume_checkpoint)
        if on_error == "fail_fast":
            _abort_on_error(responses)
        for index, response in zip(todo, responses):
            ordered[index] = response
    return ordered  # type: ignore[return-value]


def run_grid(grid: GridRequest, *,
             max_workers: Optional[int] = 0,
             registry: Optional[AnonymizerRegistry] = None,
             data_dir: Optional[str] = None,
             shared_memory: Optional[bool] = None) -> GridResponse:
    """Group and execute a :class:`GridRequest`, responses in request order.

    ``max_workers=0`` (the default) runs the sample groups serially
    in-process with one shared :class:`~repro.api.cache.ExecutionCache`
    (the only mode that honours a custom ``registry``); any other value
    fans the grid across a :class:`~repro.api.batch.BatchRunner` process
    pool (``None`` = one worker per CPU).  On the default shared-memory
    data plane (``shared_memory=None`` or ``True``) the pool fans out
    *θ-sweep groups*: the parent loads each sample and runs each L_max
    distance computation exactly once, publishes them to shared-memory
    segments, and workers attach zero-copy views — so even a single-sample
    grid parallelizes across all cores.  ``shared_memory=False`` falls
    back to the plane that fans whole *sample groups*, trading θ-group
    parallelism for per-worker process-local caches.  Either way
    responses are bit-identical to the serial path.
    """
    from repro.api.batch import BatchRunner

    stats = GridStats()
    runner = BatchRunner(max_workers=max_workers, data_dir=data_dir,
                         shared_memory=shared_memory)
    responses = runner.run_grid(grid, registry=registry, stats=stats)
    return GridResponse(responses=tuple(responses),
                        num_groups=len(grid.groups()),
                        num_sample_groups=len(grid.sample_groups()),
                        num_sample_loads=(stats.sample_loads
                                          if stats.tracked else None),
                        num_distance_computes=(stats.distance_computes
                                               if stats.tracked else None))
