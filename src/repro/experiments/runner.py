"""Sweep driver: run anonymization configurations and collect metric records.

The runner caches loaded dataset samples (one graph per dataset/size/seed)
*and* their original-graph utility baselines (degree/geodesic histograms,
per-vertex clustering coefficients) so a sweep over θ reuses both, exactly
as the paper evaluates one sampled graph across all thresholds.  Algorithms
are resolved through the service-layer registry
(:mod:`repro.api.registry`), so any registered anonymizer — built-in or
third-party — can appear in an experiment grid.

:meth:`ExperimentRunner.run_sweep` executes a whole
:class:`~repro.experiments.config.SweepPlan` — a θ grid for one fixed
configuration — as a *single* checkpointed anonymization pass
(DESIGN.md §9), producing per-θ records identical to independent
:meth:`ExperimentRunner.run` calls.  :meth:`ExperimentRunner.run_grid`
executes *many* plans as one grid job (DESIGN.md §10): plans sharing a
sample additionally share one L_max bounded-distance computation (smaller
L matrices are thresholded slices, so an L sweep costs one engine run),
and ``max_workers`` fans the grid's θ-groups across worker processes
through :class:`repro.api.BatchRunner`'s grid executor;
``run_all(..., max_workers=...)`` does the same for an explicit
configuration list.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.api.registry import create_anonymizer
from repro.api.requests import AnonymizationRequest
from repro.core.anonymizer import AnonymizationResult
from repro.datasets import load_sample
from repro.errors import ReproError
from repro.experiments.config import ExperimentConfig, SweepPlan
from repro.graph.distance_cache import LMaxDistanceCache
from repro.graph.graph import Graph
from repro.metrics import GraphBaseline, graph_baseline, utility_report


@dataclass(frozen=True)
class RunRecord:
    """Metrics of one completed run (one point of a figure series)."""

    config: ExperimentConfig
    success: bool
    final_opacity: float
    distortion: float
    degree_emd: float
    geodesic_emd: float
    mean_cc_difference: float
    runtime_seconds: float
    steps: int
    evaluations: int

    def as_dict(self) -> Dict[str, object]:
        """Flatten the record for CSV / tabular output."""
        return {
            "dataset": self.config.dataset,
            "size": self.config.sample_size,
            "algorithm": self.config.label(),
            "L": self.config.length_threshold,
            "theta": self.config.theta,
            "lookahead": self.config.lookahead,
            "success": self.success,
            "opacity": round(self.final_opacity, 4),
            "distortion": round(self.distortion, 4),
            "degree_emd": round(self.degree_emd, 5),
            "geodesic_emd": round(self.geodesic_emd, 5),
            "mean_cc_diff": round(self.mean_cc_difference, 5),
            "runtime_s": round(self.runtime_seconds, 4),
            "steps": self.steps,
            "evaluations": self.evaluations,
        }


def request_for(config: ExperimentConfig) -> AnonymizationRequest:
    """The service-layer request equivalent to an experiment configuration."""
    return AnonymizationRequest(
        algorithm=config.algorithm,
        dataset=config.dataset,
        sample_size=config.sample_size,
        theta=config.theta,
        length_threshold=config.length_threshold,
        lookahead=config.lookahead,
        seed=config.seed,
        engine=config.engine,
        max_steps=config.max_steps,
        insertion_candidate_cap=config.insertion_candidate_cap,
        include_utility=True,
    )


class ExperimentRunner:
    """Runs experiment configurations, caching dataset samples between runs."""

    def __init__(self, data_dir: Optional[str] = None) -> None:
        self._data_dir = data_dir
        self._graph_cache: Dict[Tuple[str, int, int], Graph] = {}
        self._baseline_cache: Dict[Tuple[str, int, int], GraphBaseline] = {}

    # ------------------------------------------------------------------
    # graph access
    # ------------------------------------------------------------------
    def sample(self, dataset: str, sample_size: int, seed: int = 0) -> Graph:
        """The loaded sample for a dataset/size/seed (cached)."""
        key = (dataset, sample_size, seed)
        if key not in self._graph_cache:
            self._graph_cache[key] = load_sample(
                dataset, sample_size, data_dir=self._data_dir, seed=seed)
        return self._graph_cache[key]

    def graph_for(self, config: ExperimentConfig) -> Graph:
        """The input graph of a configuration (cached per dataset/size/seed)."""
        return self.sample(config.dataset, config.sample_size, config.seed)

    def baseline_for(self, config: ExperimentConfig) -> GraphBaseline:
        """The original-graph utility baseline of a configuration (cached).

        Degree and geodesic histograms and the per-vertex clustering
        coefficients of the *original* sample depend only on the sample,
        not on the anonymization, so they are computed once per
        dataset/size/seed instead of once per record.
        """
        key = (config.dataset, config.sample_size, config.seed)
        if key not in self._baseline_cache:
            self._baseline_cache[key] = graph_baseline(self.graph_for(config))
        return self._baseline_cache[key]

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, config: ExperimentConfig) -> RunRecord:
        """Execute one configuration and return its metric record.

        The baselines only address single-edge linkage, so requesting them
        with L > 1 raises (the paper likewise restricts the comparison to
        L = 1; the registry enforces it).
        """
        graph = self.graph_for(config)
        algorithm = self._create(config)
        started = time.perf_counter()
        result: AnonymizationResult = algorithm.anonymize(graph)
        elapsed = time.perf_counter() - started
        return self._record(config, result, runtime_seconds=elapsed)

    def run_sweep(self, plan: SweepPlan,
                  initial_distances: Optional[np.ndarray] = None) -> List[RunRecord]:
        """Execute a θ-sweep plan and return one record per grid point.

        The whole grid runs as one anonymization pass (per-θ
        checkpoints); the records are identical to independent :meth:`run`
        calls per θ except for ``runtime_seconds``, which reports the
        elapsed time of the shared pass when the grid point was crossed.
        Records come back in the plan's θ order.  ``initial_distances`` may
        seed the pass with the plan's precomputed L-bounded matrix (a
        :class:`~repro.graph.distance_cache.LMaxDistanceCache` slice, as
        :meth:`run_grid` supplies); the pass consumes the array.
        """
        from repro.api.theta_sweep import accepts_initial_distances

        configs = plan.configs()
        algorithm = self._create(configs[0])
        if not hasattr(algorithm, "anonymize_schedule"):
            return [self.run(config) for config in configs]
        graph = self.graph_for(configs[0])
        kwargs = {}
        if initial_distances is not None and \
                accepts_initial_distances(algorithm.anonymize_schedule):
            # Same guard as the api layer: a registry-replaced algorithm
            # with the pre-grid schedule signature runs cold instead of
            # crashing on the unexpected keyword.
            kwargs["initial_distances"] = initial_distances
        results = algorithm.anonymize_schedule(graph, plan.thetas, **kwargs)
        by_theta = {result.config.theta: result for result in results}
        return [self._record(config, by_theta[float(config.theta)],
                             runtime_seconds=None)
                for config in configs]

    def run_grid(self, plans: Sequence[SweepPlan],
                 max_workers: Optional[int] = 0) -> List[List[RunRecord]]:
        """Execute many θ-sweep plans as one grid job, one record list per plan.

        Serially (``max_workers=0``, the default) the plans are grouped by
        sample (dataset/size/seed): the sample comes from the runner's
        cache, and **one** bounded-distance computation at the group's
        maximum L seeds every plan's checkpointed pass (smaller-L matrices
        are thresholded slices — DESIGN.md §10), so an L sweep over one
        sample costs a single engine run.  Any other ``max_workers`` runs
        the grid through :meth:`run_all`: its θ-groups fan across a
        :class:`repro.api.BatchRunner` process pool (``None`` = one worker
        per CPU) over the shared-memory plane.
        Records are identical to per-plan :meth:`run_sweep` calls either
        way; lists come back in plan order.
        """
        plans = list(plans)
        if max_workers != 0:
            records = self.run_all(
                [config for plan in plans for config in plan.configs()],
                max_workers=max_workers)
            split: List[List[RunRecord]] = []
            cursor = 0
            for plan in plans:
                split.append(records[cursor:cursor + len(plan.thetas)])
                cursor += len(plan.thetas)
            return split
        ordered: List[Optional[List[RunRecord]]] = [None] * len(plans)
        groups: Dict[Tuple[str, int, int], List[int]] = {}
        for index, plan in enumerate(plans):
            groups.setdefault((plan.dataset, plan.sample_size, plan.seed),
                              []).append(index)
        for indices in groups.values():
            group = [plans[index] for index in indices]
            # One engine run per engine, at the group's largest L.
            l_max_by_engine: Dict[str, int] = {}
            for plan in group:
                l_max_by_engine[plan.engine] = max(
                    l_max_by_engine.get(plan.engine, 0), plan.length_threshold)
            caches: Dict[str, LMaxDistanceCache] = {}
            for index, plan in zip(indices, group):
                cache = caches.get(plan.engine)
                if cache is None:
                    cache = LMaxDistanceCache(self.graph_for(plan.configs()[0]),
                                              l_max_by_engine[plan.engine],
                                              engine=plan.engine)
                    caches[plan.engine] = cache
                ordered[index] = self.run_sweep(
                    plan, initial_distances=cache.matrix(plan.length_threshold))
        return ordered  # type: ignore[return-value]

    def run_all(self, configs: Iterable[ExperimentConfig],
                max_workers: Optional[int] = 0) -> List[RunRecord]:
        """Execute every configuration and return the records in order.

        Configurations identical in everything but θ form θ-sweep groups
        executed as checkpointed passes, so a grid sweeping k thresholds
        costs ~1 run per group instead of k.  ``max_workers=0`` (the default) runs the
        groups serially in this process; any other value fans the grid's
        *θ-groups* over a :class:`repro.api.BatchRunner` process pool
        (``None`` = one worker per CPU) on the shared-memory plane, where
        the parent loads each sample and runs its L_max distance
        computation once for all of them.  A failure in any configuration
        raises either way.
        """
        configs = list(configs)
        if max_workers == 0 or not configs:
            return self._run_all_serial(configs)
        from repro.api.batch import BatchRunner
        from repro.api.sweeps import GridRequest

        grid = GridRequest(
            requests=tuple(request_for(config) for config in configs))
        runner = BatchRunner(max_workers=max_workers, data_dir=self._data_dir)
        responses = runner.run_grid(grid)
        records = []
        for config, response in zip(configs, responses):
            if response.error is not None:
                raise ReproError(
                    f"parallel run failed for {config.label()!r}: {response.error}")
            metrics = response.metrics or {}
            records.append(RunRecord(
                config=config,
                success=response.success,
                final_opacity=response.final_opacity,
                distortion=response.distortion,
                degree_emd=metrics.get("degree_emd", 0.0),
                geodesic_emd=metrics.get("geodesic_emd", 0.0),
                mean_cc_difference=metrics.get("mean_cc_diff", 0.0),
                runtime_seconds=response.runtime_seconds,
                steps=response.num_steps,
                evaluations=response.evaluations,
            ))
        return records

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    def _run_all_serial(self, configs: List[ExperimentConfig]) -> List[RunRecord]:
        """In-process execution of a grid, grouped into θ-sweep plans."""
        records: List[Optional[RunRecord]] = [None] * len(configs)
        groups: Dict[ExperimentConfig, List[int]] = {}
        for index, config in enumerate(configs):
            groups.setdefault(replace(config, theta=0.0), []).append(index)
        for indices in groups.values():
            group = [configs[index] for index in indices]
            if len(group) == 1:
                for index in indices:
                    records[index] = self.run(configs[index])
                continue
            plan = SweepPlan.for_config(group[0],
                                        thetas=[config.theta for config in group])
            for index, record in zip(indices, self.run_sweep(plan)):
                records[index] = record
        return records  # type: ignore[return-value]

    def _create(self, config: ExperimentConfig):
        return create_anonymizer(
            config.algorithm,
            theta=config.theta,
            length_threshold=config.length_threshold,
            lookahead=config.lookahead,
            seed=config.seed,
            engine=config.engine,
            max_steps=config.max_steps,
            insertion_candidate_cap=config.insertion_candidate_cap,
        )

    def _record(self, config: ExperimentConfig, result: AnonymizationResult,
                runtime_seconds: Optional[float]) -> RunRecord:
        report = utility_report(result.original_graph, result.anonymized_graph,
                                include_spectral=False,
                                baseline=self.baseline_for(config))
        return RunRecord(
            config=config,
            success=result.success,
            final_opacity=result.final_opacity,
            distortion=report.distortion,
            degree_emd=report.degree_emd,
            geodesic_emd=report.geodesic_emd,
            mean_cc_difference=report.mean_clustering_difference,
            runtime_seconds=(runtime_seconds if runtime_seconds is not None
                             else result.runtime_seconds),
            steps=result.num_steps,
            evaluations=result.evaluations,
        )
