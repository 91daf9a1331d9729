"""Sweep driver: run anonymization configurations and collect metric records.

:class:`ExperimentRunner` is a thin front end of the service layer's one
grid executor, :meth:`repro.api.BatchRunner.run_grid` (DESIGN.md §10).
:meth:`ExperimentRunner.run_all`, :meth:`~ExperimentRunner.run_grid` and
:meth:`~ExperimentRunner.run_sweep` translate configurations into one
fail-fast :class:`~repro.api.sweeps.GridRequest`: θ-sweep groups run as
single checkpointed passes (DESIGN.md §9), and grid points sharing a sample
share one loaded graph, one utility baseline and one L_max bounded-distance
computation.  ``max_workers=0`` runs in this process; any other value fans
the θ-groups over a process pool (``None`` = one worker per CPU).
:meth:`ExperimentRunner.run` is the independent per-configuration reference
— one facade :func:`~repro.api.facade.anonymize` call.  Records are
identical on every route except for ``runtime_seconds``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence

from repro.api.batch import BatchRunner
from repro.api.facade import anonymize
from repro.api.requests import AnonymizationRequest, AnonymizationResponse
from repro.api.sweeps import GridRequest
from repro.experiments.config import ExperimentConfig, SweepPlan


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
        max_steps=config.max_steps,
        insertion_candidate_cap=config.insertion_candidate_cap,
        include_utility=True,
    )


def _record(config: ExperimentConfig, response: AnonymizationResponse) -> RunRecord:
    """The record of a successful response (utility metrics included)."""
    metrics = response.metrics
    return RunRecord(
        config=config,
        success=response.success,
        final_opacity=response.final_opacity,
        distortion=metrics["distortion"],
        degree_emd=metrics["degree_emd"],
        geodesic_emd=metrics["geodesic_emd"],
        mean_cc_difference=metrics["mean_cc_diff"],
        runtime_seconds=response.runtime_seconds,
        steps=response.num_steps,
        evaluations=response.evaluations,
    )


class ExperimentRunner:
    """Runs experiment configurations through the service layer."""

    def __init__(self, data_dir: Optional[str] = None) -> None:
        self._data_dir = data_dir

    def run(self, config: ExperimentConfig) -> RunRecord:
        """Execute one configuration on its own and return its metric record.

        The independent reference of the grid methods.  Exceptions
        propagate: the baselines only address single-edge linkage, so
        requesting them with L > 1 raises (the paper likewise restricts
        the comparison to L = 1; the registry enforces it).
        """
        return _record(config, anonymize(request_for(config),
                                         data_dir=self._data_dir))

    def run_sweep(self, plan: SweepPlan) -> List[RunRecord]:
        """Execute a θ-sweep plan and return one record per grid point.

        The whole grid runs as one anonymization pass (per-θ
        checkpoints); the records are identical to independent :meth:`run`
        calls per θ except for ``runtime_seconds``, which reports the
        elapsed time of the shared pass when the grid point was crossed.
        Records come back in the plan's θ order.
        """
        return self.run_grid([plan])[0]

    def run_grid(self, plans: Sequence[SweepPlan],
                 max_workers: Optional[int] = 0) -> List[List[RunRecord]]:
        """Execute many θ-sweep plans as one grid job, one record list per plan.

        The plans' configurations run as one :meth:`run_all` grid, so
        plans sharing a sample share one loaded graph and one L_max
        distance computation (smaller-L matrices are thresholded slices,
        so an L sweep over one sample costs a single engine run).  Records
        are identical to per-plan :meth:`run_sweep` calls; lists come back
        in plan order.
        """
        plans = list(plans)
        records = iter(self.run_all([config for plan in plans
                                     for config in plan.configs()],
                                    max_workers=max_workers))
        return [[next(records) for _ in plan.thetas] for plan in plans]

    def run_all(self, configs: Iterable[ExperimentConfig],
                max_workers: Optional[int] = 0) -> List[RunRecord]:
        """Execute every configuration as one grid, records in input order.

        Configurations identical in everything but θ form θ-sweep groups
        executed as checkpointed passes, so a grid sweeping k thresholds
        costs ~1 run per group instead of k.  The grid runs through
        :meth:`repro.api.BatchRunner.run_grid`: in this process with
        ``max_workers=0`` (the default), otherwise over a process pool
        (``None`` = one worker per CPU).  The first failing configuration
        aborts the grid with :class:`~repro.errors.GridAbortedError` on
        either route; the pool cancels the tasks not yet started.
        """
        configs = list(configs)
        if not configs:
            return []
        grid = GridRequest(requests=tuple(request_for(config)
                                          for config in configs),
                           on_error="fail_fast")
        responses = BatchRunner(max_workers=max_workers,
                                data_dir=self._data_dir).run_grid(grid)
        return [_record(config, response)
                for config, response in zip(configs, responses)]
