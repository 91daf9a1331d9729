"""Differential parity suite for the checkpointed θ-sweep engine.

The engine's contract (DESIGN.md §9): a checkpointed sweep produces per-θ
records *bit-identical* to independent per-θ runs — same edits, opacity,
distortion, utility metrics, step and evaluation counts — for every
registered algorithm; only ``runtime_seconds`` reflects the execution
strategy.  These tests assert exactly that at the experiments layer
(``RunRecord``, against per-θ :meth:`ExperimentRunner.run` calls), plus a
hypothesis sweep over random θ grids at the core layer (against
``tests.oracles.independent_schedule``).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines import GadesAnonymizer
from repro.core import EdgeRemovalAnonymizer
from repro.experiments.config import ALGORITHMS, ExperimentConfig, SweepPlan
from repro.experiments.runner import ExperimentRunner
from repro.graph import erdos_renyi_graph
from tests.oracles import independent_schedule

#: Fields of a RunRecord compared bit-for-bit (everything except runtime
#: and the config record, compared whole).
COMPARED_FIELDS = ("success", "final_opacity", "distortion", "degree_emd",
                   "geodesic_emd", "mean_cc_difference", "steps", "evaluations")

THETAS = (0.9, 0.7, 0.5)


@pytest.fixture(scope="module")
def runner():
    return ExperimentRunner()


def assert_records_match(checkpointed, reference):
    assert len(checkpointed) == len(reference)
    for ours, theirs in zip(checkpointed, reference):
        assert ours.config == theirs.config
        for field in COMPARED_FIELDS:
            assert getattr(ours, field) == getattr(theirs, field), \
                (field, ours.config.label(), ours.config.theta)


class TestRunSweepParity:
    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_checkpointed_matches_independent_runs(self, runner, algorithm):
        plan = SweepPlan(dataset="gnutella", sample_size=30,
                         algorithm=algorithm, thetas=THETAS, seed=0,
                         insertion_candidate_cap=100)
        checkpointed = runner.run_sweep(plan)
        reference = [runner.run(config) for config in plan.configs()]
        assert_records_match(checkpointed, reference)

    @pytest.mark.parametrize("algorithm", ("rem", "rem-ins"))
    def test_checkpointed_matches_independent_mode_at_l2(self, runner, algorithm):
        plan = SweepPlan(dataset="enron", sample_size=30, algorithm=algorithm,
                         thetas=(0.8, 0.6), length_threshold=2, seed=0,
                         insertion_candidate_cap=100)
        checkpointed = runner.run_sweep(plan)
        independent = [runner.run(config) for config in plan.configs()]
        assert_records_match(checkpointed, independent)

    def test_records_follow_plan_theta_order(self, runner):
        plan = SweepPlan(dataset="gnutella", sample_size=30, algorithm="rem",
                         thetas=(0.5, 0.9, 0.7), seed=0)
        records = runner.run_sweep(plan)
        assert [record.config.theta for record in records] == [0.5, 0.9, 0.7]

    def test_duplicate_thetas_share_one_checkpoint(self, runner):
        plan = SweepPlan(dataset="gnutella", sample_size=30, algorithm="rem",
                         thetas=(0.7, 0.7), seed=0)
        records = runner.run_sweep(plan)
        assert len(records) == 2
        assert records[0].final_opacity == records[1].final_opacity
        assert records[0].evaluations == records[1].evaluations

    def test_lookahead_plan_parity(self, runner):
        plan = SweepPlan(dataset="gnutella", sample_size=25, algorithm="rem",
                         thetas=(0.8, 0.6), lookahead=2, seed=0)
        checkpointed = runner.run_sweep(plan)
        reference = [runner.run(config) for config in plan.configs()]
        assert_records_match(checkpointed, reference)


class TestBaselineCache:
    def test_cached_baseline_changes_no_metric(self):
        from repro.datasets import load_sample
        from repro.metrics import graph_baseline, utility_report

        result = EdgeRemovalAnonymizer(theta=0.7, seed=0).anonymize(
            load_sample("gnutella", 30, seed=0))
        plain = utility_report(result.original_graph, result.anonymized_graph)
        cached = utility_report(result.original_graph, result.anonymized_graph,
                                baseline=graph_baseline(result.original_graph,
                                                        include_spectral=True))
        assert plain == cached


#: Random descending-able θ grids drawn from the percent scale the paper
#: sweeps; duplicates and unsorted orders are deliberately allowed.
theta_grids = st.lists(
    st.sampled_from([i / 10 for i in range(11)]), min_size=1, max_size=5)


class TestRandomGridParity:
    @settings(max_examples=15, deadline=None)
    @given(grid=theta_grids, seed=st.integers(min_value=0, max_value=3))
    def test_rem_schedule_matches_independent(self, grid, seed):
        graph = erdos_renyi_graph(16, 0.3, seed=seed)
        anonymizer = EdgeRemovalAnonymizer(theta=min(grid), seed=seed)
        scheduled = anonymizer.anonymize_schedule(graph, grid)
        references = independent_schedule(anonymizer, graph, grid)
        assert len(scheduled) == len(references) == len(set(grid))
        for run, independent in zip(scheduled, references):
            assert run.config == independent.config
            assert [s.edges for s in run.steps] == \
                   [s.edges for s in independent.steps]
            assert run.final_opacity == independent.final_opacity
            assert run.evaluations == independent.evaluations
            assert run.anonymized_graph == independent.anonymized_graph
            assert run.stop_reason == independent.stop_reason

    @settings(max_examples=10, deadline=None)
    @given(grid=theta_grids, seed=st.integers(min_value=0, max_value=3))
    def test_gades_schedule_matches_independent(self, grid, seed):
        graph = erdos_renyi_graph(14, 0.3, seed=seed)
        anonymizer = GadesAnonymizer(theta=min(grid), seed=seed,
                                     swap_sample_size=50)
        scheduled = anonymizer.anonymize_schedule(graph, grid)
        references = independent_schedule(anonymizer, graph, grid)
        assert len(scheduled) == len(references) == len(set(grid))
        for run, independent in zip(scheduled, references):
            assert run.config == independent.config
            assert [s.edges for s in run.steps] == \
                   [s.edges for s in independent.steps]
            assert run.final_opacity == independent.final_opacity
            assert run.evaluations == independent.evaluations
            assert run.stop_reason == independent.stop_reason


class TestRunAllGrouping:
    def test_serial_run_all_groups_and_preserves_order(self, runner):
        configs = []
        for algorithm in ("rem", "gaded-max"):
            for theta in (0.9, 0.6):
                configs.append(ExperimentConfig(
                    dataset="gnutella", sample_size=30, algorithm=algorithm,
                    theta=theta, seed=0))
        # Interleave so grouping must re-scatter records into input order.
        interleaved = [configs[0], configs[2], configs[1], configs[3]]
        grouped = runner.run_all(interleaved)
        assert [record.config for record in grouped] == interleaved
        reference = [runner.run(config) for config in interleaved]
        for ours, theirs in zip(grouped, reference):
            for field in COMPARED_FIELDS:
                assert getattr(ours, field) == getattr(theirs, field)

    def test_independent_sweep_mode_skips_grouping(self, runner):
        # Single-θ groups run as plain runs; a θ pair shares one pass.
        # Both equal the per-configuration reference.
        configs = [ExperimentConfig(dataset="gnutella", sample_size=30,
                                    algorithm="rem", theta=theta, seed=0)
                   for theta in (0.8, 0.6)]
        configs.append(ExperimentConfig(dataset="gnutella", sample_size=30,
                                        algorithm="rem", theta=0.7, seed=1))
        records = runner.run_all(configs)
        reference = [runner.run(config) for config in configs]
        for ours, theirs in zip(records, reference):
            for field in COMPARED_FIELDS:
                assert getattr(ours, field) == getattr(theirs, field)
