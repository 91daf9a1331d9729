"""Unit tests for the checkpointed θ-schedule engine (core layer)."""

import pytest

from repro.api.progress import CallbackObserver
from repro.baselines import GadedMaxAnonymizer, GadedRandAnonymizer, GadesAnonymizer
from repro.core import (
    AnonymizerConfig,
    EdgeRemovalAnonymizer,
    EdgeRemovalInsertionAnonymizer,
    validate_theta_schedule,
)
from repro.errors import ConfigurationError, InfeasibleError
from repro.graph import erdos_renyi_graph
from repro.graph.distance_cache import LMaxDistanceCache
from tests.oracles import independent_schedule

#: One factory per registered algorithm, all seeded.
ALGORITHM_FACTORIES = {
    "rem": lambda theta, **kw: EdgeRemovalAnonymizer(theta=theta, seed=0, **kw),
    "rem-ins": lambda theta, **kw: EdgeRemovalInsertionAnonymizer(theta=theta, seed=0, **kw),
    "gaded-rand": lambda theta, **kw: GadedRandAnonymizer(theta=theta, seed=0, **kw),
    "gaded-max": lambda theta, **kw: GadedMaxAnonymizer(theta=theta, seed=0, **kw),
    "gades": lambda theta, **kw: GadesAnonymizer(theta=theta, seed=0,
                                                 swap_sample_size=100, **kw),
}


@pytest.fixture(scope="module")
def graph():
    return erdos_renyi_graph(30, 0.2, seed=11)


class TestValidateThetaSchedule:
    def test_sorts_descending_and_dedupes(self):
        assert validate_theta_schedule([0.5, 0.9, 0.7, 0.9]) == (0.9, 0.7, 0.5)

    def test_empty_schedule_rejected(self):
        with pytest.raises(ConfigurationError):
            validate_theta_schedule([])

    def test_out_of_range_rejected(self):
        with pytest.raises(ConfigurationError):
            validate_theta_schedule([0.5, 1.5])

    def test_sweep_mode_validated_on_config(self):
        # Retired: a θ grid always runs as one checkpointed pass, so the
        # config has no execution mode to validate.
        with pytest.raises(TypeError, match="sweep_mode"):
            AnonymizerConfig(sweep_mode="checkpointed")
        AnonymizerConfig().validate()


class TestScheduleResults:
    def test_single_theta_schedule_equals_anonymize(self, graph):
        anonymizer = EdgeRemovalAnonymizer(theta=0.5, seed=0)
        single = anonymizer.anonymize(graph)
        scheduled = anonymizer.anonymize_schedule(graph, (0.5,))
        assert len(scheduled) == 1
        run = scheduled[0]
        assert run.config == single.config
        assert run.final_opacity == single.final_opacity
        assert [s.edges for s in run.steps] == [s.edges for s in single.steps]
        assert run.evaluations == single.evaluations
        assert run.anonymized_graph == single.anonymized_graph

    def test_results_come_back_in_descending_theta_order(self, graph):
        results = EdgeRemovalAnonymizer(theta=0.5, seed=0).anonymize_schedule(
            graph, (0.6, 0.9, 0.5))
        assert [run.config.theta for run in results] == [0.9, 0.6, 0.5]

    def test_lower_theta_steps_extend_higher_theta_steps(self, graph):
        results = EdgeRemovalAnonymizer(theta=0.5, seed=0).anonymize_schedule(
            graph, (0.9, 0.7, 0.5))
        for higher, lower in zip(results, results[1:]):
            assert len(higher.steps) <= len(lower.steps)
            assert lower.steps[:len(higher.steps)] == higher.steps
            assert higher.removed_edges <= lower.removed_edges

    def test_step_records_split_removals_and_insertions(self, graph):
        result = EdgeRemovalInsertionAnonymizer(theta=0.6, seed=0).anonymize(graph)
        for step in result.steps:
            assert step.edges == step.removals + step.insertions
            if step.operation == "remove+insert":
                assert step.removals and step.insertions

    def test_checkpoint_runtime_split_is_monotone(self, graph):
        results = EdgeRemovalAnonymizer(theta=0.5, seed=0).anonymize_schedule(
            graph, (0.9, 0.7, 0.5))
        elapsed = [run.runtime_seconds for run in results]
        assert elapsed == sorted(elapsed)

    @pytest.mark.parametrize("name", sorted(ALGORITHM_FACTORIES))
    def test_schedule_matches_independent_runs(self, graph, name):
        make = ALGORITHM_FACTORIES[name]
        thetas = (0.9, 0.7, 0.5)
        scheduled = make(0.5).anonymize_schedule(graph, thetas)
        references = independent_schedule(make(0.5), graph, thetas)
        for theta, run, independent in zip(thetas, scheduled, references):
            assert run.config.theta == independent.config.theta == theta
            assert [(s.operation, s.edges) for s in run.steps] == \
                   [(s.operation, s.edges) for s in independent.steps]
            assert run.final_opacity == independent.final_opacity
            assert run.evaluations == independent.evaluations
            assert run.removed_edges == independent.removed_edges
            assert run.inserted_edges == independent.inserted_edges
            assert run.anonymized_graph == independent.anonymized_graph
            assert run.success == independent.success
            assert run.stop_reason == independent.stop_reason

    @pytest.mark.parametrize("name", ["rem", "rem-ins"])
    def test_independent_sweep_mode_matches_checkpointed(self, graph, name):
        # A seeded pass against per-θ runs that each consume a copy of the
        # seed, over an unsorted grid with a repeated point.  At L = 2: an
        # L = 1 session reads no distances, and the L = 1-only baselines
        # take no seed.
        make = ALGORITHM_FACTORIES[name]
        thetas = (0.6, 0.8, 0.6)
        seed = LMaxDistanceCache(graph, 2).matrix(2)
        checkpointed = make(0.6, length_threshold=2).anonymize_schedule(
            graph, thetas, initial_distances=seed.copy())
        independent = independent_schedule(make(0.6, length_threshold=2),
                                           graph, thetas,
                                           initial_distances=seed)
        assert [run.config.theta for run in checkpointed] == [0.8, 0.6]
        assert len(independent) == len(checkpointed)
        for a, b in zip(checkpointed, independent):
            assert a.config.theta == b.config.theta
            assert [s.edges for s in a.steps] == [s.edges for s in b.steps]
            assert a.final_opacity == b.final_opacity
            assert a.evaluations == b.evaluations
            assert a.anonymized_graph == b.anonymized_graph


    @pytest.mark.parametrize("tier", ["dense", "tiled"])
    @pytest.mark.parametrize("name", ["rem", "rem-ins"])
    def test_l2_schedule_matches_independent_runs_on_each_tier(self, name,
                                                               tier):
        # L=2 on both distance tiers; the 1 KiB budget makes the tiled
        # tier spill, so every tile is recomputed or reloaded mid-pass.
        make = ALGORITHM_FACTORIES[name]
        graph = erdos_renyi_graph(24, 0.2, seed=5)
        anonymizer = make(0.4, length_threshold=2, scale_tier=tier,
                          scale_budget_bytes=1024)
        thetas = (0.8, 0.6, 0.4)
        scheduled = anonymizer.anonymize_schedule(graph, thetas)
        references = independent_schedule(anonymizer, graph, thetas)
        assert any(run.steps for run in scheduled)
        for run, independent in zip(scheduled, references):
            assert run.config == independent.config
            assert [(s.operation, s.edges) for s in run.steps] == \
                   [(s.operation, s.edges) for s in independent.steps]
            assert run.final_opacity == independent.final_opacity
            assert run.evaluations == independent.evaluations
            assert run.anonymized_graph == independent.anonymized_graph
            assert run.stop_reason == independent.stop_reason


class TestStopPropagation:
    def test_max_steps_fills_remaining_grid_points(self, graph):
        results = EdgeRemovalAnonymizer(theta=0.0, seed=0, max_steps=1)\
            .anonymize_schedule(graph, (0.9, 0.2, 0.1))
        # One removal cannot reach 0.2 on this sample: the unreached grid
        # points must report the stop reason, matching independent runs.
        by_theta = {run.config.theta: run for run in results}
        independent = EdgeRemovalAnonymizer(theta=0.1, seed=0, max_steps=1)\
            .anonymize(graph)
        assert by_theta[0.1].stop_reason == independent.stop_reason == "max_steps"
        assert by_theta[0.1].success is False
        assert by_theta[0.1].num_steps == independent.num_steps == 1

    def test_exhausted_fills_remaining_grid_points(self):
        # A graph whose maximum opacity cannot reach 0: removing everything
        # still leaves the empty-graph disclosure at 0, so "exhausted" can
        # only come from an unimprovable step; a single edge suffices.
        from repro.graph.graph import Graph
        graph = Graph(3, edges=[(0, 1)])
        results = GadesAnonymizer(theta=0.0, seed=0).anonymize_schedule(
            graph, (0.9, 0.0))
        assert results[-1].stop_reason == "exhausted"
        independent = GadesAnonymizer(theta=0.0, seed=0).anonymize(graph)
        assert independent.stop_reason == "exhausted"
        assert results[-1].final_opacity == independent.final_opacity

    def test_observer_stop_reports_remaining_as_observer(self, graph):
        observer = CallbackObserver(should_stop=lambda: True)
        results = EdgeRemovalAnonymizer(theta=0.0, seed=0).anonymize_schedule(
            graph, (0.2, 0.1), observer=observer)
        assert all(run.stop_reason == "observer" for run in results)

    def test_strict_schedule_raises_on_unreachable_theta(self, graph):
        with pytest.raises(InfeasibleError):
            EdgeRemovalAnonymizer(theta=0.0, seed=0, max_steps=1, strict=True)\
                .anonymize_schedule(graph, (0.9, 0.0))
