"""Tests for the experiments-layer grid execution (shared L_max distances)."""

import pytest

import repro.graph.distance_cache as distance_cache_module
from repro.experiments.config import SweepPlan
from repro.experiments.figures import (figure6_lsweep_series, figure6_series,
                                       figure7_series, figure8_lsweep_series,
                                       figure8_series, figure10_series,
                                       figure12_series)
from repro.experiments.runner import ExperimentRunner
from tests.oracles import independent_grids, independent_records

#: RunRecord fields compared bit-for-bit (everything except runtime).
COMPARED_FIELDS = ("success", "final_opacity", "distortion", "degree_emd",
                   "geodesic_emd", "mean_cc_difference", "steps", "evaluations")

THETAS = (0.9, 0.7, 0.5)


@pytest.fixture
def runner():
    return ExperimentRunner()


def _plan(length, algorithm="rem", dataset="gnutella", size=30, **kwargs):
    return SweepPlan(dataset=dataset, sample_size=size, algorithm=algorithm,
                     thetas=THETAS, length_threshold=length, seed=0,
                     insertion_candidate_cap=100, **kwargs)


def assert_records_match(grid_records, reference_records):
    assert len(grid_records) == len(reference_records)
    for ours, theirs in zip(grid_records, reference_records):
        assert ours.config.theta == theirs.config.theta
        for field in COMPARED_FIELDS:
            assert getattr(ours, field) == getattr(theirs, field), field


class TestRunGrid:
    def test_grid_matches_per_plan_sweeps(self, runner):
        plans = [_plan(length, algorithm)
                 for length in (1, 2) for algorithm in ("rem", "rem-ins")]
        grid = runner.run_grid(plans)
        for plan, records in zip(plans, grid):
            assert_records_match(records, runner.run_sweep(plan))

    def test_l_sweep_group_computes_distances_once(self, runner, monkeypatch):
        computes = []
        original = distance_cache_module.bounded_distance_matrix

        def counting(graph, length_bound, engine="numpy"):
            computes.append(length_bound)
            return original(graph, length_bound, engine=engine)

        monkeypatch.setattr(distance_cache_module, "bounded_distance_matrix",
                            counting)
        plans = [_plan(length) for length in (1, 2, 3)]
        runner.run_grid(plans)
        # One engine run at L_max = 3 seeds all three plans' passes.
        assert computes == [3]

    def test_multiple_samples_compute_once_each(self, runner, monkeypatch):
        computes = []
        original = distance_cache_module.bounded_distance_matrix
        monkeypatch.setattr(
            distance_cache_module, "bounded_distance_matrix",
            lambda graph, length_bound, engine="numpy":
                computes.append(length_bound) or original(graph, length_bound,
                                                          engine=engine))
        plans = [_plan(length, size=size)
                 for size in (25, 30) for length in (1, 2)]
        runner.run_grid(plans)
        assert sorted(computes) == [2, 2]

    def test_independent_plans_skip_the_shared_matrix(self, runner):
        # Plans seeded from the shared L_max matrix against cold per-θ runs.
        plans = [_plan(length) for length in (1, 2)]
        grid = runner.run_grid(plans)
        for records, reference in zip(grid, independent_records(runner, plans)):
            assert_records_match(records, reference)

    def test_parallel_grid_matches_serial(self, runner):
        plans = [_plan(length) for length in (1, 2)]
        serial = runner.run_grid(plans)
        parallel = runner.run_grid(plans, max_workers=2)
        for ours, theirs in zip(parallel, serial):
            assert_records_match(ours, theirs)

    def test_record_lists_in_plan_order(self, runner):
        plans = [_plan(2), _plan(1)]
        grid = runner.run_grid(plans)
        assert [records[0].config.length_threshold for records in grid] == [2, 1]


TINY = dict(sample_size=30, thetas=(0.8, 0.6), seed=0)

#: Every grid-built figure at n <= 30, keyed by its CLI name.
FIGURE_BUILDERS = {
    "figure6": lambda runner: figure6_series(
        "gnutella", lookaheads=(1, 2), runner=runner, **TINY),
    "figure6-lsweep": lambda runner: figure6_lsweep_series(
        "gnutella", lengths=(1, 2), insertion_cap=100, runner=runner, **TINY),
    "figure7": lambda runner: figure7_series(
        "enron", lookaheads=(1,), runner=runner, **TINY),
    "figure8": lambda runner: figure8_series(
        "wikipedia", lookaheads=(1,), runner=runner, **TINY),
    "figure8-lsweep": lambda runner: figure8_lsweep_series(
        "epinions", lengths=(1, 2), runner=runner, **TINY),
    "figure12": lambda runner: figure12_series(
        sample_sizes=(20, 30), thetas=(0.8, 0.6), runner=runner),
}


class TestFigureBuildersOnGrid:
    @pytest.mark.parametrize("name", sorted(FIGURE_BUILDERS))
    def test_builder_matches_independent_mode(self, runner, name):
        build = FIGURE_BUILDERS[name]
        shared = build(runner)
        with independent_grids():
            independent = build(runner)
        assert shared == independent

    def test_lsweep_builder_is_one_grid_job(self, runner, monkeypatch):
        calls = []
        original = ExperimentRunner.run_grid

        def spying(self, plans, max_workers=0):
            calls.append(len(list(plans)))
            return original(self, plans, max_workers)

        monkeypatch.setattr(ExperimentRunner, "run_grid", spying)
        figure6_lsweep_series("gnutella", lengths=(1, 2), sample_size=25,
                              thetas=(0.8,), insertion_cap=100, runner=runner)
        assert calls == [4]  # 2 lengths x {rem, rem-ins}, one grid job

    def test_figure10_series_shape(self, runner):
        series = figure10_series("gnutella", sample_sizes=(25, 30),
                                 lengths=(1, 2), theta=0.6, runner=runner)
        assert set(series) == {"rem L=1", "rem L=2",
                               "rem-ins L=1", "rem-ins L=2"}
        for points in series.values():
            assert [size for size, _ in points] == [25, 30]


class TestLegacyScheduleSignature:
    def test_replaced_algorithm_without_kwarg_runs_cold(self, runner, monkeypatch):
        # A registry-replaced algorithm with the pre-grid schedule signature
        # (no initial_distances) must run cold instead of crashing.
        from repro.api.registry import register_anonymizer
        from repro.core import EdgeRemovalAnonymizer

        class LegacySchedule(EdgeRemovalAnonymizer):
            def anonymize_schedule(self, graph, thetas=None, typing=None,
                                   observer=None):
                return super().anonymize_schedule(graph, thetas, typing,
                                                  observer)

        from repro.api.registry import default_registry

        original = default_registry().get("rem")
        assert original.factory is EdgeRemovalAnonymizer
        register_anonymizer("rem", LegacySchedule, replace=True,
                            accepts=original.accepts)
        try:
            grid = runner.run_grid([_plan(1), _plan(2)])
            assert all(records for records in grid)
        finally:
            register_anonymizer("rem", original.factory, replace=True,
                                description=original.description,
                                accepts=original.accepts)


class TestMixedSweepModes:
    def test_parallel_grid_honours_per_plan_sweep_mode(self, runner):
        # Mixed plans fanned out together keep their own configs and match
        # both the serial grid and the per-θ reference.
        plans = [_plan(1), _plan(1, algorithm="rem-ins")]
        serial = runner.run_grid(plans)
        parallel = runner.run_grid(plans, max_workers=2)
        reference = independent_records(runner, plans)
        for ours, theirs, expected in zip(parallel, serial, reference):
            assert_records_match(ours, theirs)
            assert_records_match(ours, expected)
        assert [[record.config for record in records]
                for records in parallel] == [plan.configs() for plan in plans]
