"""Integration tests for the figure series builders (scaled-down parameters)."""

import pytest

from repro.api import register_anonymizer
from repro.api.registry import default_registry
from repro.core import EdgeRemovalAnonymizer
from repro.errors import GridAbortedError
from repro.experiments import figures
from repro.experiments.figures import (
    figure6_lsweep_series,
    figure6_series,
    figure7_series,
    figure8_lsweep_series,
    figure8_series,
    figure9_series,
    figure10_series,
    figure11_series,
    figure12_series,
)
from tests.oracles import independent_grids

#: Tiny parameters so the whole module stays fast; the benchmarks run the
#: realistic sizes.
TINY = dict(sample_size=30, thetas=(0.8, 0.6), seed=0)


@pytest.fixture
def grids(monkeypatch):
    """Record every grid a builder submits (it still runs)."""
    submitted = []
    original = figures.run_grid

    def spying(grid, **kwargs):
        submitted.append((grid, kwargs))
        return original(grid, **kwargs)

    monkeypatch.setattr(figures, "run_grid", spying)
    return submitted


class TestFigure6:
    def test_l1_includes_baselines(self):
        series = figure6_series("gnutella", length_threshold=1, lookaheads=(1,),
                                **TINY)
        assert "rem la=1" in series and "gaded-max" in series and "gades" in series
        for points in series.values():
            assert [theta for theta, _v in points] == [0.8, 0.6]
            assert all(value >= 0 for _t, value in points)

    def test_l2_excludes_baselines(self):
        series = figure6_series("gnutella", length_threshold=2, lookaheads=(1,),
                                **TINY)
        assert set(series) == {"rem la=1", "rem-ins la=1"}

    def test_distortion_does_not_decrease_as_theta_tightens(self):
        series = figure6_series("enron", length_threshold=1, lookaheads=(1,),
                                include_baselines=False, **TINY)
        for points in series.values():
            values = [value for _t, value in points]  # thetas descend
            assert values[0] <= values[-1] + 1e-9

    def test_lsweep_series_labels(self):
        series = figure6_lsweep_series("gnutella", lengths=(1, 2), **TINY)
        assert set(series) == {"rem L=1", "rem L=2", "rem-ins L=1", "rem-ins L=2"}


class TestFigure7And8:
    def test_figure7_returns_both_metrics(self):
        result = figure7_series("enron", lookaheads=(1,), include_baselines=False,
                                **TINY)
        assert set(result) == {"degree_emd", "geodesic_emd"}
        for series in result.values():
            assert set(series) == {"rem la=1", "rem-ins la=1"}

    def test_figure8_values_are_nonnegative(self):
        series = figure8_series("wikipedia", lookaheads=(1,), include_baselines=False,
                                **TINY)
        for points in series.values():
            assert all(value >= 0 for _t, value in points)

    def test_figure8_l2(self):
        series = figure8_series("epinions", length_threshold=2, lookaheads=(1,),
                                **TINY)
        assert set(series) == {"rem la=1", "rem-ins la=1"}

    def test_figure8_lsweep_series(self):
        series = figure8_lsweep_series("epinions", lengths=(1, 2), **TINY)
        assert set(series) == {"rem L=1", "rem L=2", "rem-ins L=1", "rem-ins L=2"}
        for points in series.values():
            assert [theta for theta, _v in points] == [0.8, 0.6]


class TestRuntimeFigures:
    def test_figure9_has_one_block_per_size(self):
        result = figure9_series("google", sample_sizes=(25, 35), thetas=(0.8,),
                                lookaheads=(1,), include_baselines=False, seed=0)
        assert set(result) == {25, 35}
        for series in result.values():
            assert all(value >= 0 for _t, value in series["rem la=1"])

    def test_figure10_runtime_series(self):
        series = figure10_series("gnutella", sample_sizes=(25, 35), lengths=(1,),
                                 theta=0.7, seed=0)
        assert set(series) == {"rem L=1", "rem-ins L=1"}
        for points in series.values():
            assert [size for size, _v in points] == [25, 35]

    def test_sweep_modes_produce_identical_series(self):
        checkpointed = figure6_series("gnutella", length_threshold=1,
                                      lookaheads=(1,), **TINY)
        with independent_grids():
            independent = figure6_series("gnutella", length_threshold=1,
                                         lookaheads=(1,), **TINY)
        assert set(checkpointed) == set(independent)
        for label, points in checkpointed.items():
            assert points == independent[label]

    def test_figure11_and_12_share_sweep_structure(self):
        runtime = figure11_series(sample_sizes=(30, 40), thetas=(0.8, 0.6), seed=0)
        distortion = figure12_series(sample_sizes=(30, 40), thetas=(0.8, 0.6), seed=0)
        assert set(runtime) == {0.8, 0.6}
        assert set(distortion) == {0.8, 0.6}
        for theta, points in distortion.items():
            assert [size for size, _v in points] == [30, 40]
            assert all(value >= 0 for _s, value in points)


#: Every grid-built figure at n <= 30, keyed by its CLI name.
FIGURE_BUILDERS = {
    "figure6": lambda: figure6_series("gnutella", lookaheads=(1, 2), **TINY),
    "figure6-lsweep": lambda: figure6_lsweep_series(
        "gnutella", lengths=(1, 2), insertion_cap=100, **TINY),
    "figure7": lambda: figure7_series("enron", lookaheads=(1,), **TINY),
    "figure8": lambda: figure8_series("wikipedia", lookaheads=(1,), **TINY),
    "figure8-lsweep": lambda: figure8_lsweep_series(
        "epinions", lengths=(1, 2), **TINY),
    "figure12": lambda: figure12_series(sample_sizes=(20, 30),
                                        thetas=(0.8, 0.6)),
}


class TestFigureBuildersOnGrid:
    @pytest.mark.parametrize("name", sorted(FIGURE_BUILDERS))
    def test_builder_matches_independent_mode(self, name):
        build = FIGURE_BUILDERS[name]
        shared = build()
        with independent_grids():
            independent = build()
        assert shared == independent

    def test_lsweep_builder_is_one_grid_job(self, grids):
        figure6_lsweep_series("gnutella", lengths=(1, 2), sample_size=25,
                              thetas=(0.8,), insertion_cap=100)
        assert len(grids) == 1  # one grid job for the whole L × θ grid
        grid, kwargs = grids[0]
        assert len(grid.requests) == 4  # 2 lengths x {rem, rem-ins}
        assert grid.on_error == "fail_fast"
        assert kwargs["max_workers"] == 0
        assert all(request.include_utility for request in grid.requests)

    def test_series_expand_over_theta_fastest(self, grids):
        figure6_series("gnutella", lookaheads=(1,), include_baselines=False,
                       **TINY)
        (grid, _kwargs), = grids
        assert [(request.algorithm, request.theta) for request in grid.requests] \
            == [("rem", 0.8), ("rem", 0.6), ("rem-ins", 0.8), ("rem-ins", 0.6)]

    def test_figure10_series_shape(self):
        series = figure10_series("gnutella", sample_sizes=(25, 30),
                                 lengths=(1, 2), theta=0.6)
        assert set(series) == {"rem L=1", "rem L=2",
                               "rem-ins L=1", "rem-ins L=2"}
        for points in series.values():
            assert [size for size, _ in points] == [25, 30]

    @pytest.mark.parametrize("dataset,lookaheads,message", [
        ("gnutella", (1, 0), r"\[rem L=1 theta=0.8\].*lookahead must be >= 1"),
        ("no-such-dataset", (1,), "sample load failed"),
    ])
    def test_first_failure_aborts_the_figure(self, dataset, lookaheads, message):
        # A figure runs one fail-fast grid: the first failing request or
        # sample aborts it with a GridAbortedError naming the failure.
        with pytest.raises(GridAbortedError, match=message):
            figure6_series(dataset, lookaheads=lookaheads,
                           include_baselines=False, **TINY)


class LegacySchedule(EdgeRemovalAnonymizer):
    """A replacement with the pre-grid schedule signature (no initial_distances)."""

    def anonymize_schedule(self, graph, thetas=None, typing=None, observer=None):
        return super().anonymize_schedule(graph, thetas, typing, observer)


@pytest.fixture
def registered():
    """Register algorithms for one test, restoring the registry after it."""
    registry = default_registry()
    saved = {name: registry.get(name) for name in registry.names()}
    yield register_anonymizer
    for name in registry.names():
        if name not in saved:
            registry.unregister(name)
    for name, spec in saved.items():
        register_anonymizer(name, spec.factory, replace=True,
                            description=spec.description, accepts=spec.accepts)


class TestRegisteredAlgorithms:
    def test_replaced_algorithm_without_kwarg_runs_cold(self, registered):
        # A registry-replaced algorithm with the pre-grid schedule signature
        # (no initial_distances) must run cold instead of crashing.
        original = default_registry().get("rem")
        assert original.factory is EdgeRemovalAnonymizer
        registered("rem", LegacySchedule, replace=True, accepts=original.accepts)
        series = figure6_lsweep_series("gnutella", lengths=(1, 2), **TINY)
        assert all(points for points in series.values())

    def test_figure_grid_runs_a_registered_algorithm(self, registered):
        # Any algorithm the registry knows can be a figure series.
        registered("legacy-rem", LegacySchedule,
                   accepts=default_registry().get("rem").accepts)
        base = figures._base("gnutella", 30, 0, None, None)
        (label, responses), = figures._run(
            [("legacy-rem", base.with_overrides(algorithm="legacy-rem"))],
            (0.8, 0.6), None)
        reference = figures._run([("rem", base)], (0.8, 0.6), None)[0][1]
        assert label == "legacy-rem"
        assert [response.request.algorithm for response in responses] \
            == ["legacy-rem"] * 2
        for ours, theirs in zip(responses, reference):
            assert ours.anonymized_edges == theirs.anonymized_edges
            assert ours.metrics == theirs.metrics
