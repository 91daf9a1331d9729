"""Integration tests for the figure series builders (scaled-down parameters)."""

import pytest

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
from repro.experiments.runner import ExperimentRunner
from tests.oracles import independent_grids

#: Tiny parameters so the whole module stays fast; the benchmarks run the
#: realistic sizes.
TINY = dict(sample_size=30, thetas=(0.8, 0.6), seed=0)


@pytest.fixture(scope="module")
def runner():
    return ExperimentRunner()


class TestFigure6:
    def test_l1_includes_baselines(self, runner):
        series = figure6_series("gnutella", length_threshold=1, lookaheads=(1,),
                                runner=runner, **TINY)
        assert "rem la=1" in series and "gaded-max" in series and "gades" in series
        for points in series.values():
            assert [theta for theta, _v in points] == [0.8, 0.6]
            assert all(value >= 0 for _t, value in points)

    def test_l2_excludes_baselines(self, runner):
        series = figure6_series("gnutella", length_threshold=2, lookaheads=(1,),
                                runner=runner, **TINY)
        assert set(series) == {"rem la=1", "rem-ins la=1"}

    def test_distortion_does_not_decrease_as_theta_tightens(self, runner):
        series = figure6_series("enron", length_threshold=1, lookaheads=(1,),
                                include_baselines=False, runner=runner, **TINY)
        for points in series.values():
            values = [value for _t, value in points]  # thetas descend
            assert values[0] <= values[-1] + 1e-9

    def test_lsweep_series_labels(self, runner):
        series = figure6_lsweep_series("gnutella", lengths=(1, 2), runner=runner, **TINY)
        assert set(series) == {"rem L=1", "rem L=2", "rem-ins L=1", "rem-ins L=2"}


class TestFigure7And8:
    def test_figure7_returns_both_metrics(self, runner):
        result = figure7_series("enron", lookaheads=(1,), include_baselines=False,
                                runner=runner, **TINY)
        assert set(result) == {"degree_emd", "geodesic_emd"}
        for series in result.values():
            assert set(series) == {"rem la=1", "rem-ins la=1"}

    def test_figure8_values_are_nonnegative(self, runner):
        series = figure8_series("wikipedia", lookaheads=(1,), include_baselines=False,
                                runner=runner, **TINY)
        for points in series.values():
            assert all(value >= 0 for _t, value in points)

    def test_figure8_l2(self, runner):
        series = figure8_series("epinions", length_threshold=2, lookaheads=(1,),
                                runner=runner, **TINY)
        assert set(series) == {"rem la=1", "rem-ins la=1"}

    def test_figure8_lsweep_series(self, runner):
        series = figure8_lsweep_series("epinions", lengths=(1, 2),
                                       runner=runner, **TINY)
        assert set(series) == {"rem L=1", "rem L=2", "rem-ins L=1", "rem-ins L=2"}
        for points in series.values():
            assert [theta for theta, _v in points] == [0.8, 0.6]


class TestRuntimeFigures:
    def test_figure9_has_one_block_per_size(self, runner):
        result = figure9_series("google", sample_sizes=(25, 35), thetas=(0.8,),
                                lookaheads=(1,), include_baselines=False,
                                seed=0, runner=runner)
        assert set(result) == {25, 35}
        for series in result.values():
            assert all(value >= 0 for _t, value in series["rem la=1"])

    def test_figure10_runtime_series(self, runner):
        series = figure10_series("gnutella", sample_sizes=(25, 35), lengths=(1,),
                                 theta=0.7, seed=0, runner=runner)
        assert set(series) == {"rem L=1", "rem-ins L=1"}
        for points in series.values():
            assert [size for size, _v in points] == [25, 35]

    def test_sweep_modes_produce_identical_series(self, runner):
        checkpointed = figure6_series("gnutella", length_threshold=1,
                                      lookaheads=(1,), runner=runner, **TINY)
        with independent_grids():
            independent = figure6_series("gnutella", length_threshold=1,
                                         lookaheads=(1,), runner=runner,
                                         **TINY)
        assert set(checkpointed) == set(independent)
        for label, points in checkpointed.items():
            assert points == independent[label]

    def test_figure11_and_12_share_sweep_structure(self, runner):
        runtime = figure11_series(sample_sizes=(30, 40), thetas=(0.8, 0.6),
                                  seed=0, runner=runner)
        distortion = figure12_series(sample_sizes=(30, 40), thetas=(0.8, 0.6),
                                     seed=0, runner=runner)
        assert set(runtime) == {0.8, 0.6}
        assert set(distortion) == {0.8, 0.6}
        for theta, points in distortion.items():
            assert [size for size, _v in points] == [30, 40]
            assert all(value >= 0 for _s, value in points)
