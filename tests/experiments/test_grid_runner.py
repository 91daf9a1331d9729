"""Tests for the figure builders' grid execution (shared L_max distances).

A figure is a list of labelled series, each one request swept over θ and
all run as one fail-fast grid (``repro.experiments.figures._run``).
"""

import pytest

import repro.graph.distance_cache as distance_cache_module
from repro.api import AnonymizationRequest, GridRequest, run_grid
from repro.experiments.figures import _run
from tests.oracles import independent_runs

#: Response fields compared bit-for-bit (everything except runtime).
PARITY_FIELDS = ("request", "success", "final_opacity", "distortion",
                 "num_steps", "evaluations", "anonymized_edges",
                 "stop_reason", "metrics")

THETAS = (0.9, 0.7, 0.5)


def _series(length, algorithm="rem", dataset="gnutella", size=30):
    return (f"{algorithm} L={length} n={size}",
            AnonymizationRequest(dataset=dataset, sample_size=size,
                                 algorithm=algorithm, length_threshold=length,
                                 seed=0, insertion_candidate_cap=100,
                                 include_utility=True))


def assert_responses_match(ours, reference):
    assert len(ours) == len(reference)
    for left, right in zip(ours, reference):
        for field in PARITY_FIELDS:
            assert getattr(left, field) == getattr(right, field), field


def _requests(series):
    """The grid a figure submits for ``series``: each swept over θ."""
    return tuple(request for _, base in series
                 for request in GridRequest.from_axes(base, thetas=THETAS).requests)


@pytest.fixture
def computes(monkeypatch):
    """The L bound of every full bounded-distance computation."""
    bounds = []
    original = distance_cache_module.bounded_distance_matrix

    def counting(graph, length_bound, engine="numpy"):
        bounds.append(length_bound)
        return original(graph, length_bound, engine=engine)

    monkeypatch.setattr(distance_cache_module, "bounded_distance_matrix",
                        counting)
    return bounds


class TestFigureGrid:
    def test_grid_matches_per_series_sweeps(self):
        series = [_series(length, algorithm)
                  for length in (1, 2) for algorithm in ("rem", "rem-ins")]
        for (label, responses), one in zip(_run(series, THETAS, None), series):
            (alone_label, alone), = _run([one], THETAS, None)
            assert label == alone_label
            assert_responses_match(responses, alone)

    def test_l_sweep_group_computes_distances_once(self, computes):
        _run([_series(length) for length in (1, 2, 3)], THETAS, None)
        # One engine run at L_max = 3 seeds all three series' passes.
        assert computes == [3]

    def test_multiple_samples_compute_once_each(self, computes):
        _run([_series(length, size=size) for size in (25, 30)
              for length in (1, 2)], THETAS, None)
        assert sorted(computes) == [2, 2]

    def test_grid_matches_independent_runs(self):
        # Series seeded from the shared L_max matrix against cold runs.
        series = [_series(length) for length in (1, 2)]
        responses = [response for _, run in _run(series, THETAS, None)
                     for response in run]
        assert_responses_match(responses, independent_runs(_requests(series)))

    def test_pooled_grid_matches_the_figure_grid(self):
        series = [_series(1), _series(1, algorithm="rem-ins")]
        figure = [response for _, run in _run(series, THETAS, None)
                  for response in run]
        grid = GridRequest(requests=_requests(series), on_error="fail_fast")
        pooled = run_grid(grid, max_workers=2).responses
        assert_responses_match(pooled, figure)
        assert_responses_match(pooled, independent_runs(grid.requests))

    def test_responses_in_series_order(self):
        result = _run([_series(2), _series(1)], THETAS, None)
        assert [label for label, _ in result] == ["rem L=2 n=30", "rem L=1 n=30"]
        assert [[response.request.length_threshold for response in responses]
                for _, responses in result] == [[2] * 3, [1] * 3]
