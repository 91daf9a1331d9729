"""Differential parity suite for the checkpointed θ-sweep engine.

The engine's contract (DESIGN.md §9): a checkpointed sweep produces per-θ
responses *bit-identical* to independent per-θ runs — same edits, opacity,
distortion, utility metrics, step and evaluation counts — for every
registered algorithm; only ``runtime_seconds`` reflects the execution
strategy.  These tests assert exactly that for figure series (one
request swept over θ and run as a fail-fast grid, against one facade
``anonymize`` per θ), plus a hypothesis sweep over random θ grids at the
core layer (against ``tests.oracles.independent_schedule``).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import AnonymizationRequest, GridRequest, available_algorithms, run_grid
from repro.baselines import GadesAnonymizer
from repro.core import EdgeRemovalAnonymizer
from repro.experiments.figures import _run
from repro.graph import erdos_renyi_graph
from tests.oracles import independent_runs, independent_schedule

#: Response fields compared bit-for-bit (everything except runtime).
PARITY_FIELDS = ("request", "success", "final_opacity", "distortion",
                 "num_steps", "evaluations", "removed_edges", "inserted_edges",
                 "anonymized_edges", "stop_reason", "metrics")

THETAS = (0.9, 0.7, 0.5)


def _request(**fields):
    base = dict(dataset="gnutella", sample_size=30, seed=0,
                include_utility=True)
    base.update(fields)
    return AnonymizationRequest(**base)


def _sweep(request, thetas):
    """One figure series: ``request`` swept over ``thetas`` as a grid."""
    return _run([("series", request)], thetas, None)[0][1]


def assert_responses_match(checkpointed, reference):
    assert len(checkpointed) == len(reference)
    for ours, theirs in zip(checkpointed, reference):
        for field in PARITY_FIELDS:
            assert getattr(ours, field) == getattr(theirs, field), \
                (field, ours.request.algorithm, ours.request.theta)


def _per_theta(request, thetas):
    return independent_runs(GridRequest.from_axes(request, thetas=thetas).requests)


class TestSweepParity:
    @pytest.mark.parametrize("algorithm", available_algorithms())
    def test_checkpointed_matches_independent_runs(self, algorithm):
        request = _request(algorithm=algorithm, insertion_candidate_cap=100)
        assert_responses_match(_sweep(request, THETAS),
                               _per_theta(request, THETAS))

    @pytest.mark.parametrize("algorithm", ("rem", "rem-ins"))
    def test_checkpointed_matches_independent_mode_at_l2(self, algorithm):
        request = _request(dataset="enron", algorithm=algorithm,
                           length_threshold=2, insertion_candidate_cap=100)
        assert_responses_match(_sweep(request, (0.8, 0.6)),
                               _per_theta(request, (0.8, 0.6)))

    def test_responses_follow_the_theta_order(self):
        responses = _sweep(_request(), (0.5, 0.9, 0.7))
        assert [response.request.theta for response in responses] == [0.5, 0.9, 0.7]

    def test_duplicate_thetas_share_one_checkpoint(self):
        responses = _sweep(_request(), (0.7, 0.7))
        assert len(responses) == 2
        assert responses[0].final_opacity == responses[1].final_opacity
        assert responses[0].evaluations == responses[1].evaluations

    def test_lookahead_series_parity(self):
        request = _request(sample_size=25, lookahead=2)
        assert_responses_match(_sweep(request, (0.8, 0.6)),
                               _per_theta(request, (0.8, 0.6)))


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


class TestGridGrouping:
    def test_interleaved_grid_groups_and_preserves_order(self):
        requests = [_request(algorithm=algorithm, theta=theta)
                    for algorithm in ("rem", "gaded-max") for theta in (0.9, 0.6)]
        # Interleave so grouping must re-scatter responses into input order.
        interleaved = (requests[0], requests[2], requests[1], requests[3])
        grouped = run_grid(GridRequest(requests=interleaved,
                                       on_error="fail_fast")).responses
        assert_responses_match(grouped, independent_runs(interleaved))

    def test_single_theta_groups_run_alone(self):
        # Single-θ groups run as plain runs; a θ pair shares one pass.
        # Both equal the per-request reference.
        requests = (_request(theta=0.8), _request(theta=0.6),
                    _request(theta=0.7, seed=1))
        grid = GridRequest(requests=requests, on_error="fail_fast")
        assert len(grid.groups()) == 2
        assert_responses_match(run_grid(grid).responses,
                               independent_runs(requests))
