"""Tests for the multi-axis grid engine (requests, grouping, caches, parity)."""

import pytest

from repro.api import (
    AnonymizationRequest,
    ExecutionCache,
    GridRequest,
    GridResponse,
    anonymize,
    expand_grid,
    run_grid,
    sweep,
)
from repro.api.sweeps import execute_sample_group, sample_groups
from repro.errors import ConfigurationError
from tests.oracles import ScratchSession, independent_responses, oracle_sessions

BASE = AnonymizationRequest(dataset="gnutella", sample_size=30, seed=0,
                            include_utility=True)
THETAS = (0.9, 0.7, 0.5)

#: Response fields compared bit-for-bit against independent runs
#: (everything except runtime, which reflects the execution strategy).
PARITY_FIELDS = ("success", "final_opacity", "distortion", "num_steps",
                 "evaluations", "num_vertices", "removed_edges",
                 "inserted_edges", "anonymized_edges", "stop_reason", "metrics")


def assert_response_parity(response, reference):
    for field in PARITY_FIELDS:
        assert getattr(response, field) == getattr(reference, field), field


class TestExpansion:
    def test_from_axes_counts_all_axes(self):
        grid = GridRequest.from_axes(BASE, datasets=("gnutella", "google"),
                                     length_thresholds=(1, 2), thetas=THETAS)
        assert len(grid.requests) == 12

    def test_theta_varies_fastest_and_matches_sweep_order(self):
        grid = GridRequest.from_axes(BASE, algorithms=("rem", "gaded-max"),
                                     thetas=(0.5, 0.9))
        observed = [(request.algorithm, request.theta)
                    for request in grid.requests]
        assert observed == [("rem", 0.5), ("rem", 0.9),
                            ("gaded-max", 0.5), ("gaded-max", 0.9)]

    def test_dataset_axis_outermost(self):
        grid = GridRequest.from_axes(BASE, datasets=("gnutella", "google"),
                                     thetas=(0.8, 0.6))
        observed = [(request.dataset, request.theta)
                    for request in grid.requests]
        assert observed == [("gnutella", 0.8), ("gnutella", 0.6),
                            ("google", 0.8), ("google", 0.6)]

    def test_unknown_axis_rejected(self):
        with pytest.raises(ConfigurationError):
            expand_grid(BASE, {"flavour": ("sour",)})

    def test_empty_axis_rejected(self):
        with pytest.raises(ConfigurationError):
            expand_grid(BASE, {"theta": ()})

    def test_dataset_axis_requires_dataset_source(self):
        explicit = AnonymizationRequest(edges=((0, 1), (1, 2)))
        with pytest.raises(ConfigurationError):
            expand_grid(explicit, {"dataset": ("gnutella",)})

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigurationError):
            GridRequest(requests=())

    @pytest.mark.parametrize("field,value", (("sweep_mode", "independent"),
                                             ("engine", "numpy")))
    def test_retired_field_rejected(self, field, value):
        # Retired knobs (every grid runs as checkpointed passes; distance
        # engines are result-neutral): the keyword is unknown, and a
        # stored grid or request naming the field fails to load with a
        # typed error that names it.
        with pytest.raises(TypeError, match=field):
            GridRequest(requests=(BASE,), **{field: value})
        with pytest.raises(TypeError, match=field):
            BASE.with_overrides(**{field: value})
        payload = GridRequest(requests=(BASE,)).to_dict()
        payload[field] = value
        with pytest.raises(ConfigurationError,
                           match=rf"unknown grid field\(s\) \['{field}'\]"):
            GridRequest.from_dict(payload)
        nested = GridRequest(requests=(BASE,)).to_dict()
        nested["requests"][0][field] = value
        with pytest.raises(ConfigurationError,
                           match=rf"unknown request field\(s\) \['{field}'\]"):
            GridRequest.from_dict(nested)

    def test_json_round_trip(self):
        grid = GridRequest.from_axes(BASE, datasets=("gnutella", "google"),
                                     length_thresholds=(1, 2), thetas=THETAS,
                                     on_error="fail_fast")
        assert GridRequest.from_json(grid.to_json()) == grid

    def test_response_json_round_trip(self):
        grid = GridRequest.from_axes(BASE, thetas=(0.8, 0.6))
        response = run_grid(grid)
        assert GridResponse.from_json(response.to_json()) == response


class TestGrouping:
    def test_sample_groups_split_on_graph_source_only(self):
        grid = GridRequest.from_axes(BASE, datasets=("gnutella", "google"),
                                     length_thresholds=(1, 2), thetas=THETAS)
        groups = grid.sample_groups()
        assert [len(group) for group in groups] == [6, 6]
        assert {grid.requests[group[0]].dataset for group in groups} == \
               {"gnutella", "google"}

    def test_seed_splits_sample_groups(self):
        requests = [BASE.with_overrides(seed=seed, theta=theta)
                    for seed in (0, 1) for theta in (0.8, 0.6)]
        assert [len(group) for group in sample_groups(requests)] == [2, 2]

    def test_explicit_edges_group_by_edge_list(self):
        a = AnonymizationRequest(edges=((0, 1), (1, 2)), theta=0.8)
        b = AnonymizationRequest(edges=((0, 1), (1, 2)), theta=0.6)
        c = AnonymizationRequest(edges=((0, 1),), theta=0.8)
        assert sample_groups([a, b, c]) == [[0, 1], [2]]

    def test_theta_groups_nest_inside_sample_groups(self):
        grid = GridRequest.from_axes(BASE, length_thresholds=(1, 2),
                                     thetas=THETAS)
        assert len(grid.sample_groups()) == 1
        assert [len(group) for group in grid.groups()] == [3, 3]


class TestAcceptance:
    """The issue's acceptance scenario: a figure6-style {2 L × 5 θ} grid."""

    GRID = GridRequest.from_axes(
        BASE.with_overrides(sample_size=40),
        length_thresholds=(1, 2), thetas=(0.9, 0.8, 0.7, 0.6, 0.5))

    def test_one_load_and_one_distance_computation(self):
        cache = ExecutionCache()
        responses = execute_sample_group(list(self.GRID.requests), cache=cache)
        assert len(responses) == 10 and all(r.ok for r in responses)
        # One sample load and one full bounded-distance computation (at
        # L_max = 2) serve both L groups and all ten configurations.
        assert cache.sample_loads == 1
        assert cache.distance_computes == 1

    def test_grid_responses_bit_identical_to_independent_runs(self):
        responses = run_grid(self.GRID).responses
        for request, response in zip(self.GRID.requests, responses):
            assert_response_parity(response, anonymize(request))


class TestExecution:
    @pytest.mark.parametrize("algorithm",
                             ("rem", "rem-ins", "gaded-rand", "gaded-max", "gades"))
    def test_sample_group_matches_independent_requests(self, algorithm):
        requests = [BASE.with_overrides(algorithm=algorithm, theta=theta)
                    for theta in THETAS]
        responses = execute_sample_group(requests)
        for request, response in zip(requests, responses):
            assert_response_parity(response, anonymize(request))

    def test_cached_groups_match_the_scratch_oracle(self):
        # Sessions seeded from the shared distance cache against the
        # copy-evaluate-restore oracle, which recomputes every matrix.
        requests = [BASE.with_overrides(theta=theta) for theta in (0.8, 0.6)]
        requests.append(BASE.with_overrides(length_threshold=3, theta=0.8))
        cache = ExecutionCache()
        responses = execute_sample_group(requests, cache=cache)
        assert cache.distance_computes == 1
        with oracle_sessions(ScratchSession) as opened:
            references = [anonymize(request) for request in requests]
        assert sum(session.evaluations for session in opened) > 0
        for response, reference in zip(responses, references):
            assert_response_parity(response, reference)

    def test_responses_in_request_order(self):
        grid = GridRequest.from_axes(BASE, datasets=("gnutella", "google"),
                                     thetas=(0.5, 0.9))
        response = run_grid(grid)
        observed = [(entry.request.dataset, entry.request.theta)
                    for entry in response.responses]
        assert observed == [("gnutella", 0.5), ("gnutella", 0.9),
                            ("google", 0.5), ("google", 0.9)]

    def test_sample_group_failure_is_isolated(self):
        bad = AnonymizationRequest(dataset="no-such-dataset", sample_size=10,
                                   theta=0.7)
        good = [BASE.with_overrides(theta=theta) for theta in (0.8, 0.6)]
        response = run_grid(GridRequest(requests=(bad, *good)))
        assert response.responses[0].error is not None
        assert response.responses[1].ok and response.responses[2].ok

    def test_theta_group_failure_is_isolated_within_sample_group(self):
        # Same sample, one group with an unregistered algorithm: only that
        # θ-group fails, the sibling group (and its shared caches) complete.
        bad = [BASE.with_overrides(algorithm="no-such-algo", theta=theta)
               for theta in (0.8, 0.6)]
        good = [BASE.with_overrides(theta=theta) for theta in (0.8, 0.6)]
        responses = execute_sample_group(bad + good)
        assert all(response.error is not None for response in responses[:2])
        assert all(response.ok for response in responses[2:])

    def test_parallel_sample_groups_match_serial(self):
        grid = GridRequest.from_axes(BASE, datasets=("gnutella", "google"),
                                     length_thresholds=(1, 2), thetas=(0.8, 0.6))
        serial = run_grid(grid)
        parallel = run_grid(grid, max_workers=2)
        assert parallel.num_sample_groups == 2
        for ours, theirs in zip(parallel.responses, serial.responses):
            assert_response_parity(ours, theirs)

    def test_worker_cached_runs_match_cold_runs(self):
        # Acceptance for the worker cache: pooled execution (per-worker
        # process caches) is bit-identical to cold per-request loads.
        grid = GridRequest.from_axes(BASE, length_thresholds=(1, 2),
                                     thetas=(0.8, 0.6))
        pooled = run_grid(grid, max_workers=1).responses
        for request, response in zip(grid.requests, pooled):
            assert_response_parity(response, anonymize(request))

    def test_independent_mode_skips_grouping(self):
        # The grouped pass against the per-request oracle, pooled too.
        grid = GridRequest.from_axes(BASE, thetas=(0.8, 0.6))
        references = independent_responses(grid.requests)
        for max_workers in (0, 2):
            responses = run_grid(grid, max_workers=max_workers).responses
            for response, reference in zip(responses, references):
                assert_response_parity(response, reference)


class TestFacadeAxes:
    def test_sweep_accepts_dataset_and_size_axes(self):
        responses = sweep(BASE, datasets=("gnutella",), sample_sizes=(25, 30),
                          thetas=(0.8, 0.6))
        observed = [(entry.request.sample_size, entry.request.theta)
                    for entry in responses]
        assert observed == [(25, 0.8), (25, 0.6), (30, 0.8), (30, 0.6)]
        for entry in responses:
            assert entry.ok

    def test_sweep_matches_independent_mode(self):
        checkpointed = sweep(BASE, sample_sizes=(25,), length_thresholds=(1, 2),
                             thetas=THETAS)
        independent = independent_responses(GridRequest.from_axes(
            BASE, sample_sizes=(25,), length_thresholds=(1, 2),
            thetas=THETAS).requests)
        for ours, theirs in zip(checkpointed, independent):
            assert_response_parity(ours, theirs)


class TestExecutionCache:
    def test_graph_is_cached_per_source(self):
        cache = ExecutionCache()
        first = cache.graph_for(BASE)
        again = cache.graph_for(BASE.with_overrides(theta=0.3,
                                                    length_threshold=2))
        assert first is again
        assert cache.sample_loads == 1

    def test_distinct_sources_load_separately(self):
        cache = ExecutionCache()
        cache.graph_for(BASE)
        cache.graph_for(BASE.with_overrides(seed=1))
        cache.graph_for(BASE.with_overrides(sample_size=25))
        assert cache.sample_loads == 3

    def test_cached_graph_matches_cold_load(self):
        cache = ExecutionCache()
        assert cache.graph_for(BASE) == BASE.resolve_graph()

    def test_baseline_cached_per_sample(self):
        cache = ExecutionCache()
        first = cache.baseline_for(BASE)
        assert cache.baseline_for(BASE.with_overrides(theta=0.2)) is first

    def test_larger_l_max_recomputes_and_keeps_count(self):
        cache = ExecutionCache()
        cache.distances_for(BASE, l_max=1)
        assert cache.distance_computes == 1
        cache.distances_for(BASE.with_overrides(length_threshold=2), l_max=2)
        assert cache.distance_computes == 2
        # Served from the L_max=2 matrix, no third computation.
        cache.distances_for(BASE, l_max=2)
        assert cache.distance_computes == 2

    def test_release_drops_entries_but_keeps_counters(self):
        cache = ExecutionCache()
        cache.graph_for(BASE)
        cache.distances_for(BASE, l_max=2)
        cache.baseline_for(BASE)
        cache.release(BASE)
        assert cache.sample_loads == 1
        assert cache.distance_computes == 1
        # A fresh request after release loads (and computes) again.
        cache.graph_for(BASE)
        assert cache.sample_loads == 2


class TestCustomRegistry:
    def test_independent_serial_grid_honours_custom_registry(self):
        from repro.api import AnonymizerRegistry, BatchRunner
        from repro.core import EdgeRemovalAnonymizer

        registry = AnonymizerRegistry()
        registry.register("custom-rem", EdgeRemovalAnonymizer,
                          accepts=("theta", "length_threshold", "lookahead",
                                   "seed", "scan_workers", "max_steps"))
        requests = [BASE.with_overrides(algorithm="custom-rem", theta=theta,
                                        include_utility=False)
                    for theta in (0.8, 0.6)]
        grid = GridRequest(requests=tuple(requests))
        responses = BatchRunner(max_workers=0).run_grid(grid,
                                                        registry=registry)
        references = independent_responses(requests, registry=registry)
        assert all(response.ok for response in references)
        for response, reference in zip(responses, references):
            assert_response_parity(response, reference)


class TestBaselineFailureIsolation:
    def test_baseline_error_fails_only_its_group(self, monkeypatch):
        import repro.api.cache as cache_module

        def boom(graph, include_spectral=False):
            raise MemoryError("baseline too large")

        monkeypatch.setattr("repro.metrics.graph_baseline", boom)
        utility = [BASE.with_overrides(theta=theta) for theta in (0.8, 0.6)]
        plain = [BASE.with_overrides(theta=theta, include_utility=False,
                                     length_threshold=2)
                 for theta in (0.8, 0.6)]
        responses = execute_sample_group(utility + plain,
                                         cache=cache_module.ExecutionCache())
        assert all(response.error is not None for response in responses[:2])
        assert all(response.ok for response in responses[2:])

    def test_max_samples_bound_evicts_oldest(self):
        cache = ExecutionCache(max_samples=2)
        first = BASE
        second = BASE.with_overrides(seed=1)
        third = BASE.with_overrides(seed=2)
        cache.graph_for(first)
        cache.distances_for(first, l_max=1)
        cache.graph_for(second)
        cache.graph_for(third)  # evicts `first` (least recently used)
        assert cache.sample_loads == 3
        assert cache.distance_computes == 1  # counter survives eviction
        cache.graph_for(first)  # re-load after eviction
        assert cache.sample_loads == 4

    def test_eviction_is_lru_not_fifo(self):
        # Re-touching `first` after `second` was inserted must evict
        # `second` (least recently *used*), not `first` (first inserted).
        cache = ExecutionCache(max_samples=2)
        first = BASE
        second = BASE.with_overrides(seed=1)
        third = BASE.with_overrides(seed=2)
        cache.graph_for(first)
        cache.graph_for(second)
        cache.graph_for(first)  # hit — touches `first`
        cache.graph_for(third)  # evicts `second`
        assert cache.sample_loads == 3
        cache.graph_for(first)  # still cached
        assert cache.sample_loads == 3
        cache.graph_for(second)  # was evicted — reloads
        assert cache.sample_loads == 4

    def test_distance_and_baseline_hits_touch_the_lru_order(self):
        cache = ExecutionCache(max_samples=2)
        first = BASE
        second = BASE.with_overrides(seed=1)
        third = BASE.with_overrides(seed=2)
        cache.distances_for(first, l_max=1)
        cache.baseline_for(second)
        cache.distances_for(first, l_max=1)  # hit — `second` now oldest
        cache.graph_for(third)  # evicts `second`
        cache.distances_for(first, l_max=1)
        assert cache.sample_loads == 3
        assert cache.distance_computes == 1  # `first` never recomputed
        cache.baseline_for(second)  # was evicted — reloads
        assert cache.sample_loads == 4


class TestErrorPolicy:
    def test_on_error_is_validated(self):
        with pytest.raises(ConfigurationError, match="error policy"):
            GridRequest(requests=(BASE,), on_error="explode")

    def test_on_error_survives_json_round_trip(self):
        grid = GridRequest(requests=(BASE,), on_error="fail_fast")
        assert GridRequest.from_json(grid.to_json()) == grid

    def test_default_isolates(self):
        requests = [BASE.with_overrides(theta=0.8),
                    BASE.with_overrides(algorithm="no-such-algo", theta=0.8,
                                        length_threshold=2)]
        responses = execute_sample_group(requests)
        assert responses[0].ok
        assert responses[1].error is not None

    def test_fail_fast_raises_grid_aborted(self):
        from repro.errors import GridAbortedError

        requests = [BASE.with_overrides(theta=0.8),
                    BASE.with_overrides(algorithm="no-such-algo", theta=0.8,
                                        length_threshold=2)]
        with pytest.raises(GridAbortedError, match="fail_fast"):
            execute_sample_group(requests, on_error="fail_fast")

    def test_run_grid_threads_the_policy(self):
        from repro.errors import GridAbortedError

        grid = GridRequest(requests=(
            BASE.with_overrides(theta=0.8),
            BASE.with_overrides(algorithm="no-such-algo", theta=0.8,
                                length_threshold=2)), on_error="fail_fast")
        with pytest.raises(GridAbortedError):
            run_grid(grid)

    def test_independent_mode_fail_fast(self):
        # A lone failing request aborts the grid, serial and pooled.
        from repro.errors import GridAbortedError

        grid = GridRequest(requests=(
            BASE.with_overrides(algorithm="no-such-algo", theta=0.8),),
            on_error="fail_fast")
        for max_workers in (0, 2):
            with pytest.raises(GridAbortedError):
                run_grid(grid, max_workers=max_workers)


class TestSampleGroupResume:
    def _checkpoints_for(self, requests, prefix_thetas):
        from repro.api import CheckpointBuffer

        buffer = CheckpointBuffer()
        execute_sample_group(
            [request for request in requests
             if request.theta in prefix_thetas], observer=buffer)
        resume = {}
        for _indices, checkpoint in buffer.records:
            for index, request in enumerate(requests):
                if abs(request.theta - checkpoint.theta) <= 1e-12:
                    resume[index] = checkpoint
        return resume

    def test_resume_matches_uninterrupted_run(self):
        requests = [BASE.with_overrides(theta=theta) for theta in THETAS]
        full = execute_sample_group(requests)
        resume = self._checkpoints_for(requests, THETAS[:2])
        resumed = execute_sample_group(requests, resume_from=resume)
        for response, reference in zip(resumed, full):
            assert_response_parity(response, reference)

    def test_resume_falls_back_cold_for_gades(self):
        requests = [BASE.with_overrides(algorithm="gades", theta=theta)
                    for theta in THETAS]
        full = execute_sample_group(requests)
        resume = self._checkpoints_for(requests, THETAS[:2])
        resumed = execute_sample_group(requests, resume_from=resume)
        for response, reference in zip(resumed, full):
            assert_response_parity(response, reference)

    def test_fully_checkpointed_group_does_no_work(self):
        requests = [BASE.with_overrides(theta=theta) for theta in THETAS]
        full = execute_sample_group(requests)
        resume = self._checkpoints_for(requests, THETAS)
        cache = ExecutionCache()
        resumed = execute_sample_group(requests, resume_from=resume,
                                       cache=cache)
        # Every grid point materializes from its checkpoint: the shared
        # distance matrix is never computed.
        assert cache.distance_computes == 0
        for response, reference in zip(resumed, full):
            assert_response_parity(response, reference)

    def test_announces_groups_to_the_observer(self):
        from repro.api import CheckpointBuffer

        buffer = CheckpointBuffer()
        requests = [BASE.with_overrides(theta=theta) for theta in THETAS]
        execute_sample_group(requests, observer=buffer)
        assert [indices for indices, _checkpoint in buffer.records] \
            == [(0, 1, 2)] * len(THETAS)


class TestParallelScanGrid:
    """Acceptance: a parallel-scan grid stays on the shared data plane."""

    def test_parallel_grid_matches_serial_with_single_sample_load(self):
        thetas = (0.9, 0.7)
        base = BASE.with_overrides(length_threshold=2)
        serial = run_grid(GridRequest.from_axes(base, thetas=thetas),
                          max_workers=0)
        parallel_base = base.with_overrides(scan_workers=4)
        observed = run_grid(GridRequest.from_axes(parallel_base,
                                                  thetas=thetas),
                            max_workers=0)
        for response, expected in zip(observed.responses, serial.responses):
            assert_response_parity(response, expected)
        # One sample load and at most one distance compute: the scan pool
        # attaches the published arena instead of reloading either.
        assert observed.num_sample_loads == 1
        assert observed.num_distance_computes <= 1
