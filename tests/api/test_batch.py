"""Tests for the batch runner: ordering, failure isolation, process fan-out."""

import pytest

from repro.api.batch import BatchRunner, execute_request
from repro.api.requests import AnonymizationRequest
from repro.graph.generators import erdos_renyi_graph


def _request(index, **overrides):
    graph = erdos_renyi_graph(20, 0.25, seed=index)
    params = dict(algorithm="rem", edges=tuple(graph.edges()),
                  num_vertices=graph.num_vertices, theta=0.6, seed=0,
                  request_id=f"job-{index}")
    params.update(overrides)
    return AnonymizationRequest(**params)


class TestExecuteRequest:
    def test_converts_exceptions_into_error_responses(self):
        response = execute_request(_request(0, algorithm="missing"))
        assert not response.ok
        assert "unknown algorithm" in response.error
        assert response.request.request_id == "job-0"

    def test_successful_execution(self):
        response = execute_request(_request(1))
        assert response.ok
        assert response.evaluations >= 1


class TestBatchRunnerSerial:
    def test_empty_batch(self):
        assert BatchRunner(max_workers=0).run([]) == []

    def test_ordering_preserved(self):
        requests = [_request(i) for i in range(5)]
        responses = BatchRunner(max_workers=0).run(requests)
        assert [r.request.request_id for r in responses] == [
            f"job-{i}" for i in range(5)]

    def test_failure_isolation(self):
        requests = [_request(0), _request(1, algorithm="broken"), _request(2)]
        responses = BatchRunner(max_workers=0).run(requests)
        assert responses[0].ok
        assert not responses[1].ok and "unknown algorithm" in responses[1].error
        assert responses[2].ok

    def test_negative_max_workers_rejected(self):
        with pytest.raises(ValueError):
            BatchRunner(max_workers=-1)


class TestBatchRunnerProcessPool:
    def test_batch_of_four_requests_across_processes(self):
        # Acceptance scenario: >= 4 requests through the process pool, mixing
        # algorithms, with ordering and per-request results intact.
        requests = [
            _request(0, algorithm="rem"),
            _request(1, algorithm="rem-ins", insertion_candidate_cap=50),
            _request(2, algorithm="gaded-max"),
            _request(3, algorithm="gaded-rand"),
        ]
        responses = BatchRunner(max_workers=2).run(requests)
        assert len(responses) == 4
        assert [r.request.request_id for r in responses] == [
            "job-0", "job-1", "job-2", "job-3"]
        for response in responses:
            assert response.ok, response.error
            assert response.evaluations >= 1
            assert response.anonymized_graph().num_vertices == 20

    def test_failure_isolation_across_processes(self):
        requests = [_request(0), _request(1, algorithm="missing"), _request(2)]
        responses = BatchRunner(max_workers=2).run(requests)
        assert [r.ok for r in responses] == [True, False, True]

    def test_single_request_short_circuits_the_pool(self):
        responses = BatchRunner(max_workers=4).run([_request(0)])
        assert len(responses) == 1 and responses[0].ok


def _theta_group_task(requests, l_max_floor=1):
    """A worker task running one θ-group, the off plane's single-sample unit
    (``l_max_floor`` stands in for the grid-wide L_max of its sample)."""
    from repro.api.batch import GridTask
    from repro.api.sweeps import plan_sample_group

    (plan,), l_max = plan_sample_group(requests)
    return GridTask(payloads={index: request.to_dict()
                              for index, request in enumerate(requests)},
                    plans=(plan,), l_max=max(l_max, l_max_floor))


class TestWorkerGroupPayloadCache:
    def test_group_payload_serves_all_artifacts_from_worker_cache(self, monkeypatch):
        import repro.api.batch as batch_module
        from repro.api import AnonymizationRequest, AnonymizationResponse, anonymize
        from repro.api.cache import ExecutionCache

        cache = ExecutionCache()
        monkeypatch.setattr(batch_module, "_WORKER_CACHE", cache)
        # L = 2: an L = 1 group reads no distance matrix at all.
        base = AnonymizationRequest(dataset="gnutella", sample_size=30, seed=0,
                                    length_threshold=2, include_utility=True)
        for algorithm in ("rem", "rem-ins"):
            requests = [base.with_overrides(algorithm=algorithm, theta=theta)
                        for theta in (0.8, 0.6)]
            result = batch_module._execute_task(
                _theta_group_task(requests), None, "isolate")
            for index, request in enumerate(requests):
                response = AnonymizationResponse.from_dict(
                    result["responses"][index])
                reference = anonymize(request)
                assert response.anonymized_edges == reference.anonymized_edges
                assert response.evaluations == reference.evaluations
                assert response.metrics == reference.metrics
        # Both groups shared one load, one baseline, one distance matrix.
        assert cache.sample_loads == 1
        assert cache.distance_computes == 1

    def test_l_max_hint_shares_one_computation_across_l_groups(self, monkeypatch):
        import repro.api.batch as batch_module
        from repro.api import AnonymizationRequest
        from repro.api.cache import ExecutionCache

        cache = ExecutionCache()
        monkeypatch.setattr(batch_module, "_WORKER_CACHE", cache)
        base = AnonymizationRequest(dataset="gnutella", sample_size=30, seed=0)
        for length in (1, 2):
            requests = [base.with_overrides(length_threshold=length,
                                            theta=theta)
                        for theta in (0.8, 0.6)]
            batch_module._execute_task(
                _theta_group_task(requests, 2), None, "isolate")
        assert cache.sample_loads == 1
        assert cache.distance_computes == 1


class TestGridDispatchOrder:
    """Pooled grids start each sample's costliest θ-group first."""

    @pytest.mark.parametrize("shared_memory", [None, False])
    def test_costliest_theta_group_is_submitted_first(self, monkeypatch,
                                                      shared_memory):
        from repro.api.sweeps import GridRequest, run_grid

        submitted = []
        make_pool = BatchRunner._pool

        def recording_pool(self, workers):
            pool = make_pool(self, workers)
            submit = pool.submit

            def record(fn, task, *args, **kwargs):
                submitted.append([grid.requests[index]
                                  for index in sorted(task.payloads)])
                return submit(fn, task, *args, **kwargs)

            pool.submit = record
            return pool

        monkeypatch.setattr(BatchRunner, "_pool", recording_pool)
        base = AnonymizationRequest(dataset="enron", sample_size=30, seed=0)
        grid = GridRequest.from_axes(base, algorithms=("rem", "rem-ins"),
                                     length_thresholds=(1, 2),
                                     thetas=(0.7, 0.5))
        pooled = run_grid(grid, max_workers=2, shared_memory=shared_memory)
        # Grid order is rem L1, rem L2, rem-ins L1, rem-ins L2; the
        # dispatch order is L descending, insertion phase first, ties in
        # grid order.
        assert [(group[0].algorithm, group[0].length_threshold)
                for group in submitted] == [("rem-ins", 2), ("rem", 2),
                                            ("rem-ins", 1), ("rem", 1)]
        serial = run_grid(grid, max_workers=0)
        assert pooled.ok
        for ours, theirs in zip(pooled.responses, serial.responses):
            assert ours.request == theirs.request
            assert ours.anonymized_edges == theirs.anonymized_edges
            assert (ours.num_steps, ours.evaluations, ours.final_opacity) == (
                theirs.num_steps, theirs.evaluations, theirs.final_opacity)
