"""Tests for the service-layer θ-sweep engine (grouping and execution)."""

from dataclasses import replace

import pytest

from repro.api import (
    AnonymizationRequest,
    GridRequest,
    run_grid,
    sweep,
)
from repro.api.checkpoints import materialize_response
from repro.api.progress import CheckpointBuffer
from repro.api.theta_sweep import execute_sweep_group, group_requests
from repro.core.anonymizer import COMPOSED_SCAN_CHUNK
from repro.graph.generators import erdos_renyi_graph
from tests.oracles import independent_responses

BASE = AnonymizationRequest(dataset="gnutella", sample_size=30, seed=0,
                            include_utility=True)
THETAS = (0.9, 0.7, 0.5)


class TestGrouping:
    def test_groups_by_everything_but_theta(self):
        request = GridRequest.from_axes(BASE, algorithms=("rem", "gaded-max"),
                                        thetas=THETAS)
        groups = request.groups()
        assert [len(group) for group in groups] == [3, 3]
        algorithms = {request.requests[group[0]].algorithm for group in groups}
        assert algorithms == {"rem", "gaded-max"}

    def test_request_id_does_not_split_groups(self):
        requests = [BASE.with_overrides(theta=theta, request_id=f"job-{theta}")
                    for theta in THETAS]
        assert group_requests(requests) == [[0, 1, 2]]

    def test_different_seeds_split_groups(self):
        requests = [BASE.with_overrides(theta=theta, seed=seed)
                    for seed in (0, 1) for theta in THETAS]
        assert [len(group) for group in group_requests(requests)] == [3, 3]


class TestExecution:
    @pytest.mark.parametrize("algorithm",
                             ("rem", "rem-ins", "gaded-rand", "gaded-max", "gades"))
    def test_group_responses_match_independent_requests(self, algorithm):
        requests = [BASE.with_overrides(algorithm=algorithm, theta=theta)
                    for theta in THETAS]
        grouped = execute_sweep_group(requests)
        for response, reference in zip(grouped, independent_responses(requests)):
            assert response.success == reference.success
            assert response.final_opacity == reference.final_opacity
            assert response.distortion == reference.distortion
            assert response.num_steps == reference.num_steps
            assert response.evaluations == reference.evaluations
            assert response.anonymized_edges == reference.anonymized_edges
            assert response.metrics == reference.metrics
            assert response.stop_reason == reference.stop_reason

    def test_sweep_modes_agree(self):
        # The facade's single checkpointed pass against one run per θ.
        checkpointed = sweep(BASE, thetas=THETAS)
        independent = independent_responses(
            GridRequest.from_axes(BASE, thetas=THETAS).requests)
        for ours, theirs in zip(checkpointed, independent):
            assert ours.final_opacity == theirs.final_opacity
            assert ours.anonymized_edges == theirs.anonymized_edges
            assert ours.evaluations == theirs.evaluations

    def test_responses_in_request_order(self):
        request = GridRequest.from_axes(BASE, algorithms=("rem", "gaded-max"),
                                        thetas=(0.5, 0.9))
        response = run_grid(request)
        observed = [(entry.request.algorithm, entry.request.theta)
                    for entry in response.responses]
        assert observed == [("rem", 0.5), ("rem", 0.9),
                            ("gaded-max", 0.5), ("gaded-max", 0.9)]

    def test_group_failure_is_isolated(self):
        # An unregistered algorithm fails its θ-group; the sibling group
        # on the same sample must still complete.
        bad = BASE.with_overrides(algorithm="no-such-algo", theta=0.7)
        good = [BASE.with_overrides(theta=theta) for theta in (0.8, 0.6)]
        response = run_grid(GridRequest(requests=(bad, *good)))
        assert response.responses[0].error is not None
        assert response.responses[1].ok and response.responses[2].ok

    @pytest.mark.parametrize("shared_memory", (True, False))
    def test_parallel_groups_match_serial(self, shared_memory):
        # One sample, two θ-groups: the shm plane fans them over one
        # published arena, the off plane over per-worker caches.
        request = GridRequest.from_axes(BASE, algorithms=("rem", "gaded-max"),
                                        thetas=(0.8, 0.6))
        serial = run_grid(request)
        parallel = run_grid(request, max_workers=2,
                            shared_memory=shared_memory)
        assert parallel.num_groups == 2
        for ours, theirs in zip(parallel.responses, serial.responses):
            assert ours.final_opacity == theirs.final_opacity
            assert ours.anonymized_edges == theirs.anonymized_edges
            assert ours.evaluations == theirs.evaluations

    def test_timeout_bounds_the_shared_pass(self):
        # A zero-ish timeout stops the pass immediately; every grid point
        # still receives a response with the observer stop reason.
        requests = [BASE.with_overrides(theta=theta, timeout_seconds=1e-9,
                                        dataset="google", sample_size=40,
                                        length_threshold=2)
                    for theta in (0.3, 0.2)]
        responses = execute_sweep_group(requests)
        assert all(response.ok for response in responses)
        assert any(response.stop_reason == "observer" for response in responses)


def _without_runtime(responses):
    return [replace(response, runtime_seconds=0.0) for response in responses]


class _FirstEvaluation(CheckpointBuffer):
    """A checkpoint buffer that also records the first evaluation count seen."""

    def __init__(self):
        super().__init__()
        self.first = None

    def on_evaluation(self, evaluations):
        if self.first is None:
            self.first = evaluations


class TestBaselineGroups:
    """GADES groups resume; GADED groups run one checkpointed pass per θ."""

    EDGES = tuple(erdos_renyi_graph(25, 0.2, seed=0).edges())

    def _requests(self, algorithm, thetas, **knobs):
        return [AnonymizationRequest(algorithm=algorithm, edges=self.EDGES,
                                     seed=0, theta=theta, **knobs)
                for theta in thetas]

    def test_gades_group_resumes_from_a_checkpoint(self):
        requests = self._requests("gades", (0.7, 0.65, 0.55, 0.4),
                                  swap_sample_size=200)
        head = _FirstEvaluation()
        execute_sweep_group(requests[:2], observer=head)
        checkpoint = head.records[-1][1]
        assert checkpoint.stop_reason is None and checkpoint.num_steps > 0
        tail = _FirstEvaluation()
        resumed = execute_sweep_group(requests[2:], resume_from=checkpoint,
                                      observer=tail)
        # The pass continued from the checkpoint's evaluation count: it
        # did not start cold.  Its first report closes the first scored
        # chunk (at most COMPOSED_SCAN_CHUNK swaps at L = 1).
        assert checkpoint.evaluations < tail.first \
            <= checkpoint.evaluations + COMPOSED_SCAN_CHUNK
        assert _without_runtime(resumed) \
            == _without_runtime(execute_sweep_group(requests)[2:])

    @pytest.mark.parametrize("algorithm", ("gaded-rand", "gaded-max"))
    def test_gaded_group_streams_one_checkpoint_per_theta(self, algorithm):
        requests = self._requests(algorithm, (0.3, 0.6, 0.45))
        buffer = CheckpointBuffer()
        responses = execute_sweep_group(requests, observer=buffer)
        checkpoints = [checkpoint for _, checkpoint in buffer.records]
        assert [checkpoint.theta for checkpoint in checkpoints] \
            == [0.6, 0.45, 0.3]
        by_theta = {request.theta: (request, response)
                    for request, response in zip(requests, responses)}
        for checkpoint in checkpoints:
            request, response = by_theta[checkpoint.theta]
            assert _without_runtime([materialize_response(request,
                                                          checkpoint)]) \
                == _without_runtime([response])

    @pytest.mark.parametrize("algorithm", ("gaded-rand", "gaded-max"))
    def test_gaded_group_given_a_checkpoint_runs_cold(self, algorithm):
        requests = self._requests(algorithm, (0.6, 0.45, 0.3))
        head = CheckpointBuffer()
        execute_sweep_group(requests[:1], observer=head)
        checkpoint = head.records[-1][1]
        assert checkpoint.stop_reason is None and checkpoint.num_steps > 0
        tail = _FirstEvaluation()
        given = execute_sweep_group(requests[1:], resume_from=checkpoint,
                                    observer=tail)
        # θ shapes GADED's candidate pool, so no checkpoint seeds another
        # θ: the pass starts from the original graph's evaluation.
        assert tail.first == 1
        assert _without_runtime(given) \
            == _without_runtime(execute_sweep_group(requests[1:]))
