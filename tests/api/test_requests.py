"""Tests for the request/response records and their JSON round-trips."""

import gc
import json
from dataclasses import replace

import pytest

from repro.api.requests import AnonymizationRequest, AnonymizationResponse
from repro.core import EdgeRemovalAnonymizer
from repro.errors import ConfigurationError
from repro.graph.generators import erdos_renyi_graph
from tests.oracles import response_dict_by_asdict

EDGES = ((0, 1), (1, 2), (2, 3), (0, 3), (1, 3))


class TestAnonymizationRequest:
    def test_dataset_request_json_round_trip(self):
        request = AnonymizationRequest(
            algorithm="rem-ins", dataset="gnutella", sample_size=60, theta=0.4,
            length_threshold=2, lookahead=2, seed=7, max_steps=10,
            insertion_candidate_cap=50, timeout_seconds=3.5,
            include_utility=True, request_id="job-1")
        assert AnonymizationRequest.from_json(request.to_json()) == request

    def test_edges_request_json_round_trip(self):
        request = AnonymizationRequest(algorithm="rem", edges=EDGES, num_vertices=6)
        restored = AnonymizationRequest.from_json(request.to_json())
        assert restored == request
        assert restored.edges == request.edges

    @pytest.mark.parametrize("field,value", (
        ("evaluation_mode", "lazy"),
        ("sweep_mode", "independent"),
        ("engine", "numpy"),
        ("scan_mode", "parallel"),
    ))
    def test_retired_field_raises_at_construction_time(self, field, value):
        # Retired knobs: sessions always evaluate incrementally
        # (evaluation_mode), every θ grid runs as one checkpointed pass
        # (sweep_mode), the five distance engines are bit-identical
        # (engine) and scan_workers alone decides whether a scan is
        # sharded (scan_mode).  No anonymizer, config or request takes
        # them, and a stored request naming one fails to load with a typed
        # error.
        from repro.baselines import GadedMaxAnonymizer, GadesAnonymizer
        from repro.core import AnonymizerConfig

        for factory in (EdgeRemovalAnonymizer, GadesAnonymizer,
                        GadedMaxAnonymizer, AnonymizerConfig,
                        AnonymizationRequest):
            with pytest.raises(TypeError, match=field):
                factory(**{field: value})
        request = AnonymizationRequest(algorithm="rem", edges=EDGES)
        assert field not in request.algorithm_params()
        payload = request.to_dict()
        assert field not in payload
        payload[field] = value
        with pytest.raises(ConfigurationError,
                           match=rf"unknown request field\(s\) \['{field}'\]"):
            AnonymizationRequest.from_dict(payload)

    def test_scan_workers_round_trips_and_reaches_algorithms(self):
        request = AnonymizationRequest(algorithm="rem", edges=EDGES,
                                       scan_workers=3)
        restored = AnonymizationRequest.from_json(request.to_json())
        assert restored.scan_workers == 3
        assert request.algorithm_params()["scan_workers"] == 3
        # Defaults to a serial scan (None).
        assert AnonymizationRequest(algorithm="rem", edges=EDGES).scan_workers \
            is None
        # The L = 1-only baselines never start a pool: the registry drops
        # the knob for them.
        from repro.api.registry import create_anonymizer
        for name in ("gades", "gaded-rand", "gaded-max"):
            create_anonymizer(name, **request.algorithm_params())

    def test_negative_scan_workers_raises_at_construction_time(self):
        with pytest.raises(ConfigurationError, match="scan_workers"):
            AnonymizationRequest(algorithm="rem", edges=EDGES, scan_workers=-1)

    @pytest.mark.parametrize("algorithm", (
        "rem", "rem-ins", "gades", "gaded-rand", "gaded-max"))
    def test_one_max_steps_rule_for_every_algorithm(self, algorithm):
        # max_steps >= 0: 0 runs no step, and a negative cap is refused
        # when the request is built, whichever algorithm it names.
        from repro.api.facade import anonymize

        request = AnonymizationRequest(dataset="enron", sample_size=40,
                                       algorithm=algorithm, theta=0.1,
                                       max_steps=0)
        response = anonymize(request)
        assert response.num_steps == 0
        assert response.stop_reason == "max_steps"
        with pytest.raises(ConfigurationError, match="max_steps"):
            replace(request, max_steps=-1)

    def test_swap_sample_size_round_trips_to_gades(self):
        from repro.api.registry import create_anonymizer

        request = AnonymizationRequest(algorithm="gades", edges=EDGES,
                                       theta=0.9, swap_sample_size=17,
                                       max_steps=2)
        restored = AnonymizationRequest.from_json(request.to_json())
        assert restored.swap_sample_size == 17
        assert request.algorithm_params()["swap_sample_size"] == 17
        # The recorded config is complete: re-running from it reproduces the
        # request's tuning knobs (the GADES config-dropping bugfix).
        result = create_anonymizer(
            "gades", **request.algorithm_params()).anonymize(
            request.resolve_graph())
        assert result.config.swap_sample_size == 17
        assert result.config.max_steps == 2

    def test_edges_are_normalized_and_sorted(self):
        request = AnonymizationRequest(algorithm="rem", edges=((3, 2), (1, 0)))
        assert request.edges == ((0, 1), (2, 3))

    def test_requires_exactly_one_graph_source(self):
        with pytest.raises(ConfigurationError, match="exactly one graph source"):
            AnonymizationRequest(algorithm="rem")
        with pytest.raises(ConfigurationError, match="exactly one graph source"):
            AnonymizationRequest(algorithm="rem", dataset="gnutella",
                                 sample_size=10, edges=EDGES)

    def test_dataset_requires_sample_size(self):
        with pytest.raises(ConfigurationError, match="sample_size"):
            AnonymizationRequest(algorithm="rem", dataset="gnutella")

    def test_invalid_theta_rejected(self):
        with pytest.raises(ConfigurationError, match="theta"):
            AnonymizationRequest(dataset="gnutella", sample_size=10, theta=1.5)

    def test_unknown_field_rejected_on_deserialization(self):
        with pytest.raises(ConfigurationError, match="unknown request field"):
            AnonymizationRequest.from_dict(
                {"algorithm": "rem", "dataset": "gnutella", "sample_size": 10,
                 "thetta": 0.5})

    def test_resolve_graph_from_edges(self):
        request = AnonymizationRequest(edges=EDGES, num_vertices=6)
        graph = request.resolve_graph()
        assert graph.num_vertices == 6
        assert set(graph.edges()) == set(EDGES)

    def test_resolve_graph_infers_num_vertices(self):
        graph = AnonymizationRequest(edges=EDGES).resolve_graph()
        assert graph.num_vertices == 4

    def test_num_vertices_below_max_endpoint_rejected(self):
        with pytest.raises(ConfigurationError, match="num_vertices"):
            AnonymizationRequest(edges=EDGES, num_vertices=2).resolve_graph()

    def test_resolve_graph_from_dataset(self):
        request = AnonymizationRequest(dataset="gnutella", sample_size=30, seed=0)
        graph = request.resolve_graph()
        assert graph.num_vertices == 30

    def test_with_overrides(self):
        base = AnonymizationRequest(dataset="gnutella", sample_size=30)
        other = base.with_overrides(theta=0.3, algorithm="gades")
        assert other.theta == 0.3
        assert other.algorithm == "gades"
        assert base.theta == 0.5  # original untouched (frozen)


class TestAnonymizationResponse:
    def _run(self):
        graph = erdos_renyi_graph(20, 0.25, seed=3)
        request = AnonymizationRequest(
            algorithm="rem", edges=tuple(graph.edges()),
            num_vertices=graph.num_vertices, theta=0.5)
        result = EdgeRemovalAnonymizer(theta=0.5, seed=0).anonymize(graph)
        return request, result

    def test_from_result_and_json_round_trip(self):
        request, result = self._run()
        response = AnonymizationResponse.from_result(
            request, result, metrics={"degree_emd": 0.125})
        restored = AnonymizationResponse.from_json(response.to_json())
        assert restored == response
        assert restored.metrics == {"degree_emd": 0.125}
        assert restored.success == result.success
        assert restored.distortion == pytest.approx(result.distortion)

    def test_anonymized_graph_reconstruction(self):
        request, result = self._run()
        response = AnonymizationResponse.from_result(request, result)
        rebuilt = response.anonymized_graph()
        assert rebuilt.num_vertices == result.anonymized_graph.num_vertices
        assert set(rebuilt.edges()) == set(result.anonymized_graph.edges())

    def test_failure_response(self):
        request = AnonymizationRequest(dataset="gnutella", sample_size=10)
        response = AnonymizationResponse.failure(request, ValueError("boom"))
        assert not response.ok
        assert not response.success
        assert response.error == "ValueError: boom"
        assert "failed" in response.summary()
        assert AnonymizationResponse.from_json(response.to_json()) == response

    def test_summary_mentions_key_quantities(self):
        request, result = self._run()
        summary = AnonymizationResponse.from_result(request, result).summary()
        assert "rem" in summary
        assert "theta=0.50" in summary
        assert "distortion=" in summary

    @pytest.mark.parametrize("metrics", [None, {"degree_emd": 0.125}])
    def test_to_dict_matches_the_asdict_oracle(self, metrics):
        request, result = self._run()
        for response in (
                AnonymizationResponse.from_result(request, result,
                                                  metrics=metrics),
                AnonymizationResponse.failure(request, ValueError("boom"))):
            payload = response.to_dict()
            oracle = response_dict_by_asdict(response)
            assert payload == oracle
            # The same keys in the same order: the JSON text is unchanged.
            assert json.dumps(payload) == json.dumps(oracle)
            assert AnonymizationResponse.from_json(response.to_json()) == response

    def test_from_result_edges_equal_the_validated_path(self):
        request, result = self._run()
        response = AnonymizationResponse.from_result(request, result)
        assert response.anonymized_edges == tuple(
            result.anonymized_graph.edges())
        # from_dict normalizes outside input; the trusted edges survive it.
        revalidated = AnonymizationResponse.from_dict(response.to_dict())
        assert revalidated.anonymized_edges == response.anonymized_edges
        assert all(type(u) is int and type(v) is int
                   for u, v in response.anonymized_edges)

    @pytest.mark.parametrize("collecting", [True, False])
    def test_from_result_edges_set_off_no_collection(self, collecting):
        request, result = self._run()
        # Thousands of edges: far past the young generation's threshold.
        graph = erdos_renyi_graph(300, 0.1, seed=1)
        big = replace(result, original_graph=graph, anonymized_graph=graph)
        graph.edge_array()
        passes = []

        def count(phase, info):
            if phase == "start":
                passes.append(info["generation"])

        was_enabled = gc.isenabled()
        gc.callbacks.append(count)
        try:
            if not collecting:
                gc.disable()
            gc.collect()
            passes.clear()
            response = AnonymizationResponse.from_result(request, big)
            assert passes == []
            assert gc.isenabled() is collecting
        finally:
            gc.callbacks.remove(count)
            if was_enabled:
                gc.enable()
        assert len(response.anonymized_edges) > 2000
        assert response.anonymized_edges == tuple(big.anonymized_graph.edges())

    def test_from_dict_still_normalizes_outside_edges(self):
        request, result = self._run()
        payload = AnonymizationResponse.from_result(request, result).to_dict()
        payload["anonymized_edges"] = [[v, u] for u, v in
                                       reversed(payload["anonymized_edges"])]
        restored = AnonymizationResponse.from_dict(payload)
        assert restored.anonymized_edges == tuple(
            result.anonymized_graph.edges())

    def test_unknown_field_rejected_on_deserialization(self):
        request, result = self._run()
        payload = AnonymizationResponse.from_result(request, result).to_dict()
        payload["bogus"] = 1
        with pytest.raises(ConfigurationError, match="unknown response field"):
            AnonymizationResponse.from_dict(payload)
