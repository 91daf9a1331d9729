"""End-to-end tests for the service facade."""

import pytest

from repro.api import (
    AnonymizationRequest,
    anonymize,
    available_algorithms,
    compute_opacity,
    expand_grid,
    sweep,
)
from repro.api.progress import CancellationToken
from repro.errors import ConfigurationError
from repro.graph.generators import erdos_renyi_graph


def _edges_request(**overrides):
    graph = erdos_renyi_graph(22, 0.25, seed=9)
    params = dict(algorithm="rem", edges=tuple(graph.edges()),
                  num_vertices=graph.num_vertices, theta=0.5, seed=0)
    params.update(overrides)
    return AnonymizationRequest(**params)


class TestAnonymizeFacade:
    @pytest.mark.parametrize("name", available_algorithms())
    def test_every_registered_algorithm_runs_end_to_end(self, name):
        response = anonymize(_edges_request(algorithm=name, theta=0.6))
        assert response.ok
        assert response.request.algorithm == name
        assert 0.0 <= response.final_opacity <= 1.0
        assert response.evaluations >= 1
        rebuilt = response.anonymized_graph()
        assert rebuilt.num_vertices == 22
        if response.success:
            assert response.final_opacity <= 0.6 + 1e-12

    def test_dataset_request_runs(self):
        response = anonymize(AnonymizationRequest(
            algorithm="rem", dataset="gnutella", sample_size=40, theta=0.6, seed=0))
        assert response.ok and response.success

    def test_include_utility_attaches_metrics(self):
        response = anonymize(_edges_request(include_utility=True, theta=0.4))
        assert response.metrics is not None
        assert set(response.metrics) == {"distortion", "degree_emd",
                                         "geodesic_emd", "mean_cc_diff"}

    def test_metrics_absent_by_default(self):
        assert anonymize(_edges_request()).metrics is None

    def test_unknown_algorithm_raises(self):
        with pytest.raises(ConfigurationError, match="unknown algorithm"):
            anonymize(_edges_request(algorithm="nope"))

    def test_explicit_observer_is_honoured(self):
        token = CancellationToken()
        token.cancel()
        response = anonymize(_edges_request(theta=0.2), observer=token)
        assert response.stop_reason == "observer"
        assert response.num_steps == 0

    def test_timeout_seconds_threads_a_timeout_observer(self, monkeypatch):
        import repro.api.facade as facade_module

        class InstantTimeout:
            def __init__(self, limit):
                pass

            def on_evaluation(self, evaluations):
                pass

            def on_step(self, step, result):
                pass

            def should_stop(self):
                return True

        monkeypatch.setattr(facade_module, "TimeoutObserver", InstantTimeout)
        response = anonymize(_edges_request(theta=0.2, timeout_seconds=0.001))
        assert response.stop_reason == "observer"


class TestComputeOpacity:
    def test_reports_worst_types_in_descending_order(self):
        report = compute_opacity(_edges_request(length_threshold=1), top=5)
        assert report.num_vertices == 22
        assert 0.0 < report.max_opacity <= 1.0
        opacities = [row[3] for row in report.worst_types]
        assert opacities == sorted(opacities, reverse=True)
        assert report.worst_types[0][3] == pytest.approx(report.max_opacity)

    @pytest.mark.parametrize("top", [-1, -3])
    def test_negative_top_is_rejected(self, top):
        # A negative slice bound would silently drop the least-exposed rows.
        with pytest.raises(ConfigurationError, match="top"):
            compute_opacity(_edges_request(), top=top)

    def test_zero_top_lists_no_rows(self):
        assert compute_opacity(_edges_request(), top=0).worst_types == ()

    def test_to_dict_is_json_safe(self):
        import json

        report = compute_opacity(_edges_request())
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["max_opacity"] == pytest.approx(report.max_opacity)


class TestSweep:
    def test_expand_grid_cartesian_product_order(self):
        base = _edges_request()
        # Mapping order is irrelevant: θ always varies fastest.
        requests = expand_grid(base, {"theta": (0.8, 0.5),
                                      "algorithm": ("rem", "gades")})
        assert [(r.algorithm, r.theta) for r in requests] == [
            ("rem", 0.8), ("rem", 0.5), ("gades", 0.8), ("gades", 0.5)]
        requests = expand_grid(base, {"seed": (1, 2), "lookahead": (1, 2),
                                      "length_threshold": (1, 2),
                                      "algorithm": ("rem",)})
        assert [(r.length_threshold, r.lookahead, r.seed) for r in requests] \
            == [(1, 1, 1), (1, 1, 2), (1, 2, 1), (1, 2, 2),
                (2, 1, 1), (2, 1, 2), (2, 2, 1), (2, 2, 2)]

    def test_expand_grid_defaults_to_base_values(self):
        base = _edges_request(theta=0.7)
        requests = expand_grid(base, {})
        assert requests == [base]

    def test_sweep_runs_serially_by_default(self):
        responses = sweep(_edges_request(theta=0.6), algorithms=("rem", "gaded-max"))
        assert len(responses) == 2
        assert all(response.ok for response in responses)
        assert [r.request.algorithm for r in responses] == ["rem", "gaded-max"]

    def test_sweep_isolates_failures(self):
        responses = sweep(_edges_request(), algorithms=("rem", "no-such-algo"))
        assert responses[0].ok
        assert not responses[1].ok
        assert "unknown algorithm" in responses[1].error
