"""Unit tests for the experiment runner."""

import pytest

from repro.baselines import GadedMaxAnonymizer, GadedRandAnonymizer, GadesAnonymizer
from repro.core import EdgeRemovalAnonymizer, EdgeRemovalInsertionAnonymizer
from repro.errors import ConfigurationError, GridAbortedError
from repro.experiments.config import ExperimentConfig
from repro.experiments.runner import ExperimentRunner, request_for

#: RunRecord fields compared bit-for-bit (everything except runtime).
COMPARED_FIELDS = ("success", "final_opacity", "distortion", "degree_emd",
                   "geodesic_emd", "mean_cc_difference", "steps", "evaluations")


def _config(**overrides):
    base = dict(dataset="gnutella", sample_size=40, algorithm="rem", theta=0.6, seed=0)
    base.update(overrides)
    return ExperimentConfig(**base)


class TestRequestFor:
    def test_mirrors_the_configuration(self):
        config = _config(algorithm="rem-ins", theta=0.4, length_threshold=2,
                         lookahead=2, insertion_candidate_cap=50, max_steps=7)
        request = request_for(config)
        assert request.algorithm == "rem-ins"
        assert request.dataset == "gnutella"
        assert request.sample_size == 40
        assert request.theta == 0.4
        assert request.length_threshold == 2
        assert request.lookahead == 2
        assert request.insertion_candidate_cap == 50
        assert request.max_steps == 7
        assert request.include_utility  # records need the utility metrics

    @pytest.mark.parametrize("name,cls", [
        ("rem", EdgeRemovalAnonymizer),
        ("rem-ins", EdgeRemovalInsertionAnonymizer),
        ("gaded-rand", GadedRandAnonymizer),
        ("gaded-max", GadedMaxAnonymizer),
        ("gades", GadesAnonymizer),
    ])
    def test_runner_resolves_each_algorithm_through_the_registry(self, name, cls):
        # The registry (not an if/elif chain) backs every runner execution.
        from repro.api.registry import create_anonymizer

        config = _config(algorithm=name)
        assert isinstance(
            create_anonymizer(name, **{key: value
                                       for key, value in request_for(config)
                                       .algorithm_params().items()}), cls)


class TestExperimentRunner:
    def test_run_produces_complete_record(self):
        runner = ExperimentRunner()
        record = runner.run(_config())
        assert record.success
        assert 0.0 <= record.final_opacity <= 0.6
        assert record.distortion >= 0.0
        assert record.runtime_seconds >= 0.0
        payload = record.as_dict()
        assert payload["dataset"] == "gnutella"
        assert payload["L"] == 1

    def test_baselines_restricted_to_l1(self):
        runner = ExperimentRunner()
        with pytest.raises(ConfigurationError):
            runner.run(_config(algorithm="gaded-max", length_threshold=2))

    def test_run_all_preserves_order(self):
        runner = ExperimentRunner()
        configs = [_config(theta=theta) for theta in (0.9, 0.7)]
        records = runner.run_all(configs)
        assert [record.config.theta for record in records] == [0.9, 0.7]

    def test_run_all_parallel_matches_serial(self):
        runner = ExperimentRunner()
        # Two θ-groups, so the pooled route really fans out.
        configs = [_config(sample_size=30, algorithm=algorithm, theta=theta)
                   for algorithm in ("rem", "gades") for theta in (0.8, 0.6)]
        serial = runner.run_all(configs)
        parallel = runner.run_all(configs, max_workers=2)
        assert [r.config for r in parallel] == [r.config for r in serial] == configs
        for left, right in zip(serial, parallel):
            for field in COMPARED_FIELDS:
                assert getattr(left, field) == getattr(right, field), field

    @pytest.mark.parametrize("max_workers", [0, 2])
    def test_first_failure_aborts_the_grid_on_every_route(self, max_workers):
        # Both routes run one fail-fast grid: the failing configuration is
        # named in the same GridAbortedError, never a raw or bare error.
        runner = ExperimentRunner()
        configs = [_config(sample_size=30, algorithm="gaded-max",
                           length_threshold=2),
                   _config(sample_size=30)]
        with pytest.raises(GridAbortedError, match="gaded-max L=2 theta=0.6"):
            runner.run_all(configs, max_workers=max_workers)
