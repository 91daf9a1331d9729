"""Tests for the pluggable anonymizer registry."""

import pytest

from repro.api.registry import (
    AnonymizerRegistry,
    available_algorithms,
    create_anonymizer,
    default_registry,
)
from repro.baselines import GadedMaxAnonymizer, GadedRandAnonymizer, GadesAnonymizer
from repro.core import EdgeRemovalAnonymizer, EdgeRemovalInsertionAnonymizer
from repro.errors import ConfigurationError


class TestBuiltinRegistrations:
    def test_all_five_algorithms_registered(self):
        assert available_algorithms() == (
            "gaded-max", "gaded-rand", "gades", "rem", "rem-ins")

    @pytest.mark.parametrize("name,cls", [
        ("rem", EdgeRemovalAnonymizer),
        ("rem-ins", EdgeRemovalInsertionAnonymizer),
        ("gaded-rand", GadedRandAnonymizer),
        ("gaded-max", GadedMaxAnonymizer),
        ("gades", GadesAnonymizer),
    ])
    def test_decorator_wraps_constructor_without_replacing_it(self, name, cls):
        # The registered factory IS the public class, untouched.
        assert default_registry().get(name).factory is cls
        assert isinstance(create_anonymizer(name), cls)

    def test_create_forwards_parameters(self):
        algorithm = create_anonymizer("rem", theta=0.4, length_threshold=2, lookahead=2)
        assert algorithm.config.theta == 0.4
        assert algorithm.config.length_threshold == 2
        assert algorithm.config.lookahead == 2

    def test_baselines_reject_length_threshold_above_one(self):
        for name in ("gaded-rand", "gaded-max", "gades"):
            with pytest.raises(ConfigurationError, match="only supports L = 1"):
                create_anonymizer(name, length_threshold=2)

    @pytest.mark.parametrize("name,cls", [
        ("gaded-rand", GadedRandAnonymizer),
        ("gaded-max", GadedMaxAnonymizer),
        ("gades", GadesAnonymizer),
    ])
    def test_baselines_refuse_at_construction_like_the_registry(self, name,
                                                                cls):
        # Built directly, a baseline refuses what the registry refuses, with
        # the registry's message; the registry itself drops an unaccepted
        # tuning knob before construction.
        with pytest.raises(ConfigurationError,
                           match=rf"^{name} only supports L = 1 \(requested L=2\)"):
            cls(length_threshold=2)
        with pytest.raises(ConfigurationError,
                           match=f"anonymizer '{name}' does not accept "
                                 f"parameter 'lookahead'"):
            cls(lookahead=2)
        assert create_anonymizer(name, lookahead=2).config.lookahead == 1

    def test_gades_records_its_default_swap_sample(self):
        assert GadesAnonymizer().config.swap_sample_size == 2000
        assert GadedMaxAnonymizer().config.swap_sample_size is None

    def test_baselines_accept_default_length_threshold(self):
        assert create_anonymizer("gades", length_threshold=1, theta=0.5) is not None

    def test_tuning_parameters_dropped_when_unsupported(self):
        # A sweep-wide insertion cap must not break algorithms without insertion.
        algorithm = create_anonymizer("rem", theta=0.5, insertion_candidate_cap=100,
                                      lookahead=2)
        assert isinstance(algorithm, EdgeRemovalAnonymizer)

    def test_execution_knobs_dropped_for_minimal_algorithms(self):
        # The facade always passes seed/scan_workers/max_steps from the
        # request; an algorithm accepting only theta must still be
        # constructible.
        registry = AnonymizerRegistry()
        registry.register("minimal", factory=lambda theta=0.5: ("built", theta),
                          accepts=("theta",))
        assert registry.create("minimal", theta=0.3, seed=0,
                               scan_workers=None, max_steps=None,
                               lookahead=1) == ("built", 0.3)

    def test_semantic_unknown_parameter_raises(self):
        with pytest.raises(ConfigurationError, match="does not accept"):
            create_anonymizer("gades", strict=True)

    def test_unknown_algorithm_lists_registered_names(self):
        with pytest.raises(ConfigurationError, match="rem-ins"):
            create_anonymizer("does-not-exist")


class TestCustomRegistry:
    def test_decorator_registration_and_lookup(self):
        registry = AnonymizerRegistry()

        @registry.register("noop", accepts=("theta",))
        class NoopAnonymizer:
            """Does nothing."""

            def __init__(self, theta=0.5):
                self.theta = theta

            def anonymize(self, graph, typing=None, observer=None):
                raise NotImplementedError

        assert "noop" in registry
        assert registry.names() == ("noop",)
        assert len(registry) == 1
        assert registry.get("noop").description == "Does nothing."
        instance = registry.create("noop", theta=0.25)
        assert isinstance(instance, NoopAnonymizer)
        assert instance.theta == 0.25

    def test_duplicate_name_raises(self):
        registry = AnonymizerRegistry()
        registry.register("dup", factory=lambda: None)
        with pytest.raises(ConfigurationError, match="already registered"):
            registry.register("dup", factory=lambda: None)

    def test_replace_overrides_existing_registration(self):
        registry = AnonymizerRegistry()
        registry.register("algo", factory=lambda: "old")
        registry.register("algo", factory=lambda: "new", replace=True)
        assert registry.create("algo") == "new"

    def test_unregister_then_lookup_raises(self):
        registry = AnonymizerRegistry()
        registry.register("gone", factory=lambda: None)
        registry.unregister("gone")
        assert "gone" not in registry
        with pytest.raises(ConfigurationError):
            registry.get("gone")

    def test_invalid_name_rejected(self):
        registry = AnonymizerRegistry()
        with pytest.raises(ConfigurationError):
            registry.register("", factory=lambda: None)

    def test_iteration_yields_specs_in_name_order(self):
        registry = AnonymizerRegistry()
        registry.register("b", factory=lambda: None)
        registry.register("a", factory=lambda: None)
        assert [spec.name for spec in registry] == ["a", "b"]
