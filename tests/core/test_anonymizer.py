"""Unit tests for the shared anonymizer machinery (config, tie-breaking, result)."""

import random
from fractions import Fraction

import numpy as np
import pytest

from repro.core.anonymizer import AnonymizerConfig, TieBreaker
from repro.core.edge_removal import EdgeRemovalAnonymizer
from repro.core.opacity import DegreePairTyping, OpacityComputer
from repro.core.opacity_session import ScoredBatch
from repro.graph.distance import bounded_distance_matrix
from repro.errors import ConfigurationError, InfeasibleError
from repro.graph.generators import complete_graph, erdos_renyi_graph
from repro.graph.graph import Graph


class TestAnonymizerConfig:
    def test_defaults_are_valid(self):
        AnonymizerConfig().validate()

    @pytest.mark.parametrize("field,value", [
        ("length_threshold", 0),
        ("theta", -0.1),
        ("theta", 1.5),
        ("lookahead", 0),
        ("max_steps", -1),
        ("max_combinations", 0),
        ("insertion_candidate_cap", 0),
        ("scan_workers", -1),
        ("swap_sample_size", 0),
    ])
    def test_invalid_values_rejected(self, field, value):
        config = AnonymizerConfig(**{field: value})
        with pytest.raises(ConfigurationError):
            config.validate()

    def test_every_available_engine_is_valid(self):
        # The engine knob is retired (the engines are bit-identical), so
        # naming any engine, valid or not, is an unexpected keyword.
        from repro.graph import available_engines

        for engine in available_engines() + ("no-such-engine",):
            with pytest.raises(TypeError, match="engine"):
                AnonymizerConfig(engine=engine)

    def test_invalid_engine_rejected_up_front_at_construction(self):
        from repro.baselines import (GadedMaxAnonymizer, GadedRandAnonymizer,
                                     GadesAnonymizer)
        from repro.core import EdgeRemovalInsertionAnonymizer

        for factory in (EdgeRemovalAnonymizer, EdgeRemovalInsertionAnonymizer,
                        GadesAnonymizer, GadedRandAnonymizer,
                        GadedMaxAnonymizer):
            with pytest.raises(TypeError, match="engine"):
                factory(engine="numpy")

    def test_constructor_accepts_either_config_or_kwargs(self):
        config = AnonymizerConfig(theta=0.4)
        assert EdgeRemovalAnonymizer(config).config.theta == 0.4
        assert EdgeRemovalAnonymizer(theta=0.4).config.theta == 0.4
        with pytest.raises(ConfigurationError):
            EdgeRemovalAnonymizer(config, theta=0.3)

    @pytest.mark.parametrize("scan_workers,expected", [
        (None, 0),
        (0, 0),
        (2, 2),
    ])
    def test_open_session_builds_the_configured_session(
            self, scan_workers, expected):
        graph = erdos_renyi_graph(14, 0.3, seed=4)
        computer = OpacityComputer(DegreePairTyping(graph), 2)
        config = AnonymizerConfig(scan_workers=scan_workers)
        initial = bounded_distance_matrix(graph, 2)
        session = config.open_session(computer, graph,
                                      initial_distances=initial)
        try:
            assert session.graph is graph
            assert session.scan_workers == expected
            assert (bounded_distance_matrix(session.graph, 2)
                    == initial).all()
            # The opening count is read from the adopted distances.
            assert session.type_counts()[0].tolist() == \
                computer.within_counts(initial).tolist()
            expected_result = computer.evaluate(graph)
            assert session.current().max_fraction == expected_result.max_fraction
        finally:
            session.close()

    def test_invalid_kwargs_rejected_at_construction(self):
        with pytest.raises(ConfigurationError):
            EdgeRemovalAnonymizer(theta=2.0)


class TestTieBreaker:
    def _offer(self, breaker, edge, fraction, types_at_max):
        # One outcome, offered on its own: a one-row batch.
        TieBreaker.offer_batch((breaker,), ScoredBatch(
            [(edge,)], np.array([fraction.numerator]),
            np.array([fraction.denominator]), np.array([types_at_max])))

    def test_lower_opacity_wins(self):
        breaker = TieBreaker(random.Random(0))
        self._offer(breaker, (0, 1), Fraction(1, 2), 3)
        self._offer(breaker, (0, 2), Fraction(1, 3), 5)
        assert breaker.best.edges == ((0, 2),)

    def test_fewer_types_at_max_break_ties(self):
        breaker = TieBreaker(random.Random(0))
        self._offer(breaker, (0, 1), Fraction(1, 2), 3)
        self._offer(breaker, (0, 2), Fraction(1, 2), 1)
        assert breaker.best.edges == ((0, 2),)

    def test_worse_candidate_never_replaces(self):
        breaker = TieBreaker(random.Random(0))
        self._offer(breaker, (0, 1), Fraction(1, 4), 1)
        self._offer(breaker, (0, 2), Fraction(1, 2), 1)
        self._offer(breaker, (0, 3), Fraction(1, 4), 2)
        assert breaker.best.edges == ((0, 1),)

    def test_random_tie_break_is_uniformish(self):
        counts = {(0, 1): 0, (0, 2): 0}
        for seed in range(200):
            breaker = TieBreaker(random.Random(seed))
            self._offer(breaker, (0, 1), Fraction(1, 2), 1)
            self._offer(breaker, (0, 2), Fraction(1, 2), 1)
            counts[breaker.best.edges[0]] += 1
        # Both candidates should win a non-trivial share of the seeds.
        assert counts[(0, 1)] > 40
        assert counts[(0, 2)] > 40


class TestAnonymizationResult:
    def test_already_opaque_graph_returns_immediately(self):
        graph = erdos_renyi_graph(20, 0.1, seed=0)
        result = EdgeRemovalAnonymizer(length_threshold=1, theta=1.0, seed=0).anonymize(graph)
        assert result.success
        assert result.num_steps == 0
        assert result.distortion == 0.0
        assert result.anonymized_graph == graph

    def test_strict_mode_raises_when_infeasible(self):
        # A complete graph needs many removals to reach theta=0; capping the
        # number of greedy steps at 1 makes the target unreachable, which the
        # strict mode must turn into an exception.
        graph = complete_graph(5)
        anonymizer = EdgeRemovalAnonymizer(length_threshold=1, theta=0.0, seed=0,
                                           max_steps=1, strict=True)
        with pytest.raises(InfeasibleError):
            anonymizer.anonymize(graph)

    def test_best_effort_mode_reports_failure(self):
        graph = complete_graph(5)
        result = EdgeRemovalAnonymizer(length_threshold=1, theta=0.0, seed=0,
                                       max_steps=1).anonymize(graph)
        assert not result.success
        assert result.final_opacity > 0.0

    def test_distortion_is_cached(self):
        graph = complete_graph(5)
        result = EdgeRemovalAnonymizer(length_threshold=1, theta=0.9, seed=0).anonymize(graph)
        first = result.distortion
        assert first > 0.0
        # Mutating the graph after the first read must not change the cached
        # value (the edit-distance comparison is not recomputed per access).
        result.anonymized_graph.remove_edge(*next(iter(result.anonymized_graph.edges())))
        assert result.distortion == first

    def test_summary_mentions_key_fields(self):
        graph = complete_graph(5)
        result = EdgeRemovalAnonymizer(length_threshold=1, theta=0.9, seed=0).anonymize(graph)
        text = result.summary()
        assert "theta=0.90" in text
        assert "distortion=" in text

    def test_original_graph_is_untouched(self):
        graph = complete_graph(6)
        before = graph.edge_set()
        EdgeRemovalAnonymizer(length_threshold=1, theta=0.5, seed=0).anonymize(graph)
        assert graph.edge_set() == before
