"""Unit tests for the opacity computation (Algorithm 1, Figures 4 and 5)."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.opacity import OpacityComputer, exact_ranks, max_lo
from repro.core.pair_types import DegreePairTyping, ExplicitPairTyping
from repro.errors import ConfigurationError
from repro.graph.distance import available_engines, bounded_distance_matrix
from repro.graph.generators import complete_graph, erdos_renyi_graph, path_graph
from repro.graph.graph import Graph


class TestPaperExampleOpacity:
    """Figure 5c of the paper gives the full opacity matrix for L = 1."""

    EXPECTED_L1 = {
        (1, 3): Fraction(1, 1),
        (2, 4): Fraction(2, 3),    # 4 of 6 pairs connected
        (3, 4): Fraction(2, 3),    # 2 of 3 pairs connected
        (4, 4): Fraction(1, 1),    # the triangle v2-v3-v5
        (1, 2): Fraction(0),
        (1, 4): Fraction(0),
        (2, 2): Fraction(0),
        (2, 3): Fraction(0),
    }

    def test_per_type_opacities_match_figure_5c(self, paper_example_graph):
        typing = DegreePairTyping(paper_example_graph)
        computer = OpacityComputer(typing, length_threshold=1)
        result = computer.evaluate(paper_example_graph)
        for type_key, expected in self.EXPECTED_L1.items():
            assert result.per_type[type_key].fraction == expected, type_key

    def test_within_counts_match_figure_5a(self, paper_example_graph):
        typing = DegreePairTyping(paper_example_graph)
        result = OpacityComputer(typing, 1).evaluate(paper_example_graph)
        assert result.per_type[(2, 4)].within_threshold == 4
        assert result.per_type[(3, 4)].within_threshold == 2
        assert result.per_type[(4, 4)].within_threshold == 3
        assert result.per_type[(1, 3)].within_threshold == 1

    def test_max_opacity_is_one_with_two_types_at_max(self, paper_example_graph):
        typing = DegreePairTyping(paper_example_graph)
        result = OpacityComputer(typing, 1).evaluate(paper_example_graph)
        assert result.max_opacity == 1.0
        assert result.types_at_max == 2   # (1,3) and (4,4)

    @pytest.mark.parametrize("engine", available_engines())
    def test_all_engines_agree_on_example(self, paper_example_graph, engine):
        typing = DegreePairTyping(paper_example_graph)
        for length in (1, 2, 3):
            computer = OpacityComputer(typing, length)
            value = computer.max_opacity(
                paper_example_graph,
                distances=bounded_distance_matrix(paper_example_graph, length,
                                                  engine=engine))
            reference = computer.max_opacity(paper_example_graph)
            assert value == pytest.approx(reference)

    def test_l3_makes_everything_visible(self, paper_example_graph):
        # The example's diameter is 3, so with L = 3 every pair is within
        # threshold and every non-empty type has opacity 1.
        typing = DegreePairTyping(paper_example_graph)
        result = OpacityComputer(typing, 3).evaluate(paper_example_graph)
        assert all(entry.fraction == 1 for entry in result.per_type.values())


class TestOpacityResult:
    def test_is_opaque_strict_and_nonstrict(self, paper_example_graph):
        typing = DegreePairTyping(paper_example_graph)
        result = OpacityComputer(typing, 1).evaluate(paper_example_graph)
        assert result.is_opaque(1.0) is True            # algorithm semantics: <=
        assert result.is_opaque(1.0, strict=True) is False  # Definition 3: <
        assert result.is_opaque(0.5) is False

    def test_violating_types(self, paper_example_graph):
        typing = DegreePairTyping(paper_example_graph)
        result = OpacityComputer(typing, 1).evaluate(paper_example_graph)
        violating = set(result.violating_types(0.7))
        assert violating == {(1, 3), (4, 4)}

    def test_opacity_of_unknown_type_is_zero(self, paper_example_graph):
        typing = DegreePairTyping(paper_example_graph)
        result = OpacityComputer(typing, 1).evaluate(paper_example_graph)
        assert result.opacity_of((9, 9)) == 0.0


class TestEdgeCases:
    def test_empty_graph(self):
        graph = Graph(4)
        result = OpacityComputer(DegreePairTyping(graph), 2).evaluate(graph)
        assert result.max_opacity == 0.0

    def test_single_vertex(self):
        graph = Graph(1)
        result = OpacityComputer(DegreePairTyping(graph), 1).evaluate(graph)
        assert result.max_opacity == 0.0
        assert result.types_at_max == 0

    def test_complete_graph_is_fully_disclosed(self):
        graph = complete_graph(6)
        assert max_lo(graph, DegreePairTyping(graph), 1) == 1.0

    def test_path_graph_l1(self):
        graph = path_graph(4)
        typing = DegreePairTyping(graph)
        result = OpacityComputer(typing, 1).evaluate(graph)
        # Degree-1 endpoints never touch each other, both touch a degree-2 vertex.
        assert result.per_type[(1, 1)].fraction == 0
        assert result.per_type[(1, 2)].fraction == Fraction(2, 4)
        assert result.per_type[(2, 2)].fraction == Fraction(1, 1)

    def test_invalid_length_rejected(self, triangle_graph):
        with pytest.raises(ConfigurationError):
            OpacityComputer(DegreePairTyping(triangle_graph), 0)

    def test_caller_supplied_distances_are_used(self, paper_example_graph):
        typing = DegreePairTyping(paper_example_graph)
        computer = OpacityComputer(typing, 2)
        distances = computer.distances(paper_example_graph)
        direct = computer.evaluate(paper_example_graph)
        reused = computer.evaluate(paper_example_graph, distances=distances)
        assert direct.max_fraction == reused.max_fraction


class TestExplicitTypingOpacity:
    def test_only_listed_pairs_counted(self, paper_example_graph):
        typing = ExplicitPairTyping({(0, 1): "watched", (0, 6): "watched"})
        result = OpacityComputer(typing, 1).evaluate(paper_example_graph)
        # (0,1) is an edge, (0,6) is at distance 3.
        assert result.per_type["watched"].fraction == Fraction(1, 2)

    def test_generic_fallback_for_custom_typing(self, paper_example_graph):
        class EverythingSameType(DegreePairTyping.__bases__[0]):  # PairTyping
            def type_of(self, u, v):
                return "all" if u != v else None

            def types(self):
                return iter(["all"])

            def pair_count(self, type_key):
                return 21 if type_key == "all" else 0

        typing = EverythingSameType()
        result = OpacityComputer(typing, 1).evaluate(paper_example_graph)
        assert result.per_type["all"].fraction == Fraction(10, 21)


class TestExplicitTypingVectorizedCounts:
    """The interned-code bincount tally must match a per-pair reference loop."""

    def test_counts_match_reference_loop(self):
        import random

        from repro.graph.generators import erdos_renyi_graph
        from repro.graph.matrices import UNREACHABLE

        rng = random.Random(17)
        graph = erdos_renyi_graph(25, 0.2, seed=17)
        pair_types = {}
        for u in range(25):
            for v in range(u + 1, 25):
                if rng.random() < 0.4:
                    pair_types[(u, v)] = f"t{rng.randrange(4)}"
        typing = ExplicitPairTyping(pair_types)
        for length in (1, 2, 3):
            computer = OpacityComputer(typing, length)
            distances = computer.distances(graph)
            reference = {}
            for (u, v) in typing.all_pairs():
                distance = int(distances[u, v])
                if distance != UNREACHABLE and distance <= length:
                    key = typing.type_of(u, v)
                    reference[key] = reference.get(key, 0) + 1
            keys, _ = computer.type_order
            counts = computer.within_counts(distances).tolist()
            assert {key: count for key, count in zip(keys, counts)
                    if count} == reference

    def test_interned_arrays_are_cached(self):
        typing = ExplicitPairTyping({(0, 1): "a", (1, 2): "b"})
        computer = OpacityComputer(typing, 1)
        first = computer._code_table
        assert computer._code_table is first


class TestExactRanks:
    def test_distinct_fractions_sharing_a_float_are_ordered_exactly(self):
        # 1 + 1e-17 and 1 + 1/(1e17 + 2) both round to the float 1.0.
        nums = np.array([10 ** 17 + 1, 10 ** 17 + 3, 1, 2], dtype=np.int64)
        dens = np.array([10 ** 17, 10 ** 17 + 2, 1, 2], dtype=np.int64)
        assert (nums / dens).tolist() == [1.0] * 4
        assert exact_ranks(nums, dens).tolist() == [2, 1, 0, 0]

    @given(st.lists(st.tuples(st.integers(min_value=0, max_value=9),
                              st.integers(min_value=1, max_value=9)),
                    max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_ranks_follow_fraction_order(self, pairs):
        nums = np.array([num for num, _ in pairs], dtype=np.int64)
        dens = np.array([den for _, den in pairs], dtype=np.int64)
        values = sorted({Fraction(num, den) for num, den in pairs})
        assert exact_ranks(nums, dens).tolist() == [
            values.index(Fraction(num, den)) for num, den in pairs]
