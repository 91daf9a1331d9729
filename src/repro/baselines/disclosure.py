"""Single-edge link disclosure, the privacy measure of Zhang & Zhang.

For an adversary who knows original node degrees, the disclosure of a degree
pair ``(d1, d2)`` is the probability that a uniformly chosen pair of
vertices with those degrees is directly connected — exactly the L-opacity of
the degree-pair type with L = 1.  The GADED/GADES heuristics monitor the
maximum disclosure over degree pairs and the total (summed) disclosure.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

from repro.core.opacity import OpacityComputer, OpacityResult
from repro.core.pair_types import DegreePairTyping, PairTyping
from repro.graph.graph import Graph


@dataclass(frozen=True)
class DisclosureSummary:
    """Maximum and total link disclosure over all degree-pair types."""

    maximum: float
    total: float
    per_type: Mapping[Tuple[int, int], float]

    def exceeds(self, theta: float) -> bool:
        """Whether the maximum disclosure exceeds the confidence threshold."""
        return self.maximum > theta


def _evaluate(graph: Graph, typing: Optional[PairTyping]) -> OpacityResult:
    if typing is None:
        typing = DegreePairTyping(graph)
    return OpacityComputer(typing, length_threshold=1).evaluate(graph)


def link_disclosure_summary(graph: Graph, typing: Optional[PairTyping] = None
                            ) -> DisclosureSummary:
    """Compute maximum, total, and per-type single-edge disclosure."""
    result = _evaluate(graph, typing)
    per_type: Dict[Tuple[int, int], float] = {
        key: entry.opacity for key, entry in result.per_type.items()}
    total = float(sum(per_type.values()))
    return DisclosureSummary(maximum=result.max_opacity, total=total, per_type=per_type)


def max_link_disclosure(graph: Graph,
                        typing: Optional[PairTyping] = None) -> float:
    """Maximum single-edge disclosure over degree pairs."""
    return link_disclosure_summary(graph, typing).maximum


def total_link_disclosure(graph: Graph,
                          typing: Optional[PairTyping] = None) -> float:
    """Sum of single-edge disclosures over degree pairs."""
    return link_disclosure_summary(graph, typing).total
