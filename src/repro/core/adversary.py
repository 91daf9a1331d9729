"""Adversary inference model (Section 3 of the paper).

The paper motivates L-opacity with a concrete attack: the adversary knows
the original degree of a target individual and of a person of interest (say,
a convicted criminal), maps each of them to the set of candidate vertices
with that degree in the published graph, and asks how confident they can be
that the two individuals are connected by a path of length at most L.  In
Figure 2 that confidence is the fraction of cross pairs (one candidate from
each side) that are within distance L — 100% when every candidate pair is
linked, 50% when half are, 0% when none is.

This module implements that inference directly, so the privacy guarantee can
be *attacked* as well as enforced: after anonymization, the confidence for
any pair of degree-identified individuals is bounded by θ (it equals the
L-opacity of the corresponding degree-pair type).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.pair_types import DegreePairTyping
from repro.errors import ConfigurationError
from repro.graph.distance import bounded_distance_matrix
from repro.graph.graph import Graph
from repro.graph.matrices import UNREACHABLE


@dataclass(frozen=True)
class LinkageInference:
    """Outcome of one adversary inference about a pair of individuals."""

    target_candidates: Tuple[int, ...]
    subject_candidates: Tuple[int, ...]
    length_threshold: int
    linked_pairs: int
    total_pairs: int

    @property
    def confidence(self) -> float:
        """Adversary's confidence that the two individuals are within L hops."""
        if self.total_pairs == 0:
            return 0.0
        return self.linked_pairs / self.total_pairs


class DegreeAdversary:
    """An adversary who re-identifies individuals by their original degree.

    Parameters
    ----------
    published_graph:
        The graph as published (possibly anonymized).
    original_typing:
        Degree information of the *original* graph, which the paper's
        publication model releases alongside the anonymized structure.  When
        omitted, the published graph's own degrees are used (the adversary of
        a naive publication).
    """

    def __init__(self, published_graph: Graph,
                 original_typing: Optional[DegreePairTyping] = None) -> None:
        self._graph = published_graph
        self._typing = original_typing or DegreePairTyping(published_graph)
        if len(self._typing.degrees) != published_graph.num_vertices:
            raise ConfigurationError(
                "original_typing must describe the same vertex set as the published graph")

    # ------------------------------------------------------------------
    # candidate identification
    # ------------------------------------------------------------------
    def candidates_with_degree(self, degree: int) -> Tuple[int, ...]:
        """Vertices whose *original* degree equals the adversary's knowledge."""
        degrees = self._typing.degrees
        return tuple(int(v) for v in np.nonzero(degrees == degree)[0])

    # ------------------------------------------------------------------
    # inference
    # ------------------------------------------------------------------
    def linkage_confidence(self, target_candidates: Sequence[int],
                           subject_candidates: Sequence[int],
                           length_threshold: int) -> LinkageInference:
        """Confidence that the target and the subject are within ``length_threshold``.

        Candidate sets may overlap (two individuals with the same degree);
        pairs consisting of the same vertex are skipped, as a vertex cannot
        represent both individuals.
        """
        if length_threshold < 1:
            raise ConfigurationError("length_threshold must be >= 1")
        targets = tuple(dict.fromkeys(int(v) for v in target_candidates))
        subjects = tuple(dict.fromkeys(int(v) for v in subject_candidates))
        distances = bounded_distance_matrix(self._graph, length_threshold)
        linked = 0
        total = 0
        for target in targets:
            for subject in subjects:
                if target == subject:
                    continue
                total += 1
                distance = int(distances[target, subject])
                if distance != UNREACHABLE and distance <= length_threshold:
                    linked += 1
        return LinkageInference(
            target_candidates=targets,
            subject_candidates=subjects,
            length_threshold=length_threshold,
            linked_pairs=linked,
            total_pairs=total,
        )

    def degree_linkage_confidence(self, target_degree: int, subject_degree: int,
                                  length_threshold: int) -> LinkageInference:
        """Confidence for two individuals known only by their original degrees.

        This is exactly the L-opacity of the degree-pair type
        ``{target_degree, subject_degree}``, so on an L-opaque published
        graph the returned confidence never exceeds θ.
        """
        return self.linkage_confidence(
            self.candidates_with_degree(target_degree),
            self.candidates_with_degree(subject_degree),
            length_threshold,
        )

    def most_confident_inferences(self, length_threshold: int,
                                  top: int = 5) -> Tuple[LinkageInference, ...]:
        """The ``top`` degree pairs about which the adversary is most confident."""
        degrees: Set[int] = {int(d) for d in self._typing.degrees}
        inferences = []
        for low in sorted(degrees):
            for high in sorted(degrees):
                if low > high:
                    continue
                inference = self.degree_linkage_confidence(low, high, length_threshold)
                if inference.total_pairs:
                    inferences.append(((low, high), inference))
        inferences.sort(key=lambda item: -item[1].confidence)
        return tuple(inference for _pair, inference in inferences[:top])
