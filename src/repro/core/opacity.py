"""L-opacity computation (Definition 2, Definition 3, Algorithm 1).

Given a graph, a vertex-pair typing, and a path-length threshold L, the
opacity of a type ``T`` is the fraction of pairs in ``T`` whose geodesic
distance is at most L; the opacity of the graph is the maximum over types.
:class:`OpacityComputer` reproduces the paper's ``maxLO`` (Algorithm 1) and
also records ``N(p)``, the number of types attaining a given opacity value,
which Algorithms 4 and 5 use for tie-breaking.
"""

from __future__ import annotations

from collections.abc import Mapping as MappingABC
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.core.pair_types import DegreePairTyping, ExplicitPairTyping, PairTyping, TypeKey
from repro.errors import ConfigurationError
from repro.graph.distance import bounded_distance_matrix
from repro.graph.graph import Graph
from repro.graph.matrices import block_within_pairs


def degree_code_span(degrees: np.ndarray) -> int:
    """The ``span`` of :func:`encode_degree_pairs`: max degree + 1."""
    return int(degrees.max()) + 1 if degrees.size else 1


def encode_degree_pairs(degrees: np.ndarray, first: np.ndarray,
                        second: np.ndarray) -> np.ndarray:
    """Encode the degree pairs of vertex pairs as integers.

    ``code = min(g, h) * span + max(g, h)`` with ``span = max degree + 1``:
    the interned type codes :meth:`OpacityComputer.type_indices` looks
    pairs up by.
    """
    span = degree_code_span(degrees)
    d_first = degrees[first]
    d_second = degrees[second]
    codes = np.minimum(d_first, d_second) * span + np.maximum(d_first, d_second)
    return codes.astype(np.int64)


@dataclass(frozen=True)
class TypeOpacity:
    """Opacity of a single vertex-pair type."""

    type_key: TypeKey
    within_threshold: int
    total_pairs: int

    @property
    def opacity(self) -> float:
        """``LO_G(T)`` — fraction of pairs with distance at most L."""
        if self.total_pairs == 0:
            return 0.0
        return self.within_threshold / self.total_pairs

    @property
    def fraction(self) -> Fraction:
        """Exact opacity as a fraction, for robust comparisons."""
        if self.total_pairs == 0:
            return Fraction(0)
        return Fraction(self.within_threshold, self.total_pairs)


@dataclass(frozen=True)
class OpacityResult:
    """Result of one opacity evaluation (Algorithm 1 output plus bookkeeping).

    ``max_fraction`` is the exact maximum and ``max_opacity`` its float.
    ``per_type`` maps every non-empty type to its :class:`TypeOpacity`; the
    results :class:`OpacityComputer` builds hand it out as a
    :class:`PerTypeView` that creates the entries on first read.
    """

    max_opacity: float
    max_fraction: Fraction
    types_at_max: int
    per_type: Mapping[TypeKey, TypeOpacity]

    def is_opaque(self, theta: float, strict: bool = False) -> bool:
        """Whether the graph satisfies L-opacity for the confidence threshold θ.

        The paper's Definition 3 uses a strict inequality while Algorithms 4
        and 5 terminate when ``LO(G) <= θ``; the default here follows the
        algorithms (non-strict), and ``strict=True`` gives Definition 3.
        """
        if strict:
            return self.max_opacity < theta
        return self.max_opacity <= theta

    def opacity_of(self, type_key: TypeKey) -> float:
        """Opacity of one type (0.0 for unknown/empty types)."""
        entry = self.per_type.get(type_key)
        return entry.opacity if entry is not None else 0.0

    def violating_types(self, theta: float) -> Tuple[TypeKey, ...]:
        """Types whose opacity currently exceeds θ."""
        return tuple(key for key, entry in self.per_type.items() if entry.opacity > theta)


class PerTypeView(MappingABC):
    """``OpacityResult.per_type`` of a count vector, built on first lookup.

    The greedy loops only read a result's maximum; iterating keys builds
    nothing either.
    """

    def __init__(self, keys: Sequence[TypeKey], withins: np.ndarray,
                 totals: np.ndarray) -> None:
        self._keys = keys
        self._counts = (withins, totals)

    @cached_property
    def _entries(self) -> Dict[TypeKey, TypeOpacity]:
        withins, totals = self._counts
        return {key: TypeOpacity(type_key=key, within_threshold=within,
                                 total_pairs=total)
                for key, within, total in zip(self._keys, withins.tolist(),
                                              totals.tolist())}

    def __getitem__(self, key: TypeKey) -> TypeOpacity:
        return self._entries[key]

    def __iter__(self) -> Iterator[TypeKey]:
        return iter(self._keys)

    def __len__(self) -> int:
        return len(self._keys)


def group_maxima(groups: np.ndarray, nums: np.ndarray, dens: np.ndarray,
                 count: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each group's exact maximum of the fractions ``nums / dens``.

    Integer entry ``k`` (a positive denominator) belongs to group
    ``groups[k]``, and each group ``0..count-1`` has one at least.  Returns
    the maxima as reduced ``(numerators, denominators)`` and flags of the
    entries at them.

    Correctly rounded float division is monotone, so the exact maximum
    lives among the entries at the group's float maximum, and only they
    can tie it.  Integer cross-multiplication with one such entry per group
    confirms the tie; only a group of distinct fractions sharing one float
    (denominators above ~2**26) is settled with ``Fraction`` comparisons.
    """
    ratios = nums / dens
    top = np.full(count, -np.inf)
    np.maximum.at(top, groups, ratios)
    at_max = ratios == top[groups]
    where = np.flatnonzero(at_max)
    owner = groups[where]
    # One entry at the float maximum leads each group (any one will do).
    lead = np.empty(count, dtype=np.int64)
    lead[owner] = where
    best_num, best_den = nums[lead], dens[lead]
    # Cross products of counts up to 2**31 fit int64; beyond, use Python ints.
    kind = np.int64 if dens.max(initial=0) < 1 << 31 else object
    exact = (nums[where].astype(kind) * best_den[owner]
             == best_num[owner] * dens[where].astype(kind))
    for group in ([] if exact.all() else np.unique(owner[~exact]).tolist()):
        span = where[owner == group]
        fractions = [Fraction(a, b) for a, b in zip(nums[span].tolist(),
                                                   dens[span].tolist())]
        best = max(fractions)
        at_max[span] = [value == best for value in fractions]
        best_num[group], best_den[group] = best.numerator, best.denominator
    divisor = np.gcd(best_num, best_den)
    return best_num // divisor, best_den // divisor, at_max


def exact_ranks(nums: np.ndarray, dens: np.ndarray) -> np.ndarray:
    """Dense ascending ranks of the fractions ``nums / dens`` by exact value.

    Equal values share a rank, however they are written.  Floats order the
    reduced fractions; only distinct fractions sharing a float are ordered
    with ``Fraction``.
    """
    divisor = np.gcd(nums, dens)
    nums, dens = nums // divisor, dens // divisor
    values = nums / dens
    order = np.lexsort((dens, nums, values))
    new = np.ones(nums.size, dtype=bool)
    new[1:] = ((nums[order][1:] != nums[order][:-1])
               | (dens[order][1:] != dens[order][:-1]))
    if np.any(new[1:] & (values[order][1:] == values[order][:-1])):
        fractions = [Fraction(a, b) for a, b in zip(nums.tolist(),
                                                   dens.tolist())]
        order = np.array(sorted(range(nums.size), key=fractions.__getitem__),
                         dtype=np.int64)
        new[1:] = [fractions[a] != fractions[b]
                   for a, b in zip(order[1:].tolist(), order[:-1].tolist())]
    ranks = np.empty(nums.size, dtype=np.int64)
    ranks[order] = np.cumsum(new) - 1
    return ranks


class OpacityComputer:
    """Computes L-opacity values for a fixed typing and threshold L.

    Every count vector, here and in the sessions, is over the typing's
    non-empty types in iteration order (:attr:`type_order`).

    Parameters
    ----------
    typing:
        The vertex-pair typing (frozen from the original graph).
    length_threshold:
        The L parameter — the path length considered a privacy threat.
    """

    def __init__(self, typing: PairTyping, length_threshold: int) -> None:
        if length_threshold < 1:
            raise ConfigurationError(f"length_threshold must be >= 1, got {length_threshold}")
        self._typing = typing
        self._length = int(length_threshold)

    @property
    def typing(self) -> PairTyping:
        """The typing this computer evaluates against."""
        return self._typing

    @property
    def length_threshold(self) -> int:
        """The L parameter."""
        return self._length

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def distances(self, graph: Graph) -> np.ndarray:
        """Return the L-bounded distance matrix of ``graph``."""
        return bounded_distance_matrix(graph, self._length)

    def evaluate(self, graph: Graph, distances: Optional[np.ndarray] = None) -> OpacityResult:
        """Compute the full opacity result for ``graph`` (Algorithm 1).

        ``distances`` may be supplied by the caller to reuse an existing
        L-bounded distance matrix.
        """
        if distances is None:
            distances = self.distances(graph)
        return self.summarize(self.within_counts(distances))[0]

    def max_opacity(self, graph: Graph, distances: Optional[np.ndarray] = None) -> float:
        """Return ``maxLO`` — the maximum opacity over all types."""
        return self.evaluate(graph, distances=distances).max_opacity

    @cached_property
    def type_order(self) -> Tuple[List[TypeKey], np.ndarray]:
        """The typing's non-empty types in iteration order, with their ``|T|``.

        Built once: the typing is frozen for the computer's lifetime.
        """
        keys = [key for key in self._typing.types()
                if self._typing.pair_count(key) > 0]
        return keys, np.array([self._typing.pair_count(key) for key in keys],
                              dtype=np.int64)

    def summarize(self, withins: np.ndarray) -> Tuple[OpacityResult, np.ndarray]:
        """The result of a count vector (adopted, not copied) and its max-type mask."""
        keys, totals = self.type_order
        if totals.size:
            nums, dens, mask = group_maxima(np.zeros(totals.size, dtype=np.int64),
                                            withins, totals, 1)
            num, den = int(nums[0]), int(dens[0])
        else:
            num, den, mask = 0, 1, np.zeros(0, dtype=bool)
        result = OpacityResult(max_opacity=num / den,
                               max_fraction=Fraction(num, den),
                               types_at_max=int(mask.sum()),
                               per_type=PerTypeView(keys, withins, totals))
        return result, mask

    def within_counts(self, distances) -> np.ndarray:
        """Per-type counts of pairs within distance L (Algorithm 1's tally).

        Returned as an int64 vector in :attr:`type_order`.  ``distances``
        is a dense L-bounded matrix or a
        :class:`~repro.graph.distance_store.DistanceStore`, streamed in
        place through its :meth:`~repro.graph.distance_store.DistanceStore.blocks`
        so the tiled tier never materializes ``n × n``; the blocks
        partition the strict upper triangle, so the sum is exact.
        """
        if isinstance(distances, np.ndarray):
            return self._tally_rows(distances, 0)
        counts = np.zeros(len(self.type_order[0]), dtype=np.int64)
        for start, slab in distances.blocks():
            counts += self._tally_rows(slab, start)
        return counts

    def type_indices(self, first: np.ndarray, second: np.ndarray) -> np.ndarray:
        """Position in :attr:`type_order` of the type of each pair ``(first, second)``.

        Untyped pairs map to ``len(types)``.  Degree and explicit typings
        answer with one binary search over interned pair codes; other
        typings call ``type_of`` per pair.
        """
        typing = self._typing
        keys, _ = self.type_order
        if not isinstance(typing, (DegreePairTyping, ExplicitPairTyping)):
            index = {key: position for position, key in enumerate(keys)}
            return np.fromiter(
                (index.get(typing.type_of(u, v), len(keys))
                 for u, v in zip(first.tolist(), second.tolist())),
                dtype=np.int64, count=len(first))
        span, codes, positions = self._code_table
        if isinstance(typing, DegreePairTyping):
            wanted = encode_degree_pairs(typing.degrees, first, second)
        else:
            low, high = np.minimum(first, second), np.maximum(first, second)
            wanted = np.where(high < span, low * span + high, -1)
        at = np.searchsorted(codes, wanted)
        return np.where(codes[at] == wanted, positions[at], len(keys))

    # ------------------------------------------------------------------
    # counting
    # ------------------------------------------------------------------
    def _tally_rows(self, slab: np.ndarray, start: int) -> np.ndarray:
        """Counts of the within-L pairs ``i < j`` of the rows ``start, start + 1, …``."""
        size = len(self.type_order[0])
        pairs = block_within_pairs(slab, start, self._length)
        return np.bincount(self.type_indices(*pairs),
                           minlength=size + 1)[:size]

    @cached_property
    def _code_table(self) -> Tuple[int, np.ndarray, np.ndarray]:
        """Interned ``(span, sorted pair codes, type position per code)``.

        Degree typings code a type as ``g·span + h``
        (:func:`encode_degree_pairs`); explicit typings code every typed
        pair ``u < v`` as ``u·span + v``, with ``span`` one past the largest
        typed vertex.  A final sentinel code above every pair's keeps
        binary searches in range and maps to no type.
        """
        typing = self._typing
        keys, _ = self.type_order
        if isinstance(typing, DegreePairTyping):
            span = degree_code_span(typing.degrees)
            codes = [g * span + h for g, h in keys]
            positions = list(range(len(keys)))
        else:
            pairs = typing.all_pairs()
            span = 1 + max((v for _, v in pairs), default=0)
            index = {key: position for position, key in enumerate(keys)}
            codes = [u * span + v for u, v in pairs]
            positions = [index[typing.type_of(u, v)] for u, v in pairs]
        order = np.argsort(codes)
        sentinel = np.iinfo(np.int64).max
        return (span, np.append(np.asarray(codes, np.int64)[order], sentinel),
                np.append(np.asarray(positions, np.int64)[order], len(keys)))


def max_lo(graph: Graph, typing: PairTyping, length_threshold: int) -> float:
    """Convenience wrapper for Algorithm 1: return ``max_T LO_G(T)``."""
    return OpacityComputer(typing, length_threshold).max_opacity(graph)
