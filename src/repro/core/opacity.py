"""L-opacity computation (Definition 2, Definition 3, Algorithm 1).

Given a graph, a vertex-pair typing, and a path-length threshold L, the
opacity of a type ``T`` is the fraction of pairs in ``T`` whose geodesic
distance is at most L; the opacity of the graph is the maximum over types.
:class:`OpacityComputer` reproduces the paper's ``maxLO`` (Algorithm 1) and
also records ``N(p)``, the number of types attaining a given opacity value,
which Algorithms 4 and 5 use for tie-breaking.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.core.pair_types import DegreePairTyping, ExplicitPairTyping, PairTyping, TypeKey
from repro.errors import ConfigurationError
from repro.graph.distance import DistanceEngine, bounded_distance_matrix
from repro.graph.graph import Graph
from repro.graph.matrices import UNREACHABLE, triu_pair_indices


def degree_code_span(degrees: np.ndarray) -> int:
    """The ``span`` of :func:`encode_degree_pairs`: max degree + 1."""
    return int(degrees.max()) + 1 if degrees.size else 1


def encode_degree_pairs(degrees: np.ndarray, first: np.ndarray,
                        second: np.ndarray) -> Tuple[np.ndarray, int]:
    """Encode the degree pairs of vertex pairs as integers for ``bincount``.

    Returns ``(codes, span)`` with ``code = min(g, h) * span + max(g, h)``
    and ``span = max degree + 1``.  The single authoritative scheme shared by
    the stateless tally (:meth:`OpacityComputer.within_counts`) and the
    incremental count deltas
    (:class:`repro.core.opacity_session.OpacitySession`) — their bit-identity
    depends on both using the same codes.
    """
    span = degree_code_span(degrees)
    d_first = degrees[first]
    d_second = degrees[second]
    codes = np.minimum(d_first, d_second) * span + np.maximum(d_first, d_second)
    return codes.astype(np.int64), span


def decode_degree_pair(code: int, span: int) -> Tuple[int, int]:
    """Invert :func:`encode_degree_pairs` for one code."""
    return (int(code // span), int(code % span))


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
    """Result of one opacity evaluation (Algorithm 1 output plus bookkeeping)."""

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


class OpacityComputer:
    """Computes L-opacity values for a fixed typing and threshold L.

    Parameters
    ----------
    typing:
        The vertex-pair typing (frozen from the original graph).
    length_threshold:
        The L parameter — the path length considered a privacy threat.
    engine:
        Which distance engine to use (see
        :func:`repro.graph.distance.available_engines`).
    """

    def __init__(self, typing: PairTyping, length_threshold: int,
                 engine: DistanceEngine = "numpy") -> None:
        if length_threshold < 1:
            raise ConfigurationError(f"length_threshold must be >= 1, got {length_threshold}")
        self._typing = typing
        self._length = int(length_threshold)
        self._engine = engine
        # Lazy interned view of an ExplicitPairTyping: pair endpoint arrays
        # plus per-pair type codes, built once so every tally is a gather
        # and a bincount instead of a per-pair Python loop.
        self._explicit_pairs: Optional[Tuple[np.ndarray, np.ndarray,
                                             np.ndarray, List[TypeKey]]] = None

    @property
    def typing(self) -> PairTyping:
        """The typing this computer evaluates against."""
        return self._typing

    @property
    def length_threshold(self) -> int:
        """The L parameter."""
        return self._length

    @property
    def engine(self) -> DistanceEngine:
        """The configured distance engine."""
        return self._engine

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    def distances(self, graph: Graph) -> np.ndarray:
        """Return the L-bounded distance matrix of ``graph``."""
        return bounded_distance_matrix(graph, self._length, engine=self._engine)

    def evaluate(self, graph: Graph, distances: Optional[np.ndarray] = None) -> OpacityResult:
        """Compute the full opacity result for ``graph`` (Algorithm 1).

        ``distances`` may be supplied by the caller to reuse an existing
        L-bounded distance matrix.
        """
        if distances is None:
            distances = self.distances(graph)
        return self.result_from_counts(self.within_counts(distances))

    def max_opacity(self, graph: Graph, distances: Optional[np.ndarray] = None) -> float:
        """Return ``maxLO`` — the maximum opacity over all types."""
        return self.evaluate(graph, distances=distances).max_opacity

    def within_counts(self, distances: np.ndarray) -> Dict[TypeKey, int]:
        """Per-type counts of pairs within distance L (Algorithm 1's tally).

        Exposed separately from :meth:`evaluate` so the stateful
        :class:`repro.core.opacity_session.OpacitySession` can seed and
        re-derive its incremental count state from the same code path.
        """
        if isinstance(self._typing, DegreePairTyping):
            return self._degree_pair_counts(distances)
        return self._generic_counts(distances)

    def result_from_counts(self, counts: Mapping[TypeKey, int]) -> OpacityResult:
        """Assemble the full :class:`OpacityResult` from within-L counts."""
        return self._build_result(counts)

    def within_counts_store(self, store) -> Dict[TypeKey, int]:
        """:meth:`within_counts` read through a distance store, block by block.

        Streams ``|block| × n`` slabs from a
        :class:`~repro.graph.distance_store.DistanceStore` instead of
        requiring the dense matrix, so the tiled scale tier can seed
        incremental sessions without ever materializing ``n × n``.  The
        per-block tallies partition the strict upper triangle, and integer
        sums are order-independent, so the result equals
        ``within_counts(store.to_array())`` exactly.
        """
        typing = self._typing
        n = store.num_vertices
        counts: Dict[TypeKey, int] = {}
        if n < 2:
            return counts
        if isinstance(typing, DegreePairTyping):
            degrees = typing.degrees
            columns = np.arange(n)[None, :]
            for start, stop in store.row_blocks():
                slab = store.rows(np.arange(start, stop))
                mask = ((slab <= self._length)
                        & (columns > np.arange(start, stop)[:, None]))
                if not mask.any():
                    continue
                local_rows, cols = np.nonzero(mask)
                encoded, span = encode_degree_pairs(degrees,
                                                    local_rows + start, cols)
                counted = np.bincount(encoded)
                for code in np.nonzero(counted)[0]:
                    key = decode_degree_pair(int(code), span)
                    counts[key] = counts.get(key, 0) + int(counted[code])
            return counts
        if isinstance(typing, ExplicitPairTyping):
            rows, cols, codes, keys = self._explicit_pair_arrays()
            if rows.size == 0:
                return counts
            totals = np.zeros(len(keys), dtype=np.int64)
            for start, stop in store.row_blocks():
                selector = (rows >= start) & (rows < stop)
                if not selector.any():
                    continue
                slab = store.rows(np.arange(start, stop))
                within = (slab[rows[selector] - start, cols[selector]]
                          <= self._length)
                totals += np.bincount(codes[selector][within],
                                      minlength=len(keys))
            return {keys[code]: int(totals[code])
                    for code in np.nonzero(totals)[0]}
        # Fallback for arbitrary typings: scan every pair (the sentinel is
        # always above L, so one comparison covers reachability too).
        for start, stop in store.row_blocks():
            slab = store.rows(np.arange(start, stop))
            for local, u in enumerate(range(start, stop)):
                row = slab[local]
                for v in range(u + 1, n):
                    if int(row[v]) > self._length:
                        continue
                    key = typing.type_of(u, v)
                    if key is not None:
                        counts[key] = counts.get(key, 0) + 1
        return counts

    # ------------------------------------------------------------------
    # counting strategies
    # ------------------------------------------------------------------
    def _degree_pair_counts(self, distances: np.ndarray) -> Dict[TypeKey, int]:
        typing = self._typing
        assert isinstance(typing, DegreePairTyping)
        degrees = typing.degrees
        n = distances.shape[0]
        if n < 2:
            return {}
        rows, cols = triu_pair_indices(n)
        within = distances[rows, cols] <= self._length
        if not within.any():
            return {}
        encoded, span = encode_degree_pairs(degrees, rows[within], cols[within])
        counted = np.bincount(encoded)
        nonzero = np.nonzero(counted)[0]
        return {decode_degree_pair(code, span): int(counted[code]) for code in nonzero}

    def _generic_counts(self, distances: np.ndarray) -> Dict[TypeKey, int]:
        typing = self._typing
        counts: Dict[TypeKey, int] = {}
        if isinstance(typing, ExplicitPairTyping):
            rows, cols, codes, keys = self._explicit_pair_arrays()
            if rows.size == 0:
                return counts
            # UNREACHABLE is far above any admissible L, so a single
            # comparison covers both the reachability and threshold tests.
            within = distances[rows, cols] <= self._length
            counted = np.bincount(codes[within], minlength=len(keys))
            return {keys[code]: int(counted[code])
                    for code in np.nonzero(counted)[0]}
        # Fallback for arbitrary typings: scan every pair.
        n = distances.shape[0]
        for u in range(n):
            for v in range(u + 1, n):
                distance = int(distances[u, v])
                if distance == UNREACHABLE or distance > self._length:
                    continue
                key = typing.type_of(u, v)
                if key is not None:
                    counts[key] = counts.get(key, 0) + 1
        return counts

    def _explicit_pair_arrays(self) -> Tuple[np.ndarray, np.ndarray,
                                             np.ndarray, List[TypeKey]]:
        """Interned ``(rows, cols, type codes, code -> key)`` of the typing.

        Built lazily and cached: the typing is frozen for the computer's
        lifetime, so the enumeration order (and with it the counting
        result) never changes between calls.
        """
        if self._explicit_pairs is None:
            typing = self._typing
            assert isinstance(typing, ExplicitPairTyping)
            pairs = typing.all_pairs()
            rows = np.fromiter((u for u, _ in pairs), dtype=np.int64,
                               count=len(pairs))
            cols = np.fromiter((v for _, v in pairs), dtype=np.int64,
                               count=len(pairs))
            keys: List[TypeKey] = []
            code_of: Dict[TypeKey, int] = {}
            codes = np.empty(len(pairs), dtype=np.int64)
            for position, (u, v) in enumerate(pairs):
                key = typing.type_of(u, v)
                code = code_of.get(key)
                if code is None:
                    code = len(keys)
                    code_of[key] = code
                    keys.append(key)
                codes[position] = code
            self._explicit_pairs = (rows, cols, codes, keys)
        return self._explicit_pairs

    # ------------------------------------------------------------------
    # result assembly
    # ------------------------------------------------------------------
    def _build_result(self, counts: Mapping[TypeKey, int]) -> OpacityResult:
        per_type: Dict[TypeKey, TypeOpacity] = {}
        max_fraction = Fraction(0)
        for type_key in self._typing.types():
            total = self._typing.pair_count(type_key)
            if total == 0:
                continue
            within = counts.get(type_key, 0)
            entry = TypeOpacity(type_key=type_key, within_threshold=within, total_pairs=total)
            per_type[type_key] = entry
            if entry.fraction > max_fraction:
                max_fraction = entry.fraction
        types_at_max = sum(1 for entry in per_type.values() if entry.fraction == max_fraction)
        if not per_type:
            types_at_max = 0
        return OpacityResult(
            max_opacity=float(max_fraction),
            max_fraction=max_fraction,
            types_at_max=types_at_max,
            per_type=per_type,
        )


def max_lo(graph: Graph, typing: PairTyping, length_threshold: int,
           engine: DistanceEngine = "numpy") -> float:
    """Convenience wrapper for Algorithm 1: return ``max_T LO_G(T)``."""
    return OpacityComputer(typing, length_threshold, engine=engine).max_opacity(graph)
