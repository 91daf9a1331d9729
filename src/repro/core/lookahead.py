"""The look-ahead combination search used by both heuristics (Section 5).

The default greedy step considers single-edge moves.  With look-ahead
``la > 1``, whenever no single move strictly improves the current maximum
opacity the search widens to combinations of two edges, then three, up to
``la`` edges (the paper's recursive combination generator).

Every level is drawn whole as a :class:`CombinationLevel`, rows of
candidate indices, and handed to one batch evaluator.  The evaluator
streams the level's outcomes back as
:class:`~repro.core.opacity_session.ScoredBatch` chunks in combination
order, scored by
:meth:`~repro.core.opacity_session.OpacitySession.score_combinations`.
:meth:`TieBreaker.offer_batch` replays Algorithm 4's tie-break over each
chunk.  If no combination improves at any size, the best single-size
candidate found is returned so the greedy loop still progresses.
"""

from __future__ import annotations

import random
from collections.abc import Sequence as SequenceABC
from fractions import Fraction
from itertools import chain, combinations
from math import comb
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.anonymizer import TieBreaker
from repro.core.opacity_session import CandidateOutcome, ScoredBatch
from repro.graph.graph import Edge


class CombinationLevel(SequenceABC):
    """The combinations of one look-ahead level, as candidate-index rows.

    ``members`` is an int64 ``(combinations, size)`` array indexing
    ``candidates``, a sequence of edges or an int64 ``(k, 2)`` endpoint
    array.  Scoring reads ``members`` and the candidates' :attr:`endpoints`
    array; as a sequence the level yields the combinations it stands for
    as edge tuples, read off the same array, so only the combinations a
    caller looks at become tuples.  Slices share the endpoints.
    """

    def __init__(self, candidates: Sequence[Edge] | np.ndarray,
                 members: np.ndarray,
                 endpoints: Optional[np.ndarray] = None) -> None:
        self.candidates = candidates
        self.members = members
        self._endpoints = endpoints

    @property
    def endpoints(self) -> np.ndarray:
        """The candidates as an int64 ``(len(candidates), 2)`` array."""
        if self._endpoints is None:
            self._endpoints = np.asarray(self.candidates,
                                         dtype=np.int64).reshape(-1, 2)
        return self._endpoints

    def __len__(self) -> int:
        return self.members.shape[0]

    def __getitem__(self, index):
        if isinstance(index, slice):
            return CombinationLevel(self.candidates, self.members[index],
                                    self.endpoints)
        return tuple(map(tuple, self.endpoints[self.members[index]].tolist()))

    def __iter__(self) -> Iterator[Tuple[Edge, ...]]:
        for row in self.endpoints[self.members].tolist():
            yield tuple(map(tuple, row))


#: Batch evaluator: maps a level to its outcomes, in combination order, as
#: an iterator of chunks (so evaluation accounting interleaves per chunk).
EvaluateComboBatch = Callable[[CombinationLevel], Iterator[ScoredBatch]]


def _combinations_capped(candidates: Sequence[Edge], size: int, cap: int,
                         rng: random.Random) -> CombinationLevel:
    """All combinations of ``size`` edges, or a uniform sample of ``cap`` of them.

    The exact number of combinations can explode for large candidate sets and
    look-ahead levels; beyond ``cap`` a random subset keeps the step tractable
    (documented deviation, see DESIGN.md §5).  The count is computed exactly
    with :func:`math.comb` — a running partial product overestimates it
    (``C(30, k)`` peaks at ``k = 15`` before falling back to ``C(30, 28) =
    435``), and acting on that overestimate would leave the rejection-
    sampling loop below asking for more distinct combinations than exist,
    never terminating.

    Sampling draws candidate positions: :meth:`random.Random.sample`
    consumes the RNG by population length alone, so it picks the same
    candidates as sampling the edge list would, and each draw is sorted by
    edge.
    """
    count = len(candidates)
    total = comb(count, size)
    if total <= cap:
        members = np.fromiter(chain.from_iterable(combinations(range(count), size)),
                              dtype=np.int64, count=total * size)
        return CombinationLevel(candidates, members.reshape(total, size))
    in_order = all(a < b for a, b in zip(candidates, candidates[1:]))
    key = None if in_order else candidates.__getitem__
    positions = range(count)
    sampled: List[Tuple[int, ...]] = []
    seen = set()
    while len(sampled) < cap:
        combo = tuple(sorted(rng.sample(positions, size), key=key))
        if combo not in seen:
            seen.add(combo)
            sampled.append(combo)
    return CombinationLevel(candidates,
                            np.array(sampled, dtype=np.int64).reshape(cap, size))


def search_best_combination(candidates: Sequence[Edge],
                            evaluate_batch: EvaluateComboBatch,
                            current_fraction: Fraction,
                            lookahead: int,
                            rng: random.Random,
                            max_combinations: int,
                            _unused: None = None,
                            ) -> Optional[CandidateOutcome]:
    """Find the best edge combination of size 1..lookahead.

    Sizes are explored in increasing order; as soon as a size yields a
    candidate that strictly lowers the current maximum opacity, the best
    candidate of that size is returned (ties broken per Algorithm 4).  If no
    size improves, the best candidate observed overall is returned; ``None``
    is returned only when there are no candidates at all.

    Each level's combinations are drawn (sampled ones included) before any
    of them is evaluated, then passed to ``evaluate_batch`` as one
    :class:`CombinationLevel`.  Its outcome chunks reach both tie-breakers
    through :meth:`TieBreaker.offer_batch`, which draws from ``rng``
    exactly as per-combination offers to the level breaker, then the
    overall one, would; stop requests are the evaluator's business.

    ``_unused`` must stay ``None``: it only keeps seven-argument positional
    calls valid, such as the one ``perfbench/tracing.py`` makes when it
    wraps this function.
    """
    if _unused is not None:
        raise TypeError("search_best_combination() takes a single batch "
                        "evaluator; the seventh argument must be None")
    if not candidates:
        return None
    overall = TieBreaker(rng)
    for size in range(1, min(lookahead, len(candidates)) + 1):
        level = TieBreaker(rng)
        combos = _combinations_capped(candidates, size, max_combinations, rng)
        for scored in evaluate_batch(combos):
            TieBreaker.offer_batch((level, overall), scored)
        best_at_level = level.best
        if best_at_level is not None and best_at_level.fraction < current_fraction:
            return best_at_level
    return overall.best
