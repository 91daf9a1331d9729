"""The look-ahead combination search used by both heuristics (Section 5).

The default greedy step considers single-edge moves.  With look-ahead
``la > 1``, whenever no single move strictly improves the current maximum
opacity the search widens to combinations of two edges, then three, up to
``la`` edges (the paper's recursive combination generator).  Every level
hands its whole combination list to one batch evaluator, which streams the
outcomes back in combination order; the batched scan modes compute them in
stacked :meth:`~repro.core.opacity_session.OpacitySession.evaluate_edits`
chunks.  If no combination improves at any size, the best single-size
candidate found is returned so the greedy loop still progresses.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from math import comb
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

from repro.core.anonymizer import CandidateOutcome, TieBreaker
from repro.graph.graph import Edge

#: Batch evaluator: maps a list of combinations to their outcomes (an
#: iterator, so evaluation accounting interleaves per candidate).
EvaluateComboBatch = Callable[[Sequence[Tuple[Edge, ...]]],
                              Iterator[CandidateOutcome]]


def _combinations_capped(candidates: Sequence[Edge], size: int, cap: int,
                         rng: random.Random) -> List[Tuple[Edge, ...]]:
    """All combinations of ``size`` edges, or a uniform sample of ``cap`` of them.

    The exact number of combinations can explode for large candidate sets and
    look-ahead levels; beyond ``cap`` a random subset keeps the step tractable
    (documented deviation, see DESIGN.md §5).  The count is computed exactly
    with :func:`math.comb` — a running partial product overestimates it
    (``C(30, k)`` peaks at ``k = 15`` before falling back to ``C(30, 28) =
    435``), and acting on that overestimate would leave the rejection-
    sampling loop below asking for more distinct combinations than exist,
    never terminating.
    """
    total = comb(len(candidates), size)
    if total <= cap:
        return list(combinations(candidates, size))
    pool = list(candidates)
    sampled: List[Tuple[Edge, ...]] = []
    seen = set()
    while len(sampled) < cap:
        combo = tuple(sorted(rng.sample(pool, size)))
        if combo not in seen:
            seen.add(combo)
            sampled.append(combo)
    return sampled


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
    of them is evaluated, then passed to ``evaluate_batch`` in one list.
    Its outcomes reach both tie-breakers in combination order, so the
    seeded draws of :meth:`TieBreaker.offer` follow the same sequence
    whatever the evaluator computes per call; stop requests are the
    evaluator's business (the batched scans raise them at most one
    ``BATCH_SCAN_CHUNK`` apart).

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
        for outcome in evaluate_batch(combos):
            level.offer(outcome)
            overall.offer(outcome)
        best_at_level = level.best
        if best_at_level is not None and best_at_level.fraction < current_fraction:
            return best_at_level
    return overall.best
