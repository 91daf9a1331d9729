"""Competing heuristics of Zhang & Zhang ("Edge anonymity in social network
graphs", CSE 2009), reimplemented for the comparative experiments of
Section 6: GADED-Rand, GADED-Max, and GADES.

These baselines address single-edge linkage only, i.e. they are the L = 1
special case of the L-opacity model, which is why the paper compares against
them only for L = 1.  All three run on the paper's heuristics' greedy driver,
:class:`~repro.core.anonymizer.BaseAnonymizer`, built under the L = 1
construction rule of :mod:`repro.baselines.single_edge`.
"""

from repro.baselines.disclosure import (
    DisclosureSummary,
    link_disclosure_summary,
    max_link_disclosure,
    total_link_disclosure,
)
from repro.baselines.gaded import GadedMaxAnonymizer, GadedRandAnonymizer
from repro.baselines.gades import GadesAnonymizer

__all__ = [
    "DisclosureSummary",
    "link_disclosure_summary",
    "max_link_disclosure",
    "total_link_disclosure",
    "GadedRandAnonymizer",
    "GadedMaxAnonymizer",
    "GadesAnonymizer",
]
