"""Core contribution of the paper: the L-opacity model and its algorithms.

Contents
--------
* :mod:`repro.core.pair_types` — vertex-pair typings (Definition 1).
* :mod:`repro.core.opacity` — opacity matrices and ``maxLO`` (Algorithm 1).
* :mod:`repro.core.opacity_session` — stateful delta-evaluated opacity
  sessions driving the candidate scans.
* :mod:`repro.core.edge_removal` — the Edge Removal heuristic (Algorithm 4).
* :mod:`repro.core.edge_removal_insertion` — Edge Removal/Insertion (Algorithm 5).
* :mod:`repro.core.lookahead` — the shared look-ahead combination search.
* :mod:`repro.core.hardness` — Theorem 1's 3-SAT reduction.
"""

from repro.core.adversary import DegreeAdversary, LinkageInference
from repro.core.pair_types import (
    DegreePairTyping,
    ExplicitPairTyping,
    PairTyping,
    TypeKey,
)
from repro.core.opacity import OpacityComputer, OpacityResult, TypeOpacity
from repro.core.opacity_session import OpacitySession
from repro.core.anonymizer import (
    AnonymizationCheckpoint,
    AnonymizationResult,
    AnonymizationStep,
    AnonymizerConfig,
    BaseAnonymizer,
    ThetaScheduleTracker,
    validate_theta_schedule,
)
from repro.core.edge_removal import EdgeRemovalAnonymizer
from repro.core.edge_removal_insertion import EdgeRemovalInsertionAnonymizer
from repro.core.hardness import (
    SatInstance,
    build_lopacification_instance,
    brute_force_satisfiable,
    random_sat_instance,
)

__all__ = [
    "DegreeAdversary",
    "LinkageInference",
    "DegreePairTyping",
    "ExplicitPairTyping",
    "PairTyping",
    "TypeKey",
    "OpacityComputer",
    "OpacityResult",
    "TypeOpacity",
    "OpacitySession",
    "AnonymizationCheckpoint",
    "AnonymizationResult",
    "AnonymizationStep",
    "AnonymizerConfig",
    "ThetaScheduleTracker",
    "validate_theta_schedule",
    "BaseAnonymizer",
    "EdgeRemovalAnonymizer",
    "EdgeRemovalInsertionAnonymizer",
    "SatInstance",
    "build_lopacification_instance",
    "brute_force_satisfiable",
    "random_sat_instance",
]
