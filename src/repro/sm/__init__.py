"""Shared-memory substrate and the Section 2.5 algorithms.

An atomic-step interleaving machine (:mod:`repro.sm.memory`,
:mod:`repro.sm.scheduler`) hosts Lamport's splitter
(:mod:`repro.sm.splitter`), the register-based RCons phase
(:mod:`repro.sm.rcons`), the CAS-based CASCons phase
(:mod:`repro.sm.cascons`) and their composition
(:mod:`repro.sm.composed`).
"""

from .composed import explore_composed, run_composed
from .splitter import splitter

__all__ = [
    "explore_composed",
    "run_composed",
    "splitter",
]
