"""Message-passing substrate and the Section 2.1 algorithms.

A deterministic discrete-event simulator (:mod:`repro.mp.sim`) hosts the
Quorum phase (:mod:`repro.mp.quorum`), full single-decree Paxos
(:mod:`repro.mp.paxos`), the Backup wrapper (:mod:`repro.mp.backup`), the
phases as values with the one walk along a chain of them
(:mod:`repro.mp.phases`) and the deployments built from such chains
(:mod:`repro.mp.composed`, :mod:`repro.mp.multiphase`).
"""

from .composed import ComposedConsensus, PaxosOnly, PhasedConsensus, QuorumOnly
from .multiphase import ThreePhaseConsensus
from .phases import Phase

__all__ = [
    "ComposedConsensus",
    "PaxosOnly",
    "Phase",
    "PhasedConsensus",
    "QuorumOnly",
    "ThreePhaseConsensus",
]
