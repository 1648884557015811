"""Message-passing substrate and the Section 2.1 algorithms.

A deterministic discrete-event simulator (:mod:`repro.mp.sim`) hosts the
Quorum phase (:mod:`repro.mp.quorum`), full single-decree Paxos
(:mod:`repro.mp.paxos`), the Backup wrapper (:mod:`repro.mp.backup`), the
phases as values with the one walk along a chain of them
(:mod:`repro.mp.phases`) and the deployments built from such chains
(:mod:`repro.mp.composed`, :mod:`repro.mp.multiphase`).
"""

from .backoff import BackoffPolicy
from .backup import BackupClient
from .composed import (
    ClientOutcome,
    ComposedConsensus,
    PaxosOnly,
    PhasedConsensus,
    QuorumOnly,
)
from .multiphase import ThreePhaseConsensus
from .paxos import PaxosAcceptor, PaxosClient, PaxosCoordinator
from .phases import Phase
from .quorum import QuorumClient, QuorumServer
from .sim import Network, NetworkStats, Process, Simulator, Timer

__all__ = [
    "BackoffPolicy",
    "BackupClient",
    "ClientOutcome",
    "ComposedConsensus",
    "Network",
    "NetworkStats",
    "PaxosAcceptor",
    "PaxosClient",
    "PaxosCoordinator",
    "PaxosOnly",
    "Phase",
    "PhasedConsensus",
    "Process",
    "QuorumClient",
    "QuorumOnly",
    "QuorumServer",
    "Simulator",
    "ThreePhaseConsensus",
    "Timer",
]
