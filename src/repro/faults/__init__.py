"""Fault injection: nemesis schedules, campaigns, shrinking, mutants.

The resilience layer of the reproduction, one chaos framework over two
substrates.  :mod:`repro.faults.nemesis` defines declarative, seeded
fault schedules — one :class:`FaultSchedule` type whose
:class:`FaultAction` s apply themselves to a :class:`NemesisTarget` —
and the simulator's vocabulary; :mod:`repro.faults.campaign` runs them
against the simulated deployments and checks every trace for
linearizability; :mod:`repro.faults.shrink` reduces violating
schedules to minimal reproducers and files them (one
:class:`~repro.faults.shrink.Violation`, either substrate);
:mod:`repro.faults.mutants` supplies intentionally broken processes that
prove the harness catches real bugs.  :mod:`repro.faults.netcampaign`
is the same discipline — seeded schedule / check every history / shrink
on violation — against the *live* socket cluster: the wire vocabulary (kill/restart churn,
transport windows on :class:`repro.net.netfaults.TransportFaults`,
at-rest WAL corruption), its target, and the WAL-disabled amnesiac-node
canary.  :func:`~repro.faults.netcampaign.run_retry_storm` is a
workload of that campaign, not a second one: duplicate-delivery bursts,
client blackouts and kill/restart churn against retrying/hedging
clients on a counter object, with a mechanical applied-exactly-once
witness and a dedup-disabled mutant canary.
:class:`~repro.faults.mutants.RacySlotPipeline` is the
interleaving-race mutant: its slot claims suspend mid-critical-section,
and the campaign run with ``race_mutant=True`` must see the runtime
interleaving sanitizer, which every wire run arms, catch it live — the
dynamic cross-check of the static RD08 lint rule.
:class:`~repro.faults.mutants.ReusedBallotCoordinator` reclaims ballot
0 after a restart; the enumerated restart test is its catcher.
"""

from .campaign import run_campaign
from .mutants import AmnesiacAcceptor, RacySlotPipeline
from .nemesis import (
    BurstLoss,
    ClockSkew,
    CrashServer,
    DelaySpike,
    DuplicationStorm,
    FaultAction,
    FaultSchedule,
    NemesisTarget,
    PartitionServers,
    RecoverServer,
    SlowNode,
    TimerDrift,
    random_schedule,
)
from .netcampaign import (
    KillNode,
    NetDupBurst,
    NetLossBurst,
    NetPartition,
    NetSlowNode,
    NetTarget,
    RestartNode,
    WALBitFlip,
    WALNoSpace,
    WALTearTail,
    asymmetric_bridge,
    random_net_schedule,
    retry_storm_schedule,
    run_net_campaign,
    run_retry_storm,
)
from .shrink import Violation, shrink_schedule

__all__ = [
    "AmnesiacAcceptor",
    "BurstLoss",
    "ClockSkew",
    "CrashServer",
    "DelaySpike",
    "DuplicationStorm",
    "FaultAction",
    "FaultSchedule",
    "KillNode",
    "NemesisTarget",
    "NetDupBurst",
    "NetLossBurst",
    "NetPartition",
    "NetSlowNode",
    "NetTarget",
    "PartitionServers",
    "RacySlotPipeline",
    "RecoverServer",
    "RestartNode",
    "SlowNode",
    "TimerDrift",
    "Violation",
    "WALBitFlip",
    "WALNoSpace",
    "WALTearTail",
    "asymmetric_bridge",
    "random_net_schedule",
    "random_schedule",
    "retry_storm_schedule",
    "run_campaign",
    "run_net_campaign",
    "run_retry_storm",
    "shrink_schedule",
]
