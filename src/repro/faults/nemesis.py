"""The nemesis: declarative, seeded fault schedules for both substrates.

The paper's guarantees are quantified over *all* schedules — crashes,
message loss, duplication, asynchrony.  The seed code exercised
hand-picked fault points (a fixed ``crash_at``, a constant
``loss_rate``); this module turns fault injection into data.  A
:class:`FaultSchedule` is an immutable value: a seed plus a tuple of
:class:`FaultAction` objects, each of which knows how to apply itself
to a deployment through the small :class:`NemesisTarget` interface —
the nemesis port, beside the substrate port the protocols run on.  The
simulator's vocabulary is below; the live TCP cluster's
(:mod:`repro.faults.netcampaign`) subclasses the same base, so one
schedule type, one shrinker and one report line serve both.  Because
schedules are plain data,

* identical seeds reproduce identical chaos (the campaign's contract);
* a schedule can be *shrunk* — delta-debugging over the action tuple
  finds a minimal reproducer when a run violates linearizability
  (:mod:`repro.faults.shrink`);
* a schedule prints as one line, so a violation report is replayable
  from the printed line alone.

Simulator vocabulary (all times are virtual, i.e. message-delay units):

========================  =================================================
:class:`CrashServer`       crash-stop every role of one physical server
:class:`RecoverServer`     restart it with durable state (crash-recovery)
:class:`PartitionServers`  cut a server group off (symmetric or one-way),
                           healing automatically — rolling partitions are
                           just several of these with shifted groups
:class:`DelaySpike`        multiply message delays during a window
:class:`BurstLoss`         add i.i.d. loss during a window
:class:`DuplicationStorm`  add i.i.d. duplication during a window
:class:`SlowNode`          gray failure: one server alive but late — its
                           message delays multiplied during a window
:class:`TimerDrift`        gray failure: one server's timers tick fast
                           or slow relative to the cluster
:class:`ClockSkew`         gray failure: one server's local clock reads
                           offset from true time
========================  =================================================

Windows compose: overlapping bursts add their rates, overlapping spikes
multiply their factors, and the network restores exactly the baseline
when each window closes (counters, not save/restore of a global).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, fields
from typing import Callable, Hashable, Iterable, List, Tuple


class NemesisTarget:
    """What a deployment must expose for the nemesis to attack it.

    The simulated deployments are this shape themselves, structurally
    (``repro.mp`` does not import this package): every chain of phases
    (:class:`~repro.mp.composed.PhasedConsensus`) and the SMR stack
    (:class:`~repro.smr.replica.SpeculativeSMR`) implement the members
    below, and virtual time lets every action be armed before the run
    starts.  The live cluster's target
    (:class:`repro.faults.netcampaign.NetTarget`) shares only the two
    attributes — its actions are applied *at* their time, through
    primitives of its own.
    """

    #: number of physical servers (fault actions address servers by index)
    n_servers: int
    #: named transport endpoints a partition may cut (the wire has
    #: them; the simulator partitions by server index instead)
    endpoints: Tuple[str, ...] = ()

    @property
    def sim(self):
        raise NotImplementedError

    @property
    def network(self):
        raise NotImplementedError

    def crash_server(self, index: int, at: float) -> None:
        raise NotImplementedError

    def recover_server(self, index: int, at: float) -> None:
        raise NotImplementedError

    def server_membership(
        self, indices: Iterable[int]
    ) -> Callable[[Hashable], bool]:
        """A pid predicate for "any role of any server in ``indices``".

        Must also cover roles registered *after* the partition is armed
        (the SMR layer creates per-slot processes lazily).
        """
        raise NotImplementedError


@dataclass(frozen=True)
class FaultAction:
    """Base class: one declarative perturbation with an absolute time."""

    at: float

    def apply(self, target: NemesisTarget) -> None:
        """Inflict this action on ``target``: the simulator's actions
        arm themselves before the run, the wire's are coroutines
        awaited at ``at``."""
        raise NotImplementedError

    def servers_named(self) -> Tuple[int, ...]:
        """The server indices this action addresses
        (:meth:`FaultSchedule.check` holds them to the target)."""
        return ()

    def endpoints_named(self) -> Tuple[str, ...]:
        """The transport endpoints this action addresses."""
        return ()

    def describe(self) -> str:
        """One compact token for schedule lines and shrink reports."""
        name = type(self).__name__
        args = ", ".join(
            f"{f.name}={getattr(self, f.name)!r}" for f in fields(self)
        )
        return f"{name}({args})"


@dataclass(frozen=True)
class _OnServer(FaultAction):
    """Shared plumbing for actions aimed at one physical server."""

    server: int = 0

    def servers_named(self) -> Tuple[int, ...]:
        return (self.server,)


@dataclass(frozen=True)
class CrashServer(_OnServer):
    """Crash-stop every role of physical server ``server`` at ``at``."""

    def apply(self, target: NemesisTarget) -> None:
        target.crash_server(self.server, self.at)


@dataclass(frozen=True)
class RecoverServer(_OnServer):
    """Restart server ``server`` at ``at`` with its durable state."""

    def apply(self, target: NemesisTarget) -> None:
        target.recover_server(self.server, self.at)


@dataclass(frozen=True)
class PartitionServers(FaultAction):
    """Cut ``servers`` off from the rest of the world for ``duration``.

    ``one_way=True`` blocks only messages *from* the group (an
    asymmetric link failure: the group still hears the world but cannot
    answer).  The cut heals automatically.
    """

    servers: Tuple[int, ...] = ()
    duration: float = 10.0
    one_way: bool = False

    def servers_named(self) -> Tuple[int, ...]:
        return self.servers

    def apply(self, target: NemesisTarget) -> None:
        target.network.partition(
            target.server_membership(self.servers),
            None,
            start=self.at,
            end=self.at + self.duration,
            symmetric=not self.one_way,
        )


@dataclass(frozen=True)
class _Window(FaultAction):
    """Shared plumbing for time-bounded network perturbations."""

    duration: float = 10.0

    def _open(self, network) -> None:
        raise NotImplementedError

    def _close(self, network) -> None:
        raise NotImplementedError

    def apply(self, target: NemesisTarget) -> None:
        network = target.network
        sim = target.sim
        sim.schedule(max(0.0, self.at - sim.now), lambda: self._open(network))
        sim.schedule(
            max(0.0, self.at + self.duration - sim.now),
            lambda: self._close(network),
        )


@dataclass(frozen=True)
class DelaySpike(_Window):
    """Multiply message delays by ``factor`` during the window."""

    factor: float = 4.0

    def _open(self, network) -> None:
        network.delay_scale *= self.factor

    def _close(self, network) -> None:
        network.delay_scale /= self.factor


@dataclass(frozen=True)
class BurstLoss(_Window):
    """Add i.i.d. message loss at ``rate`` during the window."""

    rate: float = 0.3

    def _open(self, network) -> None:
        network.extra_loss += self.rate

    def _close(self, network) -> None:
        network.extra_loss -= self.rate


@dataclass(frozen=True)
class DuplicationStorm(_Window):
    """Add i.i.d. message duplication at ``rate`` during the window."""

    rate: float = 0.5

    def _open(self, network) -> None:
        network.extra_duplicate += self.rate

    def _close(self, network) -> None:
        network.extra_duplicate -= self.rate


@dataclass(frozen=True)
class SlowNode(_OnServer):
    """Gray failure: server ``server`` stays alive and correct, but
    every message it sends or receives takes ``factor``× as long during
    the window.  Unlike :class:`DelaySpike` (cluster-wide), this skews
    *one* replica — the fast path's unanimity now waits on the straggler
    while Backup's majority does not.
    """

    factor: float = 4.0
    duration: float = 10.0

    def apply(self, target: NemesisTarget) -> None:
        target.network.slow_node(
            target.server_membership((self.server,)),
            self.factor,
            self.at,
            self.at + self.duration,
        )


@dataclass(frozen=True)
class TimerDrift(_OnServer):
    """Gray failure: server ``server``'s local tick runs at ``rate``×
    real speed during the window (timers armed while it is active fire
    ``rate``× later for rate > 1, earlier for rate < 1) — retransmit
    and coordinator-retry timers drift against the cluster.
    """

    rate: float = 2.0
    duration: float = 10.0

    def apply(self, target: NemesisTarget) -> None:
        target.network.timer_drift(
            target.server_membership((self.server,)),
            self.rate,
            self.at,
            self.at + self.duration,
        )


@dataclass(frozen=True)
class ClockSkew(_OnServer):
    """Gray failure: server ``server``'s local clock reads ``offset``
    units away from true time during the window.  Scheduling is
    untouched — the lie is visible only through ``local_now``, which is
    exactly why protocols must never gate safety on wall clocks.
    """

    offset: float = 25.0
    duration: float = 10.0

    def apply(self, target: NemesisTarget) -> None:
        target.network.clock_skew(
            target.server_membership((self.server,)),
            self.offset,
            self.at,
            self.at + self.duration,
        )


#: a simulated schedule's length in message delays, and the most fault
#: draws it makes (a crash/recover draw adds two actions)
SIM_HORIZON = 400.0
MAX_ACTIONS = 5

#: every concrete action class, for generation and (de)serialization
ACTION_CLASSES = (
    CrashServer,
    RecoverServer,
    PartitionServers,
    DelaySpike,
    BurstLoss,
    DuplicationStorm,
    SlowNode,
    TimerDrift,
    ClockSkew,
)


@dataclass(frozen=True)
class FaultSchedule:
    """A seed plus an ordered tuple of fault actions.

    The seed drives *everything* about a campaign run — the simulator
    (on the wire: the transport and storage fault draws), the workload
    and the chaos — so the schedule line printed by the campaign is a
    complete reproducer (modulo real-network timing on the wire, which
    is the point of running on sockets).  ``horizon`` is in the
    substrate's time unit: message delays for the simulator (the
    default), seconds for the live cluster (its generators say 3–4).
    """

    seed: int
    actions: Tuple[FaultAction, ...] = ()
    horizon: float = SIM_HORIZON

    def check(self, target: NemesisTarget) -> None:
        """Hold every action to what ``target`` actually has.

        A schedule is plain data and may name a server or endpoint the
        deployment lacks; that is rejected here, once, where the
        schedule is bound to a target and before anything runs — as one
        ``ValueError`` naming the action, not as whichever
        ``IndexError`` the substrate would hit mid-run.
        """
        # a simulated deployment is a target by shape alone and has no
        # named endpoints to declare
        endpoints = getattr(target, "endpoints", ())
        for action in self.actions:
            strangers = [
                i
                for i in action.servers_named()
                if not 0 <= i < target.n_servers
            ] + [e for e in action.endpoints_named() if e not in endpoints]
            if strangers:
                raise ValueError(
                    f"{action.describe()} names {strangers!r}, but the "
                    f"deployment has servers 0..{target.n_servers - 1}"
                    + (
                        f", endpoints {', '.join(endpoints)}"
                        if endpoints
                        else ""
                    )
                )

    def inject(self, target: NemesisTarget) -> None:
        """Arm every action against a simulator ``target``."""
        self.check(target)
        for action in self.actions:
            action.apply(target)

    def subset(self, keep: Iterable[int]) -> "FaultSchedule":
        """The schedule restricted to the action positions in ``keep``
        (used by the delta-debugging shrinker)."""
        kept = frozenset(keep)
        return FaultSchedule(
            seed=self.seed,
            actions=tuple(
                a for i, a in enumerate(self.actions) if i in kept
            ),
            horizon=self.horizon,
        )

    def fault_classes(self) -> Tuple[str, ...]:
        """The sorted, deduplicated action kinds (metric aggregation)."""
        kinds = {type(a).__name__ for a in self.actions}
        return tuple(sorted(kinds)) or ("None",)

    def describe(self) -> str:
        """One replayable line: seed, horizon and every action."""
        inner = "; ".join(a.describe() for a in self.actions) or "no faults"
        return f"seed={self.seed} horizon={self.horizon} [{inner}]"


def random_schedule(
    seed: int,
    n_servers: int,
    allow: Tuple[type, ...] = ACTION_CLASSES,
) -> FaultSchedule:
    """Draw a random fault schedule, deterministically from ``seed``.

    Constraints keep the chaos interesting rather than degenerate:

    * at most a minority of servers is ever crash-*stopped* for good —
      every crash beyond that budget is paired with a later recovery
      (so safety is always exercised through churn, and liveness
      metrics remain meaningful);
    * partitions isolate at most ``n_servers - 1`` servers;
    * window durations and rates are drawn from ranges matched to the
      default timeouts so faults actually overlap protocol activity.
    """
    rng = random.Random(seed)
    actions: List[FaultAction] = []
    n_actions = rng.randint(1, MAX_ACTIONS)
    minority = (n_servers - 1) // 2
    stopped_for_good = 0
    fault_span = SIM_HORIZON * 0.5  # leave the tail for recovery/quiescence

    for _ in range(n_actions):
        cls = rng.choice(allow)
        at = round(rng.uniform(0.0, fault_span), 1)
        if cls is CrashServer or cls is RecoverServer:
            server = rng.randrange(n_servers)
            recovers = rng.random() < 0.7
            if not recovers and stopped_for_good < minority:
                stopped_for_good += 1
                actions.append(CrashServer(at=at, server=server))
            else:
                # Crash-recover churn: down for a protocol-scale window.
                down = round(rng.uniform(5.0, fault_span / 2), 1)
                actions.append(CrashServer(at=at, server=server))
                actions.append(
                    RecoverServer(at=round(at + down, 1), server=server)
                )
        elif cls is PartitionServers:
            k = rng.randint(1, max(1, n_servers - 1))
            servers = tuple(sorted(rng.sample(range(n_servers), k)))
            actions.append(
                PartitionServers(
                    at=at,
                    servers=servers,
                    duration=round(rng.uniform(5.0, fault_span / 2), 1),
                    one_way=rng.random() < 0.25,
                )
            )
        elif cls is DelaySpike:
            actions.append(
                DelaySpike(
                    at=at,
                    duration=round(rng.uniform(5.0, fault_span / 3), 1),
                    factor=round(rng.uniform(2.0, 6.0), 1),
                )
            )
        elif cls is BurstLoss:
            actions.append(
                BurstLoss(
                    at=at,
                    duration=round(rng.uniform(5.0, fault_span / 3), 1),
                    rate=round(rng.uniform(0.1, 0.6), 2),
                )
            )
        elif cls is DuplicationStorm:
            actions.append(
                DuplicationStorm(
                    at=at,
                    duration=round(rng.uniform(5.0, fault_span / 3), 1),
                    rate=round(rng.uniform(0.2, 0.8), 2),
                )
            )
        elif cls is SlowNode:
            actions.append(
                SlowNode(
                    at=at,
                    server=rng.randrange(n_servers),
                    factor=round(rng.uniform(2.0, 8.0), 1),
                    duration=round(rng.uniform(5.0, fault_span / 2), 1),
                )
            )
        elif cls is TimerDrift:
            # log-symmetric around honest: as likely 1/3× as 3×
            rate = round(3.0 ** rng.uniform(-1.0, 1.0), 2)
            actions.append(
                TimerDrift(
                    at=at,
                    server=rng.randrange(n_servers),
                    rate=rate,
                    duration=round(rng.uniform(5.0, fault_span / 2), 1),
                )
            )
        elif cls is ClockSkew:
            actions.append(
                ClockSkew(
                    at=at,
                    server=rng.randrange(n_servers),
                    offset=round(rng.uniform(-50.0, 50.0), 1),
                    duration=round(rng.uniform(5.0, fault_span / 2), 1),
                )
            )

    actions.sort(key=lambda a: a.at)
    return FaultSchedule(seed=seed, actions=tuple(actions))
