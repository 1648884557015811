"""Speculation phases as values, and the one walk along a chain of them.

The paper's thesis (§1, §2.4, §5.6) is that speculation phases are
modules behind one interface — invoke, respond, ``switch(value)`` — so
"a speculative system may choose between many different options, or
speculation phases", and adding one must not require touching the
existing ones.  This module is that interface for the simulator:

* a :class:`Phase` says what the phase hosts on each physical server,
  how a client enters it and how long it speculates — its pids, its
  roles and its learner wiring are its own business;
* :func:`host` registers a chain's server roles, grouped by the
  physical server they crash and recover with;
* :func:`walk` is the client's side of every deployment: enter the
  first phase; on a decision, report it; on a switch, report it and
  enter the next phase *with the switch value as its proposal* (the
  paper's rule for Backup, applied at every boundary).

A deployment is then a list: ``[quorum(n), backup(n)]`` is the paper's
composed consensus (:mod:`repro.mp.composed`), a SubQuorum goes in
front of it without touching either (:mod:`repro.mp.multiphase`), the
SMR layer hosts the same two phases once per log slot
(:mod:`repro.smr.replica`), and ``examples/custom_phase.py`` adds a
phase of its own the same way.

The walker uses only the substrate port's ``register``
(:mod:`repro.net.port`), so the TCP data plane walks the same chain per
decree (``SlotPipeline._propose``); what only the wire needs is an
argument of :func:`quorum` or :func:`backup`, never a step of the walk.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Collection,
    Hashable,
    List,
    Optional,
    Sequence,
)

from .backoff import BackoffPolicy
from .backup import BackupClient
from .paxos import PaxosAcceptor, PaxosClient, PaxosCoordinator
from .quorum import QuorumClient, QuorumServer
from .sim import Process


@dataclass(frozen=True)
class Phase:
    """One speculation phase, as a deployment sees it.

    ``client`` is the pid prefix of its client-side role: a client with
    suffix ``k`` runs in this phase as ``(client, k)``, which is also
    the key its jittered timeout is derived from.

    ``hosts(i)`` builds the roles the phase runs on physical server
    ``i`` — nothing for a server outside its subset.

    ``enter(substrate, pid, value, timeout, backoff, decide, switch,
    give_up)`` builds the client role ``pid``, registers it and proposes
    ``value``; exactly one of the three callbacks ``decide(v)``,
    ``switch(sv)``, ``give_up()`` fires, at most once.

    ``timeout`` paces the phase when the deployment has no backoff
    policy: Quorum's switch timer, Paxos's retry delay.
    """

    client: Hashable
    hosts: Callable[[int], Sequence[Process]]
    enter: Callable[..., None]
    timeout: float


def quorum(
    n_servers: int,
    role: str = "qs",
    client: str = "qcli",
    timeout: float = 6.0,
    scope: tuple = (),
    down: Collection[int] = (),
    on_accept: Optional[Callable[[Hashable], None]] = None,
) -> Phase:
    """The Quorum phase over physical servers ``0..n_servers-1``.

    On a larger cluster that is a SubQuorum: same code, same safety
    argument (decide on identical accepts from *all* of its servers),
    fewer messages.  ``scope`` is spliced into the server pids — the SMR
    layer's slot number — so instances keep separate sticky state.

    A client presumes the servers indexed in ``down`` down as it
    enters; ``on_accept(server)`` hears every accept it gets.
    """
    servers = [(role, *scope, i) for i in range(n_servers)]

    def hosts(i: int) -> Sequence[Process]:
        return (QuorumServer(servers[i]),) if i < n_servers else ()

    def enter(
        substrate, pid, value, timeout, backoff, decide, switch, give_up
    ) -> None:
        proposer = QuorumClient(pid, servers, decide, switch, timeout, on_accept)
        for i in down:
            proposer.presume_down(servers[i])
        substrate.register(proposer).propose(value)

    return Phase(client, hosts, enter, timeout)


def backup(
    n_servers: int,
    expected_clients: int = 8,
    pre_preparer: Optional[int] = 0,
    acceptor_cls: type = PaxosAcceptor,
    scope: tuple = (),
    client: str = "bcli",
    client_cls: type = BackupClient,
    begin: Callable[[Any, Hashable], None] = BackupClient.switch_to_backup,
    down: Collection[int] = (),
    enlist: Optional[Callable[[Hashable], None]] = None,
    pacing: Optional[BackoffPolicy] = None,
) -> Phase:
    """The Backup phase: coordinated Paxos behind the switch interface.

    Every server hosts an acceptor and a coordinator; coordinator
    ``pre_preparer`` (none if ``None``) holds its promise quorum before
    any request arrives.  Acceptors announce to the first
    ``expected_clients`` client pids and to every coordinator; a client
    beyond those is wired in when it enters (the SMR layer passes 0 and
    wires every client that way, since a slot cannot know who will
    switch into it).

    ``enlist(pid)`` wires a client in where the acceptors are not
    hosted here; a client asks the coordinators indexed in ``down``
    last, and ``pacing`` replaces the walk's retry policy.  The pids
    are made on first use: a phase never entered makes none.
    """
    hosted: List[PaxosAcceptor] = []
    wiring: List[List[Hashable]] = []  # acceptors, coordinators, learners

    def wired() -> List[List[Hashable]]:
        if not wiring:
            coordinators = [("coord", *scope, i) for i in range(n_servers)]
            wiring.extend((
                [("acc", *scope, i) for i in range(n_servers)], coordinators,
                [(client, c) for c in range(expected_clients)] + coordinators,
            ))
        return wiring

    def hosts(i: int) -> Sequence[Process]:
        acceptors, coordinators, learners = wired()
        acceptor = acceptor_cls(acceptors[i])
        acceptor.register_learners(learners)
        hosted.append(acceptor)
        return (
            acceptor,
            PaxosCoordinator(
                coordinators[i],
                rank=i,
                n_coordinators=n_servers,
                acceptors=acceptors,
                pre_prepare=(i == pre_preparer),
            ),
        )

    def enter(
        substrate, pid, value, timeout, backoff, decide, switch, give_up
    ) -> None:
        _acceptors, coordinators, learners = wired()
        if enlist is not None:
            enlist(pid)
        elif pid not in learners:
            learners.append(pid)
            for acceptor in hosted:
                acceptor.register_learners(learners)
        begin(
            substrate.register(
                client_cls(
                    pid,
                    sorted(coordinators, key=lambda coord: coord[-1] in down),
                    n_servers,
                    decide,
                    retry_delay=timeout,
                    backoff=pacing or backoff,
                    on_give_up=give_up,
                )
            ),
            value,
        )

    return Phase(client, hosts, enter, timeout=10.0)


def paxos(
    n_servers: int, expected_clients: int = 8, pre_prepare: bool = True
) -> Phase:
    """Plain Paxos as a first phase: clients submit their own proposal
    to the coordinators instead of switching in with one."""
    return backup(
        n_servers,
        expected_clients,
        pre_preparer=0 if pre_prepare else None,
        client="pcli",
        client_cls=PaxosClient,
        begin=PaxosClient.submit,
    )


def host(
    substrate,
    phases: Sequence[Phase],
    n_servers: int,
    down: Collection[int] = (),
) -> List[List[Process]]:
    """Register what ``phases`` host on each of ``n_servers`` physical
    servers; returns the roles grouped by server, the unit that crashes
    and recovers together.

    The roles of a server in ``down`` are registered crashed —
    ``crash()``, not a bare flag, so a later recovery restarts them like
    any other.
    """
    servers = []
    for i in range(n_servers):
        roles = [role for phase in phases for role in phase.hosts(i)]
        for role in roles:
            if i in down:
                role.crash()
            substrate.register(role)
        servers.append(roles)
    return servers


def walk(
    substrate,
    phases: Sequence[Phase],
    suffix: Hashable,
    value: Hashable,
    backoff: Optional[BackoffPolicy],
    decided: Callable[[int, Hashable], None],
    switched: Callable[[int, Hashable], None],
    gave_up: Callable[[], None],
) -> None:
    """Propose ``value`` through ``phases`` as client ``suffix``.

    ``decided(k, v)``: the phase at position ``k`` decided ``v``.
    ``switched(k, sv)``: the client left it with switch value ``sv``;
    unless it was the last phase, the next one is entered with ``sv``
    as the proposal.  ``gave_up()``: a phase exhausted its retry budget.

    With a backoff policy the phase at position ``k`` is paced by
    ``backoff.delay(k, key=pid)``: jittered per client, so concurrent
    clients stop switching (and then retrying Backup) in lock-step, and
    growing along the chain.
    """
    walker = (substrate, phases, suffix, backoff, decided, switched, gave_up)
    _enter(walker, 0, value)


def _enter(walker: tuple, position: int, proposal: Hashable) -> None:
    # not a closure of walk(): one that re-enters itself is a reference
    # cycle per walk, left to the garbage collector
    substrate, phases, suffix, backoff, decided, switched, gave_up = walker
    phase = phases[position]
    pid = (phase.client, suffix)
    timeout = phase.timeout
    if backoff is not None:
        timeout = backoff.delay(position, key=pid)

    def switch(switch_value: Hashable) -> None:
        switched(position, switch_value)
        if position + 1 < len(phases):
            _enter(walker, position + 1, switch_value)

    phase.enter(
        substrate, pid, proposal, timeout, backoff,
        lambda decision: decided(position, decision), switch, gave_up,
    )
