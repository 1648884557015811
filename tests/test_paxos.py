"""Tests for the single-decree Paxos implementation (the Backup engine)."""

import itertools

import pytest

from repro.faults.mutants import ReusedBallotCoordinator
from repro.mp.composed import PaxosOnly
from repro.mp.paxos import PaxosAcceptor, PaxosCoordinator
from repro.mp.sim import Network, Process, Simulator
from repro.net.wal import NodeWAL


class Collector(Process):
    """Records every message it receives."""

    def __init__(self, pid):
        super().__init__(pid)
        self.received = []

    def on_message(self, src, message):
        self.received.append((src, message))


class TestAcceptor:
    def _setup(self):
        sim = Simulator()
        net = Network(sim)
        acceptor = net.register(PaxosAcceptor("a"))
        probe = net.register(Collector("p"))
        return sim, net, acceptor, probe

    def test_promise_on_higher_ballot(self):
        sim, net, acceptor, probe = self._setup()
        probe.send("a", ("prepare", 5))
        sim.run()
        assert probe.received == [("a", ("promise", 5, -1, None))]
        assert acceptor.promised == 5

    def test_nack_on_stale_prepare(self):
        sim, net, acceptor, probe = self._setup()
        probe.send("a", ("prepare", 5))
        sim.run()
        probe.send("a", ("prepare", 3))
        sim.run()
        assert probe.received[-1] == ("a", ("nack", 3, 5))

    def test_accept_records_and_announces(self):
        sim, net, acceptor, probe = self._setup()
        acceptor.register_learners(["p"])
        probe.send("a", ("prepare", 5))
        sim.run()
        probe.send("a", ("accept", 5, "v"))
        sim.run()
        assert ("a", ("accepted", 5, "v")) in probe.received
        assert acceptor.accepted_value == "v"
        assert acceptor.accepted_ballot == 5

    def test_accept_rejected_below_promise(self):
        sim, net, acceptor, probe = self._setup()
        acceptor.register_learners(["p"])
        probe.send("a", ("prepare", 5))
        sim.run()
        probe.send("a", ("accept", 4, "v"))
        sim.run()
        assert ("a", ("nack", 4, 5)) in probe.received
        assert acceptor.accepted_value is None

    def test_promise_reports_prior_acceptance(self):
        sim, net, acceptor, probe = self._setup()
        acceptor.register_learners(["p"])
        probe.send("a", ("prepare", 1))
        sim.run()
        probe.send("a", ("accept", 1, "v"))
        sim.run()
        probe.send("a", ("prepare", 7))
        sim.run()
        assert ("a", ("promise", 7, 1, "v")) in probe.received


class TestEndToEnd:
    def test_three_delay_decision(self):
        system = PaxosOnly(n_servers=3, seed=0)
        outcome = system.propose("c1", "v1", at=5.0)
        system.run()
        assert outcome.decided_value == "v1"
        assert outcome.latency == 3.0

    def test_without_preprepare_costs_two_more_delays(self):
        system = PaxosOnly(n_servers=3, seed=0, pre_prepare=False)
        outcome = system.propose("c1", "v1", at=5.0)
        system.run()
        assert outcome.decided_value == "v1"
        assert outcome.latency == 5.0

    def test_agreement_under_concurrency(self):
        for seed in range(8):
            system = PaxosOnly(
                n_servers=3,
                seed=seed,
                delay=lambda rng: rng.uniform(0.5, 1.5),
            )
            outcomes = [
                system.propose(f"c{i}", f"v{i}", at=0.0) for i in range(4)
            ]
            system.run()
            decisions = {o.decided_value for o in outcomes}
            assert len(decisions) == 1, (seed, decisions)
            assert decisions.pop() in {f"v{i}" for i in range(4)}

    def test_validity_decided_value_was_proposed(self):
        system = PaxosOnly(n_servers=5, seed=2)
        outcomes = [
            system.propose(f"c{i}", f"v{i}", at=float(i)) for i in range(3)
        ]
        system.run()
        for o in outcomes:
            assert o.decided_value in {"v0", "v1", "v2"}

    def test_minority_acceptor_crash_tolerated(self):
        system = PaxosOnly(n_servers=3, seed=0)
        system.crash_server(2, at=0.0)
        outcome = system.propose("c1", "v1", at=1.0)
        system.run()
        assert outcome.decided_value == "v1"

    def test_coordinator_crash_failover(self):
        system = PaxosOnly(n_servers=3, seed=0)
        system.crash_server(0, at=0.0)  # the pre-prepared coordinator
        outcome = system.propose("c1", "v1", at=1.0)
        system.run()
        assert outcome.decided_value == "v1"

    def test_agreement_with_message_loss(self):
        decided = 0
        for seed in range(8):
            system = PaxosOnly(n_servers=3, seed=seed, loss_rate=0.15)
            outcomes = [
                system.propose(f"c{i}", f"v{i}", at=0.0) for i in range(3)
            ]
            system.run(until=500.0)
            decisions = {
                o.decided_value
                for o in outcomes
                if o.decided_value is not None
            }
            assert len(decisions) <= 1, (seed, decisions)
            decided += len([o for o in outcomes if o.decided_value])
        assert decided > 0

    def test_late_client_learns_existing_decision(self):
        system = PaxosOnly(n_servers=3, seed=0)
        first = system.propose("c1", "v1", at=0.0)
        late = system.propose("c2", "v2", at=50.0)
        system.run()
        assert first.decided_value == "v1"
        assert late.decided_value == "v1"

    def test_two_coordinators_duel_still_agree(self):
        # Force both coordinators to act by crashing nothing but pointing
        # clients at different coordinators via retries under loss.
        for seed in range(5):
            system = PaxosOnly(n_servers=3, seed=seed, loss_rate=0.3)
            outcomes = [
                system.propose(f"c{i}", f"v{i}", at=0.0) for i in range(2)
            ]
            system.run(until=1000.0)
            decisions = {
                o.decided_value
                for o in outcomes
                if o.decided_value is not None
            }
            assert len(decisions) <= 1, (seed, decisions)


class TestSafetyInvariants:
    def test_chosen_value_never_changes(self):
        # Once a majority accepts a ballot/value, later ballots carry the
        # same value (the essence of Paxos safety), observed through the
        # acceptors' final states.
        for seed in range(6):
            system = PaxosOnly(
                n_servers=3,
                seed=seed,
                delay=lambda rng: rng.uniform(0.5, 2.0),
                loss_rate=0.1,
            )
            outcomes = [
                system.propose(f"c{i}", f"v{i}", at=0.0) for i in range(3)
            ]
            system.run(until=500.0)
            decisions = {
                o.decided_value
                for o in outcomes
                if o.decided_value is not None
            }
            if decisions:
                decided = decisions.pop()
                accepted = {
                    a.accepted_value
                    for a in system.acceptors
                    if a.accepted_value is not None and not a.crashed
                }
                # A majority of live acceptors holds the decided value.
                assert decided in accepted


class TestCoordinatorInternals:
    """Driving the coordinator role directly through targeted schedules."""

    def _rig(self, n=3, pre_prepare=False, rank=0, **coordinator_kwargs):
        sim = Simulator()
        net = Network(sim)
        acceptors = [net.register(PaxosAcceptor(("a", i))) for i in range(n)]
        coordinator = net.register(
            PaxosCoordinator(
                "coord",
                rank=rank,
                n_coordinators=n,
                acceptors=[("a", i) for i in range(n)],
                pre_prepare=pre_prepare,
                **coordinator_kwargs,
            )
        )
        probe = net.register(Collector("probe"))
        for acceptor in acceptors:
            acceptor.register_learners(["probe", "coord"])
        return sim, net, acceptors, coordinator, probe

    def test_adopts_highest_accepted_value_from_promises(self):
        sim, net, acceptors, coordinator, probe = self._rig()
        # Acceptor 0 already accepted ("old" value at ballot 0) and
        # acceptor 1 at a higher ballot 3.
        acceptors[0].promised = 0
        acceptors[0].accepted_ballot = 0
        acceptors[0].accepted_value = "old"
        acceptors[1].promised = 3
        acceptors[1].accepted_ballot = 3
        acceptors[1].accepted_value = "newer"
        probe.send("coord", ("request", "mine"))
        sim.run()
        # The coordinator must push "newer", not "mine" or "old".
        assert coordinator.decision == "newer"

    def test_uses_first_request_when_no_prior_acceptance(self):
        sim, net, acceptors, coordinator, probe = self._rig()
        probe.send("coord", ("request", "first"))
        sim.run(until=2.0)
        probe.send("coord", ("request", "second"))
        sim.run()
        assert coordinator.decision == "first"

    def test_answers_late_requests_with_decision(self):
        sim, net, acceptors, coordinator, probe = self._rig()
        probe.send("coord", ("request", "v"))
        sim.run()
        assert coordinator.decision == "v"
        probe.received.clear()
        probe.send("coord", ("request", "late"))
        sim.run()
        assert ("coord", ("decision", "v")) in probe.received

    def test_nack_restarts_with_higher_round(self):
        sim, net, acceptors, coordinator, probe = self._rig()
        # Poison the acceptors with a promise above the coordinator's
        # first ballot (rank 0, round 0 => ballot 0).
        for acceptor in acceptors:
            acceptor.promised = 7
        probe.send("coord", ("request", "v"))
        sim.run()
        # Round adopted beyond the nack's promised ballot: 7//3+1 = 3,
        # ballot = 3*3+0 = 9 > 7, so the value still gets chosen.
        assert coordinator.decision == "v"
        assert coordinator.ballot >= 9

    # Ballot 0's owner pre-prepares for free (TestBallotZero below), so
    # the explicit prepare/promise path is pinned on a rank-1 owner.

    def test_phase1_preprepare_runs_without_requests(self):
        sim, net, acceptors, coordinator, probe = self._rig(
            pre_prepare=True, rank=1
        )
        assert not coordinator.has_quorum
        sim.run()
        assert coordinator.has_quorum
        assert coordinator.ballot == 1
        assert [a.promised for a in acceptors] == [1, 1, 1]
        assert net.stats.sent == 2 * len(acceptors)  # prepares + promises
        assert coordinator.decision is None  # nothing to propose yet

    def test_retry_timer_noop_without_pending_requests(self):
        sim, net, acceptors, coordinator, probe = self._rig(
            pre_prepare=True, rank=1
        )
        sim.run()
        assert coordinator._retry_timer is not None  # armed by the prepare
        round_before = coordinator.round
        sim.run(until=100.0)
        assert coordinator.round == round_before

    def test_restarted_preparer_is_promised_on_its_first_broadcast(self):
        # A restarted node 0 used to re-prepare ballot 0 on slots the
        # survivors had already promised: nacked, the nack ignored
        # while nothing was pending, and a request then waited out the
        # retry timer (sent at t=3, accepted at t=12 with
        # retry_delay=8).  Starting from the incarnation's round, the
        # first prepare outbids the promise of 0.
        sim, net, acceptors, coordinator, probe = self._rig(
            pre_prepare=True, first_round=1
        )
        for acceptor in acceptors:
            acceptor.promised = 0
        sim.run(until=2.5)
        assert coordinator.has_quorum
        assert (coordinator.round, coordinator.ballot) == (1, 3)
        sim.run(until=3.0)
        probe.send("coord", ("request", "v"))
        sim.run(until=5.0)  # request lands at 4, accept at 5
        assert [a.accepted_value for a in acceptors] == ["v", "v", "v"]
        assert [a.accepted_ballot for a in acceptors] == [3, 3, 3]


class TestBallotZero:
    """Phase 1 of ballot 0 is vacuous; its owner never runs it."""

    _rig = TestCoordinatorInternals._rig

    def test_owner_holds_the_quorum_without_a_message_or_a_timer(self):
        sim, net, acceptors, coordinator, probe = self._rig(pre_prepare=True)
        assert coordinator.has_quorum and coordinator.ballot == 0
        sim.run()
        assert net.stats.sent == 0
        assert coordinator._retry_timer is None
        assert [a.promised for a in acceptors] == [-1, -1, -1]

    def test_first_request_goes_straight_to_phase_two(self):
        sim, net, acceptors, coordinator, probe = self._rig(pre_prepare=True)
        probe.send("coord", ("request", "v"))
        sim.run(until=2.0)  # request lands at 1, accept(0, v) at 2
        assert [a.accepted_ballot for a in acceptors] == [0, 0, 0]
        sim.run()
        assert coordinator.decision == "v"
        assert (("a", 0), ("accepted", 0, "v")) in probe.received

    def test_a_higher_promise_nacks_the_implicit_ballot(self):
        sim, net, acceptors, coordinator, probe = self._rig(pre_prepare=True)
        for acceptor in acceptors[:2]:
            acceptor.promised = 1
            acceptor.accepted_ballot = 1
            acceptor.accepted_value = "theirs"
        probe.send("coord", ("request", "mine"))
        sim.run()
        assert coordinator.ballot > 1
        assert coordinator.decision == "theirs"

    def test_only_round_zero_of_rank_zero_is_implicit(self):
        for rank, first_round in ((1, 0), (0, 1), (2, 3)):
            *_, coordinator, _probe = self._rig(
                pre_prepare=True, rank=rank, first_round=first_round
            )
            assert not coordinator.has_quorum
            assert coordinator.ballot is None
        *_, cold, _probe = self._rig(pre_prepare=False)
        assert not cold.has_quorum  # opt-in, as before


class HandNetwork:
    """The substrate port with no clock: sends pile up in an outbox and
    the test delivers exactly those its schedule names.  Zero-delay
    callbacks (``call_soon``) run on :meth:`settle`; retry timers never
    fire, so nothing depends on timing."""

    now = 0.0

    class _Handle:
        def cancel(self):
            pass

    def __init__(self):
        self.processes = {}
        self.outbox = []
        self.soon = []

    def register(self, process):
        self.processes[process.pid] = process
        process.attach(self)
        return process

    def send(self, src, dst, message):
        self.outbox.append((src, dst, message))

    def call_later(self, delay, callback):
        if delay == 0.0:
            self.soon.append(callback)
        return self._Handle()

    def timer_scale(self, pid):
        return 1.0

    def local_now(self, pid):
        return self.now

    def settle(self, deaf):
        """Deliver until quiet; frames to a pid in ``deaf`` (or to one
        that is not hosted here) are lost."""
        while self.outbox or self.soon:
            for callback in self.soon:
                callback()
            self.soon = []
            pending, self.outbox = self.outbox, []
            for src, dst, message in pending:
                if dst in self.processes and dst not in deaf:
                    self.processes[dst].on_message(src, message)


ACCEPTORS = frozenset(("a", i) for i in range(3))
SUBSETS = [
    frozenset(c)
    for k in range(4)
    for c in itertools.combinations(sorted(ACCEPTORS), k)
]


def first_incarnation_of(tmp_path_factory):
    """What a restarted ``ReplicaNode`` passes as ``first_round``: the
    incarnation of a WAL directory opened for the second time."""
    directory = str(tmp_path_factory.mktemp("wal"))
    NodeWAL(directory).close()
    reopened = NodeWAL(directory)
    reopened.close()
    return reopened.state.incarnation


class TestRestartedOwnerOfBallotZero:
    """One value per ballot, across incarnations of the ballot's owner.

    The implicit ballot 0 gives up the one thing its phase 1 bought: a
    restarted diskless coordinator re-preparing ballot 0 was nacked by
    quorum intersection.  The guard that replaces it (a restart leaves
    ballot 0 behind) is load-bearing, so the whole small scope is
    enumerated, and the same enumeration must *find* the disagreement
    for the mutant that drops the guard.
    """

    def _run(self, coordinator_cls, restart, took_v1, reachable, v2):
        """Agreed values after: ``accept(0, v1)`` reaches ``took_v1``,
        the coordinator restarts, ``request(v2)`` arrives and only the
        acceptors in ``reachable`` answer from then on."""
        net = HandNetwork()
        learner = net.register(Collector("learner"))
        for pid in ACCEPTORS:
            acceptor = net.register(PaxosAcceptor(pid))
            acceptor.register_learners(["learner", "coord"])

        def build(first_round):
            return coordinator_cls(
                "coord",
                rank=0,
                n_coordinators=3,
                acceptors=sorted(ACCEPTORS),
                pre_prepare=True,
                first_round=first_round,
            )

        coordinator = net.register(build(0))
        coordinator.on_message("client", ("request", "v1"))
        assert net.outbox == [
            ("coord", pid, ("accept", 0, "v1")) for pid in sorted(ACCEPTORS)
        ]
        # the old incarnation hears nothing back: it dies first
        net.settle(deaf=(ACCEPTORS - took_v1) | {"coord"})
        coordinator = restart(net, coordinator, build)
        coordinator.on_message("client", ("request", v2))
        net.settle(deaf=ACCEPTORS - reachable)
        votes = {}
        for src, (_kind, ballot, value) in learner.received:
            votes.setdefault((ballot, value), set()).add(src)
        chosen = {
            value for (_b, value), who in votes.items() if len(who) >= 2
        }
        if coordinator.decision is not None:
            chosen.add(coordinator.decision)
        return chosen

    @staticmethod
    def sim_restart(net, coordinator, build):
        coordinator.crash()
        coordinator.recover()
        return coordinator

    def _enumerate(self, coordinator_cls, restart):
        """(took_v1, reachable, v2) -> chosen values, whole scope."""
        majorities = [s for s in SUBSETS if len(s) >= 2]
        return {
            (took_v1, reachable, v2): self._run(
                coordinator_cls, restart, took_v1, reachable, v2
            )
            for took_v1 in SUBSETS
            for reachable in majorities
            for v2 in ("v1", "v2")
        }

    @pytest.fixture(scope="class")
    def wire_restart(self, tmp_path_factory):
        incarnation = first_incarnation_of(tmp_path_factory)
        assert incarnation == 1

        def restart(net, coordinator, build):
            coordinator.crash()
            return net.register(build(incarnation))

        return restart

    @pytest.mark.parametrize("substrate", ["sim", "wire"])
    def test_agreement_validity_and_chosen_value_survive(
        self, substrate, wire_restart
    ):
        restart = self.sim_restart if substrate == "sim" else wire_restart
        outcomes = self._enumerate(PaxosCoordinator, restart)
        assert len(outcomes) == 8 * 4 * 2
        for (took_v1, reachable, v2), chosen in outcomes.items():
            case = (sorted(took_v1), sorted(reachable), v2)
            assert len(chosen) == 1, case  # I4, and the majority decides
            assert chosen <= {"v1", v2}, case  # I5
            if len(took_v1) >= 2:
                assert chosen == {"v1"}, case

    @pytest.mark.parametrize("substrate", ["sim", "wire"])
    def test_the_enumeration_catches_a_reused_ballot(
        self, substrate, wire_restart
    ):
        restart = self.sim_restart if substrate == "sim" else wire_restart
        outcomes = self._enumerate(ReusedBallotCoordinator, restart)
        forks = [case for case, chosen in outcomes.items() if len(chosen) > 1]
        assert forks
        # every fork is the predicted one: v1 was chosen under ballot 0,
        # then the reused ballot carried v2 to a majority
        for took_v1, _reachable, v2 in forks:
            assert len(took_v1) >= 2 and v2 == "v2"
