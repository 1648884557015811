"""Tests for the crash-recovery model: durable state, timers, rejoins.

The simulator's recovery semantics (snapshot at crash time, volatile
state lost, pre-crash timers dead), the durable state of each protocol
role (Paxos acceptor triple, Quorum server's sticky acceptance), and the
end-to-end scenarios the nemesis campaign relies on: an acceptor
crash-recovering and rejoining mid-ballot without breaking agreement,
and the amnesiac mutant demonstrating that forgetting the triple does
break it.
"""

import pytest

from repro.core.linearizability import linearize
from repro.core.traces import strip_phase_tags
from repro.faults import (
    AmnesiacAcceptor,
    CrashServer,
    FaultSchedule,
    PartitionServers,
    RecoverServer,
    shrink_schedule,
)
from repro.faults.campaign import CAMPAIGN_BACKOFF, CONSENSUS
from repro.mp.composed import ComposedConsensus
from repro.mp.paxos import PaxosAcceptor
from repro.mp.quorum import QuorumServer
from repro.mp.sim import Network, Process, Simulator
from repro.smr.kvstore import ReplicatedKVStore


class Counter(Process):
    """Durable total, volatile bonus — distinguishes what survives."""

    def __init__(self, pid):
        super().__init__(pid)
        self.total = 0
        self.bonus = 0
        self.fired = []

    def on_message(self, src, message):
        self.total += message
        self.bonus += message

    def durable_state(self):
        return self.total

    def on_recover(self, durable):
        self.total = durable
        self.bonus = 0


class TestProcessRecovery:
    def wire(self):
        sim = Simulator()
        network = Network(sim)
        counter = network.register(Counter("counter"))
        driver = network.register(Counter("driver"))
        return sim, network, counter, driver

    def test_durable_state_snapshotted_at_crash_time(self):
        sim, network, counter, driver = self.wire()
        sim.schedule(1.0, lambda: driver.send("counter", 5))
        network.crash_at("counter", 3.0)
        network.recover_at("counter", 6.0)
        sim.run()
        assert counter.total == 5  # survived via the durable snapshot
        assert counter.bonus == 0  # volatile state was lost

    def test_recover_is_noop_when_not_crashed(self):
        _, _, counter, _ = self.wire()
        counter.total = 7
        counter.recover()
        assert counter.total == 7

    def test_crash_is_idempotent(self):
        sim, network, counter, driver = self.wire()
        sim.schedule(1.0, lambda: driver.send("counter", 5))
        sim.run()
        counter.crash()
        counter.total = 99  # post-crash mutation must not leak into disk
        counter.crash()
        counter.recover()
        assert counter.total == 5

    def test_pre_crash_timers_never_fire_after_recovery(self):
        sim, _, counter, _ = self.wire()
        counter.set_timer(5.0, lambda: counter.fired.append("pre"))
        sim.schedule(1.0, counter.crash)
        sim.schedule(2.0, counter.recover)
        sim.run()
        assert counter.fired == []

    def test_post_recovery_timers_fire(self):
        sim, _, counter, _ = self.wire()
        sim.schedule(1.0, counter.crash)
        sim.schedule(2.0, counter.recover)
        sim.schedule(
            3.0,
            lambda: counter.set_timer(
                1.0, lambda: counter.fired.append("post")
            ),
        )
        sim.run()
        assert counter.fired == ["post"]

    def test_messages_to_crashed_process_counted_dropped(self):
        sim, network, counter, driver = self.wire()
        counter.crash()
        sim.schedule(1.0, lambda: driver.send("counter", 5))
        sim.run()
        assert counter.total == 0
        assert network.stats.dropped_crashed == 1


class TestRoleDurability:
    def test_acceptor_triple_survives_restart(self):
        acceptor = PaxosAcceptor("acc")
        acceptor.promised = 7
        acceptor.accepted_ballot = 7
        acceptor.accepted_value = "v"
        acceptor.crash()
        acceptor.recover()
        assert acceptor.promised == 7
        assert acceptor.accepted_ballot == 7
        assert acceptor.accepted_value == "v"

    def test_amnesiac_acceptor_restarts_blank(self):
        acceptor = AmnesiacAcceptor("acc")
        acceptor.promised = 7
        acceptor.accepted_ballot = 7
        acceptor.accepted_value = "v"
        acceptor.crash()
        acceptor.recover()
        assert acceptor.promised == -1
        assert acceptor.accepted_value is None

    def test_quorum_server_sticky_acceptance_survives(self):
        server = QuorumServer("qs")
        server.accepted = "v"
        server.crash()
        server.recover()
        assert server.accepted == "v"


#: a directed schedule wiping the original accept quorum's memory:
#: server 2 is cut off while the first decision forms on acceptors
#: {0, 1}; both then crash-recover, so only stable storage remembers
WIPE_SCHEDULE = FaultSchedule(
    seed=0,
    actions=(
        PartitionServers(at=0.0, servers=(2,), duration=30.0),
        CrashServer(at=40.0, server=1),
        RecoverServer(at=50.0, server=1),
        CrashServer(at=55.0, server=0),
        RecoverServer(at=65.0, server=0),
    ),
    horizon=400.0,
)


def wiped_quorum_run(acceptor_cls, schedule=WIPE_SCHEDULE):
    """Early proposer decides via Backup; late proposer arrives after
    the churn.  Agreement then hinges on acceptor stable storage."""
    system = ComposedConsensus(
        n_servers=3,
        seed=0,
        expected_clients=2,
        backoff=CAMPAIGN_BACKOFF,
        acceptor_cls=acceptor_cls,
    )
    schedule.inject(system)
    early = system.propose("c0", "v0", at=1.0)
    late = system.propose("c1", "v1", at=80.0)
    system.run(until=schedule.horizon)
    verdict = linearize(
        strip_phase_tags(system.trace()), CONSENSUS, node_limit=200000
    )
    return early, late, verdict


class TestAcceptorRejoinsMidBallot:
    def test_durable_acceptor_preserves_agreement(self):
        early, late, verdict = wiped_quorum_run(PaxosAcceptor)
        assert early.decided_value == "v0"
        assert late.decided_value == "v0"  # stable storage won
        assert verdict.ok

    def test_amnesiac_acceptor_breaks_agreement(self):
        early, late, verdict = wiped_quorum_run(AmnesiacAcceptor)
        assert early.decided_value == "v0"
        assert late.decided_value == "v1"  # the forgotten decision
        assert not verdict.ok

    def test_violation_shrinks_to_minimal_schedule(self):
        def still_fails(candidate):
            _, _, verdict = wiped_quorum_run(AmnesiacAcceptor, candidate)
            return not verdict.ok

        shrunk = shrink_schedule(WIPE_SCHEDULE, still_fails)
        assert still_fails(shrunk)
        assert shrunk.seed == WIPE_SCHEDULE.seed
        # 1-minimality: every remaining action is load-bearing.
        for drop in range(len(shrunk.actions)):
            keep = [i for i in range(len(shrunk.actions)) if i != drop]
            assert not still_fails(shrunk.subset(keep))

    def test_recover_requires_registered_pids(self):
        system = ComposedConsensus(n_servers=3, seed=0)
        with pytest.raises(ValueError, match="unregistered"):
            system.network.recover_at(("acc", 99), 1.0)


class TestSMRRecovery:
    def test_recovered_server_rejoins_and_cluster_commits(self):
        kv = ReplicatedKVStore(
            n_servers=3, seed=0, backoff=CAMPAIGN_BACKOFF
        )
        kv.smr.crash_server(0, at=5.0)
        kv.smr.recover_server(0, at=40.0)
        kv.put("c0", "x", 1, at=1.0)
        kv.put("c1", "x", 2, at=10.0)
        kv.get("c2", "x", at=80.0)
        kv.run(until=400.0)
        outcomes = kv.smr.outcomes
        assert all(o.commit_time is not None for o in outcomes)
        from repro.smr.universal import kv_store_adt

        verdict = linearize(
            kv.interface_trace(), kv_store_adt(), node_limit=200000
        )
        assert verdict.ok

    def test_recovery_covers_slots_created_while_down(self):
        # Slots created during the outage mark the server crashed; the
        # recovery sweep must revive those lazily-created roles too.
        kv = ReplicatedKVStore(
            n_servers=3, seed=1, backoff=CAMPAIGN_BACKOFF
        )
        kv.smr.crash_server(1, at=0.0)
        kv.put("c0", "x", 1, at=5.0)  # slot decided while server 1 down
        kv.smr.recover_server(1, at=60.0)
        kv.put("c1", "y", 2, at=80.0)
        kv.run(until=400.0)
        assert all(o.commit_time is not None for o in kv.smr.outcomes)
        for slot, instance in kv.smr.slots.items():
            for pid in (
                ("qs", slot, 1),
                ("acc", slot, 1),
                ("coord", slot, 1),
            ):
                process = kv.smr.network.processes.get(pid)
                if process is not None:
                    assert not process.crashed
