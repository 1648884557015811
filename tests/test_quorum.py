"""Tests for the Quorum speculation phase (paper §2.1)."""

import pytest

from repro.core.adt import consensus_adt
from repro.core.invariants import check_first_phase_invariants
from repro.core.speculative import consensus_rinit, is_speculatively_linearizable
from repro.mp.composed import QuorumOnly
from repro.mp.quorum import QuorumClient, QuorumServer
from repro.mp.sim import Network, Simulator

CONS = consensus_adt()


def jitter(rng):
    return rng.uniform(0.5, 1.5)


class TestServer:
    def test_first_proposal_sticks(self):
        sim = Simulator()
        net = Network(sim)
        server = net.register(QuorumServer("s"))
        replies = []

        class Probe(QuorumClient):
            def on_message(self, src, message):
                replies.append(message)

        probe = net.register(
            Probe("c", ["s"], lambda v: None, lambda v: None)
        )
        probe.send("s", ("q-propose", "v1"))
        sim.run()
        probe.send("s", ("q-propose", "v2"))
        sim.run()
        assert replies == [("q-accept", "v1"), ("q-accept", "v1")]
        assert server.accepted == "v1"


class TestFastPath:
    def test_two_message_delays(self):
        system = QuorumOnly(n_servers=3, seed=0)
        outcome = system.propose("c1", "v1", at=0.0)
        system.run()
        assert outcome.path == "fast"
        assert outcome.latency == 2.0
        assert outcome.decided_value == "v1"

    def test_sequential_proposals_all_decide_first_value(self):
        system = QuorumOnly(n_servers=3, seed=0)
        o1 = system.propose("c1", "v1", at=0.0)
        o2 = system.propose("c2", "v2", at=10.0)
        system.run()
        assert o1.decided_value == "v1"
        assert o2.decided_value == "v1"
        assert o2.path == "fast"  # identical accepts: decide, not switch

    def test_fast_path_scales_with_servers(self):
        for n in (3, 5, 7):
            system = QuorumOnly(n_servers=n, seed=0)
            outcome = system.propose("c1", "v1", at=0.0)
            system.run()
            assert outcome.latency == 2.0, n


class TestSwitching:
    def test_contention_forces_switch(self):
        # Random delays let servers receive proposals in different orders.
        switched_somewhere = False
        for seed in range(12):
            system = QuorumOnly(n_servers=3, seed=seed, delay=jitter)
            for i in range(3):
                system.propose(f"c{i}", f"v{i}", at=0.0)
            system.run()
            if any(o.switched for o in system.outcomes.values()):
                switched_somewhere = True
                for o in system.outcomes.values():
                    if o.switched:
                        # I3: the switch value was proposed.
                        assert o.switch_value in {"v0", "v1", "v2"}
        assert switched_somewhere

    def test_server_crash_forces_timeout_switch(self):
        system = QuorumOnly(n_servers=3, seed=0)
        system.crash_server(2, at=0.0)
        outcome = system.propose("c1", "v1", at=1.0)
        system.run()
        assert outcome.switched
        assert outcome.switch_value == "v1"
        # The switch happens when the timer expires.
        assert outcome.switch_time == pytest.approx(1.0 + system.quorum_timeout)

    def test_total_loss_switch_waits_for_one_accept(self):
        # All messages from server 2 lost: client times out and switches
        # with an accepted value it has seen.
        system = QuorumOnly(n_servers=2, seed=3)
        system.crash_server(1, at=0.0)
        outcome = system.propose("c1", "v1", at=0.0)
        system.run()
        assert outcome.switched
        assert outcome.switch_value == "v1"

    def test_wait_freedom_bound(self):
        # Every client decides or switches by timeout + one delay.
        for seed in range(8):
            system = QuorumOnly(n_servers=3, seed=seed, delay=jitter)
            outcomes = [
                system.propose(f"c{i}", f"v{i}", at=0.0) for i in range(3)
            ]
            system.run()
            for o in outcomes:
                end = o.decide_time if not o.switched else o.switch_time
                assert end is not None
                assert end <= system.quorum_timeout + 1.5


class TestInvariantsAndSLin:
    @pytest.mark.parametrize("seed", range(10))
    def test_invariants_hold_under_contention(self, seed):
        system = QuorumOnly(n_servers=3, seed=seed, delay=jitter)
        for i in range(3):
            system.propose(f"c{i}", f"v{i}", at=0.0)
        system.run()
        trace = system.trace()
        for report in check_first_phase_invariants(trace, 2):
            assert report.ok, report

    @pytest.mark.parametrize("seed", range(6))
    def test_quorum_traces_are_speculatively_linearizable(self, seed):
        system = QuorumOnly(n_servers=3, seed=seed, delay=jitter)
        for i in range(2):
            system.propose(f"c{i}", f"v{i}", at=0.0)
        system.run()
        rin = consensus_rinit(["v0", "v1"], max_extra=1)
        assert is_speculatively_linearizable(
            system.trace(), 1, 2, CONS, rin
        )

    @pytest.mark.parametrize("seed", range(6))
    def test_invariants_with_crash_and_loss(self, seed):
        system = QuorumOnly(n_servers=3, seed=seed, loss_rate=0.2)
        system.crash_server(0, at=2.0)
        for i in range(3):
            system.propose(f"c{i}", f"v{i}", at=float(i))
        system.run()
        for report in check_first_phase_invariants(system.trace(), 2):
            assert report.ok, report


def _deployment(n=3, seed=0, delay=None):
    """``n`` Quorum servers ``s0..`` on a fresh simulated network."""
    sim = Simulator(seed=seed)
    net = Network(sim) if delay is None else Network(sim, delay=delay)
    servers = [net.register(QuorumServer(f"s{j}")) for j in range(n)]
    return sim, net, servers


def _client(net, pid, servers, outcomes, **kwargs):
    """A client whose outcome lands in ``outcomes[pid]`` as
    ``(kind, value, time)``."""

    def report(kind):
        return lambda value: outcomes.setdefault(
            pid, (kind, value, net.sim.now)
        )

    return net.register(
        QuorumClient(
            pid,
            [s.pid for s in servers],
            report("decide"),
            report("switch"),
            **kwargs,
        )
    )


class TestPresumedDown:
    """A client told before its proposal which servers are presumed down
    applies the timer's switch rule without waiting for the timer."""

    def test_switches_as_soon_as_the_rest_answer_alike(self):
        sim, net, servers = _deployment()
        servers[2].crash()
        outcomes = {}
        client = _client(net, "c", servers, outcomes, timeout=6.0)
        client.presume_down("s2")
        client.propose("v")
        sim.run()
        # one round trip, not the 6.0 timer
        assert outcomes["c"] == ("switch", "v", 2.0)
        assert not client.timer_expired

    def test_the_switch_value_is_a_sticky_value_never_the_own_proposal(self):
        # c0 decides v' on the fast path; then s2 dies.  A client that
        # presumes s2 down hears v' from the two present servers and
        # must carry v' into Backup: s2 may hold v' too, so v' may have
        # been decided, as it was here.
        sim, net, servers = _deployment()
        outcomes = {}
        _client(net, "c0", servers, outcomes).propose("v'")
        sim.run()
        assert outcomes["c0"] == ("decide", "v'", 2.0)
        servers[2].crash()
        late = _client(net, "c1", servers, outcomes)
        late.presume_down("s2")
        late.propose("v")
        sim.run()
        assert outcomes["c1"][:2] == ("switch", "v'")

    def test_a_present_server_answering_last_still_gates_the_switch(self):
        # s0 is presumed down but alive: its accept alone switches
        # nobody, and once all three answered alike the client decides
        sim, net, servers = _deployment()
        outcomes = {}
        client = _client(net, "c", servers, outcomes)
        client.presume_down("s0")
        client.propose("v")
        sim.run()
        assert outcomes["c"] == ("decide", "v", 2.0)

    @pytest.mark.parametrize("seed", range(12))
    def test_never_decides_without_every_accept(self, seed):
        # jittered delays, a random crash, random presumptions and three
        # contending clients: a decision always had all n accepts, and
        # every switch value agrees with any decision
        sim, net, servers = _deployment(seed=seed, delay=jitter)
        rng = sim.rng
        dead = rng.randrange(4)
        if dead < 3:
            net.crash_at(servers[dead].pid, rng.uniform(0.0, 4.0))
        outcomes = {}
        clients = []
        for i in range(3):
            presumed = {s.pid for s in servers if rng.random() < 0.4}
            client = _client(net, f"c{i}", servers, outcomes, timeout=4.0)
            for server in presumed:
                client.presume_down(server)
            clients.append(client)
        for i, client in enumerate(clients):
            # staggered: some propose after another client decided
            sim.schedule(
                rng.uniform(0.0, 4.0),
                lambda c=client, i=i: c.propose(f"v{i}"),
            )
        sim.run()
        decided = {v for kind, v, _ in outcomes.values() if kind == "decide"}
        assert len(decided) <= 1
        for client in clients:
            kind, value, _ = outcomes[client.pid]
            if kind == "decide":
                assert set(client.accepts) == {s.pid for s in servers}
            else:
                assert value in {"v0", "v1", "v2"}
                assert not decided or value in decided


class TestPresumeDown:
    """``presume_down`` is the same rule, applied when the presumption
    arrives instead of at the next accept.  It only ever switches."""

    def test_switches_at_once_with_the_sticky_value(self):
        # c0 decides v' on the fast path; then s2 dies.  c1 hears v' from
        # s0 and s1 and waits for s2 until told it is down: it switches
        # then, with v', not its own v (v' may have been decided, as here)
        sim, net, servers = _deployment()
        outcomes = {}
        _client(net, "c0", servers, outcomes).propose("v'")
        sim.run()
        servers[2].crash()
        late = _client(net, "c1", servers, outcomes, timeout=6.0)
        late.propose("v")  # at 2.0: s0 and s1 answer at 4.0
        sim.schedule(3.0, lambda: late.presume_down("s2"))
        sim.run()
        assert outcomes["c1"] == ("switch", "v'", 5.0)
        assert set(late.accepts) == {"s0", "s1"}
        assert not late.timer_expired

    def test_with_no_accept_yet_it_waits_for_one(self):
        # every server presumed down before any answer: no outcome, and
        # the first accept to arrive is the value the round switches with
        sim, net, servers = _deployment()
        outcomes = {}
        client = _client(net, "c", servers, outcomes, timeout=6.0)
        client.propose("v")
        sim.run(until=1.5)
        for server in servers:
            client.presume_down(server.pid)
        assert outcomes == {}
        sim.run()
        assert outcomes["c"] == ("switch", "v", 2.0)

    def test_after_the_outcome_it_does_nothing(self):
        sim, net, servers = _deployment()
        outcomes = {}
        client = _client(net, "c", servers, outcomes)
        client.propose("v")
        sim.run()
        client.presume_down("s0")
        assert outcomes["c"] == ("decide", "v", 2.0)
        assert client.presumed_down == ()

    def test_never_decides_even_when_the_presumed_server_agrees(self):
        # s2 is slow, not dead: presumed down after s0 and s1 answered,
        # the round switches; s2's identical accept comes too late to
        # turn that into a decision
        sim, net, servers = _deployment()
        outcomes = {}
        client = _client(net, "c", servers, outcomes, timeout=6.0)
        net.crash_at("s2", 0.5)
        client.propose("v")
        sim.schedule(3.0, lambda: client.presume_down("s2"))
        sim.schedule(4.0, lambda: client.on_message("s2", ("q-accept", "v")))
        sim.run()
        assert outcomes["c"] == ("switch", "v", 3.0)

    @pytest.mark.parametrize("seed", range(12))
    def test_presumptions_in_flight_never_decide(self, seed):
        # jittered delays, a random crash, three contending clients and
        # presumptions arriving at random times, right or wrong: a
        # decision always had all n accepts, and every switch value is a
        # proposal that agrees with any decision
        sim, net, servers = _deployment(seed=seed, delay=jitter)
        rng = sim.rng
        dead = rng.randrange(4)
        if dead < 3:
            net.crash_at(servers[dead].pid, rng.uniform(0.0, 4.0))
        outcomes = {}
        clients = [
            _client(net, f"c{i}", servers, outcomes, timeout=4.0)
            for i in range(3)
        ]
        for i, client in enumerate(clients):
            sim.schedule(
                rng.uniform(0.0, 4.0),
                lambda c=client, i=i: c.propose(f"v{i}"),
            )
            for server in servers:
                if rng.random() < 0.4:
                    sim.schedule(
                        rng.uniform(0.0, 6.0),
                        lambda c=client, s=server.pid: c.presume_down(s),
                    )
        sim.run()
        decided = {v for kind, v, _ in outcomes.values() if kind == "decide"}
        assert len(decided) <= 1
        for client in clients:
            kind, value, _ = outcomes[client.pid]
            if kind == "decide":
                assert set(client.accepts) == {s.pid for s in servers}
            else:
                assert value in {"v0", "v1", "v2"}
                assert not decided or value in decided


class TestAcceptHook:
    def test_hears_every_accept_even_after_the_outcome(self):
        sim, net, servers = _deployment()
        heard = []
        outcomes = {}
        client = _client(
            net, "c", servers, outcomes, on_accept=heard.append
        )
        client.presume_down("s2")
        client.propose("v")
        sim.run()
        # the switch came after s0 and s1; s2's answer still reached
        # the hook, and changed no outcome
        assert outcomes["c"][0] == "switch"
        assert heard == ["s0", "s1", "s2"]
