"""Tests for the discrete-event message-passing simulator."""

import pytest

from repro.mp.sim import Network, Process, Simulator, Timer


class Echo(Process):
    """Replies to every ("ping", k) with ("pong", k); records receipts."""

    def __init__(self, pid):
        super().__init__(pid)
        self.received = []

    def on_message(self, src, message):
        self.received.append((self.sim.now, src, message))
        if message[0] == "ping":
            self.send(src, ("pong", message[1]))


class TestSimulator:
    def test_virtual_time_ordering(self):
        sim = Simulator()
        order = []
        sim.schedule(2.0, lambda: order.append("late"))
        sim.schedule(1.0, lambda: order.append("early"))
        sim.run()
        assert order == ["early", "late"]

    def test_fifo_tiebreak_at_same_time(self):
        sim = Simulator()
        order = []
        sim.schedule(1.0, lambda: order.append("first"))
        sim.schedule(1.0, lambda: order.append("second"))
        sim.run()
        assert order == ["first", "second"]

    def test_now_advances(self):
        sim = Simulator()
        seen = []
        sim.schedule(3.5, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [3.5]

    def test_run_until(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: fired.append(1))
        sim.schedule(5.0, lambda: fired.append(5))
        sim.run(until=2.0)
        assert fired == [1]
        sim.run()
        assert fired == [1, 5]

    def test_max_events(self):
        sim = Simulator()
        for i in range(10):
            sim.schedule(float(i), lambda: None)
        sim.run(max_events=3)
        assert sim.events_processed == 3

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.schedule(-1.0, lambda: None)

    def test_determinism_across_runs(self):
        def run(seed):
            sim = Simulator(seed=seed)
            values = []
            def emit():
                values.append(sim.rng.random())
                if len(values) < 5:
                    sim.schedule(sim.rng.random(), emit)
            sim.schedule(0.0, emit)
            sim.run()
            return values

        assert run(42) == run(42)
        assert run(42) != run(43)


class TestTimer:
    def test_timer_fires(self):
        sim = Simulator()
        fired = []
        Timer(sim, 2.0, lambda: fired.append(sim.now))
        sim.run()
        assert fired == [2.0]

    def test_timer_cancel(self):
        sim = Simulator()
        fired = []
        timer = Timer(sim, 2.0, lambda: fired.append(1))
        timer.cancel()
        sim.run()
        assert fired == []
        assert timer.cancelled and not timer.fired


class TestNetwork:
    def test_unit_delay_roundtrip(self):
        sim = Simulator()
        net = Network(sim)
        a, b = Echo("a"), Echo("b")
        net.register(a)
        net.register(b)
        a.send("b", ("ping", 1))
        sim.run()
        assert b.received[0][0] == 1.0  # one message delay
        assert a.received[0][0] == 2.0  # the pong: two delays total
        assert a.received[0][2] == ("pong", 1)

    def test_duplicate_registration_rejected(self):
        sim = Simulator()
        net = Network(sim)
        net.register(Echo("a"))
        with pytest.raises(ValueError):
            net.register(Echo("a"))

    def test_loss(self):
        sim = Simulator(seed=1)
        net = Network(sim, loss_rate=1.0)
        a, b = Echo("a"), Echo("b")
        net.register(a)
        net.register(b)
        a.send("b", ("ping", 1))
        sim.run()
        assert b.received == []
        assert net.stats.lost == 1

    def test_duplication(self):
        sim = Simulator(seed=1)
        net = Network(sim, duplicate_rate=1.0)
        a, b = Echo("a"), Echo("b")
        net.register(a)
        net.register(b)
        a.send("b", ("ping", 1))
        sim.run(until=1.5)
        assert len(b.received) == 2
        # The ping and both reply pongs are each duplicated.
        assert net.stats.duplicated >= 1

    def test_crashed_process_drops_messages(self):
        sim = Simulator()
        net = Network(sim)
        a, b = Echo("a"), Echo("b")
        net.register(a)
        net.register(b)
        b.crash()
        a.send("b", ("ping", 1))
        sim.run()
        assert b.received == []
        assert net.stats.dropped_crashed == 1

    def test_crashed_process_stops_sending(self):
        sim = Simulator()
        net = Network(sim)
        a, b = Echo("a"), Echo("b")
        net.register(a)
        net.register(b)
        a.crash()
        a.send("b", ("ping", 1))
        sim.run()
        assert b.received == []
        assert net.stats.sent == 0

    def test_crash_at_scheduled_time(self):
        sim = Simulator()
        net = Network(sim)
        a, b = Echo("a"), Echo("b")
        net.register(a)
        net.register(b)
        net.crash_at("b", 1.5)
        a.send("b", ("ping", 1))  # arrives at 1.0: delivered
        sim.schedule(2.0, lambda: a.send("b", ("ping", 2)))  # arrives 3.0
        sim.run()
        assert [m for _, _, m in b.received] == [("ping", 1)]

    def test_timer_suppressed_after_crash(self):
        sim = Simulator()
        net = Network(sim)
        a = Echo("a")
        net.register(a)
        fired = []
        a.set_timer(2.0, lambda: fired.append(1))
        a.crash()
        sim.run()
        assert fired == []

    def test_random_delay_model(self):
        sim = Simulator(seed=5)
        net = Network(sim, delay=lambda rng: rng.uniform(0.5, 1.5))
        a, b = Echo("a"), Echo("b")
        net.register(a)
        net.register(b)
        a.send("b", ("ping", 1))
        sim.run()
        assert 0.5 <= b.received[0][0] <= 1.5

    def test_broadcast(self):
        sim = Simulator()
        net = Network(sim)
        a = Echo("a")
        peers = [Echo(f"p{i}") for i in range(3)]
        net.register(a)
        for p in peers:
            net.register(p)
        a.broadcast([p.pid for p in peers], ("ping", 7))
        sim.run(until=1.0)
        assert all(len(p.received) == 1 for p in peers)


class TestPartitions:
    def test_partition_blocks_both_directions(self):
        sim = Simulator()
        net = Network(sim)
        a, b = Echo("a"), Echo("b")
        net.register(a)
        net.register(b)
        net.partition({"a"}, {"b"}, start=0.0, end=10.0)
        a.send("b", ("ping", 1))
        sim.schedule(5.0, lambda: b.send("a", ("ping", 2)))
        sim.run(until=9.0)
        assert a.received == [] and b.received == []
        assert net.stats.partitioned == 2

    def test_partition_heals(self):
        sim = Simulator()
        net = Network(sim)
        a, b = Echo("a"), Echo("b")
        net.register(a)
        net.register(b)
        net.partition({"a"}, {"b"}, start=0.0, end=5.0)
        sim.schedule(6.0, lambda: a.send("b", ("ping", 1)))
        sim.run()
        assert len(b.received) == 1

    def test_partition_does_not_affect_same_side(self):
        sim = Simulator()
        net = Network(sim)
        a, b, c = Echo("a"), Echo("b"), Echo("c")
        for p in (a, b, c):
            net.register(p)
        net.partition({"a", "b"}, {"c"}, start=0.0, end=10.0)
        a.send("b", ("ping", 1))
        sim.run(until=3.0)
        assert len(b.received) == 1

    def test_in_flight_messages_survive_cut(self):
        sim = Simulator()
        net = Network(sim)
        a, b = Echo("a"), Echo("b")
        net.register(a)
        net.register(b)
        net.partition({"a"}, {"b"}, start=0.5, end=10.0)
        a.send("b", ("ping", 1))  # sent at t=0, arrives t=1 (cut at 0.5)
        sim.run(until=2.0)
        assert len(b.received) == 1

    def test_invalid_partition_rejected(self):
        sim = Simulator()
        net = Network(sim)
        with pytest.raises(ValueError):
            net.partition({"a"}, {"b"}, start=5.0, end=5.0)


class TestPartitionedConsensus:
    def test_minority_partition_blocks_then_heals(self):
        from repro.mp import ComposedConsensus

        system = ComposedConsensus(n_servers=3, seed=0)
        # Cut the client side from server 2's roles: Quorum cannot get
        # all accepts, Backup still has a majority.
        cut = {("qs", 2), ("acc", 2), ("coord", 2)}
        rest = set(system.network.processes) - cut | {("qcli", 0), ("bcli", 0)}
        system.network.partition(cut, rest, start=0.0, end=100.0)
        outcome = system.propose("c1", "v1", at=1.0)
        system.run(until=400.0)
        assert outcome.decided_value == "v1"
        assert outcome.path == "slow"

    def test_majority_partition_is_safe_not_live(self):
        from repro.mp import ComposedConsensus

        system = ComposedConsensus(n_servers=3, seed=0)
        cut = {
            ("qs", 1), ("acc", 1), ("coord", 1),
            ("qs", 2), ("acc", 2), ("coord", 2),
        }
        rest = set(system.network.processes) - cut | {("qcli", 0), ("bcli", 0)}
        system.network.partition(cut, rest, start=0.0, end=150.0)
        outcome = system.propose("c1", "v1", at=1.0)
        system.run(until=100.0)
        assert outcome.decided_value is None  # no majority reachable
        system.run(until=800.0)  # partition heals at 150
        assert outcome.decided_value == "v1"  # retries get through
