"""Tests for the gray-failure & storage-fault nemesis.

Three layers, mirroring the implementation:

* the simulator's gray windows (slow node, timer drift, clock skew) as
  observable scheduling facts, then as directed nemesis campaigns whose
  every history must stay linearizable;
* the WAL degradation matrix over the injectable filesystem seam —
  torn tails tolerated, interior bit flips fail-stopped, ``ENOSPC``
  rolled back and retried, lying fsync exposed as a clean tear — plus
  the :class:`~repro.net.node._DurableRole` backoff-and-retry state
  machine driven over a simulated network;
* the live TCP cluster under a gray burst (slow node + asymmetric
  bridge + torn-tail restart) and the bit-flip fail-stop canary.
"""

import os

import pytest

from repro.faults import (
    ClockSkew,
    FaultSchedule,
    SlowNode,
    TimerDrift,
    random_schedule,
)
from repro.faults.campaign import SMRTarget
from repro.faults.netcampaign import (
    NetPartition,
    NetSlowNode,
    RestartNode,
    WALBitFlip,
    WALNoSpace,
    WALTearTail,
    asymmetric_bridge,
    random_net_schedule,
    run_net_campaign,
)
from repro.mp.sim import Network, Process, Simulator
from repro.net.faultfs import (
    FaultyFS,
    TornWriteCrash,
    flip_record_body,
    tear_tail,
)
from repro.net.node import _DurableRole
from repro.net.wal import (
    NodeWAL,
    WALCorruptionError,
    WALFullError,
    WriteAheadLog,
)

SILENT = lambda line: None  # noqa: E731


class Sink(Process):
    def __init__(self, pid):
        super().__init__(pid)
        self.received = []  # (arrival time, message)

    def on_message(self, src, message):
        self.received.append((self.network.now, message))


# ----------------------------------------------------------------------
# simulator gray windows
# ----------------------------------------------------------------------


class TestSimGrayWindows:
    def rig(self):
        sim = Simulator()
        network = Network(sim)
        a = network.register(Sink("a"))
        b = network.register(Sink("b"))
        return sim, network, a, b

    def test_slow_node_multiplies_delivery_delay(self):
        sim, network, a, b = self.rig()
        network.slow_node(["b"], 3.0, start=0.0, end=10.0)
        sim.schedule(1.0, lambda: a.send("b", "in-window"))
        sim.schedule(20.0, lambda: a.send("b", "after"))
        sim.run()
        # baseline delay is 1.0: tripled inside the window, honest after
        assert b.received == [(4.0, "in-window"), (21.0, "after")]

    def test_slow_windows_compose_multiplicatively(self):
        _, network, _, _ = self.rig()
        network.slow_node(["b"], 2.0, start=0.0, end=10.0)
        network.slow_node(["b"], 3.0, start=0.0, end=10.0)
        assert network.slow_factor("b") == 6.0
        assert network.slow_factor("a") == 1.0

    def test_timer_drift_scales_set_timer(self):
        sim, network, a, _ = self.rig()
        network.timer_drift(["a"], 2.0, start=0.0, end=100.0)
        fired = []
        sim.schedule(
            1.0, lambda: a.set_timer(5.0, lambda: fired.append(network.now))
        )
        sim.run()
        assert fired == [11.0]  # armed at 1.0, 5.0 stretched 2x

    def test_clock_skew_lies_only_to_local_now(self):
        sim, network, a, b = self.rig()
        network.clock_skew(["a"], 25.0, start=0.0, end=10.0)
        readings = []
        sim.schedule(
            1.0, lambda: readings.append((a.local_now(), b.local_now()))
        )
        sim.schedule(
            11.0, lambda: readings.append((a.local_now(), b.local_now()))
        )
        sim.run()
        assert readings[0] == (26.0, 1.0)  # a lies, b is honest
        assert readings[1] == (11.0, 11.0)  # window closed: truth again

    def test_windows_reject_degenerate_bounds(self):
        _, network, _, _ = self.rig()
        with pytest.raises(ValueError):
            network.slow_node(["a"], 2.0, start=5.0, end=5.0)
        with pytest.raises(ValueError):
            network.timer_drift(["a"], 0.0, start=0.0, end=5.0)
        with pytest.raises(ValueError):
            network.clock_skew(["a"], 1.0, start=5.0, end=1.0)


class TestSimGrayCampaigns:
    @pytest.mark.parametrize(
        "action",
        [
            SlowNode(at=5.0, server=1, factor=4.0, duration=60.0),
            TimerDrift(at=5.0, server=1, rate=2.5, duration=60.0),
            TimerDrift(at=5.0, server=0, rate=0.4, duration=60.0),
            ClockSkew(at=5.0, server=2, offset=40.0, duration=60.0),
        ],
        ids=["slow", "drift-late", "drift-early", "skew"],
    )
    def test_directed_gray_schedule_stays_linearizable(self, action):
        result = SMRTarget().run(
            FaultSchedule(seed=9, actions=(action,))
        )
        assert result.ok

    def test_gray_campaign_runs_are_reproducible(self):
        schedule = FaultSchedule(
            seed=7,
            actions=(
                SlowNode(at=5.0, server=0, factor=3.0, duration=50.0),
                TimerDrift(at=20.0, server=1, rate=2.0, duration=50.0),
                ClockSkew(at=40.0, server=2, offset=-30.0, duration=50.0),
            ),
        )
        one = SMRTarget().run(schedule)
        two = SMRTarget().run(schedule)
        assert one.line() == two.line()
        assert one.ok

    def test_random_schedule_draws_every_gray_shape(self):
        kinds = set()
        for seed in range(120):
            schedule = random_schedule(seed=seed, n_servers=3)
            assert schedule == random_schedule(seed=seed, n_servers=3)
            kinds.update(schedule.fault_classes())
        assert {"SlowNode", "TimerDrift", "ClockSkew"} <= kinds


# ----------------------------------------------------------------------
# WAL degradation matrix
# ----------------------------------------------------------------------


class TestWALFaultMatrix:
    def seeded_log(self, tmp_path, n=3):
        wal = WriteAheadLog(str(tmp_path))
        for i in range(n):
            wal.append(("qs", i, f"v{i}"))
        wal.close()
        return os.path.join(str(tmp_path), "wal.log")

    def test_torn_tail_is_tolerated_and_reopens_clean(self, tmp_path):
        path = self.seeded_log(tmp_path)
        whole = os.path.getsize(path)
        assert tear_tail(path, cut=3)
        # a crash mid-append: the complete (possibly acknowledged)
        # records are all there, the torn one is the append in flight
        assert whole < os.path.getsize(path) < whole + whole // 3
        wal = WriteAheadLog(str(tmp_path))
        assert wal.torn_tail
        assert [r[2] for r in wal.records] == ["v0", "v1", "v2"]
        wal.append(("qs", 9, "post-tear"))
        wal.close()
        again = WriteAheadLog(str(tmp_path))
        assert not again.torn_tail
        assert [r[2] for r in again.records] == [
            "v0", "v1", "v2", "post-tear",
        ]
        again.close()

    def test_a_tear_needs_a_record_longer_than_the_cut(self, tmp_path):
        path = self.seeded_log(tmp_path, n=0)
        assert not tear_tail(path, cut=3)  # empty log
        assert not tear_tail(str(tmp_path / "absent.log"))
        path = self.seeded_log(tmp_path, n=1)
        assert not tear_tail(path, cut=os.path.getsize(path))

    def test_bit_flip_fail_stops_replay(self, tmp_path):
        path = self.seeded_log(tmp_path)
        assert flip_record_body(path, seed=5)
        with pytest.raises(WALCorruptionError):
            WriteAheadLog(str(tmp_path))

    def test_enospc_rolls_back_and_recovers(self, tmp_path):
        fs = FaultyFS(seed=1)
        wal = WriteAheadLog(str(tmp_path), fs=fs)
        wal.append(("qs", 0, "a"))
        fs.fail_appends(2, partial=True)
        for _ in range(2):
            with pytest.raises(WALFullError):
                wal.append(("qs", 1, "b"))
        wal.append(("qs", 1, "b"))  # space came back
        wal.close()
        replay = WriteAheadLog(str(tmp_path))
        assert not replay.torn_tail  # partial frames were rolled back
        assert [r[2] for r in replay.records] == ["a", "b"]
        replay.close()

    def test_torn_append_kills_the_process_not_the_prefix(self, tmp_path):
        fs = FaultyFS(seed=2)
        wal = WriteAheadLog(str(tmp_path), fs=fs)
        wal.append(("qs", 0, "a"))
        fs.tear_next_append()
        with pytest.raises(TornWriteCrash):
            wal.append(("qs", 1, "lost"))
        # the fs died with the process; any further use must refuse
        with pytest.raises(TornWriteCrash):
            wal.append(("qs", 2, "ghost"))
        # a restart (fresh honest fs) tolerates the tear
        replay = WriteAheadLog(str(tmp_path))
        assert replay.torn_tail
        assert [r[2] for r in replay.records] == ["a"]
        replay.close()

    def test_lying_fsync_exposed_by_power_cut_reads_clean(self, tmp_path):
        fs = FaultyFS(seed=3, lying_fsync=True)
        wal = WriteAheadLog(str(tmp_path), fs=fs)
        wal.append(("qs", 0, "a"))
        wal.append(("qs", 1, "b"))
        wal.close()
        fs.drop_unsynced(os.path.join(str(tmp_path), "wal.log"))
        replay = WriteAheadLog(str(tmp_path))
        # nothing was honestly durable, so everything is gone — but the
        # log is a clean (empty) prefix, not corruption
        assert replay.records == []
        replay.close()

    def test_a_power_cut_keeps_what_an_earlier_process_synced(self, tmp_path):
        # this FaultyFS never opened the log, so it knows nothing unsynced
        wal = NodeWAL(str(tmp_path))
        wal.record_decided(0, ("put", "x", 1))
        wal.close()
        FaultyFS().drop_unsynced(os.path.join(str(tmp_path), "wal.log"))
        replay = NodeWAL(str(tmp_path))
        assert replay.state.decided == {0: ("put", "x", 1)}
        replay.close()

    def test_corrupt_reads_fail_stop_the_fold(self, tmp_path):
        self.seeded_log(tmp_path)
        fs = FaultyFS(seed=4, corrupt_reads=True)
        with pytest.raises(WALCorruptionError):
            NodeWAL(str(tmp_path), fs=fs)
        assert fs.stats["flipped_reads"] == 1

    def test_lying_fsync_per_record_loses_a_clean_suffix(self, tmp_path):
        # record_durable syncs each record before it queues the reply;
        # if every fsync lies, the power cut drops the whole run back to
        # the last honest sync — a clean prefix replay, exactly the
        # per-append story of the bare log above.
        import asyncio

        fs = FaultyFS(seed=5, lying_fsync=True)
        wal = NodeWAL(str(tmp_path), fs=fs)
        opened = fs.stats["fsyncs"]

        async def tick():
            for slot in range(4):
                wal.record_durable("dec", slot, f"v{slot}", lambda: None)
            await asyncio.sleep(0)  # the replies' tick

        asyncio.run(tick())
        assert fs.stats["fsyncs"] == opened + 4  # each "succeeded"
        wal.close()
        fs.drop_unsynced(os.path.join(str(tmp_path), "wal.log"))
        replay = NodeWAL(str(tmp_path))
        # nothing was honestly durable: the records are gone together,
        # the log reads as a clean (empty) prefix, never corruption
        assert replay.state.decided == {}
        assert not replay.state.torn_tail
        replay.close()


# ----------------------------------------------------------------------
# _DurableRole ENOSPC backoff over a simulated network
# ----------------------------------------------------------------------


class _EchoBase(Process):
    """Volatile base: remember the last value, ack it back."""

    def __init__(self, pid):
        super().__init__(pid)
        self.value = None

    def on_message(self, src, message):
        self.value = message
        self.send(src, ("ack", message))

    def durable_state(self):
        return self.value

    def on_recover(self, state):
        self.value = state


class EchoRole(_DurableRole, _EchoBase):
    def __init__(self, pid, wal):
        super().__init__(pid)
        self._wire_wal(wal, "qs", 0)


class TestDurableRoleBackoff:
    def rig(self, tmp_path, fs):
        sim = Simulator()
        network = Network(sim, delay=0.001)
        wal = NodeWAL(str(tmp_path), fs=fs)
        role = network.register(EchoRole("server", wal))
        client = network.register(Sink("client"))
        return sim, role, client

    def test_enospc_defers_the_reply_until_persisted(self, tmp_path):
        fs = FaultyFS(seed=4)
        sim, role, client = self.rig(tmp_path, fs)
        fs.fail_appends(2)
        sim.schedule(0.01, lambda: client.send("server", "v1"))
        # arrives while the retry is pending: dropped, never answered
        sim.schedule(0.02, lambda: client.send("server", "v2"))
        sim.run()
        assert [m for _, m in client.received] == [("ack", "v1")]
        assert not role._wal.closed
        assert fs.stats["enospc"] == 2
        # the ack was only released once the fact was really on disk
        role._wal.close()
        assert NodeWAL(str(tmp_path)).state.quorum[0] == "v1"

    def test_exhausted_backoff_fail_stops(self, tmp_path):
        fs = FaultyFS(seed=5)
        sim, role, client = self.rig(tmp_path, fs)
        fs.fail_appends(100)  # the disk never comes back
        sim.schedule(0.01, lambda: client.send("server", "v1"))
        sim.run()
        assert client.received == []
        assert role._wal.closed
        # fail-stopped: later frames are dropped, not answered
        sim.schedule(0.01, lambda: client.send("server", "v2"))
        sim.run()
        assert client.received == []


# ----------------------------------------------------------------------
# live-cluster gray campaigns
# ----------------------------------------------------------------------


class TestNetScheduleGeneration:
    def test_gray_shapes_are_drawn_deterministically(self):
        kinds = set()
        one_way = False
        for seed in range(120):
            schedule = random_net_schedule(seed=seed)
            assert schedule == random_net_schedule(seed=seed)
            kinds.update(schedule.fault_classes())
            one_way = one_way or any(
                isinstance(a, NetPartition) and a.one_way
                for a in schedule.actions
            )
        assert "NetSlowNode" in kinds
        assert one_way

    def test_asymmetric_bridge_is_a_ring_of_one_way_cuts(self):
        actions = asymmetric_bridge(at=0.5, duration=0.4)
        assert len(actions) == 3
        assert all(a.one_way for a in actions)
        assert {(a.a, a.b) for a in actions} == {
            ("node0", "node1"),
            ("node1", "node2"),
            ("node2", "node0"),
        }


class TestLiveGrayCampaign:
    def test_gray_burst_campaign_stays_linearizable(self):
        """Slow node + asymmetric bridge + torn-tail WAL restart, all in
        one live run: every recorded history must still linearize."""
        schedule = FaultSchedule(
            seed=0,
            actions=(
                NetSlowNode(at=0.3, node=1, delay=0.03, duration=0.8),
                *asymmetric_bridge(at=0.5, duration=0.4),
                WALTearTail(at=0.7, node=2, cut=3),
                RestartNode(at=1.2, node=2),
            ),
            horizon=3.0,
        )
        report = run_net_campaign(
            schedules=[schedule],
            clients=2,
            ops_per_client=5,
            emit=SILENT,
        )
        assert report.all_linearizable
        (run,) = report.runs
        assert run.ok
        assert run.kills == 1
        assert run.restarts == 1
        assert run.failstops == 0
        assert run.committed > 0

    def test_bit_flip_fail_stops_the_node(self):
        """A flipped record body must keep the node dead: the restart
        raises WALCorruptionError, the run counts a failstop, and the
        surviving majority keeps the history linearizable."""
        schedule = FaultSchedule(
            seed=1,
            actions=(
                WALBitFlip(at=0.7, node=2),
                RestartNode(at=1.2, node=2),
            ),
            horizon=3.0,
        )
        report = run_net_campaign(
            schedules=[schedule],
            clients=2,
            ops_per_client=5,
            emit=SILENT,
        )
        assert report.all_linearizable
        (run,) = report.runs
        assert run.ok
        assert run.kills == 1
        assert run.restarts == 0
        assert run.failstops == 1
        assert "failstops=1" in run.line()

    def test_wal_nospace_backpressure_stays_linearizable(self):
        """ENOSPC on one replica's WAL: held replies and backoff retries
        on that node, Backup progress through the others — and no reply
        about unpersisted state, so the history linearizes."""
        schedule = FaultSchedule(
            seed=2,
            actions=(WALNoSpace(at=0.4, node=1, count=3),),
            horizon=3.0,
        )
        report = run_net_campaign(
            schedules=[schedule],
            clients=2,
            ops_per_client=5,
            emit=SILENT,
        )
        assert report.all_linearizable
        (run,) = report.runs
        assert run.ok
        assert run.committed > 0
