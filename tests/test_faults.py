"""Tests for the nemesis layer: fault primitives, schedules, campaigns.

Covers the network-level fault machinery (partitions, bursts, storms,
spikes and their composition), the declarative fault-schedule vocabulary
and its seeded generator, the delta-debugging shrinker, and the campaign
runner — including the end-to-end requirement that duplication storms
and healing partitions never break linearizability, and that message
loss plus a crash during the Backup phase is ridden out by the adaptive
backoff.
"""

import pytest

from repro.__main__ import main as repro_main
from repro.core.linearizability import linearize
from repro.core.traces import strip_phase_tags
from repro.faults import (
    BurstLoss,
    CrashServer,
    DelaySpike,
    DuplicationStorm,
    FaultSchedule,
    PartitionServers,
    RecoverServer,
    SlowNode,
    random_schedule,
    run_campaign,
    shrink_schedule,
)
from repro.faults import campaign
from repro.faults.campaign import (
    CAMPAIGN_BACKOFF,
    CONSENSUS,
    ComposedTarget,
    SMRTarget,
)
from repro.mp.backoff import BackoffPolicy
from repro.mp import (
    ComposedConsensus,
    PaxosOnly,
    QuorumOnly,
    ThreePhaseConsensus,
)
from repro.mp.sim import Network, Process, Simulator


class Sink(Process):
    def __init__(self, pid):
        super().__init__(pid)
        self.received = []

    def on_message(self, src, message):
        self.received.append(message)


def tiny_network():
    sim = Simulator()
    network = Network(sim)
    a = network.register(Sink("a"))
    b = network.register(Sink("b"))
    return sim, network, a, b


class TestFaultPrimitives:
    def test_crash_at_unregistered_pid_raises_at_schedule_time(self):
        _, network, _, _ = tiny_network()
        with pytest.raises(ValueError, match="unregistered.*ghost"):
            network.crash_at("ghost", 5.0)

    def test_recover_at_unregistered_pid_raises_at_schedule_time(self):
        _, network, _, _ = tiny_network()
        with pytest.raises(ValueError, match="unregistered"):
            network.recover_at("ghost", 5.0)

    def test_partition_must_end_after_start(self):
        _, network, _, _ = tiny_network()
        with pytest.raises(ValueError, match="end after"):
            network.partition(["a"], None, start=5.0, end=5.0)

    def test_partition_needs_a_side(self):
        _, network, _, _ = tiny_network()
        with pytest.raises(ValueError, match="group_a"):
            network.partition(None, None, start=0.0, end=5.0)

    def test_overlapping_partitions_count_once_per_send(self):
        sim, network, a, b = tiny_network()
        # Two scheduled cuts cover the same link over the same window.
        network.partition(["a"], None, start=0.0, end=10.0)
        network.partition(["a"], ["b"], start=0.0, end=10.0)
        sim.schedule(1.0, lambda: a.send("b", "m"))
        sim.run()
        assert network.stats.partitioned == 1
        assert network.stats.sent == 1
        assert b.received == []

    def test_one_way_partition_blocks_only_outbound(self):
        sim, network, a, b = tiny_network()
        network.partition(["a"], None, start=0.0, end=10.0, symmetric=False)
        sim.schedule(1.0, lambda: a.send("b", "from-a"))
        sim.schedule(1.0, lambda: b.send("a", "from-b"))
        sim.run()
        assert b.received == []
        assert a.received == ["from-b"]

    def test_partition_heals(self):
        sim, network, a, b = tiny_network()
        network.partition(["a"], None, start=0.0, end=5.0)
        sim.schedule(1.0, lambda: a.send("b", "cut"))
        sim.schedule(6.0, lambda: a.send("b", "healed"))
        sim.run()
        assert b.received == ["healed"]

    def test_predicate_partition_covers_late_registrations(self):
        sim, network, a, b = tiny_network()
        network.partition(
            lambda pid: isinstance(pid, str) and pid.startswith("late"),
            None,
            start=0.0,
            end=10.0,
        )
        late = network.register(Sink("late-1"))
        sim.schedule(1.0, lambda: late.send("b", "m"))
        sim.run()
        assert b.received == []

    def test_burst_windows_compose_additively_and_restore(self):
        _, network, _, _ = tiny_network()
        first = BurstLoss(at=0.0, duration=10.0, rate=0.3)
        second = BurstLoss(at=0.0, duration=10.0, rate=0.2)
        first._open(network)
        second._open(network)
        assert network.effective_loss_rate == pytest.approx(0.5)
        first._close(network)
        second._close(network)
        assert network.effective_loss_rate == 0.0

    def test_delay_spikes_compose_multiplicatively_and_restore(self):
        _, network, _, _ = tiny_network()
        spike = DelaySpike(at=0.0, duration=10.0, factor=4.0)
        spike._open(network)
        assert network._sample_delay() == pytest.approx(4.0)
        spike._close(network)
        assert network._sample_delay() == pytest.approx(1.0)

    def test_duplication_storm_restores_baseline(self):
        _, network, _, _ = tiny_network()
        storm = DuplicationStorm(at=0.0, duration=10.0, rate=0.5)
        storm._open(network)
        assert network.effective_duplicate_rate == pytest.approx(0.5)
        storm._close(network)
        assert network.effective_duplicate_rate == 0.0


class TestFaultSchedules:
    def test_same_seed_same_schedule(self):
        one = random_schedule(seed=42, n_servers=3)
        two = random_schedule(seed=42, n_servers=3)
        assert one == two

    def test_different_seeds_differ_somewhere(self):
        schedules = {random_schedule(seed=s, n_servers=3) for s in range(20)}
        assert len(schedules) > 1

    def test_describe_is_a_replayable_line(self):
        schedule = random_schedule(seed=7, n_servers=3)
        line = schedule.describe()
        assert "seed=7" in line
        assert "horizon=" in line
        for action in schedule.actions:
            assert type(action).__name__ in line

    def test_subset_preserves_seed_and_horizon(self):
        schedule = random_schedule(seed=7, n_servers=3)
        sub = schedule.subset([0])
        assert sub.seed == schedule.seed
        assert sub.horizon == schedule.horizon
        assert sub.actions == schedule.actions[:1]

    def test_actions_sorted_by_time(self):
        for seed in range(30):
            schedule = random_schedule(seed=seed, n_servers=3)
            times = [a.at for a in schedule.actions]
            assert times == sorted(times)

    def test_at_most_a_minority_is_stopped_for_good(self):
        for seed in range(200):
            schedule = random_schedule(seed=seed, n_servers=3)
            down = set()
            for action in schedule.actions:
                if isinstance(action, CrashServer):
                    down.add(action.server)
                elif isinstance(action, RecoverServer):
                    down.discard(action.server)
            assert len(down) <= 1, (seed, schedule.describe())

    def test_generator_respects_allow_list(self):
        schedule = random_schedule(
            seed=3, n_servers=3, allow=(BurstLoss, DelaySpike)
        )
        assert all(
            isinstance(a, (BurstLoss, DelaySpike))
            for a in schedule.actions
        )

    def test_fault_classes_sorted_and_deduplicated(self):
        schedule = FaultSchedule(
            seed=0,
            actions=(
                BurstLoss(at=1.0),
                CrashServer(at=2.0),
                BurstLoss(at=3.0),
            ),
        )
        assert schedule.fault_classes() == ("BurstLoss", "CrashServer")
        assert FaultSchedule(seed=0).fault_classes() == ("None",)

    @pytest.mark.parametrize("target", [ComposedTarget(), SMRTarget()])
    @pytest.mark.parametrize(
        "action",
        [
            CrashServer(at=1.0, server=7),
            RecoverServer(at=1.0, server=-1),
            PartitionServers(at=1.0, servers=(0, 3)),
        ],
    )
    def test_a_schedule_naming_a_missing_server_is_refused(
        self, target, action
    ):
        """Binding a schedule to a deployment validates it once: one
        ValueError naming the action, on every simulated target (not an
        IndexError from deep inside whichever substrate)."""
        with pytest.raises(ValueError) as refused:
            target.run(FaultSchedule(seed=1, actions=(action,)))
        assert action.describe() in str(refused.value)
        assert "servers 0..2" in str(refused.value)

    @pytest.mark.parametrize(
        "deployment",
        [ComposedConsensus, QuorumOnly, PaxosOnly, ThreePhaseConsensus],
    )
    def test_every_deployment_takes_every_schedule(self, deployment):
        """A deployment is its own nemesis target, whatever its phases:
        crash, recovery, a partition and a gray failure inject into it
        directly and address whole physical servers."""
        system = deployment(n_servers=3, seed=2)
        schedule = FaultSchedule(
            seed=2,
            actions=(
                CrashServer(at=0.5, server=1),
                PartitionServers(at=2.0, servers=(2,), duration=15.0),
                SlowNode(at=3.0, server=0, factor=3.0, duration=20.0),
                RecoverServer(at=30.0, server=1),
            ),
        )
        schedule.inject(system)
        for i in range(3):
            system.propose(f"c{i}", f"v{i}", at=1.0 + i)
        system.run(until=schedule.horizon)
        assert system.stats.dropped_crashed and system.stats.partitioned
        assert not any(role.crashed for role in system.servers[1])
        verdict = linearize(
            strip_phase_tags(system.trace()), CONSENSUS, node_limit=200000
        )
        assert verdict.ok, verdict.reason


class TestShrinker:
    def make(self, n=6):
        return FaultSchedule(
            seed=0,
            actions=tuple(BurstLoss(at=float(i)) for i in range(n)),
        )

    def test_nonfailing_schedule_returned_unchanged(self):
        schedule = self.make()
        assert shrink_schedule(schedule, lambda s: False) == schedule

    def test_shrinks_to_the_two_guilty_actions(self):
        schedule = self.make(8)
        guilty = {schedule.actions[2], schedule.actions[5]}

        def still_fails(candidate):
            return guilty <= set(candidate.actions)

        shrunk = shrink_schedule(schedule, still_fails)
        assert set(shrunk.actions) == guilty

    def test_result_is_1_minimal(self):
        schedule = self.make(7)
        guilty = {schedule.actions[0], schedule.actions[3], schedule.actions[6]}

        def still_fails(candidate):
            return guilty <= set(candidate.actions)

        shrunk = shrink_schedule(schedule, still_fails)
        for drop in range(len(shrunk.actions)):
            keep = [i for i in range(len(shrunk.actions)) if i != drop]
            assert not still_fails(shrunk.subset(keep))

    def test_probe_budget_enforced(self):
        schedule = self.make(10)
        with pytest.raises(RuntimeError, match="probe"):
            shrink_schedule(
                schedule,
                lambda s: len(s.actions) == 10,
                max_probes=1,
            )


def directed_run(schedule, *, delay=1.0, proposals=((1.0, "v0"), (80.0, "v1"))):
    """A composed deployment under an explicit schedule and workload."""
    system = ComposedConsensus(
        n_servers=3,
        seed=0,
        delay=delay,
        expected_clients=len(proposals),
        backoff=CAMPAIGN_BACKOFF,
    )
    schedule.inject(system)
    outcomes = [
        system.propose(f"c{i}", value, at=at)
        for i, (at, value) in enumerate(proposals)
    ]
    system.run(until=schedule.horizon)
    verdict = linearize(
        strip_phase_tags(system.trace()), CONSENSUS, node_limit=200000
    )
    return system, outcomes, verdict


class TestDuplicationAndHealing:
    def test_duplication_storm_is_harmless(self):
        schedule = FaultSchedule(
            seed=0,
            actions=(DuplicationStorm(at=0.0, duration=200.0, rate=0.8),),
        )
        system, outcomes, verdict = directed_run(schedule)
        assert verdict.ok
        assert all(o.decided_value is not None for o in outcomes)
        assert system.stats.duplicated > 0

    def test_partition_heals_and_late_client_commits(self):
        # Cut a minority server off during the first proposal; the healed
        # network must serve the late client, and the trace stays
        # linearizable across the cut.
        schedule = FaultSchedule(
            seed=0,
            actions=(
                PartitionServers(at=0.0, servers=(2,), duration=30.0),
            ),
        )
        _, outcomes, verdict = directed_run(schedule)
        assert verdict.ok
        assert all(o.decided_value is not None for o in outcomes)
        decided = {o.decided_value for o in outcomes}
        assert len(decided) == 1


class TestLossAndCrashDuringBackup:
    def test_backoff_rides_out_loss_and_crash(self):
        # The crash forces the switch to Backup; the loss burst then
        # chews on the Backup phase itself.  The exponential backoff must
        # keep retrying past the burst and commit.
        schedule = FaultSchedule(
            seed=0,
            actions=(
                CrashServer(at=0.0, server=0),
                BurstLoss(at=0.0, duration=60.0, rate=0.4),
            ),
        )
        system, outcomes, verdict = directed_run(schedule)
        assert verdict.ok
        assert all(o.decided_value is not None for o in outcomes)
        assert any(o.switched for o in outcomes)
        assert system.stats.lost > 0

    def test_dead_majority_surfaces_gave_up_not_a_hang(self):
        schedule = FaultSchedule(
            seed=0,
            actions=(
                CrashServer(at=0.0, server=0),
                CrashServer(at=0.0, server=1),
            ),
        )
        _, outcomes, verdict = directed_run(
            schedule, proposals=((1.0, "v0"),)
        )
        (outcome,) = outcomes
        assert outcome.decided_value is None
        assert outcome.gave_up
        assert outcome.path == "gave_up"
        assert outcome.give_up_time is not None
        # A pending invocation is allowed by linearizability.
        assert verdict.ok


class TestAdaptiveBackoff:
    def test_delays_grow_exponentially_to_the_cap(self):
        policy = BackoffPolicy(
            base=2.0, factor=2.0, cap=16.0, jitter=0.0, max_retries=None
        )
        assert [policy.delay(k) for k in range(5)] == [
            2.0,
            4.0,
            8.0,
            16.0,
            16.0,
        ]

    def test_jitter_is_deterministic_and_bounded(self):
        policy = BackoffPolicy(base=8.0, jitter=0.25)
        first = policy.delay(0, key="client-1")
        assert first == policy.delay(0, key="client-1")
        assert first != policy.delay(0, key="client-2")
        assert 6.0 <= first <= 10.0

    def test_fixed_policy_reproduces_legacy_retry_delay(self):
        policy = BackoffPolicy.fixed(10.0)
        assert [policy.delay(k, key="c") for k in range(4)] == [10.0] * 4
        assert not policy.exhausted(10**6)

    def test_retry_budget(self):
        policy = BackoffPolicy(max_retries=3)
        assert not policy.exhausted(2)
        assert policy.exhausted(3)

    def test_validation(self):
        with pytest.raises(ValueError):
            BackoffPolicy(base=0.0)
        with pytest.raises(ValueError):
            BackoffPolicy(jitter=1.5)
        with pytest.raises(ValueError):
            BackoffPolicy(factor=0.5)


class TestCampaign:
    def test_small_campaign_all_linearizable(self):
        report = run_campaign(
            n_schedules=3, base_seed=0, emit=lambda line: None
        )
        assert report.runs == 9
        assert report.all_linearizable
        assert report.inconclusive == 0

    def test_run_lines_are_reproducible_from_print(self):
        report = run_campaign(
            n_schedules=2,
            base_seed=5,
            targets=("composed",),
            emit=lambda line: None,
        )
        for result in report.results:
            line = result.line()
            assert f"seed={result.schedule.seed}" in line
            assert "sent=" in line and "lost=" in line

    def test_identical_campaigns_are_identical(self):
        kwargs = dict(
            n_schedules=3,
            base_seed=11,
            targets=("composed",),
            emit=lambda line: None,
        )
        one = run_campaign(**kwargs)
        two = run_campaign(**kwargs)
        assert [r.line() for r in one.results] == [
            r.line() for r in two.results
        ]

    def test_summary_covers_every_run(self):
        report = run_campaign(
            n_schedules=4,
            base_seed=0,
            targets=("composed", "smr"),
            emit=lambda line: None,
        )
        grouped = report.by_fault_class()
        assert sum(len(rs) for rs in grouped.values()) == report.runs
        assert "runs=8" in report.summary()

    def test_smr_target_checks_interface_trace(self):
        target = SMRTarget()
        schedule = random_schedule(seed=2, n_servers=3)
        result = target.run(schedule)
        assert result.ok
        assert result.total == 4

    def test_a_spent_budget_is_inconclusive_end_to_end(
        self, monkeypatch, capsys
    ):
        """Seed 11's composed run answers out of response order, so its
        certificate misses and the search decides it (a certified
        history spends no budget).  Starved of nodes, the search says
        ``unknown``: the run is inconclusive, not a violation, and the
        CLI exits 2 as ``monitor`` does."""
        kwargs = dict(
            n_schedules=1, base_seed=11, targets=("composed",),
            emit=lambda line: None,
        )
        assert run_campaign(**kwargs).results[0].verdict == "ok"
        monkeypatch.setattr(campaign, "NODE_LIMIT", 1)
        report = run_campaign(**kwargs)
        (result,) = report.results
        assert result.verdict == "unknown"
        assert not result.ok and not result.violation
        assert "exceeded 1 nodes" in result.reason
        assert result.line().startswith("[composed] INCONCLUSIVE ")
        assert report.inconclusive == 1 and not report.violations
        assert repro_main(["nemesis", "1", "11"]) == 2
        out = capsys.readouterr().out
        assert "[composed] INCONCLUSIVE" in out
        assert "violations=0 inconclusive=1" in out

    def test_mutant_campaign_catches_and_shrinks(self):
        # Seed 1046 is a random schedule whose churn wipes the accept
        # quorum's memory; with the amnesiac acceptor the campaign must
        # flag it and shrink the schedule to a smaller reproducer.
        report = run_campaign(
            n_schedules=1,
            base_seed=1046,
            targets=("composed",),
            mutant=True,
            emit=lambda line: None,
        )
        assert len(report.violations) == 1
        violation = report.violations[0]
        assert violation.shrunk.seed == 1046
        assert 0 < len(violation.shrunk.actions) <= len(
            violation.result.schedule.actions
        )
        assert "seed=1046" in violation.report()

    def test_mutant_schedule_is_harmless_with_durable_acceptors(self):
        target = ComposedTarget()
        from repro.faults.campaign import MUTANT_ACTIONS

        schedule = random_schedule(
            seed=1046, n_servers=3, allow=MUTANT_ACTIONS
        )
        assert target.run(schedule, mutant=False).ok
        assert not target.run(schedule, mutant=True).ok
