"""Tests of the live-cluster nemesis campaign (`repro.faults.netcampaign`).

The schedule-level properties (determinism, majority preservation,
shrinker hooks) are pure and fast; the campaign-level tests boot real
localhost clusters, so they use small directed schedules to stay in
CI-smoke range.  The amnesiac test is the canary that justifies the
whole layer: disabling one replica's WAL must surface as a checker
violation with a shrunk reproducer, not as silence.
"""

import asyncio
import json
import os
from dataclasses import dataclass

import pytest

from repro.__main__ import main as repro_main
from repro.analysis import sanitizer
from repro.faults.nemesis import FaultAction, FaultSchedule
from repro.faults.netcampaign import (
    KillNode,
    NET_ACTION_CLASSES,
    NetDupBurst,
    NetLossBurst,
    NetPartition,
    NetRunResult,
    NetSlowNode,
    RestartNode,
    WALBitFlip,
    WALNoSpace,
    WALTearTail,
    random_net_schedule,
    retry_storm_schedule,
    run_net_campaign,
    run_retry_storm,
)
from repro.monitor.cli import load_history, replay_history
from repro.net.faultfs import flip_record_body, tear_tail

SILENT = lambda line: None  # noqa: E731

#: captured from the parent of the one-framework refactor (a4a4b6b):
#: schedule lines for seeds 0..19 and the keys of both artifact reports
with open(
    os.path.join(os.path.dirname(__file__), "golden", "net_schedules.json"),
    encoding="utf-8",
) as _handle:
    GOLDEN = json.load(_handle)

#: the directed kill/restart pair of the durability canary: traffic is
#: still flowing at the kill, and the restart leaves the tail of the
#: horizon to the late reader that probes the recovered prefix
CANARY = lambda seed: FaultSchedule(  # noqa: E731
    seed=seed,
    actions=(KillNode(at=0.7, node=2), RestartNode(at=1.2, node=2)),
    horizon=3.0,
)


class TestScheduleGeneration:
    def test_deterministic_in_seed(self):
        a = random_net_schedule(seed=7)
        b = random_net_schedule(seed=7)
        assert a == b
        assert a.describe() == b.describe()
        assert random_net_schedule(seed=8) != a

    def test_kills_are_paired_with_later_restarts(self):
        for seed in range(20):
            schedule = random_net_schedule(seed=seed)
            kills = [a for a in schedule.actions if isinstance(a, KillNode)]
            restarts = {
                a.node: a.at
                for a in schedule.actions
                if isinstance(a, RestartNode)
            }
            for kill in kills:
                assert kill.node in restarts
                assert restarts[kill.node] > kill.at

    def test_majority_preserving_bounds_concurrent_downtime(self):
        for seed in range(30):
            schedule = random_net_schedule(seed=seed)
            windows = []
            for action in schedule.actions:
                if isinstance(action, KillNode):
                    windows.append([action.at, None, action.node])
                elif isinstance(action, RestartNode):
                    for window in windows:
                        if window[2] == action.node and window[1] is None:
                            window[1] = action.at
            # At every kill instant, at most a minority (1 of 3) down.
            for start, end, _ in windows:
                concurrent = sum(
                    1
                    for s, e, _ in windows
                    if s is not None and e is not None and s <= start < e
                )
                assert concurrent <= 1

    def test_must_restart_forces_the_amnesiac_pair(self):
        for seed in range(10):
            schedule = random_net_schedule(seed=seed, must_restart=1)
            assert any(
                isinstance(a, KillNode) and a.node == 1
                for a in schedule.actions
            )
            assert any(
                isinstance(a, RestartNode) and a.node == 1
                for a in schedule.actions
            )

    def test_actions_sorted_and_nonempty(self):
        for seed in range(10):
            schedule = random_net_schedule(seed=seed)
            assert schedule.actions
            ats = [a.at for a in schedule.actions]
            assert ats == sorted(ats)

    def test_subset_preserves_metadata(self):
        schedule = FaultSchedule(
            seed=3,
            actions=(
                KillNode(at=0.5, node=1),
                RestartNode(at=1.0, node=1),
                NetLossBurst(at=0.2),
                NetPartition(at=0.4),
            ),
            horizon=5.0,
        )
        sub = schedule.subset([0, 2])
        assert sub.seed == 3
        assert sub.horizon == 5.0
        assert sub.actions == (KillNode(at=0.5, node=1), NetLossBurst(at=0.2))
        assert schedule.subset(range(4)) == schedule

    def test_describe_names_every_action_class(self):
        for cls in NET_ACTION_CLASSES:
            assert cls.__name__ in cls(at=0.1).describe()

    def test_seeded_generators_are_byte_identical_to_the_parent(self):
        seeds = range(20)
        drawn = {
            "random_net_schedule": [random_net_schedule(s) for s in seeds],
            "random_net_schedule(must_restart=1)": [
                random_net_schedule(s, must_restart=1) for s in seeds
            ],
            "retry_storm_schedule": [retry_storm_schedule(s) for s in seeds],
        }
        for name, schedules in drawn.items():
            assert [s.describe() for s in schedules] == GOLDEN[name], name
            assert all(type(s) is FaultSchedule for s in schedules)

    def test_the_one_result_keeps_every_key_of_both_old_artifacts(self):
        keys = set(NetRunResult(schedule=FaultSchedule(seed=0)).to_jsonable())
        assert set(GOLDEN["net_run_report_keys"]) <= keys
        assert set(GOLDEN["retry_storm_report_keys"]) <= keys


class TestSanitizerVerdict:
    """Every wire run arms the sanitizer, so it must never be silent: on
    honest traffic a recorded interleaving fails the run and the CLI."""

    @staticmethod
    def raced(**fields):
        fields = {"sanitizer_violations": 1, **fields}
        return NetRunResult(
            schedule=FaultSchedule(seed=0),
            verdict="linearizable",
            sanitized=True,
            **fields,
        )

    def test_an_honest_run_that_raced_is_not_ok(self):
        run = self.raced()
        assert run.sanitizer_caught and not run.ok
        assert run.line().startswith("[BUG]") and "sanitizer=1" in run.line()
        assert self.raced(sanitizer_violations=0).ok
        # the race mutant is driven to be caught: that catch is its pass
        assert self.raced(race_mutant=True).ok

    def test_nemesis_net_exits_1_on_a_raced_run(self, monkeypatch, capsys):
        import repro.faults
        from repro.faults.netcampaign import NetCampaignReport

        report = NetCampaignReport(runs=[self.raced()])
        monkeypatch.setattr(
            repro.faults, "run_net_campaign", lambda **kwargs: report
        )
        assert repro_main(["nemesis", "1", "0", "--net"]) == 1
        assert "interleaving recorded in 1 run(s)" in capsys.readouterr().out

    def test_only_an_unknown_verdict_is_inconclusive(self):
        from repro.faults.netcampaign import NetCampaignReport

        runs = [
            self.raced(),  # linearizable, yet not ok: it raced
            NetRunResult(schedule=FaultSchedule(seed=0), verdict="unknown"),
            self.raced(sanitizer_violations=0),
        ]
        assert NetCampaignReport(runs=runs).summary() == (
            "net campaign: 3 runs, 1 linearizable, 0 violations, "
            "1 inconclusive"
        )


class _Recorder:
    """Records every call made on it, as ``(name, args, kwargs)``."""

    def __init__(self, calls, prefix=""):
        self._calls, self._prefix = calls, prefix

    def __getattr__(self, name):
        def call(*args, **kwargs):
            self._calls.append((self._prefix + name, args, kwargs))

        return call


class _FakeTarget:
    """A socket-free stand-in for NetTarget: every primitive records."""

    seed = 9

    def __init__(self):
        self.calls = []
        self.faults = _Recorder(self.calls, "faults.")
        self.wal_fs = {1: _Recorder(self.calls, "wal_fs[1].")}

    async def kill(self, node):
        self.calls.append(("kill", (node,), {}))

    async def restart(self, node):
        self.calls.append(("restart", (node,), {}))

    async def mutate_wal(self, node, mutate, **how):
        self.calls.append(("mutate_wal", (node, mutate), how))


class TestActionsApplyThemselves:
    #: action → the one primitive it must call, with what
    TABLE = [
        (KillNode(at=0.1, node=1), ("kill", (1,), {})),
        (RestartNode(at=0.1, node=1), ("restart", (1,), {})),
        (
            NetLossBurst(at=0.1, duration=0.4, rate=0.3),
            ("faults.burst_loss", (0.3, 0.4), {}),
        ),
        (
            NetDupBurst(at=0.1, duration=0.4, rate=0.3),
            ("faults.burst_duplicate", (0.3, 0.4), {}),
        ),
        (
            NetPartition(at=0.1, a="clients", b="node2", duration=0.2),
            (
                "faults.partition",
                ("clients", "node2"),
                {"symmetric": True, "duration": 0.2},
            ),
        ),
        (
            NetPartition(at=0.1, a="node0", b="node1", one_way=True),
            (
                "faults.partition",
                ("node0", "node1"),
                {"symmetric": False, "duration": 0.5},
            ),
        ),
        (
            NetSlowNode(at=0.1, node=1, delay=0.04, duration=0.7),
            ("faults.slow", ("node1", 0.04), {"duration": 0.7}),
        ),
        (
            WALTearTail(at=0.1, node=1, cut=5),
            ("mutate_wal", (1, tear_tail), {"cut": 5}),
        ),
        (
            WALBitFlip(at=0.1, node=1),
            ("mutate_wal", (1, flip_record_body), {"seed": 9}),
        ),
        (
            WALNoSpace(at=0.1, node=1, count=3),
            ("wal_fs[1].fail_appends", (3,), {}),
        ),
    ]

    def test_every_action_calls_exactly_its_primitive(self):
        assert {type(a) for a, _ in self.TABLE} == set(NET_ACTION_CLASSES)
        for action, expected in self.TABLE:
            target = _FakeTarget()
            asyncio.run(action.apply(target))
            assert target.calls == [expected], action.describe()


@dataclass(frozen=True)
class _Explode(FaultAction):
    """A custom action whose ``apply`` raises mid-run, keeping hold of
    the target so the test can look at what it left behind."""

    seen = []

    async def apply(self, target):
        self.seen.append(target)
        raise RuntimeError("boom")


class TestBindingAndTeardown:
    def test_a_schedule_naming_a_missing_server_is_refused(self):
        """One ValueError naming the action, before anything starts —
        and the process-global sanitizer is left as it was found."""
        assert not sanitizer.enabled()
        schedule = FaultSchedule(
            seed=1, actions=(RestartNode(at=0.1, node=7),), horizon=1.0
        )
        with pytest.raises(ValueError, match=r"RestartNode\(at=0.1, node=7\)"):
            run_net_campaign(schedules=[schedule], emit=SILENT)
        assert not sanitizer.enabled()

    def test_a_schedule_naming_a_missing_endpoint_is_refused(self):
        schedule = FaultSchedule(
            seed=1,
            actions=(NetPartition(at=0.1, a="clients", b="node9"),),
            horizon=1.0,
        )
        with pytest.raises(ValueError, match="node9"):
            run_net_campaign(schedules=[schedule], emit=SILENT)

    def test_a_raising_action_leaves_no_listener_and_no_armed_sanitizer(
        self,
    ):
        del _Explode.seen[:]
        assert not sanitizer.enabled()
        schedule = FaultSchedule(
            seed=2, actions=(_Explode(at=0.2),), horizon=1.0
        )
        with pytest.raises(RuntimeError, match="boom"):
            run_net_campaign(
                schedules=[schedule],
                clients=2,
                ops_per_client=40,
                emit=SILENT,
            )
        (target,) = _Explode.seen
        assert target.cluster.alive() == []
        assert not os.path.exists(target.cluster.wal_root)
        assert not sanitizer.enabled()

    def test_a_storage_fault_that_did_nothing_is_counted(self):
        """The amnesiac node has no WAL file: tearing its tail tears
        nothing, and the run says so instead of staying silent."""
        schedule = FaultSchedule(
            seed=4,
            actions=(
                WALTearTail(at=0.3, node=2, cut=3),
                RestartNode(at=0.6, node=2),
            ),
            horizon=1.5,
        )
        report = run_net_campaign(
            schedules=[schedule],
            amnesiac=2,
            clients=1,
            ops_per_client=2,
            shrink=False,
            emit=SILENT,
        )
        (run,) = report.runs
        assert run.kills == 1 and run.storage_noops == 1
        assert "storage_noops=1" in run.line()
        assert run.to_jsonable()["storage_noops"] == 1


class TestLiveCampaign:
    def test_healthy_campaign_is_linearizable(self):
        report = run_net_campaign(
            schedules=[CANARY(0)],
            clients=2,
            ops_per_client=5,
            emit=SILENT,
        )
        assert report.all_linearizable
        (run,) = report.runs
        assert run.ok
        assert run.kills == 1
        assert run.restarts == 1
        assert run.late_readers == 1
        assert run.committed > 0

    def test_artifacts_are_written(self, tmp_path):
        run_net_campaign(
            schedules=[CANARY(0)],
            clients=2,
            ops_per_client=4,
            artifact_dir=str(tmp_path),
            emit=SILENT,
        )
        assert (tmp_path / "net-run-0.json").exists()

    def test_amnesiac_node_is_caught_and_shrunk(self):
        """The durability canary: one WAL-disabled replica must turn the
        same kill/restart campaign into a checker violation.

        The fork is timing-dependent (the restarted blank node must
        steal a fast-decided slot from a late reader before the
        survivors' backup rounds protect it), so a few seeds are tried;
        across them the campaign must catch the bug at least once.
        """
        report = None
        for seed in (0, 2, 1, 3, 4):
            report = run_net_campaign(
                schedules=[CANARY(seed)],
                amnesiac=2,
                clients=3,
                ops_per_client=6,
                emit=SILENT,
            )
            if report.violations:
                break
        assert report is not None and report.violations, (
            "the amnesiac node was never caught: the campaign cannot "
            "see the durability bug it exists to detect"
        )
        violation = report.violations[0]
        assert violation.result.violation
        assert violation.result.amnesiac == 2
        assert "no linearization" in violation.result.reason
        # The shrunk reproducer still contains the amnesiac's restart
        # (without it the node never forgets anything mid-run).
        assert any(
            isinstance(a, RestartNode) and a.node == 2
            for a in violation.shrunk.actions
        )
        assert len(violation.shrunk.actions) <= 2
        assert "violation" in violation.report()

    def test_live_monitor_catches_the_amnesiac_during_the_run(
        self, tmp_path
    ):
        """With ``monitor=True`` the same canary must be caught *while
        the run is in flight* — the online verdict flips, the drivers
        stop, and the shrunken witness lands as an artifact — without
        waiting for the post-hoc check.  Timing-dependent like the
        post-hoc canary, so a few seeds are tried."""
        caught = []
        for seed in (0, 2, 1, 3, 4):
            report = run_net_campaign(
                schedules=[CANARY(seed)],
                amnesiac=2,
                clients=3,
                ops_per_client=6,
                shrink=False,
                monitor=True,
                artifact_dir=str(tmp_path),
                emit=SILENT,
            )
            assert all(r.monitored for r in report.runs)
            caught = [
                r for r in report.runs if r.monitor_verdict == "violation"
            ]
            if caught:
                break
        assert caught, (
            "the live monitor never caught the amnesiac node: fail-fast "
            "monitoring cannot see the durability bug it exists to catch"
        )
        run = caught[0]
        # the online and post-hoc verdicts agree on the same history
        assert run.violation
        assert "frontier emptied" in run.monitor_reason
        assert run.monitor_witness is not None
        assert run.monitor_events > 0
        assert f"monitor={run.monitor_verdict}" in run.line()
        witness = (
            tmp_path / f"net-monitor-witness-{run.schedule.seed}.json"
        )
        assert witness.exists()


class TestRetryStorm:
    """The exactly-once workload of the same campaign loop.  The mutant
    *catch* is timing-dependent and stays a CI canary; here the healthy
    storm must hold, and the mutant's report must have its shape."""

    def test_dedup_on_storm_is_exactly_once_and_linearizable(
        self, tmp_path
    ):
        (run,) = run_retry_storm(
            n_schedules=1,
            base_seed=5,
            artifact_dir=str(tmp_path),
            emit=SILENT,
        )
        assert run.ok and run.exactly_once and not run.caught
        assert run.verdict == "linearizable"
        assert run.monitored and run.monitor_verdict == "ok"
        assert run.schedule == retry_storm_schedule(5)
        assert run.kills == 1 and run.restarts == 1
        assert run.late_readers == 0  # late readers are the KV workload's
        assert run.dup_frames > 0
        assert run.applied_count == run.distinct_incs <= run.raw_incs
        with open(tmp_path / "retry-storm-5.json", encoding="utf-8") as f:
            report = json.load(f)["report"]
        assert set(GOLDEN["retry_storm_report_keys"]) <= set(report)
        assert report["exactly_once"] is True and report["dedup"] is True

    def test_a_storm_artifact_replays_ok_as_a_counter_history(
        self, tmp_path, capsys
    ):
        """The run artifact names its object, so ``monitor --replay``
        reads a storm as the counter history it is (it used to read
        every artifact as a KV history: `invalid ADT input at index 0`
        on a run that was judged linearizable)."""
        (run,) = run_retry_storm(
            n_schedules=1,
            base_seed=5,
            artifact_dir=str(tmp_path),
            emit=SILENT,
        )
        assert run.verdict == "linearizable" and run.monitor_verdict == "ok"
        path = tmp_path / "retry-storm-5.json"
        history = load_history(str(path))
        assert history.adt == "counter" and len(history) == 1
        verdict, reason, _reports = replay_history(history)
        assert (verdict, reason) == ("ok", None)
        assert repro_main(["monitor", "--replay", str(path)]) == 0
        assert "monitor replay: ok" in capsys.readouterr().out
        # an artifact that does not say is a KV history, as before...
        with open(path, encoding="utf-8") as handle:
            payload = json.load(handle)
        del payload["adt"]
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert load_history(str(path)).adt == "kv_store"
        assert replay_history(load_history(str(path)))[0] == "violation"
        # ...and one that names an object nobody can replay is a usage
        # error, not a verdict
        payload["adt"] = "stack"
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ValueError, match="unknown adt 'stack'"):
            load_history(str(path))
        assert repro_main(["monitor", "--replay", str(path)]) == 2
        assert "unknown adt 'stack'" in capsys.readouterr().out

    def test_dedup_off_result_has_the_mutant_shape(self):
        (run,) = run_retry_storm(
            n_schedules=1,
            base_seed=5,
            dedup=False,
            emit=SILENT,
        )
        assert run.dedup is False
        assert run.duplicates_folded == 0  # the seam is off: nothing folds
        line = run.line()
        assert "MUTANT(dedup-off)" in line
        assert f"applied={run.applied_count}/{run.distinct_incs}" in line
        data = run.to_jsonable()
        assert data["dedup"] is False
        assert data["exactly_once"] == run.exactly_once
        assert data["schedule"] == retry_storm_schedule(5).describe()
        assert "monitor_witness" not in data
        # ok / caught are the storm's two exits and cannot both hold
        assert not (run.ok and run.caught)
