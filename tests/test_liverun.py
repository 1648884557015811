"""Tests of the live-run skeleton (`repro.net.loadgen.live_run`) that
`run_loadgen` and the chaos campaign both run on.

What is pinned here is what the two runners share and used to write
twice: the teardown (also out of a raising driver), its order, and the
text of the two reports that extend one base class.
"""

import asyncio
import gc
import json
import os
import warnings

import pytest

from repro.faults.nemesis import FaultSchedule
from repro.faults.netcampaign import (
    KV_WORKLOAD,
    KillNode,
    NetRunResult,
    RestartNode,
    _RunConfig,
    _run_schedule,
)
from repro.monitor import MonitorTap
from repro.net import loadgen
from repro.net.cluster import ShardedCluster
from repro.net.loadgen import LoadReport, RunReport, live_run, run_loadgen
from repro.net.pipeline import BadDecree, PipelineClient, probing_client
from repro.smr.universal import kv_store_adt

SILENT = lambda line: None  # noqa: E731

with open(
    os.path.join(os.path.dirname(__file__), "golden", "report_text.json"),
    encoding="utf-8",
) as _handle:
    #: written at the parent of the one-skeleton refactor (b077c42),
    #: when the two report classes still declared their fields twice;
    #: ``strategy`` and its ``(...)`` suffix left with the one decider
    GOLDEN_TEXT = json.load(_handle)


def _loadgen(wal_root):
    run_loadgen(
        ops=100, clients=4, wal_root=wal_root, monitor=True, emit=SILENT
    )


def _campaign(wal_root):
    schedule = FaultSchedule(
        seed=3, actions=(KillNode(at=0.2, node=1),), horizon=1.0
    )
    config = _RunConfig(
        workload=KV_WORKLOAD, clients=3, ops_per_client=40, monitor=True
    )
    asyncio.run(_run_schedule(schedule, config))


class TestARaisingDriver:
    @pytest.mark.parametrize("runner", [_loadgen, _campaign])
    def test_leaves_nothing_behind_and_still_propagates(
        self, runner, tmp_path, monkeypatch
    ):
        """A ``BadDecree`` planted at the 20th ``submit``: the clusters
        are stopped, every transport and WAL closed, the taps drained
        and no task left pending when the loop is handed back."""
        clusters, taps, pending, submits = [], [], [], [0]
        real_start = ShardedCluster.start
        real_tap = loadgen.budgeted_tap
        real_submit = PipelineClient.submit
        real_run = asyncio.run

        async def start(cluster):
            clusters.append(cluster)
            await real_start(cluster)

        def tap(adt, recorder):
            taps.append(real_tap(adt, recorder))
            return taps[-1]

        async def submit(client, command):
            submits[0] += 1
            if submits[0] == 20:
                raise BadDecree("planted")
            return await real_submit(client, command)

        def run(main):
            async def watched():
                try:
                    return await main
                finally:
                    pending.extend(
                        task
                        for task in asyncio.all_tasks()
                        if task is not asyncio.current_task()
                        and not task.done()
                    )

            return real_run(watched())

        monkeypatch.setattr(ShardedCluster, "start", start)
        monkeypatch.setattr(loadgen, "budgeted_tap", tap)
        monkeypatch.setattr(PipelineClient, "submit", submit)
        monkeypatch.setattr(asyncio, "run", run)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            with pytest.raises(BadDecree, match="planted"):
                runner(str(tmp_path))
            gc.collect()
        assert not [w for w in caught if w.category is ResourceWarning]
        assert pending == []
        assert clusters
        for cluster in clusters:
            assert cluster.alive() == []
            assert all(t.closed for t in cluster._client_transports)
            wals = [node.wal for node in cluster.nodes if node.wal]
            assert len(wals) == 3 and all(wal.closed for wal in wals)
        assert len(taps) == len(clusters)
        assert all(t._closed and t.pending == 0 for t in taps)


class TestTeardownOrder:
    def test_the_taps_report_is_taken_after_the_cluster_stopped(
        self, monkeypatch
    ):
        clusters, stopped_at_close = [], []
        real_close = MonitorTap.close

        async def close(tap):
            (cluster,) = clusters
            stopped_at_close.append(cluster.alive() == [])
            return await real_close(tap)

        monkeypatch.setattr(MonitorTap, "close", close)

        async def scenario():
            clusters.append(ShardedCluster(n_servers=3))
            async with live_run(clusters[0], kv_store_adt, True) as run:
                client = run.adopt(
                    probing_client(
                        "c0", 3, run.transports[0], run.recorders[0]
                    )
                )
                assert await run.submit(client, ("put", "a", 1)) is client
                assert not run.monitor_reports  # not before the teardown
            return run

        run = asyncio.run(scenario())
        assert stopped_at_close == [True]
        report = RunReport()
        run.fill(report)
        assert report.monitored and report.monitor_verdict == "ok"
        assert report.monitor_events == run.monitor_reports[0].events > 0
        assert (report.verdict, report.committed) == ("linearizable", 1)
        assert run.shard_verdicts == ["linearizable"]


class TestReportText:
    """`summary()` and `line()` read exactly as at the parent."""

    SCHEDULE = FaultSchedule(
        seed=7,
        actions=(KillNode(at=0.7, node=2), RestartNode(at=1.2, node=2)),
        horizon=3.0,
    )

    @pytest.mark.parametrize("name", sorted(GOLDEN_TEXT["load_report"]))
    def test_load_report_summary(self, name):
        case = GOLDEN_TEXT["load_report"][name]
        assert LoadReport(**case["fields"]).summary() == case["summary"]

    @pytest.mark.parametrize("name", sorted(GOLDEN_TEXT["net_run_result"]))
    def test_net_run_result_line(self, name):
        case = GOLDEN_TEXT["net_run_result"][name]
        result = NetRunResult(schedule=self.SCHEDULE, **case["fields"])
        assert result.line() == case["line"]

    def test_the_shared_fields_are_declared_once(self):
        shared = set(RunReport.__dataclass_fields__)
        assert len(shared) == 20
        for cls in (LoadReport, NetRunResult):
            own = set(cls.__annotations__)
            # LoadReport re-states one default: its plane is pipelined
            assert own & shared <= {"pipelined"}, cls
