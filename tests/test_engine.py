"""The process-parallel engine: determinism, order, and wiring.

``repro.engine.parallel_map`` is the single primitive behind ``--jobs``;
everything here pins the property the campaigns and sweeps rely on:
the parallel result is *identical* to the serial one — same order, same
verdicts, same emitted lines — only the wall-clock may differ.
"""

import pytest

import repro.engine as engine
from repro.core.enumeration import (
    parallel_composition_sweep,
    sweep_composition_scope,
)
from repro.faults.campaign import run_campaign


class TestParallelMap:
    def test_serial_path_preserves_order(self):
        assert engine.parallel_map(abs, [-3, 1, -2], jobs=1) == [3, 1, 2]

    def test_parallel_path_preserves_order(self):
        items = list(range(-20, 20))
        assert engine.parallel_map(abs, items, jobs=2) == [
            abs(i) for i in items
        ]

    def test_empty_and_singleton_inputs(self):
        assert engine.parallel_map(abs, [], jobs=4) == []
        # a single item never pays for a pool
        assert engine.parallel_map(abs, [-7], jobs=4) == [7]


class TestSweepSharding:
    def test_shards_partition_the_enumeration(self):
        serial = sweep_composition_scope(["c1"], ["a", "b"], 4)
        parts = [
            sweep_composition_scope(
                ["c1"], ["a", "b"], 4, shard=(i, 3)
            )
            for i in range(3)
        ]
        merged = {
            key: sum(part[key] for part in parts) for key in serial
        }
        assert merged == serial

    def test_parallel_sweep_equals_serial(self):
        serial = sweep_composition_scope(["c1", "c2"], ["a"], 4)
        parallel = parallel_composition_sweep(
            ["c1", "c2"], ["a"], 4, jobs=2
        )
        assert parallel == serial
        assert serial["falsified"] == 0


class TestCampaignParallelism:
    def campaign_lines(self, jobs):
        lines = []
        report = run_campaign(
            n_schedules=2,
            base_seed=5,
            targets=("composed",),
            verbose=True,
            emit=lines.append,
            jobs=jobs,
        )
        return lines, report

    def test_jobs_do_not_change_the_report(self):
        serial_lines, serial_report = self.campaign_lines(jobs=1)
        parallel_lines, parallel_report = self.campaign_lines(jobs=2)
        assert serial_lines == parallel_lines
        assert len(serial_lines) == 2
        assert [r.line() for r in serial_report.results] == [
            r.line() for r in parallel_report.results
        ]
        assert serial_report.inconclusive == parallel_report.inconclusive


class TestNemesisCLI:
    def test_bad_jobs_value_is_usage_error(self):
        from repro.__main__ import main

        for argv in (["--jobs", "many"], ["--jobs"], ["1", "2", "3"]):
            with pytest.raises(SystemExit) as refused:
                main(["nemesis", *argv])
            assert refused.value.code == 2

    def test_jobs_flag_reaches_run_campaign(self, monkeypatch):
        import repro.faults
        from repro.__main__ import main

        seen = {}

        class FakeReport:
            results = []  # no run: the verdicts compose to ok

            def summary(self):
                return "fake"

        def fake_run_campaign(**kwargs):
            seen.update(kwargs)
            return FakeReport()

        monkeypatch.setattr(
            repro.faults, "run_campaign", fake_run_campaign
        )
        assert main(["nemesis", "7", "3", "--jobs=4"]) == 0
        assert seen["n_schedules"] == 7
        assert seen["base_seed"] == 3
        assert seen["jobs"] == 4
        assert main(["nemesis", "--jobs", "2"]) == 0
        assert seen["jobs"] == 2
        assert seen["n_schedules"] == 20
