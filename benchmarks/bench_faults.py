"""E10 — nemesis campaign throughput and checker overhead.

Three series:

* **clean campaign** — N seeded random fault schedules against each
  deployment (Quorum+Backup, three-phase, SMR/KV); every trace is
  checked for linearizability and must pass — the paper's guarantee is
  safety under *all* schedules, so any violation here is a reproduction
  bug;
* **throughput** — schedules/second end-to-end and the fraction of
  wall-clock spent inside the linearizability checker (the price of
  checking every trace rather than sampling);
* **mutant hunt** — the same campaign against an acceptor that forgets
  its state on recovery (a classic stable-storage bug): the campaign
  must catch the violation and delta-debug the schedule to a minimal
  reproducer, demonstrating end-to-end that the harness detects real
  safety bugs.

Run standalone:  python benchmarks/bench_faults.py
"""

import time

import pytest

import repro.faults.campaign as campaign_mod
from repro.faults import run_campaign

#: base seed whose 50-schedule mutant window is known to contain a
#: violating schedule (seed 1046) — keeps the demonstration fast while
#: staying a genuine random-campaign catch, not a hand-built schedule
MUTANT_BASE_SEED = 1000


def timed_campaign(n_schedules=25, base_seed=0, targets=("composed", "multiphase", "smr")):
    """Run a clean campaign and split wall-clock into sim vs checker."""
    checker_time = 0.0
    original_check = campaign_mod._check

    def timing_check(result, trace, adt):
        nonlocal checker_time
        t0 = time.perf_counter()
        original_check(result, trace, adt)
        checker_time += time.perf_counter() - t0

    campaign_mod._check = timing_check
    try:
        t0 = time.perf_counter()
        report = run_campaign(
            n_schedules=n_schedules,
            base_seed=base_seed,
            targets=targets,
            emit=lambda line: None,
        )
        elapsed = time.perf_counter() - t0
    finally:
        campaign_mod._check = original_check
    return {
        "report": report,
        "elapsed": elapsed,
        "checker_time": checker_time,
        "schedules_per_sec": report.runs / elapsed if elapsed else float("inf"),
        "checker_share": checker_time / elapsed if elapsed else 0.0,
    }


def mutant_hunt(n_schedules=50, base_seed=MUTANT_BASE_SEED):
    """Hunt the amnesiac acceptor with a random campaign; shrink hits."""
    return run_campaign(
        n_schedules=n_schedules,
        base_seed=base_seed,
        targets=("composed",),
        mutant=True,
        shrink=True,
        emit=lambda line: None,
    )


class TestCleanCampaign:
    @pytest.fixture(scope="class")
    def outcome(self):
        return timed_campaign(n_schedules=10)

    def test_every_trace_linearizable(self, outcome):
        assert outcome["report"].all_linearizable

    def test_no_inconclusive_runs(self, outcome):
        assert outcome["report"].inconclusive == 0

    def test_metrics_cover_all_runs(self, outcome):
        report = outcome["report"]
        assert report.runs == 30  # 10 schedules x 3 targets
        grouped = report.by_fault_class()
        assert sum(len(rs) for rs in grouped.values()) == report.runs


class TestMutantHunt:
    @pytest.fixture(scope="class")
    def report(self):
        return mutant_hunt()

    def test_campaign_catches_the_bug(self, report):
        assert len(report.violations) >= 1

    def test_shrunk_reproducer_is_smaller_and_replayable(self, report):
        violation = report.violations[0]
        assert len(violation.shrunk.actions) <= len(
            violation.result.schedule.actions
        )
        assert f"seed={violation.shrunk.seed}" in violation.shrunk.describe()


@pytest.mark.benchmark(group="faults-e10")
def test_bench_campaign_round(benchmark):
    benchmark(timed_campaign, 2, 0, ("composed",))


def main():
    print("E10a: clean nemesis campaign (50 schedules x 3 targets)")
    outcome = timed_campaign(n_schedules=50)
    report = outcome["report"]
    print(report.summary())
    print(
        f"\nE10b: throughput {outcome['schedules_per_sec']:.0f} "
        f"schedules/sec; checker overhead "
        f"{100 * outcome['checker_share']:.0f}% of wall-clock "
        f"({outcome['elapsed']:.2f}s total)"
    )
    print(
        "\nE10c: mutant hunt (acceptor that forgets its ballot on "
        "recovery)"
    )
    hunt = mutant_hunt()
    for violation in hunt.violations:
        print(violation.report())
    caught = "CAUGHT" if hunt.violations else "MISSED"
    print(f"mutant verdict: {caught} ({hunt.runs} schedules)")


if __name__ == "__main__":
    main()
