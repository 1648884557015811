"""E1 — the headline latency claim (paper §2.1).

"Quorum manages to decide on the value in only 2 message delays, whenever
there is neither contention nor faults. ... Paxos, which still has a
minimum latency of 3 message delays."

The table reports decision latency in *message delays* (virtual time on
the unit-delay network) for Quorum, Paxos (steady-state, pre-prepared
coordinator), cold-start Paxos, and the composed Quorum+Backup, across
server-set sizes — fault-free and contention-free.  Expected shape:
Quorum and the composition sit at 2, Paxos at 3, independently of the
number of servers.

Run standalone:  python benchmarks/bench_latency.py
"""

import pytest

from repro.mp import (
    ComposedConsensus,
    PaxosOnly,
    QuorumOnly,
    ThreePhaseConsensus,
)

SERVER_COUNTS = (3, 5, 7, 9)


def quorum_latency(n_servers: int) -> float:
    system = QuorumOnly(n_servers=n_servers, seed=0)
    outcome = system.propose("c", "v", at=0.0)
    system.run()
    assert outcome.path == "fast"
    return outcome.latency


def paxos_latency(n_servers: int, pre_prepare: bool = True) -> float:
    system = PaxosOnly(n_servers=n_servers, seed=0, pre_prepare=pre_prepare)
    outcome = system.propose("c", "v", at=5.0)
    system.run()
    assert outcome.decided_value == "v"
    return outcome.latency


def composed_latency(n_servers: int) -> float:
    system = ComposedConsensus(n_servers=n_servers, seed=0)
    outcome = system.propose("c", "v", at=0.0)
    system.run()
    assert outcome.path == "fast"
    return outcome.latency


def three_phase_latency(n_servers: int) -> float:
    system = ThreePhaseConsensus(n_servers=n_servers, sub_servers=2, seed=0)
    outcome = system.propose("c", "v", at=0.0)
    system.run()
    assert outcome.decided_phase == 1
    return outcome.latency


def table_rows():
    rows = []
    for n in SERVER_COUNTS:
        rows.append(
            {
                "servers": n,
                "quorum": quorum_latency(n),
                "paxos": paxos_latency(n),
                "paxos_cold": paxos_latency(n, pre_prepare=False),
                "composed": composed_latency(n),
                "three_phase": three_phase_latency(max(n, 2)),
            }
        )
    return rows


class TestShape:
    """The paper's claims as assertions on the regenerated table."""

    @pytest.fixture(scope="class")
    def rows(self):
        return table_rows()

    def test_quorum_two_delays(self, rows):
        assert all(r["quorum"] == 2.0 for r in rows)

    def test_paxos_three_delays(self, rows):
        assert all(r["paxos"] == 3.0 for r in rows)

    def test_composition_matches_fast_path(self, rows):
        assert all(r["composed"] == r["quorum"] for r in rows)

    def test_quorum_beats_paxos(self, rows):
        assert all(r["quorum"] < r["paxos"] for r in rows)

    def test_cold_paxos_costs_two_more(self, rows):
        assert all(r["paxos_cold"] == r["paxos"] + 2.0 for r in rows)

    def test_latency_independent_of_cluster_size(self, rows):
        assert len({r["quorum"] for r in rows}) == 1
        assert len({r["paxos"] for r in rows}) == 1

    def test_three_phase_fast_path_also_two_delays(self, rows):
        # Adding a cheaper front phase keeps the latency at 2 delays
        # while cutting fast-path message count (see test_multiphase).
        assert all(r["three_phase"] == 2.0 for r in rows)


@pytest.mark.benchmark(group="latency-e1")
def test_bench_quorum_run(benchmark):
    benchmark(quorum_latency, 3)


@pytest.mark.benchmark(group="latency-e1")
def test_bench_paxos_run(benchmark):
    benchmark(paxos_latency, 3)


@pytest.mark.benchmark(group="latency-e1")
def test_bench_composed_run(benchmark):
    benchmark(composed_latency, 3)


def main():
    print("E1: decision latency (message delays), fault/contention-free")
    print(
        f"{'servers':>8} {'Quorum':>8} {'Paxos':>8} {'Paxos(cold)':>12} "
        f"{'Quorum+Backup':>14} {'3-phase':>8}"
    )
    for r in table_rows():
        print(
            f"{r['servers']:>8} {r['quorum']:>8.1f} {r['paxos']:>8.1f} "
            f"{r['paxos_cold']:>12.1f} {r['composed']:>14.1f} "
            f"{r['three_phase']:>8.1f}"
        )
    print("\npaper: Quorum = 2 delays, Paxos minimum = 3 delays")


if __name__ == "__main__":
    main()
