"""End-to-end tests for the composed Quorum+Backup consensus (§2.1/2.4)."""

import pytest

from repro.core.adt import consensus_adt
from repro.core.composition import check_composition_theorem, check_theorem_2
from repro.core.invariants import (
    check_first_phase_invariants,
    check_second_phase_invariants,
)
from repro.core.linearizability import is_linearizable
from repro.core.speculative import consensus_rinit
from repro.core.traces import is_phase_wellformed, strip_phase_tags
from repro.mp.composed import ComposedConsensus

CONS = consensus_adt()


def jitter(rng):
    return rng.uniform(0.5, 1.5)


class TestFastPath:
    def test_uncontended_two_delays(self):
        system = ComposedConsensus(n_servers=3, seed=0)
        outcome = system.propose("c1", "v1", at=0.0)
        system.run()
        assert outcome.path == "fast"
        assert outcome.latency == 2.0

    def test_sequential_clients_stay_fast(self):
        system = ComposedConsensus(n_servers=3, seed=0)
        outcomes = [
            system.propose(f"c{i}", f"v{i}", at=10.0 * i) for i in range(4)
        ]
        system.run()
        assert all(o.path == "fast" for o in outcomes)
        assert {o.decided_value for o in outcomes} == {"v0"}


    @pytest.mark.parametrize("n_servers", [3, 5])
    def test_fast_path_pays_nothing_for_backup(self, n_servers):
        # §2.1: the common case pays for the common case only.  The
        # pre-preparing coordinator owns ballot 0 and holds its quorum
        # without a message, so a fast decision is n q-proposes and n
        # q-accepts, and no coordinator timer is left behind.
        system = ComposedConsensus(n_servers=n_servers, seed=0)
        outcome = system.propose("c1", "v1", at=0.0)
        system.run()
        assert outcome.path == "fast"
        assert system.stats.sent == 2 * n_servers
        assert system.coordinators[0].has_quorum
        assert all(c._retry_timer is None for c in system.coordinators)


class TestSlowPath:
    def test_crash_falls_back_to_backup(self):
        system = ComposedConsensus(n_servers=3, seed=0)
        system.crash_server(2, at=0.0)
        outcome = system.propose("c1", "v1", at=1.0)
        system.run()
        assert outcome.path == "slow"
        assert outcome.decided_value == "v1"

    @pytest.mark.parametrize("seed", range(8))
    def test_contention_agreement(self, seed):
        system = ComposedConsensus(n_servers=3, seed=seed, delay=jitter)
        outcomes = [
            system.propose(f"c{i}", f"v{i}", at=0.0) for i in range(4)
        ]
        system.run()
        decisions = {o.decided_value for o in outcomes}
        assert len(decisions) == 1
        assert decisions.pop() in {f"v{i}" for i in range(4)}

    def test_switch_value_respects_i1(self):
        # If someone decided v in Quorum, everybody switching carries v.
        for seed in range(10):
            system = ComposedConsensus(n_servers=3, seed=seed, delay=jitter)
            outcomes = [
                system.propose(f"c{i}", f"v{i}", at=0.1 * i)
                for i in range(3)
            ]
            system.run()
            fast = [o for o in outcomes if o.path == "fast"]
            slow = [o for o in outcomes if o.path == "slow"]
            if fast and slow:
                decided = fast[0].decided_value
                assert all(o.switch_value == decided for o in slow)


class TestTraceLevelProperties:
    @pytest.mark.parametrize("seed", range(6))
    def test_wellformedness_and_linearizability(self, seed):
        system = ComposedConsensus(n_servers=3, seed=seed, delay=jitter)
        for i in range(3):
            system.propose(f"c{i}", f"v{i}", at=0.0)
        system.run()
        trace = system.trace()
        assert is_phase_wellformed(trace, 1, 3)
        assert is_linearizable(strip_phase_tags(trace), CONS)

    @pytest.mark.parametrize("seed", range(6))
    def test_invariants_per_phase(self, seed):
        system = ComposedConsensus(n_servers=3, seed=seed, delay=jitter)
        for i in range(3):
            system.propose(f"c{i}", f"v{i}", at=0.0)
        system.run()
        for report in check_first_phase_invariants(
            system.first_phase_trace(), 2
        ):
            assert report.ok, report
        for report in check_second_phase_invariants(
            system.second_phase_trace(), 2
        ):
            assert report.ok, report

    @pytest.mark.parametrize("seed", range(4))
    def test_composition_theorem_on_simulated_traces(self, seed):
        system = ComposedConsensus(n_servers=3, seed=seed, delay=jitter)
        values = [f"v{i}" for i in range(2)]
        for i, v in enumerate(values):
            system.propose(f"c{i}", v, at=0.0)
        system.run()
        rin = consensus_rinit(values, max_extra=1)
        ok, why = check_composition_theorem(
            system.trace(), 1, 2, 3, CONS, rin
        )
        assert ok, why
        ok2, why2 = check_theorem_2(system.trace(), 3, CONS, rin)
        assert ok2, why2

    def test_faulty_run_stays_linearizable(self):
        for seed in range(5):
            system = ComposedConsensus(
                n_servers=3, seed=seed, loss_rate=0.1
            )
            system.crash_server(1, at=3.0)
            for i in range(3):
                system.propose(f"c{i}", f"v{i}", at=float(i))
            system.run(until=500.0)
            trace = system.trace()
            assert is_linearizable(strip_phase_tags(trace), CONS), seed

    def test_duplication_tolerated(self):
        # At-least-once channels: repeated deliveries must not break
        # agreement (the theory explicitly allows repeated events).
        for seed in range(5):
            system = ComposedConsensus(
                n_servers=3, seed=seed, duplicate_rate=0.3, delay=jitter
            )
            outcomes = [
                system.propose(f"c{i}", f"v{i}", at=0.0) for i in range(3)
            ]
            system.run(until=500.0)
            decisions = {
                o.decided_value
                for o in outcomes
                if o.decided_value is not None
            }
            assert len(decisions) <= 1


class TestRobustnessMatrix:
    """The §2.1 promise: correct whenever Backup is correct — under any
    mix of contention, loss and minority crashes."""

    @pytest.mark.parametrize("loss", [0.0, 0.1, 0.25])
    @pytest.mark.parametrize("crash", [None, 0, 2])
    def test_agreement_matrix(self, loss, crash):
        system = ComposedConsensus(
            n_servers=3, seed=hash((loss, crash)) & 0xFF, loss_rate=loss,
            delay=jitter,
        )
        if crash is not None:
            system.crash_server(crash, at=2.0)
        outcomes = [
            system.propose(f"c{i}", f"v{i}", at=0.0) for i in range(3)
        ]
        system.run(until=1000.0)
        decisions = {
            o.decided_value for o in outcomes if o.decided_value is not None
        }
        assert len(decisions) <= 1
        if loss == 0.0:
            # Without loss every client decides (liveness with a
            # correct majority).
            assert len([o for o in outcomes if o.decided_value]) == 3
