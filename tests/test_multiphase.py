"""Tests for the three-phase composition SubQuorum → Quorum → Backup.

The paper's scalability story: adding a phase must not disturb the
existing ones, and correctness must follow from per-phase speculative
linearizability via the composition theorem — applied twice.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.actions import Response, Switch
from repro.core.adt import consensus_adt
from repro.core.composition import check_composition_theorem, check_theorem_2
from repro.core.invariants import (
    check_first_phase_invariants,
    check_second_phase_invariants,
)
from repro.core.linearizability import is_linearizable
from repro.core.speculative import consensus_rinit, is_speculatively_linearizable
from repro.core.traces import is_phase_wellformed, strip_phase_tags
from repro.mp import PhasedConsensus, ThreePhaseConsensus
from repro.mp.phases import backup, quorum

CONS = consensus_adt()


def jitter(rng):
    return rng.uniform(0.5, 1.5)


class TestFastPath:
    def test_solo_client_decides_in_phase1_at_two_delays(self):
        system = ThreePhaseConsensus(seed=0)
        outcome = system.propose("c1", "v1", at=0.0)
        system.run()
        assert outcome.decided_phase == 1
        assert outcome.latency == 2.0
        assert outcome.decided_value == "v1"

    def test_subquorum_message_economy(self):
        # SubQuorum's fast path uses 2*sub_servers messages versus
        # 2*n_servers for the full Quorum, and nothing else moves: the
        # pre-preparing coordinator owns ballot 0, whose phase 1 is
        # vacuous, so Backup costs the fast path no background message
        # and no timer.
        system = ThreePhaseConsensus(n_servers=4, sub_servers=2, seed=0)
        system.propose("c1", "v1", at=0.0)
        system.run()
        assert system.network.stats.sent == 2 * system.sub_servers
        coordinators = [
            system.network.processes[("coord", i)]
            for i in range(system.n_servers)
        ]
        assert coordinators[0].has_quorum
        assert all(c._retry_timer is None for c in coordinators)

    def test_sequential_clients_agree_in_phase1(self):
        system = ThreePhaseConsensus(seed=0)
        outcomes = [
            system.propose(f"c{i}", f"v{i}", at=10.0 * i) for i in range(3)
        ]
        system.run()
        assert all(o.decided_phase == 1 for o in outcomes)
        assert {o.decided_value for o in outcomes} == {"v0"}


class TestEscalation:
    def test_full_server_crash_escalates_to_backup(self):
        # Crashing a physical server kills its roles in every phase, so
        # both quorum-style phases stall and Backup decides.
        system = ThreePhaseConsensus(seed=0)
        system.crash_server(1, at=0.0)
        outcome = system.propose("c1", "v1", at=1.0)
        system.run()
        assert outcome.decided_phase == 3
        assert outcome.decided_value == "v1"
        assert len(outcome.switch_values) == 2

    def test_subphase_only_crash_served_by_quorum(self):
        # Crash only the SubQuorum role of server 1: phase 2 still has
        # its full server set and serves the switched client.
        system = ThreePhaseConsensus(seed=0)
        system.network.crash_at(("sq", 1), 0.0)
        outcome = system.propose("c1", "v1", at=1.0)
        system.run()
        assert outcome.decided_phase == 2
        assert outcome.decided_value == "v1"

    @pytest.mark.parametrize("seed", range(6))
    def test_agreement_under_contention(self, seed):
        system = ThreePhaseConsensus(seed=seed, delay=jitter)
        outcomes = [
            system.propose(f"c{i}", f"v{i}", at=0.0) for i in range(4)
        ]
        system.run()
        decisions = {o.decided_value for o in outcomes}
        assert len(decisions) == 1
        assert decisions.pop() in {f"v{i}" for i in range(4)}


class TestTraceTheory:
    def _run(self, seed, crash=False):
        system = ThreePhaseConsensus(seed=seed, delay=jitter)
        if crash:
            system.network.crash_at(("sq", 0), 0.5)
        values = [f"v{i}" for i in range(3)]
        for i, v in enumerate(values):
            system.propose(f"c{i}", v, at=0.3 * i)
        system.run()
        return system, consensus_rinit(values, max_extra=1)

    @pytest.mark.parametrize("seed", range(4))
    def test_wellformed_and_linearizable(self, seed):
        system, _ = self._run(seed)
        trace = system.trace()
        assert is_phase_wellformed(trace, 1, 4)
        assert is_linearizable(strip_phase_tags(trace), CONS)

    @pytest.mark.parametrize("seed", range(3))
    def test_each_phase_speculatively_linearizable(self, seed):
        system, rinit = self._run(seed, crash=True)
        assert is_speculatively_linearizable(
            system.phase_trace(1, 2), 1, 2, CONS, rinit
        )
        assert is_speculatively_linearizable(
            system.phase_trace(2, 3), 2, 3, CONS, rinit
        )
        assert is_speculatively_linearizable(
            system.phase_trace(3, 4), 3, 4, CONS, rinit
        )

    @pytest.mark.parametrize("seed", range(3))
    def test_composition_theorem_both_splits(self, seed):
        system, rinit = self._run(seed, crash=True)
        trace = system.trace()
        # Split (1,2) || (2,4): the tail pair is itself a composition.
        ok, why = check_composition_theorem(trace, 1, 2, 4, CONS, rinit)
        assert ok, why
        # Split (1,3) || (3,4).
        ok, why = check_composition_theorem(trace, 1, 3, 4, CONS, rinit)
        assert ok, why

    @pytest.mark.parametrize("seed", range(3))
    def test_theorem_2_projection(self, seed):
        system, rinit = self._run(seed, crash=True)
        ok, why = check_theorem_2(system.trace(), 4, CONS, rinit)
        assert ok, why

    def test_invariants_per_phase(self):
        system, _ = self._run(1, crash=True)
        for report in check_first_phase_invariants(
            system.phase_trace(1, 2), 2
        ):
            assert report.ok, report
        # Quorum as a middle phase: deciders agree and echo switch values
        # (I4/I5 with tag-2 inits), and its own aborts behave (I1 with
        # tag-3 aborts).
        middle = system.phase_trace(2, 3)
        for report in check_second_phase_invariants(middle, 2):
            assert report.ok, report
        for report in check_second_phase_invariants(
            system.phase_trace(3, 4), 3
        ):
            assert report.ok, report


class TestAChainNobodyHardCoded:
    """The deployment is a list: any number of quorum phases of any
    width in front of Backup is a correct object, by the same theorems,
    with no code written for that particular chain."""

    N = 3

    @settings(max_examples=30, deadline=None)
    @given(
        widths=st.lists(st.integers(1, N), max_size=3),
        seed=st.integers(0, 10_000),
        n_clients=st.integers(2, 4),
        # server 0 is in every quorum phase and stays up: a Quorum
        # client whose servers are all dead never sees the accept it
        # must switch with (conditional wait-freedom)
        crashed=st.none() | st.integers(1, N - 1),
    )
    def test_any_chain_is_a_correct_object(
        self, widths, seed, n_clients, crashed
    ):
        phases = [
            quorum(k, f"q{j}", f"q{j}cli", timeout=4.0 + 3.0 * j)
            for j, k in enumerate(widths)
        ] + [backup(self.N)]
        system = PhasedConsensus(phases, self.N, seed, delay=jitter)
        if crashed is not None:
            system.crash_server(crashed, at=0.0)
        values = [f"v{i}" for i in range(n_clients)]
        outcomes = [
            system.propose(f"c{i}", v, at=0.3 * i)
            for i, v in enumerate(values)
        ]
        system.run()
        trace = system.trace()
        rinit = consensus_rinit(values, max_extra=1)
        last = len(phases) + 1

        assert is_phase_wellformed(trace, 1, last)
        assert is_linearizable(strip_phase_tags(trace), CONS)
        assert is_speculatively_linearizable(trace, 1, last, CONS, rinit)
        for boundary in range(2, last):
            ok, why = check_composition_theorem(
                trace, 1, boundary, last, CONS, rinit
            )
            assert ok, (boundary, why)
        ok, why = check_theorem_2(trace, last, CONS, rinit)
        assert ok, why

        # a crashed minority costs Backup nothing: everyone decides,
        # and on one value
        assert len({o.decided_value for o in outcomes}) == 1
        assert outcomes[0].decided_value in values
        for outcome in outcomes:
            mine = trace.client_subtrace(outcome.client)
            assert [
                a.phase for a in mine if isinstance(a, Response)
            ] == [outcome.decided_phase]
            switches = [a for a in mine if isinstance(a, Switch)]
            assert [a.value for a in switches] == outcome.switch_values
            # a client decides in the phase after its last switch
            assert [a.phase for a in switches] == list(
                range(2, outcome.decided_phase + 1)
            )
