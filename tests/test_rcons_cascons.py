"""Tests for RCons + CASCons (paper §2.5, Figures 2-3).

The headline checks run over *every* interleaving of two clients:
agreement, linearizability of the projection, invariants I1-I5 per
phase, and the register-only fast path (E7).  Three clients are not
exhaustive (the DFS passed 200,000 schedules without finishing): they
get agreement on the first DFS schedules and every check on seeded
random schedules.
"""

import pytest

from repro.core.actions import sig_phase
from repro.core.adt import consensus_adt
from repro.core.composition import check_composition_theorem
from repro.core.invariants import (
    check_first_phase_invariants,
    check_second_phase_invariants,
)
from repro.core.linearizability import is_linearizable
from repro.core.speculative import consensus_rinit, is_speculatively_linearizable
from repro.core.traces import is_phase_wellformed, strip_phase_tags
from repro.sm.cascons import cascons_propose_program, cascons_switch_program
from repro.sm.composed import explore_composed, run_composed
from repro.sm.memory import SharedMemory
from repro.sm.rcons import rcons_program
from repro.sm.scheduler import InterleavingScheduler

CONS = consensus_adt()


class TestRConsAlone:
    def test_solo_client_decides_own_value(self):
        memory = SharedMemory()
        outcome = {}

        def program():
            outcome["result"] = yield from rcons_program("c1", "v1")

        InterleavingScheduler(memory, {"c1": program()}).run_sequential()
        assert outcome["result"] == ("decide", "v1")
        assert memory.counts.cas == 0

    def test_second_sequential_client_adopts_decision(self):
        memory = SharedMemory()
        outcomes = {}

        def program(c, v):
            outcomes[c] = yield from rcons_program(c, v)

        InterleavingScheduler(
            memory, {"c1": program("c1", "v1"), "c2": program("c2", "v2")}
        ).run_sequential()
        assert outcomes["c1"] == ("decide", "v1")
        assert outcomes["c2"] == ("decide", "v1")  # reads D

    def test_contention_switches(self):
        # Lock-step interleaving drives both clients through the splitter
        # together: at most one wins; the loser switches.
        memory = SharedMemory()
        outcomes = {}

        def program(c, v):
            outcomes[c] = yield from rcons_program(c, v)

        scheduler = InterleavingScheduler(
            memory, {"c1": program("c1", "v1"), "c2": program("c2", "v2")}
        )
        scheduler.run_round_robin()
        kinds = sorted(kind for kind, _ in outcomes.values())
        assert "switch" in kinds


class TestCASCons:
    def test_first_switch_wins(self):
        memory = SharedMemory()
        outcomes = {}

        def program(c, v):
            outcomes[c] = yield from cascons_switch_program(v)

        InterleavingScheduler(
            memory, {"c1": program("c1", "v1"), "c2": program("c2", "v2")}
        ).run_sequential()
        assert outcomes["c1"] == ("decide", "v1")
        assert outcomes["c2"] == ("decide", "v1")

    def test_propose_after_switch_reads_decision(self):
        memory = SharedMemory()
        outcomes = {}

        def switcher():
            outcomes["s"] = yield from cascons_switch_program("v1")

        def proposer():
            outcomes["p"] = yield from cascons_propose_program("v2")

        scheduler = InterleavingScheduler(
            memory, {"a_switch": switcher(), "b_prop": proposer()}
        )
        scheduler.run_sequential()
        assert outcomes["s"] == ("decide", "v1")
        assert outcomes["p"] == ("decide", "v1")


class TestComposedSequential:
    def test_contention_free_uses_registers_only(self):
        run = run_composed(
            [("c1", "v1"), ("c2", "v2"), ("c3", "v3")], mode="sequential"
        )
        assert run.counts.cas == 0
        assert run.decisions == {"v1"}
        assert all(o.path == "fast" for o in run.outcomes.values())

    def test_trace_linearizable(self):
        run = run_composed([("c1", "v1"), ("c2", "v2")], mode="sequential")
        assert is_linearizable(strip_phase_tags(run.trace), CONS)


class TestComposedRandom:
    @pytest.mark.parametrize("seed", range(12))
    def test_agreement_and_linearizability(self, seed):
        run = run_composed(
            [("c1", "v1"), ("c2", "v2"), ("c3", "v3")],
            mode="random",
            seed=seed,
        )
        assert len(run.decisions) == 1
        assert is_phase_wellformed(run.trace, 1, 3)
        assert is_linearizable(strip_phase_tags(run.trace), CONS)

    @pytest.mark.parametrize("seed", range(6))
    def test_phases_speculatively_linearizable(self, seed):
        run = run_composed(
            [("c1", "v1"), ("c2", "v2")], mode="random", seed=seed
        )
        rin = consensus_rinit(["v1", "v2"], max_extra=1)
        p1 = run.trace.project(sig_phase(1, 2).contains)
        p2 = run.trace.project(sig_phase(2, 3).contains)
        assert is_speculatively_linearizable(p1, 1, 2, CONS, rin)
        assert is_speculatively_linearizable(p2, 2, 3, CONS, rin)

    @pytest.mark.parametrize("seed", range(4))
    def test_composition_theorem_on_sm_traces(self, seed):
        run = run_composed(
            [("c1", "v1"), ("c2", "v2")], mode="random", seed=seed
        )
        rin = consensus_rinit(["v1", "v2"], max_extra=1)
        ok, why = check_composition_theorem(run.trace, 1, 2, 3, CONS, rin)
        assert ok, why

    def test_contended_runs_use_cas(self):
        used_cas = False
        for seed in range(20):
            run = run_composed(
                [("c1", "v1"), ("c2", "v2")], mode="random", seed=seed
            )
            if run.counts.cas:
                used_cas = True
                assert any(o.switched for o in run.outcomes.values())
        assert used_cas


class TestComposedExhaustive:
    def test_every_interleaving_of_two_clients(self):
        checked = 0
        for run in explore_composed([("c1", "v1"), ("c2", "v2")]):
            checked += 1
            assert len(run.decisions) == 1, run.schedule
            for report in check_first_phase_invariants(
                run.trace.project(sig_phase(1, 2).contains), 2
            ):
                assert report.ok, (report, run.schedule)
            for report in check_second_phase_invariants(
                run.trace.project(sig_phase(2, 3).contains), 2
            ):
                assert report.ok, (report, run.schedule)
        assert checked > 1000

    def test_linearizability_sampled_interleavings(self):
        # The full linearizability check is costlier; sample every 7th
        # interleaving (still hundreds of schedules).
        for i, run in enumerate(
            explore_composed([("c1", "v1"), ("c2", "v2")])
        ):
            if i % 7:
                continue
            assert is_linearizable(
                strip_phase_tags(run.trace), CONS
            ), run.schedule

    def test_three_clients_sampled(self):
        # the first 400 schedules in DFS order share one long prefix
        for i, run in enumerate(
            explore_composed(
                [("c1", "v1"), ("c2", "v2"), ("c3", "v3")],
                max_schedules=400,
            )
        ):
            assert len(run.decisions) == 1, run.schedule

    def test_three_clients_random_schedules(self):
        # Beyond that prefix: the DFS does not finish at three clients
        # (ROADMAP items 10 and 11), so seeded schedules sample the rest
        mixed = 0
        for seed in range(300):
            run = run_composed(
                [("c1", "v1"), ("c2", "v2"), ("c3", "v3")],
                mode="random",
                seed=seed,
            )
            assert len(run.decisions) == 1, seed
            reports = check_first_phase_invariants(
                run.trace.project(sig_phase(1, 2).contains), 2
            ) + check_second_phase_invariants(
                run.trace.project(sig_phase(2, 3).contains), 2
            )
            for report in reports:
                assert report.ok, (report, seed)
            assert is_linearizable(strip_phase_tags(run.trace), CONS), seed
            mixed += len({o.path for o in run.outcomes.values()}) > 1
        # some schedules decide on both paths at once (32 of these 300):
        # the hand-over itself is exercised, not only the second phase
        assert mixed > 10


class TestWaitFreedom:
    """§2.5: RCons (and the composition) is wait-free — every client
    completes within a bounded number of its own steps, under every
    schedule."""

    def test_bounded_steps_over_all_interleavings(self):
        from collections import Counter

        # RCons worst case: D-read + splitter (4 ops) + contention path
        # (2 ops) + CAS = 8 atomic steps per client.
        bound = 8
        longest = 0
        for run in explore_composed([("c1", "v1"), ("c2", "v2")]):
            per_client = Counter(run.schedule)
            longest = max(longest, max(per_client.values()))
            assert all(n <= bound for n in per_client.values()), run.schedule
        assert longest <= bound

    def test_every_schedule_terminates_with_decisions(self):
        for run in explore_composed(
            [("c1", "v1"), ("c2", "v2")], max_schedules=2000
        ):
            assert all(
                o.decided_value is not None for o in run.outcomes.values()
            ), run.schedule
