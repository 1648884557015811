"""Tests for speculative linearizability (paper Section 5, Defs 16-36)."""

import pytest

from repro.core.actions import inv, res, swi
from repro.core.adt import consensus_adt, decide, propose
from repro.core.multisets import Multiset
from repro.core.speculative import (
    RInit,
    consensus_rinit,
    enumerate_interpretations,
    initially_valid_inputs,
    is_interpretation,
    is_speculatively_linearizable,
    singleton_rinit,
    speculatively_linearize,
    valid_inputs,
)
from repro.core.traces import Trace

P, D = propose, decide
CONS = consensus_adt()
RIN = consensus_rinit(["v1", "v2", "v3"], max_extra=1)


class TestRInit:
    def test_consensus_interpretations_start_with_value(self):
        for history in RIN.interpretations("v1"):
            assert history[0] == P("v1")

    def test_consensus_value_of_inverse(self):
        # r_init^-1 is a total onto function keyed by the first proposal.
        for history in RIN.interpretations("v2"):
            assert RIN.value_of(history) == "v2"

    def test_value_of_rejects_empty(self):
        with pytest.raises(ValueError):
            RIN.value_of(())

    def test_singleton_rinit_identity(self):
        rin = singleton_rinit()
        assert rin.interpretations(("a", "b")) == ((("a", "b")),)
        assert rin.value_of(("a", "b")) == ("a", "b")

    def test_max_extra_controls_candidate_count(self):
        small = consensus_rinit(["a", "b"], max_extra=0)
        large = consensus_rinit(["a", "b"], max_extra=2)
        assert len(small.interpretations("a")) < len(
            large.interpretations("a")
        )

    def test_admissible_filter_applies(self):
        rin = RInit(
            interpretations=lambda v: ((P(v),), (P(v), P("x"))),
            value_of=lambda h: h[0][1],
            admissible=lambda action, h: len(h) == 1,
        )
        action = swi("c", 2, P("y"), "v")
        assert rin.interpretations_for(action) == ((P("v"),),)


class TestInterpretations:
    def test_is_interpretation(self):
        t = Trace([inv("c", 1, P("v1")), swi("c", 2, P("v1"), "v1")])
        good = {1: (P("v1"),)}
        bad = {1: (P("v2"),)}
        assert is_interpretation(t, 2, good, RIN)
        assert not is_interpretation(t, 2, bad, RIN)

    def test_is_interpretation_requires_all_indices(self):
        t = Trace([inv("c", 1, P("v1")), swi("c", 2, P("v1"), "v1")])
        assert not is_interpretation(t, 2, {}, RIN)

    def test_enumerate_no_switches(self):
        t = Trace([inv("c", 1, P("v1"))])
        assert list(enumerate_interpretations(t, 2, RIN)) == [{}]

    def test_enumerate_product(self):
        t = Trace(
            [
                swi("a", 2, P("v2"), "v1"),
                swi("b", 2, P("v3"), "v1"),
            ]
        )
        interps = list(enumerate_interpretations(t, 2, RIN))
        per_action = len(RIN.interpretations("v1"))
        assert len(interps) == per_action ** 2
        for f in interps:
            assert set(f) == {0, 1}


class TestValidInputs:
    def test_ivi_empty_before_switches(self):
        t = Trace([swi("c", 2, P("v2"), "v1")])
        assert initially_valid_inputs(t, 2, {0: (P("v1"),)}, 0) == Multiset()

    def test_ivi_additive_pending_input(self):
        # The carried pending input adds to the history's budget even when
        # the values coincide (see the Definition 25 reading note).
        t = Trace([swi("c", 2, P("v1"), "v1")])
        finit = {0: (P("v1"),)}
        ivi = initially_valid_inputs(t, 2, finit, 1)
        assert ivi.count(P("v1")) == 2

    def test_ivi_max_across_switches(self):
        # Two switches interpreting the same shared prefix do not double
        # count it.
        t = Trace(
            [
                swi("a", 2, P("v2"), "v1"),
                swi("b", 2, P("v3"), "v1"),
            ]
        )
        finit = {0: (P("v1"),), 1: (P("v1"),)}
        ivi = initially_valid_inputs(t, 2, finit, 2)
        assert ivi.count(P("v1")) == 1
        assert ivi.count(P("v2")) == 1
        assert ivi.count(P("v3")) == 1

    def test_vi_adds_phase_invocations(self):
        t = Trace(
            [
                swi("a", 2, P("v2"), "v1"),
                inv("b", 2, P("v3")),
            ]
        )
        finit = {0: (P("v1"),)}
        vi = valid_inputs(t, 2, finit, 2)
        assert vi.count(P("v3")) == 1
        assert vi.count(P("v1")) == 1


class TestFirstPhase:
    def test_decide_then_switch_same_value(self):
        t = Trace(
            [
                inv("c1", 1, P("v1")),
                inv("c2", 1, P("v2")),
                res("c1", 1, P("v1"), D("v1")),
                swi("c2", 2, P("v2"), "v1"),
            ]
        )
        assert is_speculatively_linearizable(t, 1, 2, CONS, RIN)

    def test_switch_conflicting_with_decision_rejected(self):
        t = Trace(
            [
                inv("c1", 1, P("v1")),
                inv("c2", 1, P("v2")),
                res("c1", 1, P("v1"), D("v1")),
                swi("c2", 2, P("v2"), "v2"),
            ]
        )
        assert not is_speculatively_linearizable(t, 1, 2, CONS, RIN)

    def test_all_switch_no_decisions(self):
        t = Trace(
            [
                inv("c1", 1, P("v1")),
                inv("c2", 1, P("v2")),
                swi("c1", 2, P("v1"), "v1"),
                swi("c2", 2, P("v2"), "v2"),
            ]
        )
        assert is_speculatively_linearizable(t, 1, 2, CONS, RIN)

    def test_self_switch_with_own_value(self):
        t = Trace(
            [
                inv("c2", 1, P("v2")),
                swi("c2", 2, P("v2"), "v2"),
            ]
        )
        assert is_speculatively_linearizable(t, 1, 2, CONS, RIN)

    def test_switch_with_unproposed_value_rejected(self):
        t = Trace(
            [
                inv("c1", 1, P("v1")),
                swi("c1", 2, P("v1"), "v3"),
            ]
        )
        assert not is_speculatively_linearizable(t, 1, 2, CONS, RIN)

    def test_plain_linearizability_still_required(self):
        t = Trace(
            [
                inv("c1", 1, P("v1")),
                inv("c2", 1, P("v2")),
                res("c1", 1, P("v1"), D("v1")),
                res("c2", 1, P("v2"), D("v2")),
            ]
        )
        assert not is_speculatively_linearizable(t, 1, 2, CONS, RIN)

    def test_first_phase_rejects_init_actions(self):
        t = Trace([swi("c", 1, P("v1"), "v1")])
        assert not is_speculatively_linearizable(t, 1, 2, CONS, RIN)


class TestSecondPhase:
    def test_uniform_switch_values(self):
        t = Trace(
            [
                swi("c1", 2, P("v2"), "v1"),
                swi("c2", 2, P("v3"), "v1"),
                res("c1", 2, P("v2"), D("v1")),
                res("c2", 2, P("v3"), D("v1")),
            ]
        )
        assert is_speculatively_linearizable(t, 2, 3, CONS, RIN)

    def test_differing_switch_values(self):
        # Different switch values: lcp of init histories is empty, so any
        # submitted switch value may win.
        t = Trace(
            [
                swi("c1", 2, P("v1"), "v1"),
                swi("c2", 2, P("v2"), "v2"),
                res("c1", 2, P("v1"), D("v2")),
                res("c2", 2, P("v2"), D("v2")),
            ]
        )
        assert is_speculatively_linearizable(t, 2, 3, CONS, RIN)

    def test_decision_must_match_uniform_switch_value(self):
        t = Trace(
            [
                swi("c1", 2, P("v2"), "v1"),
                swi("c2", 2, P("v3"), "v1"),
                res("c1", 2, P("v2"), D("v2")),
                res("c2", 2, P("v3"), D("v2")),
            ]
        )
        assert not is_speculatively_linearizable(t, 2, 3, CONS, RIN)

    def test_disagreeing_decisions_rejected(self):
        t = Trace(
            [
                swi("c1", 2, P("v1"), "v1"),
                swi("c2", 2, P("v2"), "v2"),
                res("c1", 2, P("v1"), D("v1")),
                res("c2", 2, P("v2"), D("v2")),
            ]
        )
        assert not is_speculatively_linearizable(t, 2, 3, CONS, RIN)

    def test_second_phase_can_abort_too(self):
        t = Trace(
            [
                swi("c1", 2, P("v2"), "v1"),
                swi("c1", 3, P("v2"), "v1"),
            ]
        )
        assert is_speculatively_linearizable(t, 2, 3, CONS, RIN)

    def test_abort_value_must_extend_init_prefix(self):
        # Aborting with a value unrelated to the (uniform) init prefix
        # violates Init Order.
        t = Trace(
            [
                swi("c1", 2, P("v2"), "v1"),
                swi("c1", 3, P("v2"), "v3"),
            ]
        )
        assert not is_speculatively_linearizable(t, 2, 3, CONS, RIN)

    def test_invocations_after_switch_served(self):
        t = Trace(
            [
                swi("c1", 2, P("v2"), "v1"),
                res("c1", 2, P("v2"), D("v1")),
                inv("c1", 2, P("v3")),
                res("c1", 2, P("v3"), D("v1")),
            ]
        )
        assert is_speculatively_linearizable(t, 2, 3, CONS, RIN)


class TestAbortOrder:
    def test_commit_then_conflicting_abort_rejected(self):
        # c1 decides v1; c2 aborts with a value whose every interpretation
        # starts with v2 — the commit history cannot prefix the abort
        # history.
        t = Trace(
            [
                inv("c1", 1, P("v1")),
                inv("c2", 1, P("v2")),
                res("c1", 1, P("v1"), D("v1")),
                swi("c2", 2, P("v2"), "v2"),
            ]
        )
        assert not is_speculatively_linearizable(t, 1, 2, CONS, RIN)

    def test_abort_then_commit_still_constrained(self):
        # Abort Order is direction-free: a commit after an abort must
        # still be a prefix of the abort history.
        t = Trace(
            [
                inv("c1", 1, P("v1")),
                inv("c2", 1, P("v2")),
                swi("c2", 2, P("v2"), "v2"),
                res("c1", 1, P("v1"), D("v1")),
            ]
        )
        assert not is_speculatively_linearizable(t, 1, 2, CONS, RIN)


class TestResults:
    def test_result_reports_failing_interpretation(self):
        t = Trace(
            [
                swi("c1", 2, P("v2"), "v1"),
                res("c1", 2, P("v2"), D("v2")),
            ]
        )
        result = speculatively_linearize(t, 2, 3, CONS, RIN)
        assert not result.ok
        assert result.failing_finit is not None

    def test_result_carries_witnesses(self):
        t = Trace(
            [
                swi("c1", 2, P("v2"), "v1"),
                res("c1", 2, P("v2"), D("v1")),
            ]
        )
        result = speculatively_linearize(t, 2, 3, CONS, RIN)
        assert result.ok
        assert len(result.witnesses) == len(
            list(enumerate_interpretations(t, 2, RIN))
        )
        for witness in result.witnesses:
            assert 1 in witness.commit

    def test_malformed_trace(self):
        t = Trace([res("c1", 2, P("v2"), D("v1"))])
        result = speculatively_linearize(t, 2, 3, CONS, RIN)
        assert not result.ok and "well-formed" in result.reason

    def test_empty_trace_is_speculatively_linearizable(self):
        assert is_speculatively_linearizable(Trace(), 1, 2, CONS, RIN)
        assert is_speculatively_linearizable(Trace(), 2, 3, CONS, RIN)


class TestInterpretationSampling:
    """The universal quantifier can be sampled for large traces; the
    result must then say so."""

    def _big_trace(self, n_inits=6):
        actions = []
        for i in range(n_inits):
            actions.append(swi(f"c{i}", 2, P(f"v{i % 3 + 1}"), "v1"))
        for i in range(n_inits):
            actions.append(
                res(f"c{i}", 2, P(f"v{i % 3 + 1}"), D("v1"))
            )
        return Trace(actions)

    def test_full_product_is_large(self):
        from repro.core.speculative import count_interpretations

        t = self._big_trace()
        assert count_interpretations(t, 2, RIN) > 1000

    def test_sampled_check_is_marked_non_exhaustive(self):
        t = self._big_trace()
        result = speculatively_linearize(
            t, 2, 3, CONS, RIN, max_interpretations=25
        )
        assert result.ok
        assert not result.exhaustive
        assert len(result.witnesses) <= 25

    def test_small_trace_stays_exhaustive_under_cap(self):
        t = Trace(
            [
                swi("c1", 2, P("v2"), "v1"),
                res("c1", 2, P("v2"), D("v1")),
            ]
        )
        result = speculatively_linearize(
            t, 2, 3, CONS, RIN, max_interpretations=1000
        )
        assert result.ok and result.exhaustive

    def test_sampling_is_deterministic(self):
        from repro.core.speculative import enumerate_interpretations

        t = self._big_trace()
        a = [
            tuple(sorted(f.items()))
            for f in enumerate_interpretations(
                t, 2, RIN, max_interpretations=10
            )
        ]
        b = [
            tuple(sorted(f.items()))
            for f in enumerate_interpretations(
                t, 2, RIN, max_interpretations=10
            )
        ]
        assert a == b

    def test_sampling_still_catches_bad_traces(self):
        actions = [
            swi(f"c{i}", 2, P(f"v{i % 3 + 1}"), "v1") for i in range(6)
        ]
        actions.append(res("c0", 2, P("v1"), D("v3")))  # wrong decision
        t = Trace(actions)
        result = speculatively_linearize(
            t, 2, 3, CONS, RIN, max_interpretations=10
        )
        assert not result.ok
