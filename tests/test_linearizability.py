"""Tests for the paper's new definition of linearizability (Section 4)."""

from repro.core.actions import inv, res
from repro.core.adt import (
    consensus_adt,
    decide,
    deq,
    enq,
    propose,
    queue_adt,
    reg_read,
    reg_write,
    register_adt,
)
from repro.core.linearizability import (
    check_linearization_function,
    is_linearizable,
    lin_trace_property_contains,
    linearize,
)
from repro.core.traces import Trace

P, D = propose, decide
CONS = consensus_adt()


class TestPaperExamples:
    def test_section_2_2_positive_example(self):
        # c1 proposes v1, c2 proposes v2, c2 returns v2, c1 returns v2.
        t = Trace(
            [
                inv("c1", 1, P("v1")),
                inv("c2", 1, P("v2")),
                res("c2", 1, P("v2"), D("v2")),
                res("c1", 1, P("v1"), D("v2")),
            ]
        )
        result = linearize(t, CONS)
        assert result.ok
        # The paper's witness: [p(v2)] for c2 and [p(v2), p(v1)] for c1.
        assert result.witness[2] == (P("v2"),)
        assert result.witness[3] == (P("v2"), P("v1"))

    def test_section_2_2_negative_split_decisions(self):
        t = Trace(
            [
                inv("c1", 1, P("v1")),
                inv("c2", 1, P("v2")),
                res("c1", 1, P("v1"), D("v1")),
                res("c2", 1, P("v2"), D("v2")),
            ]
        )
        assert not is_linearizable(t, CONS)

    def test_section_2_2_negative_future_value(self):
        # c1 decides v2 before v2 is proposed.
        t = Trace(
            [
                inv("c1", 1, P("v1")),
                res("c1", 1, P("v1"), D("v2")),
                inv("c2", 1, P("v2")),
                res("c2", 1, P("v2"), D("v2")),
            ]
        )
        assert not is_linearizable(t, CONS)

    def test_example_2_of_section_4(self):
        # The generic Example 2 trace with explicit witness g.
        t = Trace(
            [
                inv("c", 1, P("a")),
                inv("c2", 1, P("b")),
                res("c2", 1, P("b"), CONS.output((P("b"),))),
                res("c", 1, P("a"), CONS.output((P("b"), P("a")))),
            ]
        )
        g = {2: (P("b"),), 3: (P("b"), P("a"))}
        assert check_linearization_function(t, g, CONS).ok


class TestDefinitionalChecks:
    def test_witness_must_explain(self):
        t = Trace([inv("c", 1, P("a")), res("c", 1, P("a"), D("a"))])
        bad = {1: (P("b"), P("a"))}  # f = d(b) != d(a)
        result = check_linearization_function(t, bad, CONS)
        assert not result.ok and "explain" in result.reason

    def test_witness_must_end_with_own_input(self):
        t = Trace(
            [
                inv("c", 1, P("a")),
                inv("d", 1, P("a")),
                res("c", 1, P("a"), D("a")),
            ]
        )
        bad = {2: (P("a"), P("b"))}
        result = check_linearization_function(t, bad, CONS)
        assert not result.ok

    def test_witness_validity_multiset(self):
        # g may not use more copies of an input than were invoked.
        t = Trace([inv("c", 1, P("a")), res("c", 1, P("a"), D("a"))])
        bad = {1: (P("a"), P("a"))}
        result = check_linearization_function(t, bad, CONS)
        assert not result.ok and "invoked" in result.reason

    def test_witness_commit_order(self):
        t = Trace(
            [
                inv("c", 1, P("a")),
                inv("d", 1, P("b")),
                res("c", 1, P("a"), D("a")),
                res("d", 1, P("b"), D("b")),
            ]
        )
        bad = {2: (P("a"),), 3: (P("b"),)}
        result = check_linearization_function(t, bad, CONS)
        assert not result.ok and "Commit Order" in result.reason

    def test_witness_missing_index(self):
        t = Trace([inv("c", 1, P("a")), res("c", 1, P("a"), D("a"))])
        result = check_linearization_function(t, {}, CONS)
        assert not result.ok and "undefined" in result.reason

    def test_witness_empty_history_rejected(self):
        t = Trace([inv("c", 1, P("a")), res("c", 1, P("a"), D("a"))])
        result = check_linearization_function(t, {1: ()}, CONS)
        assert not result.ok

    def test_search_witness_revalidates(self):
        t = Trace(
            [
                inv("c1", 1, P("x")),
                res("c1", 1, P("x"), D("x")),
                inv("c2", 1, P("y")),
                res("c2", 1, P("y"), D("x")),
            ]
        )
        result = linearize(t, CONS)
        assert result.ok
        assert check_linearization_function(t, result.witness, CONS).ok


class TestSearchBehaviour:
    def test_empty_trace(self):
        assert is_linearizable(Trace(), CONS)

    def test_invocation_only(self):
        assert is_linearizable(Trace([inv("c", 1, P("a"))]), CONS)

    def test_malformed_trace_rejected(self):
        t = Trace([res("c", 1, P("a"), D("a"))])
        result = linearize(t, CONS)
        assert not result.ok and "well-formed" in result.reason

    def test_invalid_input_payload(self):
        t = Trace([inv("c", 1, ("junk",)), res("c", 1, ("junk",), D("a"))])
        assert not linearize(t, CONS).ok

    def test_pending_invocation_effect_visible(self):
        # A pending proposal may be linearized before a completed one.
        t = Trace(
            [
                inv("c1", 1, P("a")),  # pending forever
                inv("c2", 1, P("b")),
                res("c2", 1, P("b"), D("a")),
            ]
        )
        result = linearize(t, CONS)
        assert result.ok
        assert result.witness[2] == (P("a"), P("b"))

    def test_out_of_order_commits(self):
        # The later response commits earlier in the linearization.
        adt = register_adt()
        t = Trace(
            [
                inv("w", 1, reg_write(1)),
                inv("r", 1, reg_read()),
                res("w", 1, reg_write(1), ("ok",)),
                res("r", 1, reg_read(), ("value", None)),
            ]
        )
        # The read overlaps the write and returns the pre-write value:
        # it must commit before the write despite responding after.
        assert is_linearizable(t, adt)

    def test_register_stale_read_rejected(self):
        adt = register_adt()
        t = Trace(
            [
                inv("w", 1, reg_write(1)),
                res("w", 1, reg_write(1), ("ok",)),
                inv("r", 1, reg_read()),
                res("r", 1, reg_read(), ("value", None)),
            ]
        )
        # The read starts after the write completed: None is stale.
        assert not is_linearizable(t, adt)

    def test_queue_example(self):
        adt = queue_adt()
        t = Trace(
            [
                inv("a", 1, enq(1)),
                inv("b", 1, enq(2)),
                res("a", 1, enq(1), ("ok",)),
                res("b", 1, enq(2), ("ok",)),
                inv("a", 1, deq()),
                res("a", 1, deq(), ("value", 2)),
            ]
        )
        # Overlapping enqueues may linearize in either order, so
        # dequeuing 2 first is allowed.
        assert is_linearizable(t, adt)

    def test_queue_wrong_element(self):
        adt = queue_adt()
        t = Trace(
            [
                inv("a", 1, enq(1)),
                res("a", 1, enq(1), ("ok",)),
                inv("b", 1, enq(2)),
                res("b", 1, enq(2), ("ok",)),
                inv("a", 1, deq()),
                res("a", 1, deq(), ("value", 2)),
            ]
        )
        # enq(1) strictly precedes enq(2): dequeuing 2 first is wrong.
        assert not is_linearizable(t, adt)

    def test_repeated_inputs_allowed(self):
        # Two clients propose the same value; duplicates are the norm.
        t = Trace(
            [
                inv("c1", 1, P("v")),
                inv("c2", 1, P("v")),
                res("c1", 1, P("v"), D("v")),
                res("c2", 1, P("v"), D("v")),
            ]
        )
        assert is_linearizable(t, CONS)

    def test_node_limit(self):
        actions = []
        for i in range(6):
            actions.append(inv(f"c{i}", 1, P(f"v{i}")))
        for i in range(6):
            actions.append(res(f"c{i}", 1, P(f"v{i}"), D("v0")))
        t = Trace(actions)
        # a spent node budget is the same typed ``unknown`` as a spent
        # state budget, not an exception
        result = linearize(t, CONS, node_limit=1)
        assert result.unknown and not result.ok
        assert "1-node budget" in result.reason

    def test_master_is_longest_commit_history(self):
        t = Trace(
            [
                inv("c1", 1, P("x")),
                res("c1", 1, P("x"), D("x")),
                inv("c2", 1, P("y")),
                res("c2", 1, P("y"), D("x")),
            ]
        )
        result = linearize(t, CONS)
        assert result.master == (P("x"), P("y"))


class TestLinTraceProperty:
    def test_accepts_linearizable_consensus_trace(self):
        t = Trace([inv("c", 1, P("a")), res("c", 1, P("a"), D("a"))])
        assert lin_trace_property_contains(t, CONS)

    def test_rejects_switch_actions(self):
        from repro.core.actions import swi

        t = Trace([inv("c", 1, P("a")), swi("c", 2, P("a"), "v")])
        assert not lin_trace_property_contains(t, CONS)

    def test_rejects_foreign_payloads(self):
        t = Trace([inv("c", 1, ("alien",))])
        assert not lin_trace_property_contains(t, CONS)
