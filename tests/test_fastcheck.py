"""P-compositional checking agrees with every other decider.

The fast path of :mod:`repro.core.fastcheck` decomposes traces per
partition key (object name for products, map key for the KV store) and
checks projections independently — sound by the locality theorem.
These tests hold the engine to the differential oracle over random
multi-object and KV trace families, exercise the KV-store partition,
keep a *non-local* mutant ADT whose objects secretly share state whole,
search a trace its spec cannot route as one partition, and cover the
budget plumbing of the engine and of the paper's reference search.
"""

import random

import pytest

from helpers import random_wellformed_trace
from oracle import FAMILIES, assert_deciders_agree, told
from repro.core.actions import Invocation, Response, Switch
from repro.core.adt import (
    ADT,
    PartitionSpec,
    counter_adt,
    product_adt,
    reg_read,
    reg_write,
    register_adt,
    tag_object,
)
from repro.core.fastcheck import check_linearizable
from repro.core.linearizability import linearize
from repro.core.traces import Trace
from repro.monitor.streaming import MonitorReport, decide
from repro.smr.universal import (
    kv_cell_adt,
    kv_delete,
    kv_get,
    kv_put,
    kv_store_adt,
)


def random_trace(rng, adt, inputs, n_steps=10):
    """A random well-formed trace, honest 60% of the time: dishonest
    responses use outputs from a shuffled history, which usually breaks
    linearizability."""
    return random_wellformed_trace(
        rng, adt, inputs, n_steps=n_steps, honest_bias=0.6
    )


class TestProductAgreement:
    def test_random_three_object_traces_agree(self):
        adt, inputs, _ = FAMILIES["product"]
        rng = random.Random(42)
        verdicts = [
            assert_deciders_agree(random_trace(rng, adt, inputs), adt)
            for _ in range(200)
        ]
        # the family must contain genuine negatives, or the agreement
        # above proves nothing
        assert verdicts.count("violation") > 10

    def test_parts_reported(self):
        adt = product_adt({"reg": register_adt(), "cnt": counter_adt()})
        from repro.core.adt import inc

        trace = Trace(
            [
                Invocation("c1", 1, tag_object("reg", reg_write(5))),
                Response(
                    "c1", 1, tag_object("reg", reg_write(5)), ("reg", ("ok",))
                ),
                Invocation("c2", 1, tag_object("cnt", inc())),
                Response(
                    "c2", 1, tag_object("cnt", inc()), ("cnt", ("count", 0))
                ),
            ]
        )
        decided = decide(trace, adt)
        assert decided.report().ok
        assert dict(decided.parts()) == {"reg": 2, "cnt": 2}


class TestKVPartition:
    def test_random_kv_traces_agree(self):
        adt = kv_store_adt()
        inputs = [
            kv_put("a", 1),
            kv_put("a", 2),
            kv_get("a"),
            kv_delete("a"),
            kv_put("b", 7),
            kv_get("b"),
        ]
        rng = random.Random(9)
        verdicts = [
            assert_deciders_agree(
                random_trace(rng, adt, inputs, n_steps=8), adt
            )
            for _ in range(200)
        ]
        assert verdicts.count("violation") > 10

    def test_cell_component_matches_store_outputs(self):
        cell = kv_cell_adt("k")
        state = cell.initial_state
        state, out = cell.transition(state, kv_put("k", 5))
        assert out == ("value", None)
        state, out = cell.transition(state, kv_get("k"))
        assert out == ("value", 5)
        state, out = cell.transition(state, kv_delete("k"))
        assert out == ("value", 5)
        _, out = cell.transition(state, kv_get("k"))
        assert out == ("value", None)

    def test_cross_key_pending_pair_is_ill_formed_globally(self):
        # One client with two pending invocations on different keys:
        # every per-key projection is well-formed, the global trace is
        # not — the engine must reject it like the monolithic checker.
        adt = kv_store_adt()
        trace = Trace(
            [
                Invocation("c1", 1, kv_put("a", 1)),
                Invocation("c1", 1, kv_put("b", 2)),
            ]
        )
        mono = linearize(trace, adt)
        report = check_linearizable(trace, adt)
        assert not mono.ok
        assert not report.ok
        assert "well-formed" in report.reason


def linked_registers_adt():
    """A *non-local* mutant: two named registers where writing either
    one writes both.  It reuses the product alphabet (inputs tagged
    "x" / "y") but outputs depend on the other object's history, so
    per-key decomposition would be unsound here — the engine must not
    take the fast path for it.
    """
    inner = register_adt()

    def is_input(payload):
        return (
            isinstance(payload, tuple)
            and len(payload) == 2
            and payload[0] in ("x", "y")
            and inner.is_input(payload[1])
        )

    def is_output(payload):
        return (
            isinstance(payload, tuple)
            and len(payload) == 2
            and payload[0] in ("x", "y")
            and inner.is_output(payload[1])
        )

    def transition(state, input):
        name, op = input
        if op[0] == "write":
            # the non-local part: one write hits both registers
            return (op[1], op[1]), (name, ("ok",))
        value = state[0] if name == "x" else state[1]
        return state, (name, ("value", value))

    return ADT(
        "linked_registers", (None, None), transition, is_input, is_output
    )


class TestNonLocalMutantFallback:
    def trace_write_x_read_y(self):
        wx = ("x", reg_write(1))
        ry = ("y", reg_read())
        return Trace(
            [
                Invocation("c1", 1, wx),
                Response("c1", 1, wx, ("x", ("ok",))),
                Invocation("c2", 1, ry),
                Response("c2", 1, ry, ("y", ("value", 1))),
            ]
        )

    def test_mutant_without_spec_stays_monolithic(self):
        # no spec, no split: the whole object is one partition of the
        # engine (key None), never projected per name
        adt = linked_registers_adt()
        trace = self.trace_write_x_read_y()
        decided = decide(trace, adt)
        assert decided.parts() == ((None, len(trace)),)
        report = decided.report()
        # Linearizable for the linked semantics: the write to x set y.
        assert report.verdict == "ok"

    def test_naive_partition_of_mutant_would_flip_the_verdict(self):
        # Attach the per-name partition the alphabet *suggests* to the
        # linked ADT: the projections disagree with the monolithic
        # verdict, demonstrating why partition specs are a semantic
        # claim about the ADT and not derivable from payload shapes.
        adt = linked_registers_adt()
        naive = ADT(
            "linked_registers_naive",
            adt.initial_state,
            adt.transition,
            adt.is_input,
            adt.is_output,
            partition=PartitionSpec(
                key_of=lambda payload: payload[0],
                component=lambda key: register_adt(),
                project_input=lambda key, payload: payload[1],
                project_output=lambda key, payload: payload[1],
            ),
        )
        trace = self.trace_write_x_read_y()
        assert linearize(trace, adt).ok
        decided = decide(trace, naive)
        assert {key for key, _ in decided.parts()} == {"x", "y"}
        # the projection of y sees read(1) from nowhere
        assert not decided.report().ok


class TestRepeatedInputs:
    def test_a_queue_history_the_definition_accepts_is_a_violation(self):
        """Found by the differential oracle (a tier-1 flake until it was
        pinned here).  c0's first deq read 1, so enq(1) took effect
        before it, and enq(2) before that (c2 is sequential): the queue
        held [2, 1] and a deq reads 2 first.  Only c1's deq is left to
        have read it, and c1 answers ``empty``.  The paper's definition
        matches responses to inputs, not to operations, cannot tell the
        three deqs apart, and accepts; an object without a partition
        spec was decided by it until this history."""
        from repro.core.adt import EMPTY, deq, enq, queue_adt
        from repro.core.classical import linearize_classical

        def inv(client, payload):
            return Invocation(client, 1, payload)

        def res(client, payload, output):
            return Response(client, 1, payload, output)

        trace = Trace(
            [
                inv("c1", deq()),
                inv("c0", deq()),
                inv("c2", enq(2)),
                res("c2", enq(2), ("ok",)),
                inv("c2", enq(1)),
                res("c0", deq(), ("value", 1)),
                inv("c0", deq()),
                res("c1", deq(), EMPTY),
            ]
        )
        assert linearize(trace, queue_adt()).ok
        assert not linearize_classical(trace, queue_adt()).ok
        decided = decide(trace, queue_adt())
        assert decided.report().verdict == "violation"
        assert decided.parts() == ((None, 6),)

    def test_an_unroutable_event_buys_no_coarser_verdict(self):
        """The history above as the queue ``"q"`` of a product that also
        takes a global no-op its spec cannot route, invoked first.  The
        engine searches the whole history as one partition and says
        what Herlihy-Wing says; the paper's definition, which decided
        every such history once, still accepts it."""
        from repro.core.adt import EMPTY, deq, enq, queue_adt
        from repro.core.classical import linearize_classical

        sync = ("sync",)
        product = product_adt({"q": queue_adt()})

        def transition(state, payload):
            if payload == sync:
                return state, ("ok",)
            return product.transition(state, payload)

        adt = ADT(
            "queue_and_sync",
            product.initial_state,
            transition,
            lambda payload: payload == sync or product.is_input(payload),
            lambda payload: payload == ("ok",) or product.is_output(payload),
            partition=product.partition,
        )
        with pytest.raises(ValueError):
            adt.partition.route(sync)

        def inv(client, payload):
            return Invocation(client, 1, ("q", payload))

        def res(client, payload, output):
            return Response(client, 1, ("q", payload), ("q", output))

        trace = Trace(
            [
                Invocation("s", 1, sync),
                Response("s", 1, sync, ("ok",)),
                inv("c1", deq()),
                inv("c0", deq()),
                inv("c2", enq(2)),
                res("c2", enq(2), ("ok",)),
                inv("c2", enq(1)),
                res("c0", deq(), ("value", 1)),
                inv("c0", deq()),
                res("c1", deq(), EMPTY),
            ]
        )
        assert linearize(trace, adt).ok
        assert not linearize_classical(trace, adt).ok
        decided = decide(trace, adt)
        assert decided.report().verdict == "violation"
        assert decided.parts() == ((None, 8),)
        assert told(trace, adt).report().verdict == "violation"
        assert assert_deciders_agree(trace, adt) == "violation"


class TestPartitionTrace:
    def test_switch_actions_are_unpartitionable(self):
        trace = Trace(
            [
                Invocation("c1", 1, kv_put("a", 1)),
                Switch("c1", 2, kv_put("a", 1), "v"),
            ]
        )
        # A switch is no action of the phase-1 interface: the engine
        # rejects it where it stands, as the monolithic checker rejects
        # the whole trace as ill-formed.
        report = check_linearizable(trace, kv_store_adt())
        assert not report.ok and not report.unknown
        assert report.reason == linearize(trace, kv_store_adt()).reason
        assert report.reason == "trace is not well-formed"

    def test_unexpected_payload_shapes_fall_back(self):
        spec = kv_store_adt().partition
        with pytest.raises(ValueError):
            spec.route(("bogus",))
        # the store rejects the payload before anyone routes it...
        trace = Trace([Invocation("c1", 1, ("bogus",))])
        report = check_linearizable(trace, kv_store_adt())
        assert report.reason == "invalid ADT input at index 0"
        assert report.reason == linearize(trace, kv_store_adt()).reason
        # ...and an ADT that accepts what its spec cannot route is
        # searched whole, as one partition
        lax = ADT(
            "lax_kv",
            (),
            lambda state, payload: (state, ("value", None)),
            lambda payload: True,
            lambda payload: True,
            partition=spec,
        )
        trace = Trace(
            [
                Invocation("c1", 1, kv_get("a")),
                Response("c1", 1, kv_get("a"), ("value", None)),
                Invocation("c1", 1, ("bogus",)),
                Response("c1", 1, ("bogus",), ("value", None)),
            ]
        )
        decided = decide(trace, lax)
        assert decided.report().ok and decided.parts() == ((None, 4),)

    def test_projection_preserves_per_key_order(self):
        trace = Trace(
            [
                Invocation("c1", 1, kv_put("a", 1)),
                Invocation("c2", 1, kv_put("b", 2)),
                Response("c1", 1, kv_put("a", 1), ("value", None)),
                Response("c2", 1, kv_put("b", 2), ("value", None)),
            ]
        )
        decided = decide(trace, kv_store_adt())
        assert decided.report().ok
        assert decided.parts() == (("a", 2), ("b", 2))
        # order within a key is kept: swap a's two events and the
        # response precedes its invocation
        actions = list(trace.actions)
        actions[0], actions[2] = actions[2], actions[0]
        assert not check_linearizable(Trace(actions), kv_store_adt()).ok


class TestBudgets:
    def concurrent_corrupt_trace(self, n_clients=8):
        # All clients invoke, then all respond; last read is impossible,
        # so proving non-linearizability must exhaust the window.
        adt = register_adt()
        actions = [
            Invocation(f"c{i}", 1, reg_write(i)) for i in range(n_clients)
        ]
        actions.append(Invocation("r", 1, reg_read()))
        actions += [
            Response(f"c{i}", 1, reg_write(i), ("ok",))
            for i in range(n_clients)
        ]
        actions.append(Response("r", 1, reg_read(), ("value", "never")))
        return adt, Trace(actions)

    def test_unlimited_search_settles_it(self):
        adt, trace = self.concurrent_corrupt_trace(n_clients=5)
        verdict = linearize(trace, adt)
        assert not verdict.ok
        assert not verdict.unknown

    def test_unknown_propagates_through_fastcheck(self):
        adt, trace = self.concurrent_corrupt_trace()
        report = check_linearizable(trace, adt, state_limit=10)
        assert report.unknown
        assert not report.ok

    @staticmethod
    def bogus_burst(n=8):
        actions = [
            Invocation(f"c{i}", 1, kv_put("a", i)) for i in range(n)
        ]
        actions.append(Invocation("r", 1, kv_get("a")))
        actions += [
            Response(f"c{i}", 1, kv_put("a", i), ("value", "bogus"))
            for i in range(n)
        ]
        actions.append(Response("r", 1, kv_get("a"), ("value", "bogus")))
        return Trace(actions)

    def test_bogus_burst_is_a_violation_naming_the_partition(self):
        """Eight puts all answered with a value nobody wrote: the
        engine, told every recorded response, never creates a
        configuration the history refutes, so the first response
        empties the frontier within a 5-configuration budget."""
        report = check_linearizable(
            self.bogus_burst(), kv_store_adt(), state_limit=5
        )
        assert not report.ok and not report.unknown
        assert report.reason.startswith("partition 'a': ")
        assert not linearize(self.bogus_burst(), kv_store_adt()).ok

    def test_a_spent_budget_is_an_unknown_naming_the_partition(self):
        # answered out of the order the puts took effect: response order
        # misses, and the search it falls back on spends the budget
        trace = Trace(
            [
                Invocation("c1", 1, kv_put("a", 1)),
                Invocation("c2", 1, kv_put("a", 2)),
                Response("c2", 1, kv_put("a", 2), ("value", 1)),
                Response("c1", 1, kv_put("a", 1), ("value", None)),
            ]
        )
        # one step holds the frontier it replaces plus its successor
        report = check_linearizable(trace, kv_store_adt(), state_limit=1)
        assert report.unknown and not report.ok
        assert report.reason.startswith("partition 'a': ")
        assert "budget" in report.reason
        assert check_linearizable(trace, kv_store_adt(), state_limit=2).ok

    def test_a_certified_history_spends_no_budget(self):
        # response order replays this one; searched, the put's response
        # leaves a frontier of several configurations
        trace = Trace(
            [
                Invocation("c1", 1, kv_put("a", 1)),
                Invocation("c2", 1, kv_get("a")),
                Invocation("c3", 1, kv_get("a")),
                Response("c1", 1, kv_put("a", 1), ("value", None)),
                Response("c2", 1, kv_get("a"), ("value", 1)),
                Response("c3", 1, kv_get("a"), ("value", 1)),
            ]
        )
        assert told(trace, kv_store_adt(), None, 2).report().unknown
        decided = decide(trace, kv_store_adt(), None, 2)
        assert decided.report().verdict == "ok"
        assert decided.parts() == (("a", 6),)
        # a budget no step fits in, fold or search, decides nothing
        assert check_linearizable(trace, kv_store_adt(), state_limit=1).unknown

    @staticmethod
    def sequential_single_key_history(n_ops):
        actions, previous = [], None
        for i in range(n_ops):
            actions.append(Invocation("c", 1, kv_put("k", i)))
            actions.append(
                Response("c", 1, kv_put("k", i), ("value", previous))
            )
            previous = i
        return Trace(actions)

    def test_history_deeper_than_the_stack_is_a_typed_unknown(self):
        """The reference DFS recurses once per linearized op, so a
        1200-op sequential single-key history outruns the interpreter's
        stack: that is an ``unknown`` with a reason, never a
        ``RecursionError`` (600 ops still decide)."""
        adt = kv_store_adt()
        assert linearize(self.sequential_single_key_history(600), adt).ok
        verdict = linearize(self.sequential_single_key_history(1200), adt)
        assert verdict.unknown and not verdict.ok
        assert "recursion limit" in verdict.reason

    def test_the_engine_decides_by_window_not_by_depth(self):
        """The same shape through ``check_linearizable``: the frontier
        folds the decided prefix into one state, so 1,200 and 12,000
        sequential ops on one key decide ``ok`` under the ledger's
        budget, holding two configurations at most."""
        adt = kv_store_adt()
        for n_ops in (1_200, 12_000):
            decided = decide(
                self.sequential_single_key_history(n_ops), adt, None, 10_000
            )
            assert decided.report().ok
            assert decided.parts() == (("k", 2 * n_ops),)
        assert check_linearizable(
            self.sequential_single_key_history(12_000), adt, state_limit=2
        ).ok


class TestPrepass:
    """What the reference search rejects before it searches."""

    def test_invalid_invocation_input_is_clean_false(self):
        adt = register_adt()
        trace = Trace([Invocation("c1", 1, ("not-a-register-op",))])
        verdict = linearize(trace, adt)
        assert not verdict.ok
        assert "invalid ADT input" in verdict.reason


class TestReportShape:
    def test_bool_and_properties(self):
        """``check_linearizable`` answers the engine's own report, which
        has three verdicts and so no truth value."""
        adt = kv_store_adt()
        trace = Trace(
            [
                Invocation("c1", 1, kv_put("a", 1)),
                Invocation("c2", 1, kv_put("a", 2)),
                Response("c2", 1, kv_put("a", 2), ("value", 1)),
                Response("c1", 1, kv_put("a", 1), ("value", None)),
            ]
        )
        for budget in ((None, None), (None, 1), (1, None), (100, 100)):
            report = check_linearizable(trace, adt, *budget)
            assert isinstance(report, MonitorReport)
            assert report == decide(trace, adt, *budget).report()
        assert check_linearizable(trace, adt).ok
        assert check_linearizable(trace, adt, None, 1).unknown
        with pytest.raises(TypeError):
            bool(report)
